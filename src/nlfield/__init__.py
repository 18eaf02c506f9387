"""Numerical laboratory for a nonlocal non-autonomous evolution equation
in weighted L^p spaces on the line.

The state u(t) solves du/dt = -u + g(beta (J*u) + beta h(t,u)) with a
compactly supported even interaction kernel J, a saturating response g,
and a small time-dependent external field h.  The package provides the
weighted-norm machinery, FFT convolution against the kernel, a mild-form
exponential integrator, root structure of the constant states and the
bistability threshold, pullback attractor approximation, and verdicts
for the explicit constants the theory provides.
"""

__version__ = "0.1.0"

from .errors import (
    NlfieldError, InvalidFieldError, GridMismatchError, GridTooCoarseError,
    TimeOrderError, BlowUpError, NotBistableError, EmptySetError,
    ConfigError,
)
from .weighted_space import (
    WeightFunction, Grid1D, WeightedField, weighted_norm, tail_mass,
    radius_for_tail, finite_difference,
)
from .kernel import Kernel, make_bump_kernel, convolve_direct, convolve_fast
from .dynamics import (
    Nonlinearity, ExternalField, ProcessConfig, TrajectoryState,
    rhs_f, step_exponential, evolve, K1_TANH,
)
from .bifurcation import RootReport, count_roots, compute_h_star, tanh_h_star
from .attractor import (
    AttractorSample, SemicontinuityCurve, absorbing_entry_time,
    sample_absorbing_ball, approximate_pullback_attractor,
    hausdorff_semidist, upper_semicontinuity_sweep,
)
from .bounds import (
    BoundReport, CHECK_NAMES, lipschitz_constant_f, continuity_envelope,
    c1_regularity_bound, verify, battery,
)

__all__ = [
    "__version__",
    "NlfieldError", "InvalidFieldError", "GridMismatchError",
    "GridTooCoarseError", "TimeOrderError", "BlowUpError",
    "NotBistableError", "EmptySetError", "ConfigError",
    "WeightFunction", "Grid1D", "WeightedField", "weighted_norm",
    "tail_mass", "radius_for_tail", "finite_difference",
    "Kernel", "make_bump_kernel", "convolve_direct", "convolve_fast",
    "Nonlinearity", "ExternalField", "ProcessConfig", "TrajectoryState",
    "rhs_f", "step_exponential", "evolve", "K1_TANH",
    "RootReport", "count_roots", "compute_h_star", "tanh_h_star",
    "AttractorSample", "SemicontinuityCurve", "absorbing_entry_time",
    "sample_absorbing_ball", "approximate_pullback_attractor",
    "hausdorff_semidist", "upper_semicontinuity_sweep",
    "BoundReport", "CHECK_NAMES", "lipschitz_constant_f",
    "continuity_envelope", "c1_regularity_bound", "verify", "battery",
]
