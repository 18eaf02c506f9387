"""Non-autonomous evolution of the nonlocal field equation.

The state obeys

    du/dt = -u + g(beta (J * u) + beta h(t, u)),

integrated in mild form: the linear decay is applied exactly through
exp(-delta) while the nonlinear term G(s) = g(beta (J*u)(s) + beta h(s, u(s)))
is integrated by the exponential trapezoidal rule

    u(t+delta) = exp(-delta) u(t) + w1 G(t) + w2 G~(t+delta),

with weights w1 = delta (phi1 - phi2), w2 = delta phi2 evaluated at
-delta, and G~ evaluated at the exponential-Euler predictor
exp(-delta) u + delta phi1 G(t).  The weights sum to 1 - exp(-delta), so
a constant G is integrated exactly and the scheme is second order in
delta.  Pure decay (g = 0) is exact to rounding.

One loop applies this step to a raw (..., n) array, so a single field
and a stack of ensemble members (a pullback ladder rung) take the same
steps; the phi weights do not depend on the state, and the stack is
stepped as one batched array.  The schedule from tau to t is two numbers,
(steps, tail): each step takes dt but the last, which takes tail when it
is not 0.0.  The time after step i is tau + i dt, and the last step lands
on t exactly.  A backwards span, a NaN one (a NaN tau or t), or one of
more than MAX_STEPS steps of dt, raises TimeOrderError before any step
is taken.

An observer of that loop sees the start array and then each array a
step returns, without a copy: every step returns a fresh array and no
later step writes to it, so an observer only reads what it is handed
and copies what it keeps.  evolve copies each row for its observer.

A pullback ladder, whose outputs carry no time grid, runs the same loop
with one G evaluation per step, the PEC mode of the same predictor and
corrector (Lambert 1991, ch. 4).  Each step takes G(t) from the step
before, the G at that step's predictor, together with the slope
(G(t) - G(t - delta')) / delta', and predicts by the exponential AB2
extrapolation

    exp(-delta) u + (w1 + w2) G(t) + (delta - (w1 + w2)) slope,

whose last coefficient is w2 delta (Hochbruck & Ostermann, Acta
Numerica 19, 2010); the corrector is the trapezoid's.  The first step
of a run that starts afresh evaluates G at u and is a trapezoid step.
The scheme stays second order, with an error constant about 0.63 times
the trapezoid's.  simulate steps this way too, as one restart, and so do
the verify checks' trajectory spans.  Their bounds hold on this scheme
as on the trapezoid: the corrector exp(-delta) u + w1 G + w2 G~ is a
convex combination with w1 + w2 = 1 - exp(-delta), and |G| <= sup |g|
wherever G is evaluated, whatever predictor it is evaluated at.  Only
evolve steps the trapezoid: the composition S(t, s) S(s, tau) = S(t, tau)
at a step boundary holds only for it, because a carried run restarted
at s takes a trapezoid step where the unbroken run would not.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, GridMismatchError, TimeOrderError
from .kernel import Kernel, _fft_convolve
from .weighted_space import Grid1D, WeightedField, WeightFunction

# max |d^2/ds^2 tanh(s)| = max |d/ds tanh(s)^2| = 4 / (3 sqrt(3)), at tanh = 1/sqrt(3)
K1_TANH = 4.0 / (3.0 * math.sqrt(3.0))

MAX_STEPS = 10 ** 8

NONLINEARITY_FAMILIES = ("tanh", "zero")
FIELD_FAMILIES = ("zero", "pulsed")


@dataclass(frozen=True)
class Nonlinearity:
    """Saturating response g with its certified constants.

    sup_abs       a  = sup |g|
    lipschitz     l_g, global Lipschitz constant
    curvature_max k1 = max |g''|
    deriv_at_zero k2 = |g'(0)|
    """

    name: str
    sup_abs: float
    lipschitz: float
    curvature_max: float
    deriv_at_zero: float

    def __post_init__(self):
        if self.name not in NONLINEARITY_FAMILIES:
            raise ValueError(f"unknown nonlinearity {self.name!r}")
        # check_axioms compares against these, and no comparison with a NaN fails
        for key in ("sup_abs", "lipschitz", "curvature_max", "deriv_at_zero"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")

    @classmethod
    def tanh(cls) -> "Nonlinearity":
        return cls("tanh", sup_abs=1.0, lipschitz=1.0, curvature_max=K1_TANH, deriv_at_zero=1.0)

    @classmethod
    def zero(cls) -> "Nonlinearity":
        return cls("zero", sup_abs=0.0, lipschitz=0.0, curvature_max=0.0, deriv_at_zero=0.0)

    def __call__(self, s, out=None):
        """g(s); tanh writes into out when given, so callers use the result."""
        if self.name == "tanh":
            return np.tanh(s, out=out)
        return np.zeros_like(np.asarray(s, dtype=float))

    def deriv(self, s):
        """g'(s); compute_h_star bisects beta g'(x) = 1 for the fold."""
        if self.name == "tanh":
            c = np.cosh(s)
            return 1.0 / (c * c)
        return np.zeros_like(np.asarray(s, dtype=float))

    def check_axioms(self, rng: np.random.Generator) -> None:
        """Sampled verification of the certified constants; raises on failure."""
        if abs(float(self(0.0))) > 0.0:
            raise ValueError(f"{self.name}: g(0) must vanish")
        n_samples, span = 512, 6.0
        s = rng.uniform(-span, span, n_samples)
        if np.max(np.abs(self(s))) > self.sup_abs + 1e-12:
            raise ValueError(f"{self.name}: |g| exceeds sup_abs")
        t = rng.uniform(-span, span, n_samples)
        gap = np.abs(self(s) - self(t))
        if np.any(gap > self.lipschitz * np.abs(s - t) + 1e-12):
            raise ValueError(f"{self.name}: Lipschitz constant violated on samples")
        # centered differences against deriv and the curvature cap
        eps = 1e-4
        g1 = (self(s + eps) - self(s - eps)) / (2.0 * eps)
        if np.max(np.abs(g1 - self.deriv(s))) > 1e-6:
            raise ValueError(f"{self.name}: g' disagrees with a centered difference of g")
        if abs(float(self.deriv(0.0))) > self.deriv_at_zero + 1e-12:
            raise ValueError(f"{self.name}: |g'(0)| exceeds deriv_at_zero")
        g2 = (self(s + eps) - 2.0 * self(s) + self(s - eps)) / eps**2
        if np.max(np.abs(g2)) > self.curvature_max + 1e-6:
            raise ValueError(f"{self.name}: |g''| exceeds curvature_max on samples")


@dataclass(frozen=True)
class ExternalField:
    """Time-dependent forcing h(t, s) applied inside the nonlinearity.

    zero     h = 0, with the amplitude held at 0
    pulsed   h(t, s) = amplitude * (1 + sin(omega t))/2 * tanh(s)^2

    The pulsed family has h(t, 0) = 0, sup h = amplitude (approached, not
    attained; amplitude / 2 at omega 0) and s-Lipschitz constant
    amplitude * 4/(3 sqrt(3)); at amplitude 0 these serve the zero family.
    """

    family: str = "zero"
    amplitude: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        if self.family not in FIELD_FAMILIES:
            raise ValueError(f"unknown field family {self.family!r}")
        # a NaN slips past every comparison below and check_axioms, and h is then NaN
        for key in ("amplitude", "omega"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"field {key} must be finite, got {getattr(self, key)}")
        if self.amplitude < 0.0:
            raise ValueError("field amplitude must be nonnegative")
        if self.family == "zero" and self.amplitude != 0.0:
            raise ValueError("zero field must have zero amplitude")

    def __call__(self, t: float, s):
        """h(t, s); a new array for array s, and 0.0 on the zero family."""
        if self.family == "zero":
            return 0.0
        th = np.tanh(s)
        h = self.amplitude * 0.5 * (1.0 + math.sin(self.omega * t)) * th
        h *= th
        return h

    def check_axioms(self, rng: np.random.Generator) -> None:
        """Sampled verification of h(t, 0) = 0, sup and the s-Lipschitz
        constant at a few times; raises on failure."""
        n_times, n_samples, span = 8, 512, 6.0
        s = rng.uniform(-span, span, n_samples)
        r = rng.uniform(-span, span, n_samples)
        zero = np.zeros(1)
        for t in rng.uniform(-50.0, 50.0, n_times):
            if np.any(np.abs(self(t, zero)) > 0.0):
                raise ValueError(f"{self.family}: h(t, 0) must vanish")
            h = self(t, s)
            if np.max(np.abs(h)) > self.sup + 1e-12:
                raise ValueError(f"{self.family}: |h| exceeds sup")
            gap = np.abs(h - self(t, r))
            if np.any(gap > self.lipschitz * np.abs(s - r) + 1e-12):
                raise ValueError(f"{self.family}: s-Lipschitz constant violated on samples")

    @property
    def sup(self) -> float:
        return self.amplitude

    @property
    def lipschitz(self) -> float:
        return self.amplitude * K1_TANH

    def scaled(self, factor: float) -> "ExternalField":
        """Amplitude-scaled copy, used by the semicontinuity sweeps."""
        return ExternalField(self.family, self.amplitude * factor, self.omega)


@dataclass(frozen=True, eq=False)
class ProcessConfig:
    """Everything that defines the evolution process."""

    beta: float
    p: float
    grid: Grid1D
    weight: WeightFunction
    kernel: Kernel
    nonlinearity: Nonlinearity
    field: ExternalField
    dt: float

    def __post_init__(self):
        if not (0.0 < self.beta < math.inf):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (0.0 < self.dt < math.inf):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        if self.kernel.grid != self.grid:
            raise GridMismatchError("kernel was sampled on a different grid")

    def digest(self) -> str:
        """Short stable hash of the semantic content, for report context."""
        text = "|".join([
            f"beta={self.beta!r}", f"p={self.p!r}", f"dt={self.dt!r}",
            f"L={self.grid.half_length!r}", f"n={self.grid.n_points!r}",
            f"weight={self.weight.kind}", f"g={self.nonlinearity.name}",
            # g(0) = 0 for every response family, so this term is a fixed
            # literal; it stays in the hashed text so that config_digest
            # values already written to CSVs keep matching
            "gval=0.0",
            f"h={self.field.family}", f"amp={self.field.amplitude!r}",
            f"omega={self.field.omega!r}",
        ])
        return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class TrajectoryState:
    """Snapshot of the state u at time t, as step_exponential takes it."""

    t: float
    u: WeightedField


# ---------------------------------------------------------------------------
# right-hand side and stepping
# ---------------------------------------------------------------------------

def _nonlinear_term(cfg: ProcessConfig, t: float, u_vals: np.ndarray) -> np.ndarray:
    """G(t) = g(beta (J*u) + beta h(t, u)) on raw samples."""
    arg = cfg.beta * _fft_convolve(cfg.kernel, u_vals)
    # the field returns a fresh array (or 0.0, which turns a -0.0 argument
    # into +0.0), so beta h is formed in place
    h = cfg.field(t, u_vals)
    h *= cfg.beta
    arg += h
    return cfg.nonlinearity(arg, out=arg)


def rhs_f(t: float, u: WeightedField, cfg: ProcessConfig) -> WeightedField:
    """Instantaneous right-hand side -u + G(t)."""
    if u.grid != cfg.grid:
        raise GridMismatchError("field does not live on the configured grid")
    out = -u.values + _nonlinear_term(cfg, t, u.values)
    if not np.all(np.isfinite(out)):
        raise BlowUpError("right-hand side produced non-finite values")
    return u.with_values(out)


def _phi_weights(delta: float) -> tuple[float, float, float]:
    # exp(-delta) and the two quadrature weights; their sum is 1 - exp(-delta)
    em = math.exp(-delta)
    total = -math.expm1(-delta)
    phi1 = total / delta
    w2 = 1.0 - phi1
    w1 = total - w2
    return em, w1, w2


def _step_raw(cfg: ProcessConfig, t: float, u: np.ndarray, delta: float,
              g0: np.ndarray | None = None,
              slope: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One step of size delta from t; returns the new u and G at the predictor.

    Without g0 the step evaluates G(t) at u, so it is the exponential
    trapezoid.  A ladder passes g0, the G its previous step carried, and
    slope, their divided difference over that step; the predictor then
    adds (delta - (w1 + w2)) slope = w2 delta slope, the exponential AB2
    extrapolation, and the step evaluates G once.  Neither input is
    written to, and the returned G aliases nothing else.
    """
    em, w1, w2 = _phi_weights(delta)
    if g0 is None:
        g0 = _nonlinear_term(cfg, t, u)
    out = em * u
    pred = (w1 + w2) * g0
    if slope is not None:
        pred += (delta - (w1 + w2)) * slope
    pred += out
    g1 = _nonlinear_term(cfg, t + delta, pred)
    # em u + w1 g0 + w2 g1, summed left to right through the spent predictor
    np.multiply(g0, w1, out=pred)
    out += pred
    np.multiply(g1, w2, out=pred)
    out += pred
    return out, g1


def step_exponential(state: TrajectoryState, cfg: ProcessConfig,
                     delta: float | None = None) -> TrajectoryState:
    """One exponential-trapezoid step of size delta (default cfg.dt)."""
    delta = cfg.dt if delta is None else float(delta)
    if not (delta > 0.0):
        raise ValueError(f"step size must be positive, got {delta}")
    if state.u.grid != cfg.grid:
        raise GridMismatchError("state does not live on the configured grid")
    u, _ = _step_raw(cfg, state.t, state.u.values, delta)
    _guard_finite(u)
    return TrajectoryState(t=state.t + delta, u=state.u.with_values(u))


def _guard_finite(vals: np.ndarray) -> None:
    # one BLAS pass: a finite sum of squares has only finite terms, and a
    # NaN or an inf entry makes it NaN or inf.  Only when it is not finite
    # (which squares past 1e154 also reach) are the entries read one by
    # one.  vdot, unlike @, flattens a stack and raises no overflow warning
    if not math.isfinite(np.vdot(vals, vals)) and not np.all(np.isfinite(vals)):
        raise BlowUpError("integration produced non-finite values")


def _step_schedule(tau: float, t: float, dt: float) -> tuple[int, float]:
    # (steps, tail) as the module docstring states; steps counts the tail
    span = t - tau
    if math.isnan(span):
        raise TimeOrderError(f"the span from tau={tau} to t={t} is not a number")
    if span < -1e-12:
        raise TimeOrderError(f"cannot evolve backwards: tau={tau}, t={t}")
    if span > MAX_STEPS * dt:
        raise TimeOrderError(f"a span of {span:g} needs {span / dt:.3g} steps of dt "
                             f"{dt:g}, more than {MAX_STEPS:.0e}")
    if span <= 1e-12:
        return 0, 0.0
    steps = int(math.floor(span / dt + 1e-9))
    tail = span - steps * dt
    if tail > 1e-9 * max(1.0, dt):
        return steps + 1, tail
    return steps, 0.0


def _integrate(u: np.ndarray, tau: float, t: float, cfg: ProcessConfig,
               observer=None, carry: list | None = None) -> np.ndarray:
    """Step a raw (..., n) array from tau to t; every row shares the schedule,
    the (steps, tail) of _step_schedule, which bounds every span.

    Without carry every step is the exponential trapezoid, as evolve
    steps.  A ladder, simulate and the verify checks pass carry, a list
    that is empty at a restart or holds [G, slope] as the steps before
    left them: a restart evaluates G at u once and takes a trapezoid
    first step, and every later step evaluates G only at its predictor,
    so N steps from a restart evaluate G N + 1 times.  The list is left
    holding G and its slope at t.  u itself is never written to.

    The observer, when given, is called as observer(time, values) at tau
    with u and after every step with the array that step returned, which
    is fresh and which no later step writes to; the last is the array
    returned.  It is handed over without a copy, so an observer reads the
    values and copies any it keeps past the run.
    """
    steps, tail = _step_schedule(tau, t, cfg.dt)
    now = tau
    if observer is not None:
        observer(now, u)
    if carry is not None and not carry and steps:
        carry[:] = [_nonlinear_term(cfg, tau, u), None]
    for i in range(1, steps + 1):
        delta = tail if i == steps and tail else cfg.dt
        g0, slope = carry or (None, None)
        u, g1 = _step_raw(cfg, now, u, delta, g0, slope)
        _guard_finite(u)
        if carry is not None:
            slope = g1 - g0
            slope /= delta
            carry[:] = [g1, slope]
        now = t if i == steps else tau + i * cfg.dt
        if observer is not None:
            observer(now, u)
    return u


def evolve(u_tau: WeightedField, tau: float, t: float, cfg: ProcessConfig,
           observer=None) -> WeightedField:
    """Integrate from time tau to t; full dt steps plus one shortened tail.

    The observer, when given, is called as observer(time, values_copy)
    at tau and after every accepted step; each copy is its own, so it
    may keep or write to it, and writing to the returned field's values
    changes no copy it was given.
    """
    if u_tau.grid != cfg.grid:
        raise GridMismatchError("initial field does not live on the configured grid")
    watch = None if observer is None else lambda s, vals: observer(s, vals.copy())
    return u_tau.with_values(_integrate(u_tau.values.copy(), tau, t, cfg, watch))

