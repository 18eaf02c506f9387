"""The exported surface: every name in nlfield.__all__ has a caller."""

import ast
import re
from pathlib import Path

import nlfield as nf

ROOT = Path(__file__).resolve().parent.parent


class _References(ast.NodeVisitor):
    """Identifiers read as a Name or an Attribute, outside their own def."""

    def __init__(self):
        self.found = set()
        self._enclosing = []

    def _scope(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _record(self, name):
        if name not in self._enclosing:
            self.found.add(name)

    def visit_Name(self, node):
        self._record(node.id)

    def visit_Attribute(self, node):
        self._record(node.attr)
        self.generic_visit(node)


def _caller_sources():
    package = ROOT / "src" / "nlfield"
    yield from (p.read_text() for p in sorted(package.glob("*.py"))
                if p.name != "__init__.py")
    yield from (p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    yield (ROOT / "tests" / "test_acceptance.py").read_text()
    readme = (ROOT / "README.md").read_text()
    yield from re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)


def test_every_exported_name_has_a_caller():
    refs = _References()
    for text in _caller_sources():
        refs.visit(ast.parse(text))
    assert sorted(set(nf.__all__) - refs.found) == []
