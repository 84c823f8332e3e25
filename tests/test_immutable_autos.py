"""Automorphisms are immutable values, pinned by the source.

``DiagonalAuto``, ``AffineAuto`` and ``NestedAuto`` keep the powers they
have made in ``_pows``, and a ring may share one value in two roles (beta
is alpha^-1 when gamma is the identity).  Both are right only while the
fields the powers were made from never change, and nothing at run time
forbids a write: so no module assigns ``scales``, ``a``, ``b``, ``base``,
``lam_y`` or ``lam_x`` except on ``self`` inside an ``__init__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ambiskew

_FIELDS = frozenset(["scales", "a", "b", "base", "lam_y", "lam_x"])
_SETTERS = ("setattr", "__setattr__", "delattr", "__delattr__")


def _field_writes(tree: ast.Module) -> list[int]:
    """Lines that assign or delete one of the fields, other than on
    ``self`` in an ``__init__``, or name one in a setattr-like call."""
    out = []

    def visit(node, in_init: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_init = node.name == "__init__"
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute) and sub.attr in _FIELDS
                        and not (in_init and isinstance(node, ast.Assign)
                                 and isinstance(sub.value, ast.Name)
                                 and sub.value.id == "self")):
                    out.append(node.lineno)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in _SETTERS and any(
                    isinstance(arg, ast.Constant) and arg.value in _FIELDS
                    for arg in node.args):
                out.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_init)

    visit(tree, False)
    return sorted(set(out))


def test_no_module_reassigns_an_automorphism_field():
    found = {path.name: _field_writes(ast.parse(path.read_text()))
             for path in Path(ambiskew.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source", [
    "alpha.scales = (c,)", "auto.a += 1", "f.base, g = x, y",
    "del auto.lam_x", "auto.b: int = 0", "setattr(auto, 'lam_y', s)",
    "object.__setattr__(auto, 'b', s)",
    "def __init__(self, other):\n    other.a = 1",
    "def compose(self, f):\n    self.scales = f.scales",
    "class C:\n    def __init__(self):\n        def later():\n"
    "            self.a = 1",
])
def test_the_write_check_sees_every_form(source):
    assert _field_writes(ast.parse(source)) != []


def test_the_write_check_allows_init_on_self():
    source = "class C:\n    def __init__(self, a, b):\n        self.a, self.b = a, b"
    assert _field_writes(ast.parse(source)) == []
