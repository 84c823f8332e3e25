"""The representation of a Scalar, pinned to its module.

A Scalar is a num/den pair of sparse polynomials.  Only ``scalars.py``
reads those two attributes; every other module asks the Scalar
(``as_monomial``, ``as_fraction``, ``constant_value``, ...), so a change of
representation touches one module.  Only ``scalars.py`` skips the
normalizing constructor, through ``_raw`` or ``object.__new__(Scalar)``:
elsewhere nothing vouches that a pair is already in normal form.

No module writes into them either, ``scalars.py`` included: ``ctx.zero``
and ``ctx.one`` are shared instances, and a sum with zero returns the
other operand itself, so a Scalar must never change after it is made.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ambiskew


def _num_den_reads(tree: ast.Module) -> list[tuple[int, str]]:
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("num", "den"))


def test_only_scalars_reads_num_and_den():
    found = {path.name: _num_den_reads(ast.parse(path.read_text()))
             for path in Path(ambiskew.__file__).parent.glob("*.py")
             if path.name != "scalars.py"}
    assert {name: reads for name, reads in found.items() if reads} == {}


_MUTATORS = ("update", "pop", "clear", "setdefault", "__setitem__",
             "__delitem__", "popitem")


def _num_den_writes(tree: ast.Module) -> list[int]:
    """Lines that assign into, delete from or call a mutating method of an
    ``x.num`` or ``x.den`` dict."""

    def num_den(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in ("num", "den")

    out = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Subscript) and num_den(sub.value):
                    out.append(node.lineno)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS and num_den(node.func.value)):
            out.append(node.lineno)
    return sorted(out)


def test_no_module_writes_into_a_scalar():
    found = {path.name: _num_den_writes(ast.parse(path.read_text()))
             for path in Path(ambiskew.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source", [
    "s.num[e] = c", "x.den[()] += 1", "del s.num[e]", "s.num.pop(e)",
    "a.b.den.update(d)", "s.num.setdefault(e, c)", "s.num.clear()",
    "s.den.__setitem__(e, c)", "s.num[e], t = c, 1",
])
def test_the_write_check_sees_every_form(source):
    assert _num_den_writes(ast.parse(source)) == [1]


def _unnormalized_builds(tree: ast.Module) -> list[int]:
    """Lines that call ``_raw`` (by any path) or ``object.__new__(Scalar)``."""

    def name(node) -> str | None:
        return node.id if isinstance(node, ast.Name) else (
            node.attr if isinstance(node, ast.Attribute) else None)

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (name(node.func) == "_raw"
                       or (name(node.func) == "__new__" and node.args
                           and name(node.args[0]) == "Scalar")))


def test_only_scalars_skips_the_normalizing_constructor():
    found = {path.name: _unnormalized_builds(ast.parse(path.read_text()))
             for path in Path(ambiskew.__file__).parent.glob("*.py")
             if path.name != "scalars.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source", [
    "_raw(ctx, num, den)", "scalars._raw(ctx, {}, ctx._pone)",
    "ambiskew.scalars._raw(c, n, d)", "object.__new__(Scalar)",
    "object.__new__(scalars.Scalar)", "s = f(_raw(ctx, n, d))",
])
def test_the_constructor_check_sees_every_form(source):
    assert _unnormalized_builds(ast.parse(source)) == [1]


def test_the_constructor_check_passes_normalizing_builds():
    assert _unnormalized_builds(ast.parse(
        "Scalar(ctx, n, d)\nobject.__new__(Other)\nraw(ctx, n, d)")) == []
