"""Search bounds are read, never passed.

Each route reads its bound as ``bounds.NAME`` when it runs (see
``bounds.py``), so a test lowers it by setting the module attribute and no
caller can hand a route a different one.  This pins that: no function
under ``src/ambiskew`` has a parameter named after a ``bounds`` constant.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ambiskew
from ambiskew import bounds

BOUND_NAMES = {name.lower() for name in vars(bounds) if name.isupper()}


def _bound_parameters(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + \
                [p for p in (a.vararg, a.kwarg) if p is not None]
            found += [(node.lineno, p.arg) for p in params
                      if p.arg in BOUND_NAMES]
    return sorted(found)


def test_no_function_takes_a_bound_as_a_parameter():
    assert BOUND_NAMES == {"m_max", "n_max"}
    found = {path.name: _bound_parameters(ast.parse(path.read_text()))
             for path in Path(ambiskew.__file__).parent.glob("*.py")}
    assert {name: params for name, params in found.items() if params} == {}
