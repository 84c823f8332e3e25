"""The representation of a Scalar, pinned to its module.

A Scalar is a num/den pair of sparse polynomials.  Only ``scalars.py``
reads those two attributes; every other module asks the Scalar
(``as_monomial``, ``as_fraction``, ``constant_value``, ...), so a change of
representation touches one module.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
