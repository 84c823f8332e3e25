"""The public surface of the package, pinned.

Every module-level function, class and assigned name under
``src/ambiskew`` that does not start with an underscore is public.  A change
that adds, renames or deletes one must edit the pinned table below, so the
size of the package surface shows in review.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import ambiskew

SURFACE = {
    "__init__": [],
    "algebras": [
        "AffineAuto", "BaseAlgebra", "CyclicGroupAlgebra", "DiagonalAuto",
        "EigenFrame", "FieldAlgebra", "LaurentAlgebra", "NO_EIGEN_FRAME",
        "NestedAuto", "PolyAlgebra", "QuadraticAlgebra", "UnitAnswer",
        "scalar_ratio", "solve_splitting_ex",
    ],
    "bounds": ["M_MAX"],
    "dsl": [
        "CHECK_KINDS", "CheckDecl", "DslError", "Expr", "SourceLocation",
        "SpecDocument", "eval_element", "eval_scalar", "parse_expression",
        "parse_scalar_table", "parse_spec",
    ],
    "gwa": ["GwaRing", "gwa_from_ambiskew", "gwa_simple"],
    "intlattice": ["column_kernel", "kernel_with_congruences"],
    "linear": ["gauss_solve"],
    "localization": [
        "SpecialElement", "TorusMatrix", "localized_simple",
        "quantum_torus_simple", "special_element_search",
    ],
    "multiplicative": [
        "MultExpr", "decompose", "factor_rational", "relation_kernel",
        "torsion_modulus",
    ],
    "rings": ["AmbiskewRing", "Conformality", "ExtensionAlgebra"],
    "scalars": [
        "CyclotomicDomain", "PrimeDomain", "RatLike", "Scalar",
        "ScalarContext", "cyclotomic_coeffs", "factor_int",
        "integer_roots_scalar_poly", "is_prime", "least_integer_root",
        "root_of_unity_order",
    ],
    "simplicity": [
        "every_v_m_unit", "ring_alpha_simple", "simple", "simple_iterated",
        "singular", "skew_laurent_simple", "units_for_all_m",
    ],
    "verdict": [
        "Status", "Verdict", "bounded_scan", "conjunction", "fails", "holds",
        "inconclusive",
    ],
}


def _public_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return sorted(n for n in names if not n.startswith("_"))


def test_public_surface_is_pinned():
    found = {path.stem: _public_names(ast.parse(path.read_text()))
             for path in Path(ambiskew.__file__).parent.glob("*.py")}
    assert found == {module: sorted(names)
                     for module, names in SURFACE.items()}


def test_sources_parse_at_the_python_floor():
    # syntax newer than the floor pyproject.toml declares, such as
    # ``except*`` (3.11), fails to parse here
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                             pyproject.read_text()).groups()
    floor = (int(major), int(minor))
    for path in Path(ambiskew.__file__).parent.glob("*.py"):
        ast.parse(path.read_text(), str(path), feature_version=floor)
