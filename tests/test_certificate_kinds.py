"""The certificate vocabulary of the package, pinned.

Every ``"kind": "<name>"`` literal under ``src/ambiskew`` names one kind of
certificate.  A change that adds, merges or deletes kinds must edit the
pinned list below, so the size of the vocabulary shows in review.
"""

from __future__ import annotations

import re
from pathlib import Path

import ambiskew

KINDS = {
    "bounded_scan", "character_witness",
    "character_zero", "comaximal_witness",
    "common_factor_degree", "generalized_splitting", "inner_power",
    "multiple_monomials",
    "nilpotent_u", "no_polynomial_splitting", "nonconstant_in_domain",
    "nondiagonal_automorphism", "nonunit_v_m", "not_gamma_fixed",
    "not_normalizing", "not_simple", "periodic_units",
    "positive_degree", "radical_witness", "resonant_monomial", "ring_simple",
    "shift_coprime", "singular", "singular_by_projection",
    "special_element", "splitting_element", "stable_ideal",
    "torus_relation", "trivial_kernel", "unit_u", "zero", "zero_divisor",
}


def test_certificate_kinds_are_pinned():
    literal = re.compile(r'"kind": "([a-z0-9_]+)"')
    found = set()
    for path in Path(ambiskew.__file__).parent.glob("*.py"):
        found |= set(literal.findall(path.read_text()))
    assert sorted(found) == sorted(KINDS)
    assert len(KINDS) == 32
