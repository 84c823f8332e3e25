"""The one square-and-multiply, ``scalars._power``, and what rides on it.

Powers of scalars, elements and automorphisms and the far sums v^(m) all go
through it, so exponents of the size of a large prime cost O(log m)
products.  The documents at p = 10^9 + 7 below would walk about 5*10^8
steps without it; the counting tests pin how many automorphism
applications a decision makes at p = 10007.
"""

from __future__ import annotations

from ambiskew.algebras import (AffineAuto, CyclicGroupAlgebra, DiagonalAuto,
                               FieldAlgebra, PolyAlgebra)
from ambiskew.dsl import parse_spec
from ambiskew.localization import localized_simple
from ambiskew.scalars import ScalarContext, _power
from ambiskew.simplicity import simple

BIG = 10**9 + 7
# 3 has order (p - 1)/2 = 500000003 modulo BIG
HALF = (BIG - 1) // 2

_FIELD = ("context(characteristic = {p})\nbase F = field()\nauto i on F {{ }}\n"
          "ring R = ambiskew(F, i, v = {v}, rho = 3)\n")
_KC2 = ("context(characteristic = {p})\n"
        "base A = cyclic_group(n = 2, epsilon = -1)\nauto a on A {{ s -> -s }}\n"
        "ring R = ambiskew(A, a, v = 1 + 2*s, rho = 3)\n")


def _ring(text: str, p: int, **kw):
    return parse_spec(text.format(p=p, **kw)).rings["R"]


def test_power_starts_from_x_and_halves_the_exponent():
    products = []

    def concat(a, b):
        products.append((a, b))
        return a + b

    for k in (1, 2, 3, 10, 1000):
        products.clear()
        assert _power(concat, "ab", k) == "ab" * k
        assert len(products) <= 2 * k.bit_length()
    assert _power(concat, "ab", 1) == "ab"


def test_auto_power_reduces_modulo_the_order():
    k = 10**9 + 11
    ctx = ScalarContext(characteristic=BIG)
    poly = PolyAlgebra(ctx)
    scale = AffineAuto(ctx.int_(3), ctx.zero)
    order = poly.auto_order(scale)
    assert order == HALF
    assert poly.auto_equal(poly.auto_power(scale, k),
                           poly.auto_power(scale, k % order))
    assert not poly.auto_is_identity(poly.auto_power(scale, k))
    zctx = ScalarContext(cyclotomic_order=5)
    cyc = CyclicGroupAlgebra(zctx, 5, zctx.zeta())
    rotate = DiagonalAuto((zctx.zeta(2),))
    order = cyc.auto_order(rotate)
    assert order == 5
    assert cyc.auto_equal(cyc.auto_power(rotate, k),
                          cyc.auto_power(rotate, k % order))
    assert cyc.auto_equal(cyc.auto_power(rotate, -k),
                          cyc.auto_power(rotate, -k % order))


def test_weyl_units_fail_at_the_order_of_rho_for_a_large_prime():
    verdict = simple(_ring(_FIELD, BIG, v=1))
    units = dict(verdict.conditions)["units"]
    assert units.fails
    assert units.certificate == {"kind": "vanishing_v_m", "m": HALF,
                                 "ratio": "3"}


def test_quantum_plane_special_element_at_a_large_prime():
    verdict = localized_simple(_ring(_FIELD, BIG, v=0))
    special = dict(verdict.conditions)["no_special"]
    assert special.fails
    assert (special.certificate["m"], special.certificate["j"]) == (HALF, HALF)


def _count_apply(monkeypatch, cls) -> list:
    calls = []
    apply = cls.apply

    def counting(self, auto, a):
        calls.append(auto)
        return apply(self, auto, a)

    monkeypatch.setattr(cls, "apply", counting)
    return calls


def test_weyl_orbit_sum_is_not_walked(monkeypatch):
    # the sum v^(5003) that vanishes is reached by squaring, and replayed
    # from the value already kept; a walk makes one application per index
    calls = _count_apply(monkeypatch, FieldAlgebra)
    units = dict(simple(_ring(_FIELD, 10007, v=1)).conditions)["units"]
    assert units.certificate == {"kind": "vanishing_v_m", "m": 5003,
                                 "ratio": "3"}
    assert len(calls) < 100


def test_group_algebra_span_makes_no_more_applications(monkeypatch):
    # the span walk of K[C_2] stays open; squaring must not add to it
    calls = _count_apply(monkeypatch, CyclicGroupAlgebra)
    units = dict(simple(_ring(_KC2, 10007)).conditions)["units"]
    assert units.fails and units.certificate["m"] == 2
    assert len(calls) <= 20018
