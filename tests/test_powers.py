"""The one square-and-multiply, ``scalars._power``, and what rides on it.

Powers of scalars, elements and automorphisms and the far sums v^(m) all go
through it, so exponents of the size of a large prime cost O(log m)
products.  The documents at p = 10^9 + 7 below would walk about 5*10^8
steps without it; the counting tests pin how many automorphism
applications a decision makes at p = 10007, and how many residue pencils
the period route asks when its ratio has an order near p.
"""

from __future__ import annotations

import hashlib

import pytest

from ambiskew.algebras import (AffineAuto, CyclicGroupAlgebra, DiagonalAuto,
                               FieldAlgebra, PolyAlgebra, QuadraticAlgebra)
from ambiskew.dsl import eval_element, parse_expression, parse_spec
from ambiskew.localization import localized_simple
from ambiskew.scalars import Scalar, ScalarContext, _power
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
    assert units.certificate == {"kind": "nonunit_v_m", "m": HALF,
                                 "value": "0", "detail": {"kind": "zero"}}


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
    assert units.certificate == {"kind": "nonunit_v_m", "m": 5003,
                                 "value": "0", "detail": {"kind": "zero"}}
    assert len(calls) < 100


def test_group_algebra_span_makes_no_more_applications(monkeypatch):
    # (rho*alpha)^2 rescales v by 9, of order (p - 1)/2, and the period
    # route keeps that ratio: no walk over the span 2*(p - 1)/2
    calls = _count_apply(monkeypatch, CyclicGroupAlgebra)
    units = dict(simple(_ring(_KC2, 10007)).conditions)["units"]
    assert units.fails and units.certificate["m"] == 2
    assert len(calls) <= 7


_QUAD = ("context(characteristic = {p}, parameters = [q])\n"
         "base A = quadratic(d = q)\nauto a on A {{ s -> -s }}\n"
         "ring R = ambiskew(A, a, v = s + 2, rho = 3)\n")


@pytest.mark.parametrize("text, p, cls, m", [
    (_KC2, BIG, CyclicGroupAlgebra, 2),
    (_QUAD, 10**6 + 3, QuadraticAlgebra, 333334),
], ids=["cyclic_group", "quadratic"])
def test_a_ratio_of_large_order_asks_one_pencil(monkeypatch, text, p, cls, m):
    # with period L = 2 and the ratio 9 only the residue r = 1 is a pencil,
    # read at X = 9^q by one discrete log per root
    calls = []
    pencil = cls.first_nonunit_in_pencil

    def counting(self, *args):
        calls.append(args)
        return pencil(self, *args)

    monkeypatch.setattr(cls, "first_nonunit_in_pencil", counting)
    units = dict(simple(_ring(text, p)).conditions)["units"]
    assert units.fails and units.certificate["m"] == m
    assert len(calls) <= 1


_FC4_MIXED = ("context(cyclotomic_order = 4, parameters = [mu])\n"
              "base A = cyclic_group(n = 4, epsilon = zeta)\n"
              "auto a on A { s -> zeta*s }\n"
              "ring R = ambiskew(A, a, v = s + mu*s^3, rho = zeta, y = y1, "
              "x = x1)\n")
_QUANTIZED_WEYL = ("context(parameters = [q])\nbase F = field()\n"
                   "auto i on F { }\nring R = ambiskew(F, i, v = 1, rho = q)\n")


@pytest.mark.parametrize("text, expr, pows, muls, digest", [
    # each power of rho^-1 and of the scale of alpha is made once per
    # product or per automorphism: 356 powers and 2,566 products without
    (_FC4_MIXED, "(x1 + y1 - s)^10", 10, 2200,
     "33791610b45fa522f39864310f422de180dee123e5136447855824ca536945c3"),
    # rho^-t is grown by one product per t: 58 powers without
    (_QUANTIZED_WEYL, "(y + x)^8", 0, 270,
     "717e722389e011f47a21d71cfb44858f8a568adb0aaed46232a1ee1a72ca8ae8"),
], ids=["fc4_mixed", "quantized_weyl"])
def test_ring_powers_make_few_scalar_operations(monkeypatch, text, expr,
                                                pows, muls, digest):
    ring = parse_spec(text).rings["R"]
    counts = {"pow": 0, "mul": 0}
    power, times = Scalar.__pow__, Scalar.__mul__

    def counting_pow(self, k):
        counts["pow"] += 1
        return power(self, k)

    def counting_mul(self, other):
        counts["mul"] += 1
        return times(self, other)

    monkeypatch.setattr(Scalar, "__pow__", counting_pow)
    monkeypatch.setattr(Scalar, "__mul__", counting_mul)
    value = eval_element(parse_expression(expr), ring)
    monkeypatch.undo()
    assert counts["pow"] <= pows and counts["mul"] <= muls
    # the text is the one these powers rendered to before any was kept
    assert hashlib.sha256(ring.render(value).encode()).hexdigest() == digest
