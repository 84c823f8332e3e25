from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ambiskew.dsl import parse_spec
from ambiskew.intlattice import column_kernel
from ambiskew.localization import localized_simple
from ambiskew.multiplicative import (
    MultExpr,
    decompose,
    factor_rational,
    relation_kernel,
    torsion_modulus,
)
from ambiskew.scalars import Scalar, ScalarContext

_CTX = ScalarContext(cyclotomic_order=6, parameters=("q", "r"))


def torsion_generator(ctx: ScalarContext) -> Scalar:
    """The generator g of the torsion units that ``MultExpr`` names."""
    if ctx.characteristic:
        p = ctx.characteristic
        return ctx.int_(next(g for g in range(1, p) if len(
            {pow(g, e, p) for e in range(p - 1)}) == p - 1))
    n = ctx.cyclotomic_order
    if n % 2 == 0:
        return ctx.zeta()
    # -zeta^((n+1)/2) squares to zeta and has order 2n
    return -(ctx.zeta((n + 1) // 2))


def recompose(ctx: ScalarContext, e: MultExpr) -> Scalar:
    """The scalar that a decomposition names: the round-trip oracle."""
    s = torsion_generator(ctx) ** e.torsion
    for p, k in e.primes:
        s = s * ctx.int_(p) ** k
    for name, k in zip(ctx.parameters, e.params):
        s = s * ctx.param(name) ** k
    return s


def test_factor_rational():
    assert factor_rational(Fraction(12, 5)) == {2: 2, 3: 1, 5: -1}
    assert factor_rational(Fraction(1)) == {}
    assert factor_rational(Fraction(97)) == {97: 1}


def test_torsion_generator_has_full_order():
    for ctx in (ScalarContext(cyclotomic_order=6), ScalarContext(cyclotomic_order=5),
                ScalarContext(characteristic=7)):
        m = torsion_modulus(ctx)
        g = torsion_generator(ctx)
        assert g ** m == ctx.one
        assert all(g ** d != ctx.one for d in range(1, m))


def test_decompose_fixed_case():
    s = _CTX.fraction(Fraction(-12, 5)) * _CTX.zeta(2) * _CTX.param("q") ** 3
    d = decompose(s)
    assert d is not None
    assert d.primes == ((2, 2), (3, 1), (5, -1))
    assert d.params == (3, 0)
    # minus one is zeta_6^3, so the torsion exponent is 2 + 3 mod 6
    assert d.torsion == 5
    assert recompose(_CTX, d) == s


def test_decompose_roundtrip_prime_field():
    for p in (2, 7, 13):
        ctx = ScalarContext(characteristic=p)
        for c in range(1, p):
            s = ctx.int_(c)
            assert recompose(ctx, decompose(s)) == s


def test_decompose_rejects_sums():
    assert decompose(_CTX.one + _CTX.param("q")) is None
    assert decompose(_CTX.one + _CTX.zeta()) is None


@st.composite
def _monomial_scalars(draw):
    s = _CTX.fraction(Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 30))))
    if draw(st.booleans()):
        s = -s
    s = s * _CTX.zeta(draw(st.integers(0, 5)))
    s = s * _CTX.param("q") ** draw(st.integers(-2, 2))
    s = s * _CTX.param("r") ** draw(st.integers(-2, 2))
    return s


@given(_monomial_scalars())
def test_decompose_roundtrip(s):
    d = decompose(s)
    assert d is not None
    assert recompose(_CTX, d) == s


def _in_span(basis: list[list[int]], x: list[int]) -> bool:
    # x in Z-span(basis) iff some kernel vector of [basis | -x] has last
    # coordinate exactly +-1
    n = len(x)
    cols = len(basis) + 1
    rows = [[b[i] for b in basis] + [-x[i]] for i in range(n)]
    for v in column_kernel(rows, cols):
        if abs(v[-1]) == 1:
            return True
    return False


@given(st.lists(_monomial_scalars(), min_size=1, max_size=3))
def test_relation_kernel_sound_and_complete_on_window(scalars):
    basis = relation_kernel([scalars])
    assert basis is not None
    for v in basis:
        prod = _CTX.one
        for s, e in zip(scalars, v):
            prod = prod * s**e
        assert prod == _CTX.one
    # brute-force window: every true relation lies in the returned lattice
    def _walk(i, vec):
        if i == len(scalars):
            yield list(vec)
            return
        for e in (-2, -1, 0, 1, 2):
            vec.append(e)
            yield from _walk(i + 1, vec)
            vec.pop()

    for cand in _walk(0, []):
        prod = _CTX.one
        for s, e in zip(scalars, cand):
            prod = prod * s**e
        if prod == _CTX.one and any(cand):
            assert _in_span(basis, cand), (scalars, cand)


def test_relation_kernel_torus_oracles():
    # a 2x2 q-table built from zeta_6: kernel is 6Z x 6Z
    ctx = ScalarContext(cyclotomic_order=6)
    z = ctx.zeta()
    q = [[ctx.one, z], [z.inv(), ctx.one]]
    conds = [[q[j][i] for j in range(2)] for i in range(2)]
    basis = relation_kernel(conds)
    assert basis is not None and len(basis) == 2
    for v in basis:
        assert all(c % 6 == 0 for c in v)
    assert _in_span(basis, [6, 0]) and _in_span(basis, [0, 6])


def test_relation_kernel_trivial_for_multiplicatively_free_table():
    ctx = ScalarContext()
    e = [[1, 1, 2, 3],
         [1, 1, 5, 7],
         [Fraction(1, 2), Fraction(1, 5), 1, 11],
         [Fraction(1, 3), Fraction(1, 7), Fraction(1, 11), 1]]
    q = [[ctx.fraction(v) for v in row] for row in e]
    conds = [[q[j][i] for j in range(4)] for i in range(4)]
    assert relation_kernel(conds) == []


def test_prime_field_logs_match_a_walk():
    # baby-step giant-step against the whole table of powers of the least
    # primitive root, at every residue
    for p in (2, 3, 5, 7, 13, 101, 10007):
        ctx = ScalarContext(characteristic=p)
        g = torsion_generator(ctx).constant_value()
        walk, x = {}, 1
        for e in range(p - 1):
            walk[x] = e
            x = x * g % p
        assert {c: decompose(ctx.int_(c)).torsion for c in range(1, p)} == walk


@pytest.mark.parametrize("p, j, e", [(1000003, 254277, -707623),
                                     (10**9 + 7, 884237698, -1000000005)])
def test_laurent_special_element_at_a_large_prime(p, j, e):
    # t^e is special because alpha(t^e) = 3^e*t^e = rho^j*t^e: 3^e = 5^j mod p
    text = (f"context(characteristic = {p})\nbase L = laurent(t)\n"
            "auto a on L { t -> 3*t }\nring R = ambiskew(L, a, v = 0, rho = 5)\n")
    verdict = localized_simple(parse_spec(text).rings["R"])
    special = dict(verdict.conditions)["no_special"]
    assert special.fails
    assert special.certificate == {"kind": "special_element", "m": 0, "j": j,
                                   "element": f"t^{e}"}
    assert pow(3, e, p) == pow(5, j, p)
