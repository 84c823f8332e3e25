"""Every algebra, the rings built over them included, speaks one protocol."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from ambiskew.algebras import (
    AffineAuto,
    BaseAlgebra,
    DiagonalAuto,
    FieldAlgebra,
    NestedAuto,
    PolyAlgebra,
    UnitAnswer,
)
from ambiskew.dsl import eval_element, parse_expression
from ambiskew.gwa import gwa_from_ambiskew
from ambiskew.scalars import ScalarContext
from ambiskew.verdict import Status

from _helpers import (
    fc4_mixed,
    key_pool,
    laurent_scale,
    quadratic_conjugation,
    random_elem,
    random_scalar,
)


def _field():
    ctx = ScalarContext(parameters=("q",))
    return FieldAlgebra(ctx), FieldAlgebra(ctx).identity_auto()


def _poly():
    ctx = ScalarContext(parameters=("q",))
    return PolyAlgebra(ctx), AffineAuto(ctx.param("q"), ctx.one)


def _laurent():
    ctx, alg, _ = laurent_scale()
    return alg, DiagonalAuto((ctx.param("q"),))


def _cyclic():
    ctx, alg, ring = fc4_mixed()
    return alg, ring.alpha


def _quadratic():
    _, alg, ring = quadratic_conjugation(3, 1, 2)
    return alg, ring.alpha


def _ambiskew():
    ctx, _, ring = laurent_scale()
    # y -> 2*y and x -> (q/2)*x, since alpha scales v = t by q
    two = ctx.int_(2)
    auto = NestedAuto(ring.alpha, two, ctx.param("q") / two)
    ring.validate_auto(auto)
    return ring, auto


def _gwa():
    ctx, _, ring = laurent_scale()
    T = gwa_from_ambiskew(ring)
    q = ctx.param("q")
    auto = NestedAuto(DiagonalAuto((q,)), q, ctx.one)
    T.validate_auto(auto)
    return T, auto


CASES = {"field": _field, "poly": _poly, "laurent": _laurent,
         "cyclic_group": _cyclic, "quadratic": _quadratic,
         "ambiskew": _ambiskew, "gwa": _gwa}


@pytest.mark.parametrize("name", sorted(CASES))
def test_protocol(name):
    algebra, auto = CASES[name]()
    assert isinstance(algebra, BaseAlgebra)
    with pytest.raises(ValueError, match="^unknown generator: 'z'$"):
        algebra.gen_elem("z")
    rng = random.Random(name)
    ctx = algebra.ctx
    a = algebra.one
    for gen in algebra.gens():
        a = algebra.add(a, algebra.smul(random_scalar(ctx, rng, nonzero=True),
                                        algebra.gen_elem(gen)))
    folded = algebra.one
    for k in range(4):
        assert algebra.eq(algebra.power(a, k), folded)
        folded = algebra.mul(folded, a)
    for k in range(-2, 4):
        step = auto if k >= 0 else algebra.invert(auto)
        power = algebra.auto_power(auto, k)
        for gen in algebra.gens():
            image = algebra.gen_elem(gen)
            for _ in range(abs(k)):
                image = algebra.apply(step, image)
            assert algebra.eq(algebra.apply(power, algebra.gen_elem(gen)), image)
    s = random_scalar(ctx, rng, nonzero=True)
    assert algebra.scalar_of(algebra.from_scalar(s)) == s
    for elem in (a, algebra.power(a, 2), algebra.smul(s, a)):
        again = eval_element(parse_expression(algebra.render(elem)), algebra)
        assert algebra.eq(again, elem)


_EQ_ALGEBRAS = {name: CASES[name]()[0] for name in
                ("field", "poly", "laurent", "cyclic_group", "quadratic",
                 "ambiskew")}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_EQ_ALGEBRAS)), st.integers(0, 2**32),
       st.booleans())
def test_eq_reads_an_explicit_zero_entry_as_a_missing_key(name, seed, same):
    algebra, rng = _EQ_ALGEBRAS[name], random.Random(seed)
    a, c = random_elem(algebra, rng, terms=3), random_elem(algebra, rng)
    # equal to a by another route, or drawn afresh
    b = (algebra.sub(algebra.add(a, c), c) if same
         else random_elem(algebra, rng, terms=3))
    zero, pool = algebra.ctx.zero, key_pool(algebra)
    a0 = {**{k: zero for k in rng.sample(pool, min(2, len(pool)))}, **a}
    b0 = {**{k: zero for k in rng.sample(pool, min(2, len(pool)))}, **b}
    expected = algebra.is_zero(algebra.sub(a, b))
    assert algebra.eq(a0, b0) is expected
    assert algebra.eq(a, b0) is algebra.is_zero(algebra.sub(a, b0)) is expected
    assert algebra.eq(a0, a) and algebra.eq(a, a0)


@pytest.mark.parametrize("name", sorted(set(CASES) - {"gwa"}))
def test_ideal_tests_answer_like_unit_tests(name):
    # radical_contains asks for a unit of A[1/u], comaximal for one of A/aA:
    # each answers with a status and a certificate and writes no prose
    algebra, _ = CASES[name]()
    rng = random.Random(name)
    a = random_elem(algebra, rng, terms=3)
    for d, u in ((a, algebra.one), (algebra.one, a), (algebra.zero, a),
                 (a, algebra.zero), (a, a)):
        for answer in (algebra.radical_contains(d, u), algebra.comaximal(d, u)):
            assert type(answer) is UnitAnswer
            assert answer.status in Status
            assert not hasattr(answer, "reason")
