from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ambiskew.algebras import (
    AffineAuto,
    CyclicGroupAlgebra,
    DiagonalAuto,
    FieldAlgebra,
    LaurentAlgebra,
    PolyAlgebra,
    QuadraticAlgebra,
    integer_roots_scalar_poly,
    scalar_ratio,
)
from ambiskew.scalars import ScalarContext
from ambiskew.verdict import Status


def _plain():
    return ScalarContext()


def _fc2(*params):
    ctx = ScalarContext(parameters=params)
    return ctx, CyclicGroupAlgebra(ctx, 2, -ctx.one)


# -- cyclic group --------------------------------------------------------------


def test_fc2_characters_of_symmetric_element():
    ctx, a = _fc2("t", "c")
    t, c = ctx.param("t"), ctx.param("c")
    v = {0: 2 * t, 1: -4 * c}
    assert a.character(0, v) == 2 * t - 4 * c
    assert a.character(1, v) == 2 * t + 4 * c


def test_fc2_inverse_by_interpolation():
    ctx, a = _fc2()
    elem = {0: ctx.int_(3), 1: ctx.one}
    ans = a.is_unit(elem)
    assert ans.status is Status.HOLDS
    assert a.eq(a.mul(elem, ans.inverse), a.one)


def test_fc2_nonunit_certificate_is_a_zero_divisor():
    ctx, a = _fc2()
    elem = {0: ctx.one, 1: ctx.one}  # killed by the sign character
    ans = a.is_unit(elem)
    assert ans.status is Status.FAILS
    assert ans.certificate["character"] == 1
    cofactor = {0: ctx.fraction(Fraction(1, 2)), 1: -ctx.fraction(Fraction(1, 2))}
    assert a.render(cofactor) == ans.certificate["cofactor"]
    assert a.is_zero(a.mul(elem, cofactor))


def test_cyclic4_alpha_simple_depends_on_gcd():
    ctx = ScalarContext(cyclotomic_order=4)
    a = CyclicGroupAlgebra(ctx, 4, ctx.zeta())
    assert a.alpha_simple([DiagonalAuto((ctx.zeta(),))]).holds
    v = a.alpha_simple([DiagonalAuto((-ctx.one,))])
    assert v.fails
    assert v.certificate["generator"] == "s^2 - 1"
    assert v.certificate["vanishing_characters"] == [0, 2]
    v = a.alpha_simple([a.identity_auto()])
    assert v.fails and v.certificate["generator"] == "s - 1"


def test_cyclic_pencil_respects_character_mask():
    ctx, a = _fc2()
    p = {0: ctx.one, 1: ctx.one}  # character 1 kills every member
    assert a.first_nonunit_in_pencil(p, a.zero, 1) == 1
    assert a.first_nonunit_in_pencil(a.one, {0: ctx.int_(-3)}, 1) == 3


def _cyclic_algebras():
    """K[C_n] over Q(zeta_n) for n in {2, 3, 4, 6}, and K[C_4] over F_13."""
    out = []
    for n in (2, 3, 4, 6):
        ctx = ScalarContext(cyclotomic_order=n)
        out.append((ctx, CyclicGroupAlgebra(ctx, n, ctx.zeta())))
    ctx = ScalarContext(characteristic=13)
    out.append((ctx, CyclicGroupAlgebra(ctx, 4, ctx.int_(5))))
    return out


def test_cyclic_inverse_times_element_is_one():
    rng = random.Random(3)
    for ctx, alg in _cyclic_algebras():
        units = 0
        for _ in range(6):
            a = {k: ctx.fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                 * alg.eps ** rng.randrange(alg.n)
                 for k in range(alg.n)}
            a = {k: c for k, c in a.items() if not c.is_zero()}
            ans = alg.is_unit(a)
            if ans.status is Status.HOLDS:
                units += 1
                assert alg.eq(alg.mul(a, ans.inverse), alg.one)
                assert alg.eq(alg.mul(ans.inverse, a), alg.one)
        assert units


def test_cyclic_character_zero_certificate():
    for ctx, alg in _cyclic_algebras():
        inv_n = ctx.fraction(Fraction(1, alg.n))
        for l in range(alg.n):
            a = {0: -(alg.eps ** l), 1: ctx.one}  # s - eps^l; only chi_l kills it
            ans = alg.is_unit(a)
            assert ans.status is Status.FAILS
            assert ans.certificate["kind"] == "character_zero"
            assert ans.certificate["character"] == l
            cofactor = {k: inv_n * alg.eps ** (-k * l) for k in range(alg.n)}
            assert ans.certificate["cofactor"] == alg.render(cofactor)
            assert alg.is_zero(alg.mul(a, cofactor))
    ctx = ScalarContext(cyclotomic_order=4)
    alg = CyclicGroupAlgebra(ctx, 4, ctx.zeta())
    assert alg.is_unit({0: -ctx.zeta(), 1: ctx.one}).certificate["cofactor"] \
        == "(1/4)*zeta*s^3 - 1/4*s^2 - (1/4)*zeta*s + 1/4"
    ctx = ScalarContext(characteristic=13)
    alg = CyclicGroupAlgebra(ctx, 4, ctx.int_(5))
    assert alg.is_unit({0: -ctx.int_(5), 1: ctx.one}).certificate["cofactor"] \
        == "11*s^3 + 3*s^2 + 2*s + 10"


# -- laurent -------------------------------------------------------------------


def test_laurent_units_are_monomials():
    ctx = ScalarContext(parameters=("q",))
    a = LaurentAlgebra(ctx)
    q = ctx.param("q")
    ans = a.is_unit({-2: q})
    assert ans.status is Status.HOLDS
    assert a.eq(a.mul({-2: q}, ans.inverse), a.one)
    ans = a.is_unit({0: ctx.one, 1: ctx.one})
    assert ans.status is Status.FAILS
    assert ans.certificate["exponents"] == [0, 1]


def test_laurent_alpha_simple_oracles():
    ctx = ScalarContext(cyclotomic_order=6, parameters=("q",))
    a = LaurentAlgebra(ctx)
    assert a.alpha_simple([DiagonalAuto((ctx.param("q"),))]).holds
    v = a.alpha_simple([DiagonalAuto((ctx.zeta(),))])
    assert v.fails
    f = {6: ctx.one, 0: -ctx.one}
    assert a.render(f) == v.certificate["generator"]
    assert a.eq(a.apply(DiagonalAuto((ctx.zeta(),)), f), f)


def test_laurent_radical_strips_monomial_factors():
    ctx = _plain()
    a = LaurentAlgebra(ctx)
    d = {3: ctx.one, 2: -ctx.one}  # t^2 * (t - 1)
    assert a.radical_contains(d, {1: ctx.one, 0: -ctx.one}).holds
    assert a.radical_contains(d, {1: ctx.one, 0: ctx.one}).fails
    assert a.radical_contains(a.zero, a.zero).holds
    assert a.radical_contains(a.zero, a.one).fails


def test_laurent_pencil_finds_first_nonunit():
    ctx = _plain()
    a = LaurentAlgebra(ctx)
    assert a.first_nonunit_in_pencil({1: ctx.one}, a.one, 0) == 1
    assert a.first_nonunit_in_pencil(a.zero, {1: ctx.int_(5), 0: ctx.one}, 7) == 7
    assert a.first_nonunit_in_pencil(a.zero, {1: ctx.int_(5)}, 7) is None
    assert a.first_nonunit_in_pencil({1: ctx.one}, {1: ctx.int_(-4)}, 1) == 4


# -- polynomials ---------------------------------------------------------------


def test_poly_alpha_simple_char0_shift_wins():
    ctx = _plain()
    a = PolyAlgebra(ctx)
    one, zero = ctx.one, ctx.zero
    assert a.alpha_simple([AffineAuto(one, one)]).holds
    v = a.alpha_simple([a.identity_auto()])
    assert v.fails and v.certificate["generator"] == "t"
    v = a.alpha_simple([AffineAuto(ctx.int_(2), zero)])
    assert v.fails and v.certificate["generator"] == "t"
    # a scale and a shift together leave no stable ideal
    assert a.alpha_simple([AffineAuto(ctx.int_(2), zero), AffineAuto(one, one)]).holds
    # same scale, different fixed points: the quotient is a shift
    assert a.alpha_simple([AffineAuto(ctx.int_(2), one), AffineAuto(ctx.int_(2), zero)]).holds


def test_poly_alpha_simple_common_fixed_point():
    ctx = _plain()
    a = PolyAlgebra(ctx)
    v = a.alpha_simple([AffineAuto(ctx.int_(2), ctx.int_(2)),
                        AffineAuto(ctx.int_(3), ctx.int_(4))])
    assert v.fails
    assert v.certificate["generator"] == "t + 2"


def test_poly_alpha_simple_char5_shift_span():
    ctx = ScalarContext(characteristic=5)
    a = PolyAlgebra(ctx)
    v = a.alpha_simple([AffineAuto(ctx.one, ctx.one)])
    assert v.fails
    expected = a.render({5: ctx.one, 1: ctx.int_(-1)})
    assert v.certificate["generator"] == expected
    # and the witness really is fixed by the shift
    f = {5: ctx.one, 1: ctx.int_(-1)}
    assert a.eq(a.apply(AffineAuto(ctx.one, ctx.one), f), f)


def test_poly_alpha_simple_mixed_charp_is_inconclusive():
    ctx = ScalarContext(characteristic=5)
    a = PolyAlgebra(ctx)
    v = a.alpha_simple([AffineAuto(ctx.int_(2), ctx.zero),
                        AffineAuto(ctx.int_(2), ctx.one)])
    assert v.status is Status.INCONCLUSIVE


def test_poly_auto_order():
    ctx = _plain()
    a = PolyAlgebra(ctx)
    assert a.auto_order(AffineAuto(-ctx.one, ctx.one)) == 2
    assert a.auto_order(AffineAuto(ctx.one, ctx.one)) is None
    ctx5 = ScalarContext(characteristic=5)
    a5 = PolyAlgebra(ctx5)
    assert a5.auto_order(AffineAuto(ctx5.one, ctx5.one)) == 5
    assert a5.auto_order(AffineAuto(ctx5.int_(2), ctx5.one)) == 4


def test_poly_radical_and_comaximal():
    ctx = _plain()
    a = PolyAlgebra(ctx)
    t = {1: ctx.one}
    assert a.radical_contains({2: ctx.one}, t).holds
    assert a.radical_contains({2: ctx.one}, {1: ctx.one, 0: ctx.one}).fails
    assert a.comaximal(t, {1: ctx.one, 0: -ctx.one}).holds
    v = a.comaximal(t, {2: ctx.one, 1: ctx.one})
    assert v.fails and v.certificate["degree"] == 1


def test_poly_pencil():
    ctx = _plain()
    a = PolyAlgebra(ctx)
    assert a.first_nonunit_in_pencil(a.one, {0: ctx.int_(-7)}, 1) == 7
    assert a.first_nonunit_in_pencil({1: ctx.one}, a.one, 0) == 1
    assert a.first_nonunit_in_pencil(a.zero, {1: ctx.one}, 2) == 2
    assert a.first_nonunit_in_pencil(a.one, {0: ctx.int_(7)}, 1) is None


# -- quadratic extensions --------------------------------------------------------


def test_quadratic_field_inverse():
    ctx = _plain()
    a = QuadraticAlgebra(ctx, ctx.int_(2))
    elem = {0: ctx.one, 1: ctx.one}
    ans = a.is_unit(elem)
    assert ans.status is Status.HOLDS
    assert a.eq(a.mul(elem, ans.inverse), a.one)


def test_quadratic_split_certificates():
    ctx = _plain()
    a = QuadraticAlgebra(ctx, ctx.int_(9))
    v = a.alpha_simple([a.identity_auto()])
    assert v.fails
    half, sixth = ctx.fraction(Fraction(1, 2)), ctx.fraction(Fraction(1, 6))
    idem = {0: half, 1: sixth}
    assert v.certificate["element"] == a.render(idem)
    assert a.eq(a.mul(idem, idem), idem)
    assert a.alpha_simple([a.conjugation()]).holds


def test_quadratic_gaussian_cases():
    assert QuadraticAlgebra(_plain(), _plain().int_(-1)).alpha_simple([]).holds
    ctx = ScalarContext(cyclotomic_order=4)
    a = QuadraticAlgebra(ctx, -ctx.one)
    v = a.alpha_simple([a.identity_auto()])
    assert v.fails
    idem = {0: ctx.fraction(Fraction(1, 2)),
            1: ctx.fraction(Fraction(1, 2)) / ctx.zeta()}
    assert a.eq(a.mul(idem, idem), idem)
    assert v.certificate["element"] == a.render(idem)


def test_quadratic_conductor_criterion():
    ctx5 = ScalarContext(cyclotomic_order=5)
    v = QuadraticAlgebra(ctx5, ctx5.int_(5)).alpha_simple([])
    assert v.fails  # sqrt(5) lives in the fifth cyclotomic field
    ctx7 = ScalarContext(cyclotomic_order=7)
    assert QuadraticAlgebra(ctx7, ctx7.int_(5)).alpha_simple([]).holds


def test_quadratic_parameter_defect_is_not_a_square():
    ctx = ScalarContext(parameters=("q",))
    assert QuadraticAlgebra(ctx, ctx.param("q")).alpha_simple([]).holds


def test_quadratic_split_radical_and_comaximal():
    ctx = _plain()
    a = QuadraticAlgebra(ctx, ctx.int_(9))
    d = {0: ctx.int_(3), 1: ctx.one}
    assert a.radical_contains(d, d).holds
    assert a.radical_contains(d, a.one).fails
    other = {0: ctx.int_(3), 1: -ctx.one}
    assert a.comaximal(d, other).holds
    v = a.comaximal(d, a.smul(ctx.int_(2), d))
    assert v.fails
    ann = {0: ctx.int_(3), 1: -ctx.one}
    assert v.certificate["annihilator"] == a.render(ann)
    assert a.is_zero(a.mul(ann, d))


def test_quadratic_pencil_through_norm_roots():
    ctx = _plain()
    a = QuadraticAlgebra(ctx, ctx.int_(-1))
    assert a.first_nonunit_in_pencil(a.one, {1: ctx.one}, 1) is None
    assert a.first_nonunit_in_pencil(a.one, {0: ctx.int_(-2)}, 1) == 2
    split = QuadraticAlgebra(ctx, ctx.int_(4))
    assert split.first_nonunit_in_pencil(split.one, {1: ctx.one}, 1) == 2
    assert split.first_nonunit_in_pencil(split.one, {1: ctx.one}, 3) is None


# -- integer roots of scalar polynomials ------------------------------------------


def test_integer_roots_rational_cases():
    ctx = _plain()
    assert integer_roots_scalar_poly([ctx.int_(6), ctx.int_(-5), ctx.one]) == [2, 3]
    assert integer_roots_scalar_poly([ctx.zero, ctx.one]) == [0]
    assert integer_roots_scalar_poly([ctx.zero, ctx.zero]) == "all"
    half = ctx.fraction(Fraction(1, 2))
    assert integer_roots_scalar_poly([-half * 3, half]) == [3]


def test_integer_roots_with_parameters():
    ctx = ScalarContext(parameters=("q",))
    q = ctx.param("q")
    assert integer_roots_scalar_poly([-2 * q, q]) == [2]
    # no common root of the two components
    assert integer_roots_scalar_poly([-2 * q + ctx.one, q]) == []


def test_integer_roots_char5():
    ctx = ScalarContext(characteristic=5)
    assert integer_roots_scalar_poly([ctx.one, ctx.zero, ctx.one]) == [2, 3]
    coeffs = [ctx.zero, ctx.int_(-1), ctx.zero, ctx.zero, ctx.zero, ctx.one]
    assert integer_roots_scalar_poly(coeffs) == "all"


# -- generic helpers ---------------------------------------------------------------


def test_scalar_ratio_and_normalizing_auto():
    ctx = _plain()
    a = PolyAlgebra(ctx)
    u = {2: ctx.int_(3), 0: ctx.int_(-6)}
    v = {2: ctx.one, 0: ctx.int_(-2)}
    assert scalar_ratio(a, u, v) == ctx.int_(3)
    assert scalar_ratio(a, {2: ctx.one}, v) is None
    gamma = a.normalizing_auto(u)
    assert a.auto_is_identity(gamma)


def test_apply_respects_composition_poly():
    rng = random.Random(7)
    ctx = _plain()
    a = PolyAlgebra(ctx)
    for _ in range(25):
        f = AffineAuto(ctx.int_(rng.choice([1, 2, -1, 3])), ctx.int_(rng.randint(-3, 3)))
        g = AffineAuto(ctx.int_(rng.choice([1, -2, 5])), ctx.int_(rng.randint(-3, 3)))
        elem = {i: ctx.int_(rng.randint(-4, 4)) for i in range(4)}
        lhs = a.apply(a.compose(f, g), elem)
        rhs = a.apply(f, a.apply(g, elem))
        assert a.eq(lhs, rhs)
        inv = a.invert(f)
        assert a.eq(a.apply(inv, a.apply(f, elem)), elem)


@st.composite
def _quadratic_elems(draw):
    num = st.integers(min_value=-6, max_value=6)
    return {k: v for k, v in ((0, draw(num)), (1, draw(num))) if v}


@settings(max_examples=60, deadline=None)
@given(_quadratic_elems(), _quadratic_elems(), _quadratic_elems())
def test_quadratic_ring_axioms(xa, xb, xc):
    ctx = ScalarContext()
    alg = QuadraticAlgebra(ctx, ctx.int_(5))
    lift = lambda d: {k: ctx.int_(v) for k, v in d.items()}
    a, b, c = lift(xa), lift(xb), lift(xc)
    assert alg.eq(alg.mul(alg.mul(a, b), c), alg.mul(a, alg.mul(b, c)))
    assert alg.eq(alg.mul(a, alg.add(b, c)),
                  alg.add(alg.mul(a, b), alg.mul(a, c)))
    ans = alg.is_unit(a)
    if ans.status is Status.HOLDS:
        assert alg.eq(alg.mul(a, ans.inverse), alg.one)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
       st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3))
def test_cyclic3_units_split_by_characters(xs, ys):
    ctx = ScalarContext(cyclotomic_order=3)
    alg = CyclicGroupAlgebra(ctx, 3, ctx.zeta())
    a = {k: ctx.int_(v) for k, v in enumerate(xs) if v}
    b = {k: ctx.int_(v) for k, v in enumerate(ys) if v}
    prod = alg.mul(a, b)
    for l in range(3):
        assert alg.character(l, prod) == alg.character(l, a) * alg.character(l, b)
    ans = alg.is_unit(a)
    if ans.status is Status.HOLDS:
        assert alg.eq(alg.mul(a, ans.inverse), alg.one)
    elif a:
        cofactor = alg._character_unit(ans.certificate["character"])
        assert alg.is_zero(alg.mul(a, cofactor))
