from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiskew import bounds
from ambiskew.algebras import (
    AffineAuto,
    CyclicGroupAlgebra,
    DiagonalAuto,
    FieldAlgebra,
    LaurentAlgebra,
    NestedAuto,
    PolyAlgebra,
    QuadraticAlgebra,
)
from ambiskew.dsl import DslError, parse_spec
from ambiskew.gwa import GwaRing, gwa_from_ambiskew, gwa_simple
from ambiskew.rings import AmbiskewRing
from ambiskew.scalars import ScalarContext
from ambiskew.verdict import Status

from _helpers import (ambiskew_as_gwa, exact, laurent_scale, pw, random_elem,
                      random_scalar)


def _conditions(verdict):
    return dict(verdict.conditions)


def _weyl_presentation(characteristic=0):
    ctx = ScalarContext(characteristic=characteristic)
    alg = PolyAlgebra(ctx)
    return ctx, alg, GwaRing(alg, AffineAuto(ctx.one, -ctx.one),
                             alg.gen_elem("t"))


def _family_fixtures():
    """One GWA per coefficient family, with a nontrivial twist where the
    family allows one."""
    out = []
    ctx = ScalarContext(parameters=("q",))
    field = FieldAlgebra(ctx)
    out.append(GwaRing(field, field.identity_auto(),
                       field.from_scalar(ctx.param("q"))))
    lctx = ScalarContext(parameters=("q",))
    laurent = LaurentAlgebra(lctx)
    out.append(GwaRing(laurent, DiagonalAuto((lctx.param("q"),)),
                       {1: lctx.one, 0: lctx.one}))
    out.append(_weyl_presentation()[2])
    cctx = ScalarContext(cyclotomic_order=4)
    cyclic = CyclicGroupAlgebra(cctx, 4, cctx.zeta())
    out.append(GwaRing(cyclic, DiagonalAuto((cctx.zeta(),)),
                       {0: cctx.int_(2), 1: cctx.one}))
    qctx = ScalarContext()
    quad = QuadraticAlgebra(qctx, qctx.int_(2))
    out.append(GwaRing(quad, quad.identity_auto(), quad.gen_elem("s")))
    return out


def _nested_fixture():
    """A GWA whose coefficients are themselves an ambiskew ring, with u the
    embedded normal generator of the ground group algebra."""
    ctx = ScalarContext(cyclotomic_order=3, parameters=("l",))
    eps, lam = ctx.zeta(), ctx.param("l")
    ground = CyclicGroupAlgebra(ctx, 3, eps)
    level1 = AmbiskewRing(ground, DiagonalAuto((eps,)), ground.gen_elem("s"),
                          eps ** -1)
    alpha = NestedAuto(DiagonalAuto((eps,)), lam, eps * lam ** -1)
    gamma = NestedAuto(ground.identity_auto(), eps ** -1, eps)
    u = level1.embed(ground.gen_elem("s"))
    return level1, GwaRing(level1, alpha, u, gamma=gamma)


# -- arithmetic ---------------------------------------------------------------------


def test_weyl_presentation_relations():
    _, alg, T = _weyl_presentation()
    X, Y = T.gen_elem("X"), T.gen_elem("Y")
    assert T.render(T.mul(X, Y)) == "t"
    assert T.render(T.mul(Y, X)) == "t - 1"
    assert T.eq(T.sub(T.mul(X, Y), T.mul(Y, X)), T.one)


def test_generator_commutation_sides():
    ctx = ScalarContext(parameters=("q",))
    alg = LaurentAlgebra(ctx)
    T = GwaRing(alg, DiagonalAuto((ctx.param("q"),)), alg.gen_elem("t"))
    t = T.embed(alg.gen_elem("t"))
    X, Y = T.gen_elem("X"), T.gen_elem("Y")
    assert T.eq(T.mul(Y, t), T.mul(T.embed(alg.smul(ctx.param("q"),
                                                    alg.gen_elem("t"))), Y))
    assert T.eq(T.mul(X, t), T.mul(T.embed(alg.smul(ctx.param("q") ** -1,
                                                    alg.gen_elem("t"))), X))


def test_closed_form_pair_products():
    for T in _family_fixtures():
        base = T.base
        X, Y = T.gen_elem(T.x_name), T.gen_elem(T.y_name)
        for m in range(1, 7):
            down = base.one
            up = base.one
            for i in range(m):
                down = base.mul(down, base.apply(base.auto_power(T.alpha, -i), T.u))
            for i in range(1, m + 1):
                up = base.mul(up, base.apply(base.auto_power(T.alpha, i), T.u))
            assert T.eq(T.mul(pw(T, X, m), pw(T, Y, m)), T.embed(down))
            assert T.eq(T.mul(pw(T, Y, m), pw(T, X, m)), T.embed(up))


def test_twists_of_u_commute():
    level1, T = _nested_fixture()
    twists = [level1.apply(level1.auto_power(T.alpha, i), T.u) for i in range(-4, 5)]
    for a in twists:
        for b in twists:
            assert level1.eq(level1.mul(a, b), level1.mul(b, a))


def test_products_respect_the_grading():
    rng = random.Random(13)
    for T in _family_fixtures():
        for _ in range(8):
            d1, d2 = rng.randint(-2, 2), rng.randint(-2, 2)
            f = T._flat((d1,), random_elem(T.base, rng))
            g = T._flat((d2,), random_elem(T.base, rng))
            if not f or not g:
                continue
            assert set(T.grouped(T.mul(f, g))) <= {(d1 + d2,)}


# the earlier product, kept as the oracle of ``GwaRing.mul``: it applies a
# power of alpha or beta to u afresh for every pair of terms it collapses
def _oracle_mul(ring, f, g):
    base = ring.base
    out = {}
    right = ring.grouped(g)
    for (d1,), b in ring.grouped(f).items():
        for (d2,), c in right.items():
            coeff = base.mul(b, base.apply(ring._cross(d1), c))
            i, k = d1, d2
            while i > 0 and k < 0 and coeff:
                coeff = base.mul(coeff, base.apply(ring._cross(i), ring.u))
                i, k = i - 1, k + 1
            while i < 0 and k > 0 and coeff:
                coeff = base.mul(coeff, base.apply(ring._cross(i + 1), ring.u))
                i, k = i + 1, k - 1
            out = ring.add(out, ring._flat((i + k,), coeff))
    return out


def _laurent_scaling():
    """T(K[t, t^-1], t -> q*t, t + 1) over Q(q)."""
    ctx = ScalarContext(parameters=("q",))
    laurent = LaurentAlgebra(ctx)
    return GwaRing(laurent, DiagonalAuto((ctx.param("q"),)),
                   {0: ctx.one, 1: ctx.one})


_ORACLE_RINGS = {"laurent_scaling": _laurent_scaling,
                 "nested": lambda: _nested_fixture()[1],
                 **{f"family_{i}": lambda i=i: _family_fixtures()[i]
                    for i in range(5)}}


def _graded(ring, rng, terms):
    """A sum of ``terms`` terms a*Z_d with d in -4..4."""
    elem = {}
    for _ in range(terms):
        elem = ring.add(elem, ring._flat((rng.randint(-4, 4),),
                                         random_elem(ring.base, rng)))
    return elem


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_ORACLE_RINGS)), st.integers(0, 2**32),
       st.integers(1, 4))
def test_products_match_the_earlier_product(name, seed, terms):
    ring, rng = _ORACLE_RINGS[name](), random.Random(seed)
    f, g = _graded(ring, rng, terms), _graded(ring, rng, terms)
    # scalars compare by their stored num/den, so each entry is built as
    # the earlier product built it, not just equal in value
    assert exact(ring.mul(f, g)) == exact(_oracle_mul(ring, f, g))
    assert exact(ring.mul(g, f)) == exact(_oracle_mul(ring, g, f))


def test_gwa_mul_is_associative():
    rng = random.Random(41)
    fixtures = _family_fixtures()
    fixtures.append(_nested_fixture()[1])
    per = 200 // len(fixtures) + 1
    for T in fixtures:
        for _ in range(per):
            triple = []
            for _ in range(3):
                elem = {}
                for d in rng.sample(range(-2, 3), 2):
                    c = random_elem(T.base, rng, terms=1)
                    elem = T.add(elem, T._flat((d,), c))
                triple.append(elem)
            f, g, h = triple
            assert T.eq(T.mul(T.mul(f, g), h), T.mul(f, T.mul(g, h)))


def test_render_and_describe():
    _, alg, T = _weyl_presentation()
    X, Y = T.gen_elem("X"), T.gen_elem("Y")
    f = T.add(T.add(pw(T, X, 2), T.mul(T.embed(alg.gen_elem("t")), Y)),
              T.one)
    assert T.render(f) == "X^2 + 1 + (t)*Y"
    assert T.render(T.zero) == "0"


def test_constructor_validation():
    ctx = ScalarContext(cyclotomic_order=4)
    cyclic = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    with pytest.raises(ValueError, match="fix u"):
        GwaRing(cyclic, cyclic.identity_auto(), cyclic.gen_elem("s"),
                gamma=DiagonalAuto((-ctx.one,)))
    with pytest.raises(ValueError, match="gamma-normal"):
        GwaRing(cyclic, cyclic.identity_auto(), cyclic.one,
                gamma=DiagonalAuto((-ctx.one,)))
    _, _, T = _weyl_presentation()
    with pytest.raises(ValueError, match="unknown generator"):
        T.gen_elem("z")


def test_units_are_decided_in_degree_zero_only():
    ctx = ScalarContext()
    laurent = LaurentAlgebra(ctx)
    T = GwaRing(laurent, DiagonalAuto((ctx.int_(2),)), laurent.one)
    X, Y = T.gen_elem("X"), T.gen_elem("Y")
    # with u = 1, X and Y are inverse units, so nonzero degree stays open
    assert T.eq(T.mul(X, Y), T.one) and T.eq(T.mul(Y, X), T.one)
    for gen in (X, Y):
        assert T.is_unit(gen).status is Status.INCONCLUSIVE
    a = T.embed(laurent.smul(ctx.int_(3), laurent.gen_elem("t")))
    answer = T.is_unit(a)
    assert answer.status is Status.HOLDS
    assert T.eq(answer.inverse, T.embed(T.base_part(answer.inverse)))
    assert T.eq(T.mul(a, answer.inverse), T.one)
    assert T.eq(T.mul(answer.inverse, a), T.one)
    zero = T.is_unit(T.zero)
    assert zero.status is Status.FAILS and zero.certificate == {"kind": "zero"}


# -- the quotient construction -------------------------------------------------------


def _phi(ring, T, f):
    """The quotient map on normal forms: x^i * c * y^j to X^i * c * Y^j."""
    X, Y = T.gen_elem(T.x_name), T.gen_elem(T.y_name)
    out = T.zero
    for (i, j), c in ring.grouped(f).items():
        term = T.mul(pw(T, X, i), T.mul(T.embed(c), pw(T, Y, j)))
        out = T.add(out, term)
    return out


def test_quotient_kills_the_casimir_element():
    ctx = ScalarContext(parameters=("q",))
    field = FieldAlgebra(ctx)
    ring = AmbiskewRing(field, field.identity_auto(), field.one,
                        ctx.param("q"))
    T = gwa_from_ambiskew(ring)
    z = ring.conformality().casimir
    assert T.is_zero(_phi(ring, T, z))


def test_quotient_map_is_multiplicative():
    rng = random.Random(59)
    _, _, scale_ring = laurent_scale()
    ctx = ScalarContext(parameters=("q",))
    field = FieldAlgebra(ctx)
    weyl_q = AmbiskewRing(field, field.identity_auto(), field.one,
                          ctx.param("q"))
    for ring in (weyl_q, scale_ring):
        T = gwa_from_ambiskew(ring)
        for _ in range(10):
            f = random_elem(ring, rng)
            g = random_elem(ring, rng)
            assert T.eq(_phi(ring, T, ring.mul(f, g)),
                        T.mul(_phi(ring, T, f), _phi(ring, T, g)))


def test_quotient_of_the_plane_has_vanishing_products():
    ctx = ScalarContext(parameters=("q",))
    field = FieldAlgebra(ctx)
    plane = AmbiskewRing(field, field.identity_auto(), field.zero,
                         ctx.param("q"))
    T = gwa_from_ambiskew(plane)
    X, Y = T.gen_elem("X"), T.gen_elem("Y")
    assert T.is_zero(T.mul(X, Y))
    assert T.is_zero(T.mul(Y, X))


def test_gwa_from_ambiskew_rejects_singular_input():
    ctx = ScalarContext()
    field = FieldAlgebra(ctx)
    weyl = AmbiskewRing(field, field.identity_auto(), field.one, ctx.one)
    with pytest.raises(ValueError, match="singular"):
        gwa_from_ambiskew(weyl)


def test_inverse_view_over_the_plane_uses_laurent_w():
    ctx = ScalarContext(parameters=("q",))
    field = FieldAlgebra(ctx)
    plane = AmbiskewRing(field, field.identity_auto(), field.zero,
                         ctx.param("q"))
    T = ambiskew_as_gwa(plane)
    assert T.base.kind == "laurent"
    yx = T.mul(T.gen_elem("y"), T.gen_elem("x"))
    assert T.eq(yx, T.embed(T.base.smul(ctx.param("q") ** -1,
                                        T.base.gen_elem("w"))))


def test_inverse_view_matches_the_ring_commutation():
    ctx = ScalarContext(parameters=("q",))
    field = FieldAlgebra(ctx)
    ring = AmbiskewRing(field, field.identity_auto(), field.one,
                        ctx.param("q"))
    T = ambiskew_as_gwa(ring)
    assert T.base.kind == "poly"
    yx = T.mul(T.gen_elem("y"), T.gen_elem("x"))
    w = T.base.gen_elem("w")
    shifted = T.base.smul(ctx.param("q") ** -1,
                          T.base.sub(w, T.base.one))
    assert T.eq(yx, T.embed(shifted))
    rho = ctx.param("q")
    assert ring.eq(ring.mul(ring.gen_elem("y"), ring.gen_elem("x")),
                   ring.smul(rho ** -1,
                             ring.sub(ring.w_element(), ring.embed(field.one))))


def test_inverse_view_needs_field_coefficients():
    _, _, ring = laurent_scale()
    with pytest.raises(ValueError, match="field"):
        ambiskew_as_gwa(ring)


# -- simplicity ---------------------------------------------------------------------


def test_weyl_presentation_simple_in_characteristic_zero():
    _, _, T = _weyl_presentation()
    verdict = gwa_simple(T)
    assert verdict.holds
    assert verdict.theorem == "gwa"
    assert _conditions(verdict)["comaximal"].certificate == {
        "kind": "shift_coprime", "resultant": "-m"}


def test_weyl_presentation_fails_in_characteristic_five():
    _, _, T = _weyl_presentation(characteristic=5)
    verdict = gwa_simple(T)
    assert verdict.fails
    conds = _conditions(verdict)
    assert conds["alpha_simple"].certificate == {
        "kind": "stable_ideal", "generator": "t^5 - t"}
    assert conds["outer_powers"].certificate == {"kind": "inner_power", "m": 5}
    witness = conds["comaximal"].certificate
    assert witness["kind"] == "comaximal_witness" and witness["m"] == 5
    assert conds["regular"].holds


def test_scalar_base_with_identity_twist_fails_outerness():
    ctx = ScalarContext()
    field = FieldAlgebra(ctx)
    T = GwaRing(field, field.identity_auto(), field.one)
    verdict = gwa_simple(T)
    assert verdict.reason == "failed: outer_powers"
    assert _conditions(verdict)["outer_powers"].certificate == {
        "kind": "inner_power", "m": 1}


def test_quadratic_conjugation_is_an_inner_square():
    # s -> -s has order 2, and over the split K[s]/(s^2 - 1) the walk to
    # that order finds u = 1 + s comaximal with 1 - s but not with itself
    T = parse_spec("base A = quadratic(d = 1)\nauto a on A { s -> -s }\n"
                   "ring T = gwa(A, a, u = 1 + s)\n").rings["T"]
    assert T.base.auto_order(T.alpha) == 2
    conds = _conditions(gwa_simple(T))
    assert conds["outer_powers"].certificate == {"kind": "inner_power", "m": 2}
    assert conds["comaximal"].certificate == {
        "kind": "comaximal_witness", "m": 2,
        "detail": {"kind": "zero_divisor", "cofactor": "1 - s"}}


def test_unit_u_over_laurent_scaling_is_simple():
    ctx = ScalarContext(parameters=("q",))
    alg = LaurentAlgebra(ctx)
    T = GwaRing(alg, DiagonalAuto((ctx.param("q"),)), alg.gen_elem("t"))
    verdict = gwa_simple(T)
    assert verdict.holds
    assert _conditions(verdict)["comaximal"].certificate == {"kind": "unit_u"}


def test_zero_u_fails_regularity_and_comaximality():
    ctx = ScalarContext(parameters=("q",))
    alg = LaurentAlgebra(ctx)
    T = GwaRing(alg, DiagonalAuto((ctx.param("q"),)), {})
    verdict = gwa_simple(T)
    conds = _conditions(verdict)
    assert conds["regular"].fails
    assert conds["comaximal"].certificate["m"] == 1


def test_scaled_fixed_ideal_blocks_comaximality():
    ctx = ScalarContext()
    alg = PolyAlgebra(ctx)
    T = GwaRing(alg, AffineAuto(ctx.int_(2), ctx.zero), alg.gen_elem("t"))
    cert = _conditions(gwa_simple(T))["comaximal"].certificate
    # u shares the fixed point 0 with every alpha^m(u): R vanishes identically
    assert cert == {"kind": "comaximal_witness", "m": 1,
                    "detail": {"kind": "common_factor_degree", "degree": 1}}


def test_group_algebra_scan_finds_the_periodic_witness():
    ctx = ScalarContext(cyclotomic_order=4)
    cyclic = CyclicGroupAlgebra(ctx, 4, ctx.zeta())
    u = {0: ctx.one, 1: ctx.one}
    T = GwaRing(cyclic, DiagonalAuto((ctx.zeta(),)), u)
    cert = _conditions(gwa_simple(T))["comaximal"].certificate
    assert cert["kind"] == "comaximal_witness" and cert["m"] == 4


def test_laurent_scaling_moves_a_single_root_away():
    ctx = ScalarContext(parameters=("q",))
    alg = LaurentAlgebra(ctx)
    u = {0: ctx.one, 1: ctx.one}
    T = GwaRing(alg, DiagonalAuto((ctx.param("q"),)), u)
    comax = _conditions(gwa_simple(T))["comaximal"]
    assert comax.holds
    assert comax.certificate == {"kind": "shift_coprime",
                                 "resultant": "-X + 1", "ratio": "q"}


def test_bounded_comaximal_scan_is_inconclusive(monkeypatch):
    # 1 + zeta has infinite order but is neither rational nor parametric,
    # so no root of the resultant is read at a power of it
    ctx = ScalarContext(cyclotomic_order=4)
    alg = LaurentAlgebra(ctx)
    u = {0: ctx.one, 1: ctx.one, 2: ctx.one}
    T = GwaRing(alg, DiagonalAuto((ctx.one + ctx.zeta(),)), u)
    monkeypatch.setattr(bounds, "M_MAX", 5)
    verdict = gwa_simple(T)
    comax = _conditions(verdict)["comaximal"]
    assert comax.status is Status.INCONCLUSIVE
    assert comax.certificate == {"kind": "bounded_scan", "m_max": 5}


def _comaximal_of(text, u):
    T = parse_spec(f"{text}ring T = gwa(P, b, u = {u})\n").rings["T"]
    return _conditions(gwa_simple(T))["comaximal"]


@pytest.mark.parametrize("base, ratio, u, resultant", [
    ("poly(t)", "2", "t + 1", "-X + 1"),
    ("poly(t)", "2", "t^2 + 1", "X^4 - 2*X^2 + 1"),
    # the roots of 1 + t + t^2 meet those of its image where X is a ratio
    # of two of them: R = (X - 1)^2*(X^2 + X + 1)
    ("laurent(t)", "2", "1 + t + t^2", "X^4 - X^3 - X + 1"),
    ("laurent(t)", "q", "1 + t + t^2", "X^4 - X^3 - X + 1"),
])
def test_scalings_of_infinite_order_hold_by_their_resultant(base, ratio, u,
                                                            resultant):
    comax = _comaximal_of("context(parameters = [q])\n"
                          f"base P = {base}\n"
                          f"auto b on P {{ t -> {ratio}*t }}\n", u)
    assert comax.holds
    assert comax.certificate == {"kind": "shift_coprime",
                                 "resultant": resultant, "ratio": ratio}


def test_scalings_decide_over_cyclotomic_and_parametric_fields():
    comax = _comaximal_of("context(cyclotomic_order = 8)\n"
                          "base P = poly(t)\n"
                          "auto b on P { t -> 5/2*t - 2/3 }\n",
                          "t^3 + 2*t + 1 + zeta")
    assert comax.status is not Status.INCONCLUSIVE
    # about the fixed point 1/(1 - q), with the denominators of u(t0 + s)
    # cleared, R has polynomial coefficients
    comax = _comaximal_of("context(characteristic = 7, parameters = [q])\n"
                          "base P = poly(t)\n"
                          "auto b on P { t -> q*t + 1 }\n",
                          "(t - 1)*(t - q^2)")
    assert comax.holds and comax.certificate["ratio"] == "q"
    assert "/" not in comax.certificate["resultant"]
    # F_7 has too few points for the degree 9 of a cubic's R, which is
    # interpolated at the powers of q; its roots X^3 = 1 are no power of q
    comax = _comaximal_of("context(characteristic = 7, parameters = [q])\n"
                          "base P = laurent(t)\n"
                          "auto b on P { t -> q*t }\n", "1 + t^3")
    assert comax.holds
    assert comax.certificate["resultant"] == "-X^9 + 3*X^6 + 4*X^3 + 1"


@pytest.mark.parametrize("p, u, m", [
    # R = 1 - X: the first return to 1 of 3^m, at the order of 3
    (10**6 + 3, "t + 1", 333334),
    (10**9 + 7, "t + 1", 500000003),
    # R = (1 - X^2)^2: the first m with 3^m = -1
    (10007, "t^2 + 1", 5003),
])
def test_large_prime_scaling_reads_m_without_a_walk(monkeypatch, p, u, m):
    calls = []
    comaximal = PolyAlgebra.comaximal

    def counted(self, a, b):
        calls.append(1)
        return comaximal(self, a, b)

    monkeypatch.setattr(PolyAlgebra, "comaximal", counted)
    comax = _comaximal_of(f"context(characteristic = {p})\n"
                          "base P = poly(t)\n"
                          "auto b on P { t -> 3*t }\n", u)
    assert comax.fails and comax.certificate["m"] == m
    assert len(calls) <= 1


def test_nested_base_outerness_is_inconclusive():
    _, T = _nested_fixture()
    verdict = gwa_simple(T)
    outer = _conditions(verdict)["outer_powers"]
    assert outer.status is Status.INCONCLUSIVE
    assert "iterated" in outer.reason


@pytest.mark.parametrize("ring", [
    "ring R = ambiskew(T, b, v = 1, rho = 2)",
    "ring R = gwa(T, b, u = 2)",
])
def test_dsl_rejects_a_ring_over_a_gwa(ring):
    text = ("base P = poly(t)\n"
            "auto a on P { t -> t + 1 }\n"
            "ring T = gwa(P, a, u = t)\n"
            "auto b on T { }\n"
            f"{ring}\n"
            "check simple(R)\n")
    with pytest.raises(DslError) as info:
        parse_spec(text)
    assert info.value.loc.line == 5
    assert "generalized Weyl algebra 'T'" in info.value.message
