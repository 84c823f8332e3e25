from __future__ import annotations

import copy
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ambiskew.algebras import (
    AffineAuto,
    CyclicGroupAlgebra,
    DiagonalAuto,
    FieldAlgebra,
    LaurentAlgebra,
    NestedAuto,
    PolyAlgebra,
    QuadraticAlgebra,
    _eadd_into,
    solve_splitting_ex,
)
from ambiskew.dsl import eval_element, parse_expression, parse_spec
from ambiskew.gwa import GwaRing
from ambiskew.rings import AmbiskewRing, _ungroup
from ambiskew.scalars import Scalar, ScalarContext
from ambiskew.verdict import Status

from _helpers import (
    RENDER_CTXS,
    exact,
    fc2_block,
    fc4_mixed,
    homogeneous_components,
    key_pool,
    oracle_render,
    laurent_scale,
    poly_shift,
    pw,
    q_integer,
    quadratic_conjugation,
    quantized_weyl,
    quantum_plane,
    random_elem,
    random_scalar,
    random_small_elem,
    slow_mul,
    w_alpha_power,
    weyl_over_field,
)


# -- construction ----------------------------------------------------------------


def test_defining_rewrite():
    ring = quantized_weyl()
    y, x = ring.gen_elem("y"), ring.gen_elem("x")
    q = ring.ctx.param("q")
    expected = ring.sub(ring.smul(q.inv(), ring.mul(x, y)),
                        ring.smul(q.inv(), ring.embed(ring.base.one)))
    assert ring.eq(ring.mul(y, x), expected)


def test_rejects_zero_rho():
    ctx = ScalarContext()
    field = FieldAlgebra(ctx)
    with pytest.raises(ValueError, match="rho must be a nonzero"):
        AmbiskewRing(field, field.identity_auto(), field.one, ctx.zero)


def test_rejects_generator_name_collision():
    ctx, alg, ring = fc2_block()
    alpha = NestedAuto(alg.identity_auto(), ctx.one, ctx.one)
    with pytest.raises(ValueError, match="distinct"):
        AmbiskewRing(ring, alpha, ring.one, ctx.one, y_name="y1")


def test_rejects_nonnormal_v():
    ctx, alg, ring = fc2_block()
    alpha = NestedAuto(alg.identity_auto(), ctx.one, ctx.one)
    with pytest.raises(ValueError, match="not normal"):
        AmbiskewRing(ring, alpha, ring.gen_elem("y1"), ctx.one,
                     y_name="y2", x_name="x2")


def test_rejects_invalid_alpha():
    ctx = ScalarContext()
    alg = PolyAlgebra(ctx)
    with pytest.raises(ValueError, match="invertible"):
        AmbiskewRing(alg, AffineAuto(ctx.zero, ctx.one), alg.one, ctx.one)


# -- commutation identities ---------------------------------------------------------


IDENTITY_RINGS = [
    ("quantized_weyl", lambda: quantized_weyl()),
    ("fc4_mixed", lambda: fc4_mixed()[2]),
    ("laurent_scale", lambda: laurent_scale()[2]),
    ("quadratic", lambda: quadratic_conjugation(1, 2, 3)[2]),
]


@pytest.mark.parametrize("name,make", IDENTITY_RINGS, ids=[n for n, _ in IDENTITY_RINGS])
def test_xy_power_commutation(name, make):
    # x*y^m - rho^m*y^m*x = v_m*y^(m-1)  and its mirror for powers of x
    ring = make()
    y, x = ring.gen_elem(ring.y_name), ring.gen_elem(ring.x_name)
    for m in range(1, 9):
        ym = pw(ring, y, m)
        lhs = ring.sub(ring.mul(x, ym), ring.smul(ring.rho ** m, ring.mul(ym, x)))
        rhs = ring.mul(ring.embed(ring.v_m(m)), pw(ring, y, m - 1))
        assert ring.eq(lhs, rhs)
        xm = pw(ring, x, m)
        lhs = ring.sub(ring.mul(xm, y), ring.smul(ring.rho ** m, ring.mul(y, xm)))
        c = ring.v_m(m)
        for _ in range(m - 1):
            c = ring.base.apply(ring.beta, c)
        rhs = ring.mul(ring.embed(c), pw(ring, x, m - 1))
        assert ring.eq(lhs, rhs)


@pytest.mark.parametrize("name,make", IDENTITY_RINGS, ids=[n for n, _ in IDENTITY_RINGS])
def test_power_products_telescope(name, make):
    ring = make()
    y, x = ring.gen_elem(ring.y_name), ring.gen_elem(ring.x_name)
    for m in range(1, 7):
        lhs = ring.mul(pw(ring, x, m), pw(ring, y, m))
        rhs = ring.one
        for l in range(m):
            rhs = ring.mul(rhs, w_alpha_power(ring, -l))
        assert ring.eq(lhs, rhs)
        lhs = ring.mul(pw(ring, y, m), pw(ring, x, m))
        rhs = ring.one
        for l in range(1, m + 1):
            rhs = ring.mul(rhs, w_alpha_power(ring, l))
        assert ring.eq(lhs, rhs)


def test_w_commutes_through_gamma():
    rng = random.Random(11)
    ctx, alg, ring = fc4_mixed()
    w = ring.w_element()
    for _ in range(10):
        a = ring.embed(random_elem(alg, rng))
        assert ring.eq(ring.mul(w, a), ring.mul(ring.apply(
            NestedAuto(ring.gamma, ctx.one, ctx.one), a), w))


def test_v_m_matches_direct_sum():
    # v_m = sum over l < m of rho^l alpha^l(v)
    ctx, alg, ring = fc4_mixed()
    acc = alg.zero
    term = dict(ring.v)
    scale = ctx.one
    for m in range(1, 9):
        acc = alg.add(acc, alg.smul(scale, term))
        assert alg.eq(ring.v_m(m), acc)
        term = alg.apply(ring.alpha, term)
        scale = scale * ring.rho


def test_v_m_closed_forms():
    weyl = weyl_over_field()
    for m in range(1, 9):
        assert weyl.base.eq(weyl.v_m(m), weyl.base.from_scalar(weyl.ctx.int_(m)))
    qw = quantized_weyl()
    q = qw.ctx.param("q")
    for m in range(1, 9):
        assert qw.base.eq(qw.v_m(m), qw.base.from_scalar(q_integer(m, q)))
    ctx, alg, mixed = fc4_mixed()
    mu = ctx.param("mu")
    for m in range(1, 9):
        expected = {3: ctx.int_(m) * mu}
        if m % 2:
            expected[1] = ctx.one
        assert alg.eq(mixed.v_m(m), expected)


# -- associativity and confluence ------------------------------------------------


ASSOC_RINGS = [
    ("quantum_plane", lambda: quantum_plane()),
    ("fc2_block", lambda: fc2_block()[2]),
    ("fc4_mixed", lambda: fc4_mixed()[2]),
    ("poly_shift", lambda: poly_shift()[2]),
    ("laurent_scale", lambda: laurent_scale()[2]),
]


@pytest.mark.parametrize("name,make", ASSOC_RINGS, ids=[n for n, _ in ASSOC_RINGS])
def test_associativity_on_random_triples(name, make):
    ring = make()
    rng = random.Random(hash(name) % 100000)
    for _ in range(40):
        f = random_elem(ring, rng)
        g = random_elem(ring, rng)
        h = random_elem(ring, rng)
        assert ring.eq(ring.mul(ring.mul(f, g), h), ring.mul(f, ring.mul(g, h)))


@pytest.mark.parametrize("name,make", ASSOC_RINGS, ids=[n for n, _ in ASSOC_RINGS])
def test_confluence_against_single_step_rewriting(name, make):
    ring = make()
    rng = random.Random(len(name))
    for _ in range(40):
        f = random_elem(ring, rng)
        g = random_elem(ring, rng)
        assert ring.eq(ring.mul(f, g), slow_mul(ring, f, g))


def test_grading_respected_by_products():
    rng = random.Random(23)
    ring = fc2_block()[2]
    for _ in range(25):
        f = random_elem(ring, rng)
        g = random_elem(ring, rng)
        fparts = homogeneous_components(ring, f)
        gparts = homogeneous_components(ring, g)
        for df, fc in fparts.items():
            for dg, gc in gparts.items():
                prod = ring.mul(fc, gc)
                degrees = set(homogeneous_components(ring, prod))
                assert degrees <= {df + dg}


# -- conformality ------------------------------------------------------------------


def test_quantum_plane_splits_at_zero():
    ring = quantum_plane()
    conf = ring.conformality()
    assert conf.status is Status.HOLDS
    assert ring.base.is_zero(conf.u)
    assert ring.eq(conf.casimir, ring.w_element())


def test_weyl_is_singular_with_resonance_witness():
    conf = weyl_over_field().conformality()
    assert conf.status is Status.FAILS
    assert conf.detail == {"kind": "resonant_monomial", "monomial": "1",
                           "scale": "1"}


def test_quantized_weyl_splitting_element():
    ring = quantized_weyl()
    q = ring.ctx.param("q")
    conf = ring.conformality()
    assert conf.status is Status.HOLDS
    assert ring.base.eq(conf.u, ring.base.from_scalar((ring.ctx.one - q).inv()))


def test_casimir_commutation_certificates():
    for ring in (quantum_plane(), quantized_weyl()):
        conf = ring.conformality()
        z = conf.casimir
        y, x = ring.gen_elem(ring.y_name), ring.gen_elem(ring.x_name)
        assert ring.eq(ring.mul(z, y), ring.smul(ring.rho, ring.mul(y, z)))
        assert ring.eq(ring.mul(z, x), ring.smul(ring.rho.inv(), ring.mul(x, z)))


def test_fc2_conformality_depends_on_trace():
    ctx = ScalarContext(parameters=("c",))
    alg = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    c = ctx.param("c")
    # no component on the trivial character monomial: u = (c/2)*s works
    ring = AmbiskewRing(alg, DiagonalAuto((-ctx.one,)), {1: c}, ctx.one)
    conf = ring.conformality()
    assert conf.status is Status.HOLDS
    assert alg.eq(conf.u, {1: c / ctx.int_(2)})
    # the fc2 block of the reflection algebra carries 2t on the identity
    conf = fc2_block()[2].conformality()
    assert conf.status is Status.FAILS
    assert conf.detail["monomial"] == "1"


def test_fc4_homogeneous_resonance():
    # v = s^a with rho = eps^-a is always singular
    ctx = ScalarContext(cyclotomic_order=4)
    eps = ctx.zeta(1)
    alg = CyclicGroupAlgebra(ctx, 4, eps)
    for a in range(4):
        ring = AmbiskewRing(alg, DiagonalAuto((eps,)), {a: ctx.one}, eps ** (-a))
        conf = ring.conformality()
        assert conf.status is Status.FAILS
        assert conf.detail["kind"] == "resonant_monomial"


def test_fc4_mixed_is_singular_but_off_resonance_splits():
    ctx, alg, ring = fc4_mixed()
    conf = ring.conformality()
    assert conf.status is Status.FAILS
    assert conf.detail["monomial"] == "s^3"
    # dropping the resonant component leaves a splittable v
    eps = ctx.zeta(1)
    other = AmbiskewRing(alg, DiagonalAuto((eps,)), {1: ctx.one}, eps)
    assert other.conformality().status is Status.HOLDS


def test_laurent_scale_splitting():
    ctx, alg, ring = laurent_scale()
    q, r = ctx.param("q"), ctx.param("r")
    conf = ring.conformality()
    assert conf.status is Status.HOLDS
    assert alg.eq(conf.u, {1: (ctx.one - r * q).inv()})


def test_poly_shift_window_solutions():
    # constants need degree one: u = -t solves u - u(t+1) = 1
    ctx, alg, ring = poly_shift()
    conf = ring.conformality()
    assert conf.status is Status.HOLDS
    assert alg.eq(conf.u, {1: -ctx.one})
    # characteristic 3: v = t is solvable one degree up
    ctx3 = ScalarContext(characteristic=3)
    alg3 = PolyAlgebra(ctx3)
    t_elem = {1: ctx3.one}
    ring3 = AmbiskewRing(alg3, AffineAuto(ctx3.one, ctx3.one), t_elem, ctx3.one)
    conf = ring3.conformality()
    assert conf.status is Status.HOLDS
    assert alg3.eq(conf.u, {2: ctx3.one, 1: ctx3.int_(2)})
    check = alg3.sub(conf.u, alg3.apply(ring3.alpha, conf.u))
    assert alg3.eq(check, t_elem)
    # characteristic 2: v = t lies outside the image, definitively
    ctx2 = ScalarContext(characteristic=2)
    alg2 = PolyAlgebra(ctx2)
    ring2 = AmbiskewRing(alg2, AffineAuto(ctx2.one, ctx2.one),
                         {1: ctx2.one}, ctx2.one)
    conf = ring2.conformality()
    assert conf.status is Status.FAILS
    assert conf.detail["kind"] == "no_polynomial_splitting"


def test_solve_splitting_shift_degree_growth():
    rng = random.Random(5)
    ctx = ScalarContext()
    alg = PolyAlgebra(ctx)
    shift = AffineAuto(ctx.one, ctx.one)
    for _ in range(10):
        v = random_elem(alg, rng, terms=2)
        if not v:
            continue
        u = solve_splitting_ex(alg, shift, alg.identity_auto(), v, ctx.one)[0]
        assert u is not None
        assert alg.eq(alg.sub(u, alg.apply(shift, u)), v)
        assert max(u) == max(v) + 1


def test_solve_splitting_reports_honest_refusal():
    # a tower base with a shifted polynomial ground floor is not diagonal
    ctx, alg, ring = poly_shift()
    alpha = NestedAuto(ring.alpha, ctx.one, ctx.one)
    u, detail, complete = solve_splitting_ex(
        ring, alpha, ring.identity_auto(), ring.gen_elem("t"), ctx.int_(2))
    assert u is None and not complete
    assert detail == {"kind": "nondiagonal_automorphism"}


# -- induced and extended automorphisms ----------------------------------------------


def test_normalizing_auto_of_group_monomial_in_tower():
    ctx, alg, ring = fc4_mixed()
    eps = ctx.zeta(1)
    for h in range(4):
        gamma = ring.normalizing_auto(ring.embed({h: ctx.int_(3)}))
        assert gamma is not None
        assert gamma.lam_y == eps ** (-h)
        assert gamma.lam_x == eps ** h
        assert gamma.base == alg.identity_auto()


def test_normalizing_auto_of_quantized_casimir():
    # v = 1 + (q - 1)*y*x is normal in the quantized Weyl algebra
    ring = quantized_weyl()
    ctx = ring.ctx
    q = ctx.param("q")
    v = ring.add(ring.one, ring.smul(q - ctx.one,
                                     ring.mul(ring.gen_elem("y"), ring.gen_elem("x"))))
    gamma = ring.normalizing_auto(v)
    assert gamma is not None
    assert gamma.lam_y == q
    assert gamma.lam_x == q.inv()
    for name in ring.gens():
        g = ring.gen_elem(name)
        assert ring.eq(ring.mul(v, g), ring.mul(ring.apply(gamma, g), v))


def test_normalizing_auto_of_casimir_matches_gamma_extension():
    ring = quantum_plane()
    z = ring.conformality().casimir
    gamma = ring.normalizing_auto(z)
    assert gamma.lam_y == ring.rho
    assert gamma.lam_x == ring.rho.inv()


def test_validate_auto_requires_v_scale():
    ctx, alg, ring = fc4_mixed()
    bad = NestedAuto(alg.identity_auto(), ctx.int_(2), ctx.one)
    with pytest.raises(ValueError, match="scale v"):
        ring.validate_auto(bad)


def test_auto_order_and_eigenvalue():
    # v = s + mu*s^3 scales by eps^2 under the square of the base scaling
    ctx, alg, ring = fc4_mixed()
    eps = ctx.zeta(1)
    auto = NestedAuto(DiagonalAuto((eps ** 2,)), -ctx.one, -eps ** 2)
    ring.validate_auto(auto)
    assert ring.auto_order(auto) == 2
    key = (1, 1, 2)
    expected = (eps ** 2) ** 2 * (-ctx.one) * (-eps ** 2)
    assert ring.eigenvalue(auto, key) == expected


def test_diagonal_auto_round_trip():
    ctx, alg, ring = fc4_mixed()
    eps = ctx.zeta(1)
    scales = {"s": eps ** 2, "y1": ctx.int_(5), "x1": ctx.int_(2)}
    auto = ring.auto_from_images(
        {name: ring.smul(scale, ring.gen_elem(name)) for name, scale in scales.items()})
    for name, scale in scales.items():
        g = ring.gen_elem(name)
        assert ring.eq(ring.apply(auto, g), ring.smul(scale, g))


# -- ring-level decision hooks --------------------------------------------------------


def test_nested_units_and_regularity():
    ctx, alg, ring = fc2_block()
    t = ctx.param("t")
    ans = ring.is_unit(ring.embed({0: t, 1: t}))
    assert ans.status is Status.FAILS  # killed by the sign character
    ans = ring.is_unit(ring.embed({0: t}))
    assert ans.status is Status.HOLDS
    assert ring.eq(ring.mul(ring.embed({0: t}), ans.inverse), ring.one)
    # outside bidegree (0, 0) over a non-domain the answer is honest
    assert ring.is_unit(ring.gen_elem("y1")).status is Status.INCONCLUSIVE
    assert not ring.is_domain()
    # over a domain base the grading decides
    qp = quantum_plane()
    assert qp.is_domain()
    ans = qp.is_unit(qp.gen_elem("y"))
    assert ans.status is Status.FAILS
    assert ans.certificate == {"kind": "nonconstant_in_domain"}
    assert qp.is_regular(qp.gen_elem("y")).status is Status.HOLDS


def test_nested_pencil_defers_to_base():
    ctx, alg, ring = fc2_block()
    base_p = alg.one
    base_b = {0: -ctx.int_(6)}
    assert ring.first_nonunit_in_pencil(ring.embed(base_p), ring.embed(base_b)) == 6
    # a unit of a domain tower lies in its coefficient algebra, and so does
    # every v^(m) of a unit v, so a pencil outside it is refused
    qp = quantum_plane()
    p = qp.gen_elem("y")
    b = qp.smul(-qp.ctx.int_(2), qp.gen_elem("y"))
    with pytest.raises(ValueError, match="does not decide unit pencils"):
        qp.first_nonunit_in_pencil(p, b)


def test_nested_radical_and_comaximal_shortcuts():
    qp = quantum_plane()
    y = qp.gen_elem("y")
    assert qp.radical_contains(qp.one, y).status is Status.HOLDS
    assert qp.radical_contains(y, qp.zero).status is Status.HOLDS
    assert qp.radical_contains(qp.zero, y).status is Status.FAILS
    assert qp.radical_contains(y, qp.one).status is Status.INCONCLUSIVE
    assert qp.comaximal(qp.one, y).status is Status.HOLDS
    assert qp.comaximal(qp.zero, qp.zero).status is Status.FAILS
    # y generates a proper ideal that every scalar multiple of y shares
    assert qp.comaximal(y, y).status is Status.FAILS


# -- rendering --------------------------------------------------------------------


def test_render_layout():
    ctx, alg, ring = fc2_block()
    t = ctx.param("t")
    sample = {(2, 1, 0): -ctx.one / ctx.int_(2)}
    assert ring.render(sample) == "-1/2*x1^2*y1"
    two_block = {(0, 0, 0): ctx.one, (1, 1, 0): t, (1, 1, 1): t}
    assert ring.render(two_block) == "1 + x1*(t*s + t)*y1"
    assert ring.render(ring.zero) == "0"
    assert ring.render(ring.w_element()) == "x1*y1"


@lru_cache(maxsize=None)
def _render_algebras(i: int) -> list:
    """Every coefficient family over RENDER_CTXS[i], an ambiskew ring over
    K[t], a tower over that ring and a GWA over K[t^+-1]."""
    ctx = RENDER_CTXS[i]
    field, poly, laurent = FieldAlgebra(ctx), PolyAlgebra(ctx), LaurentAlgebra(ctx)
    n = max(ctx.cyclotomic_order, 2)
    cyclic = CyclicGroupAlgebra(ctx, n, ctx.zeta() if n > 2 else -ctx.one)
    ring = AmbiskewRing(poly, poly.identity_auto(), poly.gen_elem("t"), ctx.int_(2))
    tower = AmbiskewRing(ring, ring.identity_auto(), ring.one, ctx.one,
                         y_name="y2", x_name="x2")
    gwa = GwaRing(laurent, DiagonalAuto((ctx.int_(2),)), laurent.gen_elem("t"))
    return [field, poly, laurent, cyclic, QuadraticAlgebra(ctx, ctx.int_(2)),
            ring, tower, gwa]


@st.composite
def _render_scalar(draw, ctx: ScalarContext) -> Scalar:
    """A nonzero scalar of up to three terms c*zeta^j*q^e*r^f, e and f in
    -2..2, over one or two such terms."""
    def poly(size: int) -> Scalar:
        out = ctx.zero
        for _ in range(size):
            c = ctx.fraction(Fraction(draw(st.integers(-4, 4)),
                                      draw(st.sampled_from((1, 1, 2, 3)))))
            if ctx.cyclotomic_order > 1:
                c = c * ctx.zeta(draw(st.integers(0, ctx.cyclotomic_order - 1)))
            for name in ctx.parameters:
                c = c * ctx.param(name) ** draw(st.integers(-2, 2))
            out = out + c
        return out
    num, den = poly(draw(st.integers(1, 3))), poly(draw(st.integers(1, 2)))
    assume(num and den)
    return num / den


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rendering_matches_the_earlier_renderer_in_every_algebra(data):
    i = data.draw(st.integers(0, len(RENDER_CTXS) - 1))
    alg = data.draw(st.sampled_from(_render_algebras(i)))
    base = alg.base if isinstance(alg, GwaRing) else None
    pool = ([(d, k) for d in range(-2, 3) for k in key_pool(base)]
            if base else key_pool(alg))
    keys = data.draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
    elem = {key: data.draw(_render_scalar(alg.ctx)) for key in keys}
    assert alg.render(elem) == oracle_render(alg, elem)


# -- hypothesis: ring axioms ---------------------------------------------------------


@st.composite
def _qw_elems(draw):
    ring = quantized_weyl()
    keys = [(i, j, ()) for i in range(2) for j in range(2)]
    elems = []
    for _ in range(3):
        elem = {}
        for key in keys:
            n = draw(st.integers(min_value=-2, max_value=2))
            if n:
                elem[key] = ring.ctx.int_(n)
        elems.append(elem)
    return ring, elems


@given(_qw_elems())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(data):
    ring, (f, g, h) = data
    assert ring.eq(ring.mul(ring.mul(f, g), h), ring.mul(f, ring.mul(g, h)))
    assert ring.eq(ring.mul(f, ring.add(g, h)),
                   ring.add(ring.mul(f, g), ring.mul(f, h)))
    assert ring.eq(ring.mul(ring.add(f, g), h),
                   ring.add(ring.mul(f, h), ring.mul(g, h)))
    assert ring.eq(ring.mul(f, ring.one), f)
    assert ring.eq(ring.mul(ring.one, f), f)


# -- hypothesis: in-place products against the term-by-term product ----------------


def _reference_times_x(ring, f):
    # (x^s c y^t) * x = rho^-t * (x^{s+1} beta^{-1}(c) y^t - x^s c v_t y^{t-1})
    base, out = ring.base, {}
    rinv = ring.rho.inv()
    for (s, t), c in ring.grouped(f).items():
        scale = rinv ** t
        lead = base.smul(scale, base.apply(ring.beta_inv, c))
        out = ring.add(out, ring._flat((s + 1, t), lead))
        if t:
            tail = base.smul(-scale, base.mul(c, ring.v_m(t)))
            out = ring.add(out, ring._flat((s, t - 1), tail))
    return out


def _reference_mul(ring, f, g):
    """f*g with every partial sum a fresh copy: for an ambiskew ring,
    f * x^k * b * y^l one x at a time; for a GWA, pair by pair."""
    base, out = ring.base, {}
    if isinstance(ring, GwaRing):
        for (d1,), b in ring.grouped(f).items():
            for (d2,), c in ring.grouped(g).items():
                coeff = base.mul(b, base.apply(ring._cross(d1), c))
                i, k = d1, d2
                while i > 0 and k < 0:
                    coeff = base.mul(coeff, base.apply(ring._cross(i), ring.u))
                    i, k = i - 1, k + 1
                while i < 0 and k > 0:
                    coeff = base.mul(coeff, base.apply(ring._cross(i + 1), ring.u))
                    i, k = i + 1, k - 1
                out = ring.add(out, ring._flat((i + k,), coeff))
        return out
    fx = [f]
    for (k, l), b in sorted(ring.grouped(g).items()):
        while len(fx) <= k:
            fx.append(_reference_times_x(ring, fx[-1]))
        # (x^s c y^t) * b * y^l = x^s (c * alpha^t(b)) y^(t+l)
        for (s, t), c in ring.grouped(fx[k]).items():
            image = base.apply(base.auto_power(ring.alpha, t), b)
            out = ring.add(out, ring._flat((s, t + l), base.mul(c, image)))
    return out


def _gwa_over_laurent():
    ctx = ScalarContext(parameters=("q",))
    alg = LaurentAlgebra(ctx)
    q = ctx.param("q")
    return GwaRing(alg, DiagonalAuto((q,)), {0: ctx.one, 1: q})


def _two_level_tower():
    return parse_spec("""context(cyclotomic_order = 3, parameters = [l])
base A = cyclic_group(n = 3, epsilon = zeta)
auto a on A { s -> zeta*s }
ring R1 = ambiskew(A, a, v = s, rho = zeta^-1, y = y1, x = x1)
auto b on R1 { s -> zeta*s, y1 -> l*y1, x1 -> zeta*l^-1*x1 }
ring R2 = ambiskew(R1, b, v = s^2, rho = l + 1, y = y2, x = x2)
""").rings["R2"]


def test_an_application_makes_each_scale_power_once(monkeypatch):
    # each automorphism keeps the powers of lam_x and lam_y it has made,
    # so the whole product raises each scale once per exponent: 14 powers
    ring = _two_level_tower()
    calls = []
    power = Scalar.__pow__

    def counting(self, k):
        calls.append(k)
        return power(self, k)

    monkeypatch.setattr(Scalar, "__pow__", counting)
    eval_element(parse_expression("(x2 + y2 + y1 + x1)^4"), ring)
    assert len(calls) <= 14


PRODUCT_RINGS = {
    "weyl_over_shift": lambda: poly_shift()[2],
    "quantum_plane": quantum_plane,
    "fc4_mixed": lambda: fc4_mixed()[2],
    "gwa_over_laurent": _gwa_over_laurent,
    "two_level_tower": _two_level_tower,
}


def _shared(ring):
    """What a product reads but must never write: the normal element, the
    one of each coefficient level and the v_m kept by each ambiskew level."""
    out = []
    while hasattr(ring, "base"):
        out.append(getattr(ring, ring.normal_name))
        out.append(ring.base.one)
        if isinstance(ring, AmbiskewRing):
            out.extend(ring.v_m(t) for t in range(4))
        ring = ring.base
    return out


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_RINGS)), st.integers(0, 2**32),
       st.integers(1, 3))
def test_in_place_products_match_the_term_by_term_product(name, seed, terms):
    ring, rng = PRODUCT_RINGS[name](), random.Random(seed)
    f, g, h = (random_small_elem(ring, rng, terms) for _ in range(3))
    keep = {id(ring.ctx): ring.ctx}
    before = copy.deepcopy((f, g, h, _shared(ring)), keep)
    fg = ring.mul(f, g)
    assert fg == _reference_mul(ring, f, g)
    assert ring.eq(ring.mul(fg, h), ring.mul(f, ring.mul(g, h)))
    for prod in (fg, ring.mul(g, f), ring.mul(fg, h)):
        assert not any(s.is_zero() for s in prod.values())
    assert (f, g, h, _shared(ring)) == before


# -- hypothesis: the products that add in place against the earlier ones ----------


# the earlier product, kept as the oracle of ``AmbiskewRing.mul``: it builds
# each coefficient product as its own element and adds it a second time into
# the sum of its degree (``_add_at``), scaling every c*v_t by -rho^-t
def _add_at(groups, deg, c, s=None):
    acc = groups.get(deg)
    if acc is None:
        acc = groups[deg] = {}
    _eadd_into(acc, c, s)
    if not acc:
        del groups[deg]


def _oracle_times_x(ring, groups, rinv):
    base = ring.base
    out = {}
    for (s, t), c in groups.items():
        while len(rinv) <= t:
            rinv.append(rinv[1] * rinv[-1] if len(rinv) > 1 else ring.rho.inv())
        _add_at(out, (s + 1, t), base.apply(ring.beta_inv, c), rinv[t])
        if t and (vt := ring.v_m(t)):
            _add_at(out, (s, t - 1), base.mul(c, vt), -rinv[t])
    return out


def _oracle_mul(ring, f, g):
    base = ring.base
    out = {}
    fx, rinv = [ring.grouped(f)], [None]
    for (k, l), b in sorted(ring.grouped(g).items()):
        while len(fx) <= k:
            fx.append(_oracle_times_x(ring, fx[-1], rinv))
        images = [b]
        for (s, t), c in fx[k].items():
            while len(images) <= t:
                images.append(base.apply(ring.alpha, images[-1]))
            _add_at(out, (s, t + l), base.mul(c, images[t]))
    return _ungroup(out)


def _charp_scaling():
    """R(F_7[t], t -> 3t, 1 + t, 2): rho^-t differs from rho^t."""
    ctx = ScalarContext(characteristic=7)
    alg = PolyAlgebra(ctx)
    return AmbiskewRing(alg, AffineAuto(ctx.int_(3), ctx.zero),
                        {0: ctx.one, 1: ctx.one}, ctx.int_(2))


ORACLE_RINGS = {**dict(ASSOC_RINGS), "quantized_weyl": quantized_weyl,
                "two_level_tower": _two_level_tower,
                "charp_scaling": _charp_scaling}


def _graded_elem(ring, rng, terms, top):
    """Up to ``terms`` terms x^i a y^j with i, j <= top and a a basis
    monomial of the coefficient algebra, so products reach y-degree 2 and
    more, where rho^-t is read from what the product kept."""
    pool = key_pool(ring.base)
    return {(rng.randint(0, top), rng.randint(0, top), rng.choice(pool)):
            random_scalar(ring.ctx, rng, nonzero=True) for _ in range(terms)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ORACLE_RINGS)), st.integers(0, 2**32),
       st.integers(1, 3))
def test_products_match_the_earlier_product(name, seed, terms):
    ring, rng = ORACLE_RINGS[name](), random.Random(seed)
    top = 2 if name == "two_level_tower" else 3
    f, g = (_graded_elem(ring, rng, terms, top) for _ in range(2))
    # scalars compare by their stored num/den, so each entry is built as
    # the earlier product built it, not just equal in value
    assert exact(ring.mul(f, g)) == exact(_oracle_mul(ring, f, g))
    assert exact(ring.mul(g, f)) == exact(_oracle_mul(ring, g, f))


def test_the_v_term_makes_one_scalar_product_per_pair_of_terms(monkeypatch):
    # (x^s c y^t) * x adds c*wv[t] into its degree, with wv[t] = -rho^-t*v_t
    # formed once a product: |c|*|wv[t]| scalar products and no second pass
    # that scales each term of c*v_t.  The v-term's products are those a
    # ring makes beyond the same ring with v = 0, on the same groups, once
    # both have grown their lists of rho^-t and wv[t]
    ctx, alg, ring = fc4_mixed()
    flat = AmbiskewRing(alg, ring.alpha, {}, ring.rho, y_name="y1", x_name="x1")
    times_x, mul, seen = AmbiskewRing._times_x, Scalar.__mul__, []

    def capture(self, groups, rinv, wv):
        seen.append(copy.deepcopy(groups, {id(ctx): ctx}))
        return times_x(self, groups, rinv, wv)

    with monkeypatch.context() as patch:
        patch.setattr(AmbiskewRing, "_times_x", capture)
        eval_element(parse_expression("(s + y1 + x1)^10"), ring)
    counted = []

    def counting(self, other):
        counted.append(1)
        return mul(self, other)

    total = 0
    for groups in seen:
        lists = {r: ([None], [{}]) for r in (ring, flat)}
        made = {}
        for r, (rinv, wv) in lists.items():
            times_x(r, groups, rinv, wv)
            with monkeypatch.context() as patch:
                patch.setattr(Scalar, "__mul__", counting)
                counted.clear()
                times_x(r, groups, rinv, wv)
                made[r] = len(counted)
        wv = lists[ring][1]
        expect = sum(len(c) * len(wv[t]) for (_, t), c in groups.items())
        assert made[ring] - made[flat] == expect
        total += expect
    assert len(seen) == 15 and total > 100


def test_kept_powers_are_the_powers():
    # the scale's powers are kept by exponent, in whatever order a product
    # first asks for them, negative exponents apart from positive ones
    ctx = ScalarContext(parameters=("q",))
    q = ctx.param("q")
    laurent, auto = LaurentAlgebra(ctx), DiagonalAuto((q,))
    for keys in ([2, -1], [-2, 1, 3], [1, -2, 2, -1, -3]):
        a = {k: ctx.int_(k + 5) for k in keys}
        assert exact(laurent.apply(auto, a)) == exact(
            {k: s * q ** k for k, s in a.items()})
        assert all(laurent.eigenvalue(auto, k) == q ** k for k in keys)


def test_mutating_an_image_changes_no_later_image():
    ctx = ScalarContext(cyclotomic_order=4, parameters=("q",))
    one, q = ctx.one, ctx.param("q")
    tower = _two_level_tower()
    cases = [
        (LaurentAlgebra(ctx), DiagonalAuto((q,)), {-2: q, 0: one, 3: one}),
        (CyclicGroupAlgebra(ctx, 4, ctx.zeta()), DiagonalAuto((ctx.zeta(),)),
         {0: one, 1: q, 3: one}),
        (PolyAlgebra(ctx), AffineAuto(q, one), {0: q, 1: one, 3: one}),
        (PolyAlgebra(ctx), AffineAuto(q, one), {2: one}),
        (PolyAlgebra(ctx), AffineAuto(q, ctx.zero), {0: q, 2: one}),
        (tower.base, tower.alpha,
         _graded_elem(tower.base, random.Random(5), 3, 2)),
    ]
    for alg, auto, a in cases:
        image = alg.apply(auto, a)
        expected = exact(image)
        for key in image:
            image[key] = 2 * image[key]
        image.popitem()
        assert exact(alg.apply(auto, a)) == expected
