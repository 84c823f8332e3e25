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
    scalar_ratio,
)
from ambiskew.rings import AmbiskewRing
from ambiskew.scalars import ScalarContext, root_of_unity_order
from ambiskew import simplicity
from ambiskew.dsl import eval_element, parse_expression, parse_spec
from ambiskew.simplicity import (
    every_v_m_unit,
    ring_alpha_simple,
    simple,
    simple_iterated,
    singular,
    skew_laurent_simple,
    units_for_all_m,
)
from ambiskew.verdict import Status

from _helpers import (
    fc2_block,
    fc4_mixed,
    poly_shift,
    q_integer,
    quadratic_conjugation,
    quantized_weyl,
    quantum_plane,
    weyl_over_field,
)


def _conditions(verdict):
    return dict(verdict.conditions)


def _fc2_ring(rho, c0, c1, characteristic=0, parameters=()):
    ctx = ScalarContext(characteristic=characteristic, parameters=parameters)
    alg = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    v = {}
    if c0:
        v[0] = ctx.fraction(Fraction(c0))
    if c1:
        v[1] = ctx.fraction(Fraction(c1))
    ring = AmbiskewRing(alg, DiagonalAuto((-ctx.one,)), v,
                        ctx.fraction(Fraction(rho)))
    return ctx, alg, ring


# -- units_for_all_m -------------------------------------------------------------


def test_units_weyl_eigen_certificate():
    ring = weyl_over_field()
    verdict = units_for_all_m(ring)
    assert verdict.status is Status.HOLDS
    assert verdict.certificate == {"kind": "periodic_units", "period": 1}


def test_units_root_of_unity_ratio_fails():
    ctx = ScalarContext(cyclotomic_order=5)
    field = FieldAlgebra(ctx)
    ring = AmbiskewRing(field, field.identity_auto(), field.one, ctx.zeta(1))
    verdict = units_for_all_m(ring)
    assert verdict.status is Status.FAILS
    assert verdict.certificate == {"kind": "nonunit_v_m", "m": 5,
                                   "value": "0", "detail": {"kind": "zero"}}
    assert q_integer(5, ctx.zeta(1)).is_zero()
    assert field.is_zero(ring.v_m(5))


def test_units_vanish_at_p_in_char_p():
    ring = weyl_over_field(characteristic=5)
    verdict = units_for_all_m(ring)
    assert verdict.status is Status.FAILS
    assert verdict.certificate["m"] == 5
    assert ring.base.is_zero(ring.v_m(5))


def test_units_pencil_finds_least_nonunit():
    ctx, alg, ring = _fc2_ring(1, 1, 3)
    verdict = units_for_all_m(ring)
    assert verdict.status is Status.FAILS
    assert verdict.certificate["m"] == 3

    # independent recurrence v^(m+1) = v + alpha(v^(m)) on coefficient pairs,
    # with alpha(c0 + c1*s) = c0 - c1*s; non-unit means a character vanishes
    total, first = (Fraction(0), Fraction(0)), None
    for m in range(1, 50):
        total = (Fraction(1) + total[0], Fraction(3) - total[1])
        if total[0] + total[1] == 0 or total[0] - total[1] == 0:
            first = m
            break
    assert first == 3


def test_units_formal_parameters_stay_invertible():
    ctx, alg, ring = fc2_block()
    verdict = units_for_all_m(ring)
    assert verdict.status is Status.HOLDS
    assert verdict.certificate == {"kind": "periodic_units", "period": 2}


def test_units_with_a_rational_factor_decide():
    # (rho*alpha)^2 rescales v = 1 + s by rho^2 = 4: once a bounded scan
    ctx, alg, ring = quadratic_conjugation(2, 1, 1)
    verdict = units_for_all_m(ring)
    assert verdict.status is Status.HOLDS
    assert verdict.certificate == {"kind": "periodic_units", "period": 2,
                                   "ratio": "4"}
    assert all(alg.is_unit(ring.v_m(m)).status is Status.HOLDS
               for m in range(1, 60))


def test_units_truncated_scan_is_inconclusive(monkeypatch):
    # rho = 1 + zeta makes the factor rho^2 = 2*zeta, neither rational nor
    # parametric, so the pencil solver refuses and the scan runs
    ctx = ScalarContext(cyclotomic_order=4)
    alg = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    ring = AmbiskewRing(alg, DiagonalAuto((-ctx.one,)),
                        {0: ctx.int_(2), 1: ctx.one}, ctx.one + ctx.zeta())
    verdict = units_for_all_m(ring)
    assert "2*zeta" in verdict.reason
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.certificate == {"kind": "bounded_scan", "m_max": 200}
    monkeypatch.setattr(bounds, "M_MAX", 12)
    tight = units_for_all_m(ring)
    assert tight.status is Status.INCONCLUSIVE
    assert tight.certificate["m_max"] == 12


def test_units_zero_v_fails_at_one():
    ring = quantum_plane()
    verdict = units_for_all_m(ring)
    assert verdict.status is Status.FAILS
    assert verdict.certificate == {"kind": "nonunit_v_m", "m": 1,
                                   "value": "0", "detail": {"kind": "zero"}}


def _plane_over_group_algebra():
    """The quantum plane x1*y1 = 2*y1*x1 over K[C_2], which is no domain,
    so the unit tests of its non-constant elements stay undecided."""
    ctx = ScalarContext()
    alg = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    return AmbiskewRing(alg, alg.identity_auto(), {}, ctx.int_(2),
                        y_name="y1", x_name="x1")


def test_units_scan_stops_at_an_undecided_answer(monkeypatch):
    # v = x1 is normal and repeats with period 1, but whether it is a unit
    # of the plane is not decided, so the scan stops at m = 1
    plane = _plane_over_group_algebra()
    ring = AmbiskewRing(plane, plane.identity_auto(), plane.gen_elem("x1"),
                        plane.ctx.one, y_name="y2", x_name="x2")
    stops, scan = [], simplicity.bounded_scan

    def recording(*args):
        stops.append(scan(*args))
        return stops[-1]

    monkeypatch.setattr(simplicity, "bounded_scan", recording)
    verdict = units_for_all_m(ring)
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.reason == "whether v^(1) is a unit was not decided"
    assert stops == [verdict]


def test_zero_v_with_undecided_nilpotence_is_inconclusive():
    # v = 0 is rescaled by anything, so its period is 1; whether the zero
    # v^(1) is a unit of A[1/x1] is whether x1 is nilpotent, not decided
    plane = _plane_over_group_algebra()
    ring = AmbiskewRing(plane, plane.identity_auto(), {}, plane.ctx.int_(3),
                        y_name="y2", x_name="x2")
    assert ring.v_period() == (1, plane.ctx.one)
    verdict = every_v_m_unit(ring, watch=plane.gen_elem("x1"))
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.reason == ("whether v^(1) is a unit in A[1/u] was not "
                              "decided")


def _fc4_ring(mu):
    ctx = ScalarContext(cyclotomic_order=4)
    eps = ctx.zeta(1)
    alg = CyclicGroupAlgebra(ctx, 4, eps)
    v = {1: ctx.one, 3: ctx.fraction(Fraction(mu))}
    return units_for_all_m(AmbiskewRing(alg, DiagonalAuto((eps,)), v, eps))


def test_units_fc4_mixed_closed_form():
    # v^(m) is s + m*mu*s^3 for odd m, m*mu*s^3 for even m, so the first
    # non-unit appears at the least odd a with a*mu = -+1.
    formal = units_for_all_m(fc4_mixed()[2])
    assert formal.status is Status.HOLDS
    assert _fc4_ring(Fraction(1, 3)).certificate["m"] == 3
    assert _fc4_ring(Fraction(-1, 5)).certificate["m"] == 5
    assert _fc4_ring(2).status is Status.HOLDS
    assert _fc4_ring(1).certificate["m"] == 1


def test_units_nonunit_eigenvector_fails_at_one():
    # R(K[t], t -> 2t, v = t, rho = 1): v is an eigenvector but no unit
    ctx = ScalarContext()
    poly = PolyAlgebra(ctx)
    ring = AmbiskewRing(poly, AffineAuto(ctx.int_(2), ctx.zero), {1: ctx.one},
                        ctx.one)
    assert scalar_ratio(poly, poly.apply(ring.alpha, ring.v), ring.v) == \
        ctx.int_(2)
    verdict = units_for_all_m(ring)
    assert verdict.status is Status.FAILS
    assert verdict.certificate == {
        "kind": "nonunit_v_m", "m": 1, "value": "t",
        "detail": {"kind": "positive_degree", "degree": 1}}


def test_units_scan_reports_a_nonunit():
    # under a shift, rho = 2 rescales no term 2^l*(t + l) back to v = t, so
    # there is no period and the bounded scan stops at v^(1)
    ctx = ScalarContext()
    poly = PolyAlgebra(ctx)
    ring = AmbiskewRing(poly, AffineAuto(ctx.one, ctx.one), {1: ctx.one},
                        ctx.int_(2))
    assert scalar_ratio(poly, poly.apply(ring.alpha, ring.v), ring.v) is None
    assert ring.v_period() is None
    verdict = units_for_all_m(ring)
    assert verdict.status is Status.FAILS
    assert verdict.reason == "v^(1) is not a unit"
    assert verdict.certificate == {
        "kind": "nonunit_v_m", "m": 1, "value": "t",
        "detail": {"kind": "positive_degree", "degree": 1}}


# -- singularity -----------------------------------------------------------------


def test_singular_weyl_resonance():
    verdict = singular(weyl_over_field())
    assert verdict.status is Status.HOLDS
    assert verdict.certificate["kind"] == "singular"


def test_conformal_quantized_weyl_splitting_replay():
    ring = quantized_weyl()
    verdict = singular(ring)
    assert verdict.status is Status.FAILS
    conf = ring.conformality()
    field, q = ring.base, ring.ctx.param("q")
    assert field.eq(conf.u, field.from_scalar((ring.ctx.one - q).inv()))
    lhs = field.sub(conf.u, field.smul(ring.rho, field.apply(ring.alpha, conf.u)))
    assert field.eq(lhs, ring.v)
    assert ring.eq(conf.casimir, ring.sub(ring.w_element(), ring.embed(conf.u)))


def test_singular_fc2_block():
    ctx, alg, ring = fc2_block()
    assert singular(ring).status is Status.HOLDS


def test_poly_scaling_splits_or_resonates_over_a_parameter():
    # over Q(q)[t] a scaling t -> a*t scales t^k by a^k
    ctx = ScalarContext(parameters=("q",))
    q, alg = ctx.param("q"), PolyAlgebra(ctx)
    scale = AffineAuto(q, ctx.zero)
    ring = AmbiskewRing(alg, scale, {0: ctx.one, 1: ctx.one}, ctx.int_(2))
    verdict = singular(ring)
    assert verdict.fails
    assert verdict.certificate["u"] == "((-1/2)/(q - 1/2))*t - 1"
    u = ring.conformality().u
    assert alg.eq(alg.sub(u, alg.smul(ctx.int_(2), alg.apply(scale, u))),
                  ring.v)
    verdict = singular(AmbiskewRing(alg, scale, alg.one, ctx.one))
    assert verdict.holds
    assert verdict.certificate["obstruction"] == {
        "kind": "resonant_monomial", "monomial": "1", "scale": "1"}
    ring = AmbiskewRing(alg, AffineAuto(ctx.int_(2), ctx.zero), {2: ctx.one},
                        ctx.fraction(Fraction(1, 4)))
    verdict = singular(ring)
    assert verdict.holds
    assert verdict.certificate["obstruction"]["monomial"] == "t^2"
    units = units_for_all_m(ring)
    assert units.fails and units.certificate["m"] == 1


# -- simple, characteristic zero -------------------------------------------------


def test_simple_char0_weyl():
    verdict = simple(weyl_over_field())
    assert verdict.status is Status.HOLDS
    assert verdict.theorem == "simple.char0"
    assert [name for name, _ in verdict.conditions] == [
        "alpha_simple", "singular", "units"]


def test_quantum_plane_reports_both_failures():
    verdict = simple(quantum_plane())
    assert verdict.status is Status.FAILS
    assert verdict.reason == "failed: singular, units"


def test_quadratic_conjugation_slices():
    # rho = 1 needs a != 0, rho = -1 needs b != 0, rho = 2 is conformal
    for a in (-2, 1):
        ctx, alg, ring = quadratic_conjugation(1, a, 1)
        assert simple(ring).status is Status.HOLDS
    ctx, alg, ring = quadratic_conjugation(1, 0, 2)
    verdict = simple(ring)
    assert verdict.status is Status.FAILS
    assert _conditions(verdict)["singular"].fails
    ctx, alg, ring = quadratic_conjugation(-1, 2, 1)
    assert simple(ring).status is Status.HOLDS
    ctx, alg, ring = quadratic_conjugation(2, 1, 1)
    verdict = simple(ring)
    assert verdict.status is Status.FAILS
    cert = _conditions(verdict)["singular"].certificate
    u = ring.conformality().u
    lhs = alg.sub(u, alg.smul(ring.rho, alg.apply(ring.alpha, u)))
    assert alg.eq(lhs, ring.v)


def test_gaussian_unit_commutator_is_simple():
    ctx, alg, ring = quadratic_conjugation(1, 1, 0)
    verdict = simple(ring)
    assert verdict.status is Status.HOLDS
    units = _conditions(verdict)["units"]
    assert units.certificate["kind"] == "periodic_units"
    assert units.certificate["period"] == 1


# -- simple, characteristic p ----------------------------------------------------


def test_simple_charp_weyl_f5():
    ring = weyl_over_field(characteristic=5)
    verdict = simple(ring)
    assert verdict.status is Status.FAILS
    assert verdict.theorem == "simple.charp"
    conds = _conditions(verdict)
    assert conds["alpha_simple"].holds
    cert = conds["no_generalized_splitting"].certificate
    assert cert["kind"] == "generalized_splitting"
    assert cert["n"] == 1 and cert["u"] == "0" and cert["b"] == ["4"]
    # replay the height-1 equation with b0 = -1 and u = 0:
    # rho^5*alpha(u) - u = v^5 + b0*v reads 0 = 1 - 1
    field, ctx = ring.base, ring.ctx
    b0 = field.smul(-ctx.one, field.one)
    rhs = field.add(field.one, field.mul(b0, ring.v))
    assert field.is_zero(rhs)
    assert conds["units"].certificate["m"] == 5


def test_poly_shift_char5_fails_on_all_three_conditions():
    ctx, alg, ring = poly_shift(characteristic=5)
    verdict = simple(ring)
    assert verdict.status is Status.FAILS
    conds = _conditions(verdict)
    ideal = conds["alpha_simple"].certificate
    assert ideal["kind"] == "stable_ideal"
    gen = {5: ctx.one, 1: -ctx.one}
    assert alg.render(gen) == ideal["generator"]
    assert alg.eq(alg.apply(ring.alpha, gen), gen)
    split = conds["no_generalized_splitting"]
    assert split.certificate["n"] == 0
    u = ring.conformality().u
    lhs = alg.sub(u, alg.smul(ring.rho, alg.apply(ring.alpha, u)))
    assert alg.eq(lhs, ring.v)
    assert conds["units"].certificate["m"] == 5


def test_laurent_monomial_char5_witness():
    ctx = ScalarContext(characteristic=5)
    alg = LaurentAlgebra(ctx)
    ring = AmbiskewRing(alg, alg.identity_auto(), {1: ctx.one}, ctx.one)
    verdict = simple(ring)
    cert = _conditions(verdict)["no_generalized_splitting"].certificate
    assert cert["n"] == 1 and cert["b"] == ["-t^4"]
    b0 = {4: -ctx.one}
    power5 = {5: ctx.one}
    assert alg.is_zero(alg.add(power5, alg.mul(b0, ring.v)))


def test_cyclic_char5_shortcut_witness():
    # C_4 over F_5 with eps = 2, alpha(s) = 2s, rho = 3 = 2^{-1}: singular,
    # and b0 = -v^4 = -s^4 = -1 closes the height-1 equation.
    ctx = ScalarContext(characteristic=5)
    two = ctx.int_(2)
    alg = CyclicGroupAlgebra(ctx, 4, two)
    ring = AmbiskewRing(alg, DiagonalAuto((two,)), {1: ctx.one}, ctx.int_(3))
    verdict = simple(ring)
    assert verdict.status is Status.FAILS
    cert = _conditions(verdict)["no_generalized_splitting"].certificate
    assert cert["n"] == 1 and cert["u"] == "0"
    assert cert["b"] == [alg.render(alg.smul(-ctx.one, alg.one))]


def test_charp_witness_with_nonzero_u():
    ctx = ScalarContext(characteristic=5, parameters=("m",))
    alg = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    ring = AmbiskewRing(alg, DiagonalAuto((-ctx.one,)),
                        {0: ctx.one, 1: ctx.param("m")}, ctx.one)
    verdict = simple(ring)
    split = _conditions(verdict)["no_generalized_splitting"]
    assert split.status is Status.FAILS
    assert split.certificate["n"] == 1
    assert split.certificate["u"] != "0"


def test_charp_nonmonomial_laurent_has_a_height_one_witness():
    # K[t^+-1] has no finite basis, and the closed form needs none: over F_5
    # with t -> 2t and rho = 3, w = t is the part of v = t + t^2 of
    # eigenvalue rho^-1 = 2, b0 = -w^4, and u solves the height-1 equation
    # rho^5*alpha(u) - u = v^5 + b0*v = t^10 - t^6 key by key
    ctx = ScalarContext(characteristic=5)
    alg = LaurentAlgebra(ctx)
    ring = AmbiskewRing(alg, DiagonalAuto((ctx.int_(2),)),
                        {1: ctx.one, 2: ctx.one}, ctx.int_(3))
    verdict = simple(ring)
    assert verdict.status is Status.FAILS
    assert verdict.reason == ("failed: alpha_simple, no_generalized_splitting, "
                              "units")
    split = _conditions(verdict)["no_generalized_splitting"]
    assert split.status is Status.FAILS
    assert split.reason == "a height-1 witness exists"
    assert split.certificate == {"kind": "generalized_splitting", "n": 1,
                                 "u": "t^10 - t^6", "b": ["-t^4"]}


def _finite_families(p):
    """(algebra, its diagonal automorphisms) for every finite family over
    F_p: the field, K[C_n] for each n dividing p - 1, and K[s]/(s^2 - d) for
    a square and a non-square d."""
    ctx = ScalarContext(characteristic=p)
    field = FieldAlgebra(ctx)
    out = [(field, [field.identity_auto()])]
    for n in range(2, p):
        if (p - 1) % n == 0:
            eps = next(ctx.int_(e) for e in range(2, p)
                       if root_of_unity_order(ctx.int_(e)) == n)
            alg = CyclicGroupAlgebra(ctx, n, eps)
            out.append((alg, [DiagonalAuto((eps ** j,)) for j in range(n)]))
    for d in (4, next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) != 1)):
        alg = QuadraticAlgebra(ctx, ctx.int_(d))
        out.append((alg, [alg.identity_auto(), alg.conjugation()]))
    return ctx, out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_singular_prime_field_quadruples_have_a_height_one_witness(p):
    # every v, so also those with several resonant keys, over every finite
    # family and diagonal alpha of a few primes: the theorem of the
    # ``simplicity`` docstring puts the witness at height 1
    ctx, families = _finite_families(p)
    rng = random.Random(p)
    seen = 0
    for alg, autos in families:
        keys = alg.finite_basis()
        for alpha in autos:
            for rho in range(1, p):
                for _ in range(3):
                    v = {k: ctx.int_(rng.randrange(p)) for k in keys}
                    v = {k: c for k, c in v.items() if not c.is_zero()}
                    if not v:
                        continue
                    ring = AmbiskewRing(alg, alpha, v, ctx.int_(rho))
                    if ring.conformality().status is not Status.FAILS:
                        continue
                    seen += 1
                    verdict = _conditions(simple(ring))[
                        "no_generalized_splitting"]
                    assert verdict.status is Status.FAILS
                    assert verdict.certificate["n"] == 1
    assert seen >= 10


@st.composite
def _singular_quadruples(draw):
    """(A, alpha, v, rho) over F_p, p from 3 to 13, with zero or one
    parameter q: the field, K[t] and K[t^+-1] under a scaling, K[C_n] and
    K[s]/(s^2 - d).  rho is the inverse eigenvalue of the first key of v,
    so v has a resonant part and the quadruple is singular."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    ctx = ScalarContext(characteristic=p,
                        parameters=draw(st.sampled_from(((), ("q",)))))
    q = ctx.param("q") if ctx.parameters else None

    def scalar():
        c = ctx.int_(draw(st.integers(1, p - 1)))
        if q is not None and draw(st.booleans()):
            c = c + ctx.int_(draw(st.integers(1, p - 1))) * q ** draw(
                st.integers(1, 2))
        return c

    family = draw(st.sampled_from(("field", "poly", "laurent", "cyclic",
                                   "quadratic")))
    if family == "field":
        alg = FieldAlgebra(ctx)
        alpha, keys = alg.identity_auto(), [()]
    elif family in ("poly", "laurent"):
        lam = ctx.int_(draw(st.integers(1, p - 1)))
        if q is not None and draw(st.booleans()):
            lam = lam * q ** draw(st.sampled_from((-1, 1)))
        if family == "poly":
            alg, alpha, keys = PolyAlgebra(ctx), AffineAuto(lam, ctx.zero), range(4)
        else:
            alg, alpha = LaurentAlgebra(ctx), DiagonalAuto((lam,))
            keys = range(-2, 3)
    elif family == "cyclic":
        n = draw(st.sampled_from([n for n in range(2, p) if (p - 1) % n == 0]))
        eps = next(ctx.int_(e) for e in range(2, p)
                   if root_of_unity_order(ctx.int_(e)) == n)
        alg = CyclicGroupAlgebra(ctx, n, eps)
        alpha, keys = DiagonalAuto((eps ** draw(st.integers(0, n - 1)),)), range(n)
    else:
        d = draw(st.sampled_from([ctx.int_(d) for d in range(1, p)]
                                 + ([q] if q is not None else [])))
        alg = QuadraticAlgebra(ctx, d)
        alpha = draw(st.sampled_from((alg.identity_auto(), alg.conjugation())))
        keys = [0, 1]
    support = draw(st.lists(st.sampled_from(list(keys)), min_size=1,
                            max_size=3, unique=True))
    v = {k: scalar() for k in support}
    return alg, alpha, v, alg.eigenvalue(alpha, support[0]).inv()


@settings(max_examples=80, deadline=None)
@given(_singular_quadruples())
def test_a_singular_quadruple_has_a_height_one_witness(case):
    # the theorem of the ``simplicity`` docstring, replayed from the rendered
    # certificate with the ring's arithmetic: alpha(b0) = rho^(1-p)*b0 and
    # rho^p*alpha(u) - u = v^p + b0*v
    alg, alpha, v, rho = case
    ring = AmbiskewRing(alg, alpha, v, rho)
    assert ring.conformality().status is Status.FAILS
    verdict = _conditions(simple(ring))["no_generalized_splitting"]
    assert verdict.status is Status.FAILS
    cert = verdict.certificate
    assert cert["kind"] == "generalized_splitting" and cert["n"] == 1
    u = eval_element(parse_expression(cert["u"]), alg)
    (b0,) = [eval_element(parse_expression(b), alg) for b in cert["b"]]
    p = ring.ctx.characteristic
    v_p = alg.one
    for _ in range(p):
        v_p = alg.mul(v_p, v)
    assert alg.eq(alg.apply(alpha, b0), alg.smul(rho ** (1 - p), b0))
    assert alg.eq(alg.sub(alg.smul(rho ** p, alg.apply(alpha, u)), u),
                  alg.add(v_p, alg.mul(b0, v)))
    assert verdict.reason.endswith(", with u = 0") == alg.is_zero(u)


# -- dispatch and stable ideals --------------------------------------------------


def test_simple_dispatches_on_characteristic():
    assert simple(weyl_over_field()).theorem == "simple.char0"
    assert simple(weyl_over_field(characteristic=5)).theorem == "simple.charp"


def test_alpha_simple_of_simple_ring():
    ctx = ScalarContext(cyclotomic_order=3, parameters=("l",))
    eps = ctx.zeta(1)
    alg = CyclicGroupAlgebra(ctx, 3, eps)
    ring = AmbiskewRing(alg, DiagonalAuto((eps,)), {1: ctx.one}, eps.inv(),
                        y_name="y1", x_name="x1")
    lam = ctx.param("l")
    auto = NestedAuto(DiagonalAuto((eps,)), lam, eps * lam.inv())
    verdict = ring_alpha_simple(ring, [auto])
    assert verdict.status is Status.HOLDS
    assert verdict.certificate == {"kind": "ring_simple"}


def test_alpha_simple_zero_v_names_stable_generator():
    ring = quantum_plane()
    q = ring.ctx.param("q")
    scaled = NestedAuto(ring.base.identity_auto(), q, q.inv())
    ring.validate_auto(scaled)
    for autos in ([scaled], [NestedAuto(ring.base.identity_auto(),
                                        ring.ctx.one, ring.ctx.one)]):
        verdict = ring_alpha_simple(ring, autos)
        assert verdict.status is Status.FAILS
        assert verdict.certificate == {"kind": "stable_ideal",
                                       "generator": "x"}


def test_alpha_simple_identity_uses_casimir():
    ring = quantized_weyl()
    identity = NestedAuto(ring.base.identity_auto(), ring.ctx.one,
                          ring.ctx.one)
    verdict = ring_alpha_simple(ring, [identity])
    assert verdict.status is Status.FAILS
    cert = verdict.certificate
    assert cert["kind"] == "stable_ideal"
    assert cert["generator"] == ring.render(ring.conformality().casimir)


def test_alpha_simple_tensor_route():
    ctx = ScalarContext(parameters=("t", "c"))
    alg = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    b1 = AmbiskewRing(alg, alg.identity_auto(), {0: 2 * ctx.param("t")},
                      ctx.one, y_name="y2", x_name="x2")
    tau = NestedAuto(DiagonalAuto((-ctx.one,)), ctx.one, ctx.one)
    b1.validate_auto(tau)
    verdict = ring_alpha_simple(b1, [tau])
    assert verdict.status is Status.HOLDS
    assert "Weyl algebra factor" in verdict.reason
    assert _conditions(verdict)["coefficient_ideals"].holds


def test_alpha_simple_refuses_unknown_shapes():
    ctx, alg, ring = quadratic_conjugation(2, 1, 0)
    auto = NestedAuto(alg.conjugation(), ctx.one, ctx.one)
    ring.validate_auto(auto)
    verdict = ring_alpha_simple(ring, [auto])
    assert verdict.status is Status.INCONCLUSIVE


# -- towers ----------------------------------------------------------------------


def test_height_one_chain_is_plain_criterion():
    ring = weyl_over_field()
    verdict = simple_iterated([ring])
    assert verdict.theorem == "simple.char0"
    assert verdict.status is Status.HOLDS


def test_chain_validation():
    with pytest.raises(ValueError, match="at least one"):
        simple_iterated([])
    r1 = weyl_over_field()
    r2 = weyl_over_field()
    with pytest.raises(ValueError, match="previous one"):
        simple_iterated([r1, r2])


def _weyl_tower(characteristic=0):
    """A_2 = R(A_1, identity, 1, 1) over the Weyl algebra A_1."""
    ctx = ScalarContext(characteristic=characteristic)
    field = FieldAlgebra(ctx)
    r1 = AmbiskewRing(field, field.identity_auto(), field.one, ctx.one,
                      y_name="y1", x_name="x1")
    r2 = AmbiskewRing(r1, r1.identity_auto(), r1.one, ctx.one,
                      y_name="y2", x_name="x2")
    return [r1, r2]


def test_tower_decides_in_characteristic_p():
    # over F_5 each level has the height-1 witness of a monomial v, and
    # v^(5) = 5 vanishes
    verdict = simple_iterated(_weyl_tower(characteristic=5))
    assert verdict.theorem == "simple.tower"
    assert verdict.status is Status.FAILS
    assert verdict.reason == "failed: level_1, level_2"
    level = _conditions(_conditions(verdict)["level_2"])
    assert list(level) == ["no_generalized_splitting", "units"]
    assert level["no_generalized_splitting"].certificate["n"] == 1
    assert level["units"].certificate == {"kind": "nonunit_v_m", "m": 5,
                                          "value": "0",
                                          "detail": {"kind": "zero"}}


def test_height_n_search_needs_a_diagonal_alpha():
    # t -> t + 1 mixes the monomials of F_5[t], and v = t^4 is no unit
    spec = parse_spec("context(characteristic = 5)\nbase P = poly(t)\n"
                      "auto a on P { t -> t + 1 }\n"
                      "ring R = ambiskew(P, a, v = t^4, rho = 1)\n")
    conds = _conditions(simple(spec.rings["R"]))
    split = conds["no_generalized_splitting"]
    assert split.status is Status.INCONCLUSIVE
    assert split.reason == ("the height-1 witness needs alpha diagonal on "
                            "the basis")
    assert conds["units"].certificate["m"] == 1


def _h_tc_chain(tv, cv, characteristic=0):
    ctx = ScalarContext(characteristic=characteristic)
    alg = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    t, c = ctx.fraction(Fraction(tv)), ctx.fraction(Fraction(cv))
    v1 = {}
    if tv:
        v1[0] = 2 * t
    if cv:
        v1[1] = -4 * c
    r1 = AmbiskewRing(alg, DiagonalAuto((-ctx.one,)), v1, ctx.one,
                      y_name="y1", x_name="x1")
    second = NestedAuto(alg.identity_auto(), ctx.one, ctx.one)
    v2 = r1.embed({0: 2 * t}) if tv else {}
    r2 = AmbiskewRing(r1, second, v2, ctx.one, y_name="y2", x_name="x2")
    return [r1, r2]


def _h_tc_order_a(tv, cv):
    return simple_iterated(_h_tc_chain(tv, cv))


def test_h_tc_order_a_levels():
    assert _h_tc_order_a(1, Fraction(1, 3)).status is Status.HOLDS
    bad = _h_tc_order_a(1, Fraction(3, 2))
    assert bad.status is Status.FAILS
    assert bad.reason == "failed: level_1"
    assert _h_tc_order_a(0, 1).status is Status.FAILS


@pytest.mark.parametrize("chain", [
    _weyl_tower(), _weyl_tower(characteristic=5),
    _h_tc_chain(1, Fraction(1, 3)), _h_tc_chain(1, Fraction(3, 2)),
    _h_tc_chain(1, Fraction(1, 3), characteristic=5),
    _h_tc_chain(0, 1, characteristic=5)],
    ids=["weyl-0", "weyl-5", "h-tc-third-0", "h-tc-three-halves-0",
         "h-tc-third-5", "h-tc-zero-t-5"])
def test_tower_levels_are_the_conditions_of_simple(chain):
    levels = _conditions(simple_iterated(chain))
    assert levels["level_1"].to_json() == simple(chain[0]).to_json()
    for k, ring in enumerate(chain[1:], start=2):
        own = [{"name": name, **sub.to_json()}
               for name, sub in simple(ring).conditions
               if name != "alpha_simple"]
        assert levels[f"level_{k}"].to_json()["conditions"] == own


def test_tower_over_a_rescaled_casimir_fails_by_its_ideal():
    # the quantized Weyl algebra R1 is conformal with Casimir element
    # z = x1*y1 + 1/(q - 1); y1 -> l*y1, x1 -> l^-1*x1 fixes z, so zR1 is
    # a proper b-stable ideal
    ctx = ScalarContext(parameters=("q", "l"))
    field = FieldAlgebra(ctx)
    q, lam = ctx.param("q"), ctx.param("l")
    r1 = AmbiskewRing(field, field.identity_auto(), field.one, q,
                      y_name="y1", x_name="x1")
    b = NestedAuto(field.identity_auto(), lam, lam.inv())
    r2 = AmbiskewRing(r1, b, r1.one, q, y_name="y2", x_name="x2")
    verdict = _conditions(simple(r2))["alpha_simple"]
    assert verdict.status is Status.FAILS
    assert verdict.certificate == {"kind": "stable_ideal",
                                   "generator": "((1)/(q - 1)) + x1*y1"}
    z = r1.conformality().casimir
    assert verdict.certificate["generator"] == r1.render(z)
    assert r1.is_unit(z).status is Status.FAILS
    assert scalar_ratio(r1, r1.apply(b, z), z) is not None
    assert simple_iterated([r1, r2]).status is Status.FAILS


def test_h_tc_order_b_matches():
    def order_b(tv, cv):
        ctx = ScalarContext()
        alg = CyclicGroupAlgebra(ctx, 2, -ctx.one)
        t, c = ctx.fraction(Fraction(tv)), ctx.fraction(Fraction(cv))
        b1 = AmbiskewRing(alg, alg.identity_auto(),
                          {0: 2 * t} if tv else {}, ctx.one,
                          y_name="y2", x_name="x2")
        tau = NestedAuto(DiagonalAuto((-ctx.one,)), ctx.one, ctx.one)
        v2 = {}
        if tv:
            v2[(0, 0, 0)] = 2 * t
        if cv:
            v2[(0, 0, 1)] = -4 * c
        return simple(AmbiskewRing(b1, tau, v2, ctx.one,
                                         y_name="y1", x_name="x1"))

    assert order_b(1, Fraction(1, 3)).status is Status.HOLDS
    bad = order_b(1, Fraction(3, 2))
    assert bad.status is Status.FAILS
    assert _conditions(bad)["units"].certificate["m"] == 3
    assert order_b(0, 1).status is Status.FAILS


def test_quantized_weyl_tower_formal_lambda():
    ctx = ScalarContext(parameters=("l21", "l31", "l32"))
    field = FieldAlgebra(ctx)
    chain = [AmbiskewRing(field, field.identity_auto(), field.one, ctx.one,
                          y_name="y1", x_name="x1")]
    scales = {2: (ctx.param("l21"),), 3: (ctx.param("l31"), ctx.param("l32"))}
    for level in (2, 3):
        below = chain[-1]
        part = field.identity_auto()
        for lam in scales[level]:
            part = NestedAuto(part, lam, lam.inv())
        below.validate_auto(part)
        chain.append(AmbiskewRing(below, part, below.one, ctx.one,
                                  y_name=f"y{level}", x_name=f"x{level}"))
        verdict = simple_iterated(chain)
        assert verdict.status is Status.HOLDS
        assert verdict.theorem == "simple.tower"


def test_cyclic_tower_monomial_levels():
    ctx = ScalarContext(cyclotomic_order=3, parameters=("l",))
    eps = ctx.zeta(1)
    alg = CyclicGroupAlgebra(ctx, 3, eps)
    r1 = AmbiskewRing(alg, DiagonalAuto((eps,)), {1: ctx.one}, eps.inv(),
                      y_name="y1", x_name="x1")
    lam = ctx.param("l")
    second = NestedAuto(DiagonalAuto((eps,)), lam, eps * lam.inv())
    good = AmbiskewRing(r1, second, r1.embed({2: ctx.one}), eps ** (-2),
                        y_name="y2", x_name="x2")
    verdict = simple_iterated([r1, good])
    assert verdict.status is Status.HOLDS
    units = _conditions(_conditions(verdict)["level_2"])["units"]
    assert units.certificate == {"kind": "periodic_units", "period": 1}

    conformal = AmbiskewRing(r1, second, r1.embed({2: ctx.one}), ctx.one,
                             y_name="y2", x_name="x2")
    verdict = simple_iterated([r1, conformal])
    assert verdict.status is Status.FAILS
    assert verdict.reason == "failed: level_2"
    level = _conditions(verdict)["level_2"]
    assert _conditions(level)["singular"].certificate["kind"] == \
        "splitting_element"


def test_tower_singularity_by_projection():
    # alpha is affine but not diagonal at both levels, so the tower's own
    # splitting solver declines; over K[t] alpha scales t + 1 by 2, the
    # image of u - alpha(u) is spanned by the powers (t + 1)^k with k >= 1,
    # and v = 1 is the resonant monomial with no splitting element
    ctx = ScalarContext()
    poly = PolyAlgebra(ctx)
    aff = AffineAuto(ctx.int_(2), ctx.one)
    r1 = AmbiskewRing(poly, aff, poly.one, ctx.one, y_name="y1", x_name="x1")
    r2 = AmbiskewRing(r1, NestedAuto(aff, ctx.one, ctx.one), r1.one, ctx.one,
                      y_name="y2", x_name="x2")
    verdict = singular(r2)
    assert verdict.status is Status.HOLDS
    assert verdict.certificate == {
        "kind": "singular", "obstruction": {
            "kind": "singular_by_projection",
            "obstruction": {"kind": "resonant_monomial", "monomial": "1",
                            "scale": "1"}}}
    assert r2.conformality().status is Status.FAILS
    level = _conditions(_conditions(simple_iterated([r1, r2]))["level_2"])
    assert level["singular"].to_json() == verdict.to_json()
    assert _conditions(simple(r2))["singular"].to_json() == verdict.to_json()


def test_lowered_m_max_reaches_the_nested_units_scan(monkeypatch):
    # R2 = R(R1, identity, 1, 1): its alpha_simple condition asks whether
    # R1 itself is simple, and R1's units condition scans (see
    # test_units_truncated_scan_is_inconclusive)
    monkeypatch.setattr(bounds, "M_MAX", 5)
    ctx = ScalarContext(cyclotomic_order=4)
    alg = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    r1 = AmbiskewRing(alg, DiagonalAuto((-ctx.one,)),
                      {0: ctx.int_(2), 1: ctx.one}, ctx.one + ctx.zeta(),
                      y_name="y1", x_name="x1")
    r2 = AmbiskewRing(r1, r1.identity_auto(), r1.one, ctx.one,
                      y_name="y2", x_name="x2")
    nested = _conditions(_conditions(simple(r2))["alpha_simple"])["simple"]
    units = _conditions(nested)["units"]
    assert units.status is Status.INCONCLUSIVE
    assert units.certificate == {"kind": "bounded_scan", "m_max": 5}


# -- skew Laurent ----------------------------------------------------------------


def test_skew_laurent_scale_of_infinite_order():
    ctx = ScalarContext(parameters=("q",))
    alg = LaurentAlgebra(ctx)
    verdict = skew_laurent_simple(alg, DiagonalAuto((ctx.param("q"),)))
    assert verdict.status is Status.HOLDS
    assert verdict.theorem == "skew_laurent"


def test_skew_laurent_finite_order_is_inner():
    ctx = ScalarContext(cyclotomic_order=3)
    alg = CyclicGroupAlgebra(ctx, 3, ctx.zeta(1))
    verdict = skew_laurent_simple(alg, DiagonalAuto((ctx.zeta(1),)))
    assert verdict.status is Status.FAILS
    inner = _conditions(verdict)["no_inner_power"]
    assert inner.certificate == {"kind": "inner_power", "m": 3}


def test_skew_laurent_identity_on_field():
    ctx = ScalarContext()
    field = FieldAlgebra(ctx)
    verdict = skew_laurent_simple(field, field.identity_auto())
    assert verdict.status is Status.FAILS
    inner = _conditions(verdict)["no_inner_power"]
    assert inner.certificate["m"] == 1


def test_skew_laurent_shift_holds():
    ctx = ScalarContext()
    alg = PolyAlgebra(ctx)
    verdict = skew_laurent_simple(alg, AffineAuto(ctx.one, ctx.one))
    assert verdict.status is Status.HOLDS


# -- certificate replay ----------------------------------------------------------


@st.composite
def _fc2_data(draw):
    rho = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                                Fraction(1, 2), Fraction(-3)]))
    c0 = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    c1 = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return rho, c0, c1


@given(_fc2_data())
@settings(max_examples=120, deadline=None)
def test_fc2_verdicts_match_character_oracle(data):
    rho, c0, c1 = data
    ctx, alg, ring = _fc2_ring(rho, c0, c1)
    verdict = simple(ring)
    assert verdict.status is not Status.INCONCLUSIVE

    # oracle: the two characters of v^(m) follow an explicit recurrence, and
    # the quadruple is singular exactly when the component of v at the
    # resonant key (rho*lambda_k = 1) is nonzero
    singular_oracle = (rho == 1 and c0 != 0) or (rho == -1 and c1 != 0)
    total, nonunit, sign = (Fraction(0), Fraction(0)), None, 1
    for m in range(1, 301):
        scale = rho ** (m - 1)
        total = (total[0] + scale * (c0 + sign * c1),
                 total[1] + scale * (c0 - sign * c1))
        if 0 in total:
            nonunit = m
            break
        sign = -sign
    expected = singular_oracle and nonunit is None
    assert (verdict.status is Status.HOLDS) == expected

    conds = _conditions(verdict)
    if conds["units"].fails:
        m = conds["units"].certificate["m"]
        assert alg.is_unit(ring.v_m(m)).status is Status.FAILS
        if m <= 300:
            assert nonunit == m
    if conds["singular"].fails:
        u = ring.conformality().u
        lhs = alg.sub(u, alg.smul(ring.rho, alg.apply(ring.alpha, u)))
        assert alg.eq(lhs, ring.v)
