from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ambiskew.algebras import (
    NO_EIGEN_FRAME,
    AffineAuto,
    CyclicGroupAlgebra,
    DiagonalAuto,
    FieldAlgebra,
    LaurentAlgebra,
    NestedAuto,
    PolyAlgebra,
    QuadraticAlgebra,
)
from ambiskew.dsl import eval_element, eval_scalar, parse_expression
from ambiskew.localization import (
    SpecialElement,
    TorusMatrix,
    localized_simple,
    quantum_torus_simple,
    special_element_search,
)
from ambiskew.rings import AmbiskewRing
from ambiskew.scalars import ScalarContext
from ambiskew.simplicity import simple, skew_laurent_simple
from ambiskew.verdict import Status

from _helpers import laurent_scale, quadratic_conjugation, quantum_plane


def _conditions(verdict):
    return dict(verdict.conditions)


def _plane_at(q):
    field = FieldAlgebra(q.ctx)
    return AmbiskewRing(field, field.identity_auto(), field.zero, q)


def _quantized_weyl_at(q):
    field = FieldAlgebra(q.ctx)
    return AmbiskewRing(field, field.identity_auto(), field.one, q)


def _heisenberg(rho_equals_q=False):
    """R(K[t^{+-1}], t -> q*t, t, rho), the U'-style scaling ring."""
    if rho_equals_q:
        ctx = ScalarContext(parameters=("q",))
        rho = ctx.param("q")
    else:
        ctx = ScalarContext(parameters=("q", "r"))
        rho = ctx.param("r")
    alg = LaurentAlgebra(ctx)
    ring = AmbiskewRing(alg, DiagonalAuto((ctx.param("q"),)),
                        alg.gen_elem("t"), rho)
    return ctx, alg, ring


# -- the three-condition criterion -------------------------------------------------


def test_quantum_plane_localization_formal_parameter():
    verdict = localized_simple(quantum_plane())
    assert verdict.status is Status.HOLDS
    assert verdict.theorem == "localized.full"
    assert [name for name, _ in verdict.conditions] == [
        "alpha_gamma_simple", "no_special", "radical"]


def test_quantum_plane_localization_at_zeta5():
    ctx = ScalarContext(cyclotomic_order=5)
    verdict = localized_simple(_plane_at(ctx.zeta()))
    assert verdict.fails
    assert verdict.reason == "failed: no_special"
    cert = _conditions(verdict)["no_special"].certificate
    assert cert == {"kind": "special_element", "m": 5, "j": 5, "element": "1"}


def test_quantum_plane_radical_condition_uses_nilpotent_u():
    ctx = ScalarContext(cyclotomic_order=5)
    radical = _conditions(localized_simple(_plane_at(ctx.zeta())))["radical"]
    assert radical.holds
    assert radical.certificate["kind"] == "nilpotent_u"


def test_quantized_weyl_localization_at_zeta3():
    ctx = ScalarContext(cyclotomic_order=3)
    verdict = localized_simple(_quantized_weyl_at(ctx.zeta()))
    assert verdict.fails
    assert verdict.reason == "failed: no_special, radical"
    conds = _conditions(verdict)
    assert conds["alpha_gamma_simple"].holds
    special = conds["no_special"].certificate
    assert (special["m"], special["j"], special["element"]) == (3, 3, "1")
    radical = conds["radical"].certificate
    assert radical == {"kind": "nonunit_v_m", "m": 3, "value": "0",
                       "detail": None}


def test_quantized_weyl_localization_formal_parameter():
    ctx = ScalarContext(parameters=("q",))
    verdict = localized_simple(_quantized_weyl_at(ctx.param("q")))
    assert verdict.holds
    radical = _conditions(verdict)["radical"].certificate
    assert radical == {"kind": "periodic_units", "period": 1, "ratio": "q"}


def test_radical_condition_tests_an_eigenvector_v_once(monkeypatch):
    # v = 1 is an eigenvector, so the answer at m = 1 is also that of v^(1)
    # in the period-1 route: u = 0 is tested, then v, and nothing else
    seen = []
    radical_contains = FieldAlgebra.radical_contains

    def spy(self, d, u):
        seen.append(self.render(d))
        return radical_contains(self, d, u)

    monkeypatch.setattr(FieldAlgebra, "radical_contains", spy)
    ctx = ScalarContext(parameters=("q",))
    verdict = localized_simple(_quantized_weyl_at(ctx.param("q")))
    assert seen == ["0", "1"]
    assert verdict.holds
    radical = _conditions(verdict)["radical"].certificate
    assert radical == {"kind": "periodic_units", "period": 1, "ratio": "q"}


def test_localized_simple_rejects_singular_quadruple():
    ctx = ScalarContext()
    field = FieldAlgebra(ctx)
    weyl = AmbiskewRing(field, field.identity_auto(), field.one, ctx.one)
    with pytest.raises(ValueError, match="singular"):
        localized_simple(weyl)


def test_heisenberg_independent_parameters_localization_holds():
    _, _, ring = _heisenberg()
    verdict = localized_simple(ring)
    assert verdict.holds
    assert _conditions(verdict)["radical"].certificate["ratio"] == "q*r"


def test_heisenberg_dependent_parameters_special_element():
    _, alg, ring = _heisenberg(rho_equals_q=True)
    verdict = localized_simple(ring)
    assert verdict.fails
    cert = _conditions(verdict)["no_special"].certificate
    assert cert["kind"] == "special_element"
    assert (cert["m"], cert["j"]) == (0, 1)
    assert cert["element"] == alg.render(alg.gen_elem("t"))


def test_laurent_scale_with_free_rho_has_no_special():
    _, alg, ring = laurent_scale()
    witness, complete = special_element_search(
        alg, ring.alpha, ring.gamma, ring.rho)
    assert witness is None and complete


def test_smith_shift_localization_fails_radical():
    ctx = ScalarContext()
    alg = PolyAlgebra(ctx)
    shift = AffineAuto(ctx.one, ctx.one)
    ring = AmbiskewRing(alg, shift, alg.gen_elem("t"), ctx.int_(2))
    verdict = localized_simple(ring)
    assert verdict.fails
    assert verdict.reason == "failed: radical"
    conds = _conditions(verdict)
    assert conds["alpha_gamma_simple"].holds
    assert conds["no_special"].holds
    radical = conds["radical"].certificate
    assert radical["kind"] == "nonunit_v_m" and radical["m"] == 1


def test_smith_shift_with_scalar_v_localization_holds():
    ctx = ScalarContext()
    alg = PolyAlgebra(ctx)
    shift = AffineAuto(ctx.one, ctx.one)
    ring = AmbiskewRing(alg, shift, alg.one, ctx.int_(2))
    verdict = localized_simple(ring)
    assert verdict.holds
    assert verdict.theorem == "localized.full"


def test_eigenvector_v_radical_fails_when_u_lies_outside_va():
    # alpha(t) = 2t + 1 fixes t = -1, so v = t + 1 is an eigenvector (mu = 2)
    # and every v^(m) is a multiple of v; the solver's splitting element
    # u = -t has no power in (t + 1)
    ctx = ScalarContext()
    poly = PolyAlgebra(ctx)
    ring = AmbiskewRing(poly, AffineAuto(ctx.int_(2), ctx.one),
                        {1: ctx.one, 0: ctx.one}, ctx.one)
    assert poly.render(ring.conformality().u) == "-t"
    verdict = localized_simple(ring)
    radical = _conditions(verdict)["radical"]
    assert radical.status is Status.FAILS
    assert radical.certificate == {
        "kind": "nonunit_v_m", "m": 1, "value": "t + 1",
        "detail": {"kind": "radical_witness", "power": 1}}
    # the localization depends on u, so the verdict names it
    assert verdict.certificate == {"kind": "splitting_element", "u": "-t",
                                   "casimir": "(t) + x*y"}


def test_radical_fails_at_the_least_m():
    # alpha(t) = -t + 2 sends v = t - 1 to -v, so v^(2) = 0; but u = t/2 has
    # no power in (t - 1) already, so m = 1 is the least failing index
    ctx = ScalarContext()
    poly = PolyAlgebra(ctx)
    ring = AmbiskewRing(poly, AffineAuto(-ctx.one, ctx.int_(2)),
                        {1: ctx.one, 0: -ctx.one}, ctx.one)
    assert poly.render(ring.conformality().u) == "1/2*t"
    radical = _conditions(localized_simple(ring))["radical"]
    assert radical.fails
    assert radical.certificate["kind"] == "nonunit_v_m"
    assert radical.certificate["m"] == 1


def test_quadratic_conjugation_localization_holds():
    # the powers of s (multiples of 1 and s) are every eigenvector of the
    # conjugation, so the special-element search is complete
    _, _, ring = quadratic_conjugation(Fraction(3), 0, 1)
    verdict = localized_simple(ring)
    assert verdict.status is Status.HOLDS
    conds = _conditions(verdict)
    assert conds["alpha_gamma_simple"].holds
    assert conds["no_special"].holds
    assert conds["radical"].holds


def _statuses(check, ring):
    """The status of ``check`` on ``ring`` and of each of its conditions,
    or the message of the ValueError it raises."""
    try:
        verdict = check(ring)
    except ValueError as exc:
        return str(exc)
    return verdict.status, [(name, c.status) for name, c in verdict.conditions]


# split quadratic bases K[s]/(s^2 - d): the context, d, the root r of d
# and the rhos tried
_SPLIT_QUADRATICS = {
    "Qzeta4": (ScalarContext(cyclotomic_order=4), "-1", "zeta",
               ["1", "-1", "2", "-1/3", "zeta", "-zeta", "2*zeta",
                "1 + zeta"]),
    "Qzeta8": (ScalarContext(cyclotomic_order=8), "2", "zeta + zeta^7",
               ["1", "-1", "2", "-1/3", "zeta", "zeta^2", "1 + zeta"]),
    "Qzeta12": (ScalarContext(cyclotomic_order=12), "3", "zeta + zeta^11",
                ["1", "-1", "2", "-1/3", "zeta", "zeta^3"]),
    "F13": (ScalarContext(characteristic=13), "3", "4",
            ["1", "-1", "2", "3", "5", "1/3"]),
}


@given(field=st.sampled_from(sorted(_SPLIT_QUADRATICS)),
       a=st.integers(-3, 3), b=st.integers(-3, 3),
       sign=st.sampled_from([1, -1]), pick=st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_quadratic_and_its_group_algebra_twin_agree(field, a, b, sign, pick):
    # s -> r*s' sends K[s]/(s^2 - d) onto K[C_2] when d = r^2, commuting
    # with s -> +-s, so R(A, s -> +-s, a + b*s, rho) and its twin
    # R(K[C_2], s' -> +-s', a + b*r*s', rho) are isomorphic
    ctx, d, r, rhos = _SPLIT_QUADRATICS[field]
    read = lambda text: eval_scalar(parse_expression(text), ctx)
    quad = QuadraticAlgebra(ctx, read(d))
    rho, r = read(rhos[pick % len(rhos)]), read(r)
    assert r * r == quad.d
    auto = DiagonalAuto((ctx.int_(sign),))
    group = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    pair = []
    for alg, s in ((quad, ctx.one), (group, r)):
        v = {k: c for k, c in ((0, ctx.int_(a)), (1, b * s)) if not c.is_zero()}
        pair.append(AmbiskewRing(alg, auto, v, rho))
    for check in (simple, localized_simple):
        assert _statuses(check, pair[0]) == _statuses(check, pair[1])


@pytest.mark.parametrize("v, u", [("1 + s", "-1 + 1/3*s"),
                                  ("zeta - zeta^3 + 3*s", "(-zeta + zeta^3) + s")])
def test_split_quadratic_radicals_decide_without_a_root(v, u):
    # d = 2 over Q(zeta_8) is a square.  u = -1 + s/3 is a unit, so the
    # radical pencils read the norm; u = -sqrt(2) + s is a zero divisor,
    # so they read the line uA
    ctx = ScalarContext(cyclotomic_order=8)
    quad = QuadraticAlgebra(ctx, ctx.int_(2))
    v = eval_element(parse_expression(v), quad)
    ring = AmbiskewRing(quad, quad.conjugation(), v, ctx.int_(2))
    assert quad.render(ring.conformality().u) == u
    verdict = localized_simple(ring)
    assert verdict.holds
    assert _conditions(verdict)["radical"].certificate == {
        "kind": "periodic_units", "period": 2, "ratio": "4"}


_POLY_CONTEXTS = {
    "Q": (ScalarContext(), ["2", "-1", "1/3"], ["1", "2", "1/2", "-1"]),
    "Qq": (ScalarContext(parameters=("q",)), ["q", "2", "1/q"],
           ["1", "q", "1/q", "q^2", "2"]),
    "Qzeta4": (ScalarContext(cyclotomic_order=4), ["zeta", "-1", "2"],
               ["1", "zeta", "-zeta", "1/2", "-1"]),
    "F7": (ScalarContext(characteristic=7), ["2", "3", "6"],
           ["1", "2", "3", "4", "6"]),
}


@given(field=st.sampled_from(sorted(_POLY_CONTEXTS)),
       pick=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       v=st.lists(st.integers(-2, 2), min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_polynomial_and_laurent_special_elements_agree(field, pick, v):
    # under t -> a*t every monomial of a special element is special, and
    # t^k is special in K[t^+-1] exactly when t^-k is, with (m, j) negated,
    # so K[t] and K[t^+-1] have a special element together
    ctx, scales, rhos = _POLY_CONTEXTS[field]
    read = lambda text: eval_scalar(parse_expression(text), ctx)
    a, rho = read(scales[pick[0] % 3]), read(rhos[pick[1] % len(rhos)])
    v = {k: ctx.int_(c) for k, c in enumerate(v) if c}
    statuses = []
    for alg in (PolyAlgebra(ctx), LaurentAlgebra(ctx)):
        alpha = AffineAuto(a, ctx.zero) if alg.kind == "poly" \
            else DiagonalAuto((a,))
        try:
            verdict = localized_simple(AmbiskewRing(alg, alpha, v, rho))
        except ValueError as exc:
            statuses.append(str(exc))
        else:
            statuses.append(_conditions(verdict)["no_special"].status)
    assert statuses[0] == statuses[1]
    assert statuses[0] is not Status.INCONCLUSIVE


def test_a_polynomial_scaling_names_its_special_monomial():
    # t -> 2*t, v = 1, rho = 1/2: alpha(t) = 2*t = rho^-1 * t, so t is
    # (0, -1)-special; the lattice picks t^-1, no element of K[t]
    ctx = ScalarContext()
    poly = PolyAlgebra(ctx)
    ring = AmbiskewRing(poly, AffineAuto(ctx.int_(2), ctx.zero), poly.one,
                        ctx.fraction(Fraction(1, 2)))
    special = _conditions(localized_simple(ring))["no_special"]
    assert special.fails
    assert special.reason == "t is (0, -1)-special"
    assert special.certificate == {"kind": "special_element", "m": 0,
                                   "j": -1, "element": "t"}


@pytest.mark.parametrize("rho, status, reason", [
    ("q", Status.HOLDS,
     "no (m, j)-special element exists with (m, j) != (0, 0)"),
    ("zeta", Status.FAILS, "1 is (0, 4)-special"),
])
def test_the_tower_frame_decides_special_elements(rho, status, reason):
    # R2 = R(R1, b, 1, rho) over the Weyl algebra R1 = R(K, id, 1, 1), with
    # b: y1 -> l*y1, x1 -> l^-1*x1; the search reads the tower's frame
    ctx = (ScalarContext(parameters=("q", "l")) if rho == "q"
           else ScalarContext(cyclotomic_order=4, parameters=("l",)))
    field = FieldAlgebra(ctx)
    weyl = AmbiskewRing(field, field.identity_auto(), field.one, ctx.one,
                        y_name="y1", x_name="x1")
    lam = ctx.param("l")
    b = NestedAuto(field.identity_auto(), lam, lam ** -1)
    weyl.validate_auto(b)
    top = AmbiskewRing(weyl, b, weyl.one, eval_scalar(parse_expression(rho),
                                                      ctx))
    special = _conditions(localized_simple(top))["no_special"]
    assert (special.status, special.reason) == (status, reason)


def test_a_level_over_a_shift_has_no_tower_frame():
    # R1 = R(K[t], t -> t + 1, t, 1): t^k is no eigenvector of the level's
    # own alpha, so the tower frame refuses by name instead of reading one
    ctx = ScalarContext(parameters=("q", "l"))
    poly = PolyAlgebra(ctx)
    level = AmbiskewRing(poly, AffineAuto(ctx.one, ctx.one),
                         poly.gen_elem("t"), ctx.one, y_name="y1", x_name="x1")
    lam = ctx.param("l")
    b = NestedAuto(poly.identity_auto(), lam, lam ** -1)
    level.validate_auto(b)
    top = AmbiskewRing(level, b, level.one, ctx.param("q"))
    special = _conditions(localized_simple(top))["no_special"]
    assert special.status is Status.INCONCLUSIVE
    assert special.reason == NO_EIGEN_FRAME


# -- the special-element search -----------------------------------------------------


def test_identity_pair_search_modes_at_zeta6():
    ctx = ScalarContext(cyclotomic_order=6)
    field = FieldAlgebra(ctx)
    one = field.identity_auto()
    witness, complete = special_element_search(field, one, one, ctx.zeta())
    assert complete and (witness.m, witness.j) == (6, 6)


def test_identity_pair_search_without_torsion():
    ctx = ScalarContext()
    field = FieldAlgebra(ctx)
    one = field.identity_auto()
    assert special_element_search(field, one, one, ctx.int_(2)) == (None, True)


def test_search_under_conjugation_finds_no_special():
    _, alg, ring = quadratic_conjugation(Fraction(3), 0, 1)
    assert special_element_search(alg, ring.alpha, ring.gamma,
                                  ring.rho) == (None, True)


def test_cyclic_mismatched_scales_have_no_special():
    ctx = ScalarContext(cyclotomic_order=4, parameters=("p",))
    alg = CyclicGroupAlgebra(ctx, 4, ctx.zeta())
    witness, complete = special_element_search(
        alg, DiagonalAuto((ctx.zeta(),)), DiagonalAuto((-ctx.one,)),
        ctx.param("p"))
    assert witness is None and complete


def test_shift_search_handles_finite_order_rho():
    ctx = ScalarContext(cyclotomic_order=4)
    alg = PolyAlgebra(ctx)
    shift = AffineAuto(ctx.one, ctx.one)
    witness, complete = special_element_search(
        alg, shift, alg.identity_auto(), ctx.zeta())
    assert complete and (witness.m, witness.j) == (0, 4)


def test_special_check_rejects_wrong_type():
    ctx = ScalarContext(parameters=("q",))
    alg = LaurentAlgebra(ctx)
    bogus = SpecialElement(alg.gen_elem("t"), 1, 0)
    with pytest.raises(AssertionError):
        bogus.check(alg, DiagonalAuto((ctx.param("q"),)),
                    alg.identity_auto(), ctx.param("q"))
    with pytest.raises(AssertionError):
        SpecialElement({}, 0, 1).check(alg, alg.identity_auto(),
                                       alg.identity_auto(), ctx.one)


def test_laurent_power_twist_pins_monomial_witness():
    ctx = ScalarContext(parameters=("q",))
    alg = LaurentAlgebra(ctx)
    q = ctx.param("q")
    for b in range(-2, 3):
        ring = AmbiskewRing(alg, DiagonalAuto((q,)), alg.gen_elem("t"), q ** b)
        witness, complete = special_element_search(
            alg, ring.alpha, ring.gamma, ring.rho)
        assert complete and (witness.m, witness.j) == (0, 1)
        assert alg.eq(witness.c, alg.monomial(b, ctx.one))


def test_nested_coefficient_ring_witness():
    ctx = ScalarContext(cyclotomic_order=3, parameters=("l",))
    eps, lam = ctx.zeta(), ctx.param("l")
    ground = CyclicGroupAlgebra(ctx, 3, eps)
    level1 = AmbiskewRing(ground, DiagonalAuto((eps,)), ground.gen_elem("s"),
                          eps ** -1)
    alpha = NestedAuto(DiagonalAuto((eps,)), lam, eps * lam ** -1)
    gamma = NestedAuto(ground.identity_auto(), eps, eps ** -1)
    level1.validate_auto(alpha)
    level1.validate_auto(gamma)
    witness, complete = special_element_search(level1, alpha, gamma, eps)
    assert complete
    assert (witness.m, witness.j) == (0, 1)
    assert level1.eq(witness.c, level1.embed(ground.gen_elem("s")))


def test_nested_none_is_incomplete_without_a_domain():
    ctx = ScalarContext(cyclotomic_order=3, parameters=("l", "p"))
    eps, lam = ctx.zeta(), ctx.param("l")
    ground = CyclicGroupAlgebra(ctx, 3, eps)
    level1 = AmbiskewRing(ground, DiagonalAuto((eps,)), ground.gen_elem("s"),
                          eps ** -1)
    alpha = NestedAuto(DiagonalAuto((eps,)), lam, eps * lam ** -1)
    gamma = NestedAuto(ground.identity_auto(), eps, eps ** -1)
    out = special_element_search(level1, alpha, gamma, ctx.param("p"),
                                 units_only=True)
    assert out == (None, False)


@given(a=st.integers(-3, 3), b=st.integers(-3, 3),
       c=st.integers(-3, 3), d=st.integers(-3, 3))
@settings(max_examples=120, deadline=None)
def test_laurent_special_matches_determinant_oracle(a, b, c, d):
    """With q = 2^a*3^b and rho = 2^c*3^d the lattice conditions force
    m = 0 and j*(c, d) = e*(a, b), so a witness exists exactly when the
    exponent vectors are parallel."""
    assume((a, b) != (0, 0))
    ctx = ScalarContext()
    alg = LaurentAlgebra(ctx)
    q = ctx.fraction(Fraction(2) ** a * Fraction(3) ** b)
    rho = ctx.fraction(Fraction(2) ** c * Fraction(3) ** d)
    witness, complete = special_element_search(
        alg, DiagonalAuto((q,)), alg.identity_auto(), rho)
    assert complete
    if a * d == b * c:
        assert witness is not None and witness.m == 0
        witness.check(alg, DiagonalAuto((q,)), alg.identity_auto(), rho)
    else:
        assert witness is None


def test_localized_plane_matches_skew_laurent_oracle():
    """The localization of the plane is a rank-2 quantum torus, so its
    simplicity must agree with the skew Laurent criterion at the same q."""
    rng = random.Random(17)
    draws = []
    for _ in range(10):
        n = rng.randrange(2, 10)
        ctx = ScalarContext(cyclotomic_order=n)
        draws.append(ctx.zeta(rng.randrange(1, n)))
    for _ in range(10):
        ctx = ScalarContext()
        draws.append(ctx.fraction(Fraction(rng.randint(2, 9),
                                           rng.choice((1, 2, 3)))))
    for q in draws:
        expected = skew_laurent_simple(LaurentAlgebra(q.ctx),
                                       DiagonalAuto((q,)))
        got = localized_simple(_plane_at(q))
        assert got.status is expected.status, q.ctx.render(q)


# -- quantum tori -------------------------------------------------------------------


def _rational_torus(ctx, uppers):
    n = 1 + max(i for _, i in [(0, 1)] + [k for k in uppers])
    grid = [[ctx.one for _ in range(n)] for _ in range(n)]
    for (i, j), val in uppers.items():
        grid[i][j] = ctx.fraction(Fraction(val))
        grid[j][i] = ctx.fraction(Fraction(val)) ** -1
    return TorusMatrix(tuple(tuple(row) for row in grid))


def test_prime_entry_torus_is_simple():
    ctx = ScalarContext()
    Q = _rational_torus(ctx, {(0, 2): 2, (0, 3): 3, (1, 2): 5, (1, 3): 7,
                              (2, 3): 11})
    verdict = quantum_torus_simple(Q)
    assert verdict.holds
    assert verdict.theorem == "torus.lattice"
    assert verdict.certificate == {"kind": "trivial_kernel", "rank": 4}


def test_commuting_corner_breaks_simplicity():
    ctx = ScalarContext()
    Q = TorusMatrix(((ctx.one, ctx.one), (ctx.one, ctx.one)))
    verdict = quantum_torus_simple(Q)
    assert verdict.fails
    vec = verdict.certificate["vector"]
    assert vec in ([0, 1], [1, 0])


def test_torus_root_of_unity_relation_vector():
    ctx = ScalarContext(cyclotomic_order=6)
    Q = TorusMatrix(((ctx.one, ctx.zeta()), (ctx.zeta() ** -1, ctx.one)))
    verdict = quantum_torus_simple(Q)
    assert verdict.fails
    assert verdict.certificate == {"kind": "torus_relation", "vector": [0, 6]}


def test_torus_formal_parameter_is_simple():
    ctx = ScalarContext(parameters=("q",))
    q = ctx.param("q")
    Q = TorusMatrix(((ctx.one, q), (q ** -1, ctx.one)))
    assert quantum_torus_simple(Q).holds


def test_rank_one_torus_is_never_simple():
    ctx = ScalarContext()
    verdict = quantum_torus_simple(TorusMatrix(((ctx.one,),)))
    assert verdict.fails
    assert verdict.certificate["vector"] == [1]


def test_torus_matrix_validation():
    ctx = ScalarContext()
    two = ctx.fraction(Fraction(2))
    with pytest.raises(ValueError, match="square"):
        TorusMatrix(((ctx.one, two),))
    with pytest.raises(ValueError, match="diagonal"):
        TorusMatrix(((two, two), (two ** -1, two)))
    with pytest.raises(ValueError, match="nonzero"):
        TorusMatrix(((ctx.one, ctx.zero), (ctx.zero, ctx.one)))
    with pytest.raises(ValueError, match="antisymmetric"):
        TorusMatrix(((ctx.one, two), (two, ctx.one)))
    with pytest.raises(ValueError, match="at least one row"):
        TorusMatrix(())


def test_torus_verdict_survives_relabelling():
    rng = random.Random(29)
    ctx = ScalarContext()
    pool = [2, 3, 5, 1, Fraction(1, 2), Fraction(2, 3)]
    for _ in range(6):
        uppers = {(i, j): rng.choice(pool)
                  for i in range(3) for j in range(i + 1, 3)}
        base = _rational_torus(ctx, {**uppers, (0, 2): uppers[(0, 2)]})
        status = quantum_torus_simple(base).status
        for perm in itertools.permutations(range(3)):
            shuffled = TorusMatrix(tuple(
                tuple(base.entries[perm[i]][perm[j]] for j in range(3))
                for i in range(3)))
            assert quantum_torus_simple(shuffled).status is status
