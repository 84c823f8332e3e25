"""The exact decisions that replace the bounded scans, against brute force.

Units and radical: with (rho*alpha)^L rescaling v by a factor R, of finite
or infinite order, v^(q*L + r) = [q]_R*v^(L) + R^q*v^(r), and the split
families decide each such pencil exactly.  Comaximality of a GWA under a
polynomial shift or scaling, or a Laurent scaling, is read from one
resultant in the action.  Every answer here is held against a direct walk
over the index, and every Fails is replayed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiskew import algebras, bounds, scalars
from ambiskew.algebras import (AffineAuto, CyclicGroupAlgebra, DiagonalAuto,
                               FieldAlgebra, LaurentAlgebra, NestedAuto,
                               PolyAlgebra, QuadraticAlgebra, _pencil_line,
                               scalar_ratio)
from ambiskew.dsl import (eval_element, eval_scalar, parse_expression,
                          parse_spec)
from ambiskew.gwa import GwaRing, gwa_simple
from ambiskew.localization import localized_simple
from ambiskew.rings import AmbiskewRing
from ambiskew.scalars import (ScalarContext, least_integer_root,
                              root_of_unity_order)
from ambiskew.simplicity import every_v_m_unit, simple, units_for_all_m
from ambiskew.verdict import Status

from _helpers import fc4_mixed, v_m_recurrence

HORIZON = 300


def _contexts():
    q = ScalarContext(parameters=("q",))
    p = q.param("q")
    return {
        "Q": (ScalarContext(), lambda c: [c.int_(2), c.fraction(Fraction(1, 2)),
                                          c.int_(-3), c.fraction(Fraction(4, 9))]),
        "Qzeta4": (ScalarContext(cyclotomic_order=4),
                   lambda c: [c.int_(2), c.fraction(Fraction(-1, 3))]),
        "Qq": (q, lambda c: [p, 2 * p, p ** -2, p / (p + 1)]),
        # ratios of finite order: 3, 5 and 12 have orders 3, 4 and 2 mod 13
        "F13": (ScalarContext(characteristic=13),
                lambda c: [c.int_(3), c.int_(5), c.int_(12)]),
        "Qzeta8": (ScalarContext(cyclotomic_order=8), lambda c: [c.zeta()]),
    }


def _families(ctx):
    """K[C_n] for the n whose roots of unity ctx has (4 through zeta_4 in
    Q(zeta_4), zeta_8^2 in Q(zeta_8) and 5 in F_13), and quadratic algebras
    that split (d = 4, and d = -1 where -1 is a square) or are fields."""
    out = [CyclicGroupAlgebra(ctx, 2, -ctx.one)]
    if ctx.cyclotomic_order in (4, 8) or ctx.characteristic == 13:
        eps4 = (ctx.int_(5) if ctx.characteristic
                else ctx.zeta(ctx.cyclotomic_order // 4))
        out.append(CyclicGroupAlgebra(ctx, 4, eps4))
    return out + [QuadraticAlgebra(ctx, ctx.int_(d)) for d in (4, 2, -1)]


def _scalar(ctx, rng):
    s = ctx.int_(rng.randint(-3, 3))
    if ctx.cyclotomic_order > 1:
        s = s + rng.randint(-1, 1) * ctx.zeta()
    if ctx.parameters:
        s = s + rng.randint(-1, 1) * ctx.param("q")
    return s


def _element(alg, rng):
    out = {}
    for key in alg.finite_basis():
        out = alg.add(out, alg.monomial(key, _scalar(alg.ctx, rng)))
    return out


def _killer(alg, rng):
    """An element e and a linear functional chi with chi(e) = 1 whose zero
    makes an element a non-unit: a character of a split family, or the
    whole element (chi = None) for a field."""
    ctx = alg.ctx
    if isinstance(alg, CyclicGroupAlgebra):
        l = rng.randrange(alg.n)
        idem = {k: alg.eps ** (-k * l) / alg.n for k in range(alg.n)}
        return idem, lambda a: alg.character(l, a)
    if isinstance(alg, QuadraticAlgebra):
        _, root = alg.square_root_of_d()
        if root is not None:
            r = root if rng.random() < 0.5 else -root
            half = ctx.fraction(Fraction(1, 2))
            idem = {0: half, 1: half / r}
            return idem, lambda a: a.get(0, ctx.zero) + r * a.get(1, ctx.zero)
    return None, None


def _pencil_at(alg, p, b, ratio, q):
    if ratio is None:
        return alg.add(alg.smul(alg.ctx.int_(q), p), b)
    scale = ratio ** q
    lead = (scale - 1) / (ratio - 1)
    return alg.add(alg.smul(lead, p), alg.smul(scale, b))


def _plant(alg, p, b, ratio, q, rng):
    """b changed so that the pencil element at q fails."""
    idem, chi = _killer(alg, rng)
    scale = ratio ** q
    lead = (scale - 1) / (ratio - 1)
    if chi is None:
        return alg.smul(-lead / scale, p)
    want = -lead * chi(p) / scale
    return alg.add(b, alg.smul(want - chi(b), idem))


def _fails_at(alg, elem, watch):
    if watch is None:
        return alg.is_unit(elem).status is not Status.HOLDS
    return alg.radical_contains(elem, watch).status is Status.FAILS


def _check_pencil(alg, p, b, ratio, watch, horizon):
    got = alg.first_nonunit_in_pencil(p, b, ratio, watch)
    if got is not None:
        assert got >= 0
        assert _fails_at(alg, _pencil_at(alg, p, b, ratio, got), watch)
    stop = horizon if got is None else min(got, horizon)
    for q in range(stop):
        assert not _fails_at(alg, _pencil_at(alg, p, b, ratio, q), watch), \
            (repr(type(alg)), q, got)
    return got


@pytest.mark.parametrize("name", ["Q", "Qzeta4", "Qq", "F13", "Qzeta8"])
def test_ratio_pencils_match_a_walk(name):
    ctx, ratios = _contexts()[name]
    rng = random.Random(name)
    planted = found = 0
    for alg in _families(ctx):
        for ratio in ratios(ctx):
            # a ratio of finite order repeats the pencil after one period;
            # over Q(q) each step of the walk grows the rational functions
            horizon = (root_of_unity_order(ratio)
                       or (HORIZON if name != "Qq" else 12))
            for trial in range(4):
                p, b = _element(alg, rng), _element(alg, rng)
                target = None
                if trial % 2:
                    target = rng.randint(1, horizon - 1)
                    b = _plant(alg, p, b, ratio, target, rng)
                    planted += 1
                watch = None if trial < 2 else _element(alg, rng)
                got = _check_pencil(alg, p, b, ratio, watch, horizon)
                if target is not None and watch is None:
                    assert got is not None and got <= target
                found += got is not None
    assert planted and found


# the quadratic defects of the radical pencils, each with a square root r
# where d is a square: s - r is then a zero divisor
_QUADRATICS = {
    "4/Q": (ScalarContext(), 4, lambda c: c.int_(2)),
    "2/Qzeta8": (ScalarContext(cyclotomic_order=8), 2,
                 lambda c: c.zeta() + c.zeta(7)),
    "-1/Qzeta4": (ScalarContext(cyclotomic_order=4), -1, lambda c: c.zeta()),
    "2/F7": (ScalarContext(characteristic=7), 2, lambda c: c.int_(3)),
    "3/F13": (ScalarContext(characteristic=13), 3, lambda c: c.int_(4)),
    "3/Q": (ScalarContext(), 3, None),
    "q^2/Qq": (ScalarContext(parameters=("q",)), "q^2", lambda c: c.param("q")),
}
_PENCIL_WALK = 40


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_QUADRATICS)),
       st.sampled_from(["zero divisor", "unit", "zero", "random"]),
       st.sampled_from([None, "2", "-1", "1/3"]),
       st.lists(st.integers(-2, 2), min_size=6, max_size=6))
def test_quadratic_radical_pencils_match_a_walk(name, kind, ratio, coeffs):
    # q*p + b, or [q]_R*p + R^q*b, against radical_contains at each q up to
    # the walk: a radical pencil is decided for every defect and watch
    ctx, d, root = _QUADRATICS[name]
    alg = QuadraticAlgebra(ctx, eval_scalar(parse_expression(str(d)), ctx))
    elem = lambda c0, c1: {k: ctx.int_(c) for k, c in ((0, c0), (1, c1)) if c}
    p, b = elem(*coeffs[:2]), elem(*coeffs[2:4])
    if kind == "zero divisor" and root is not None:  # 3/Q is a field
        watch = alg.smul(ctx.int_(coeffs[4] or 1),
                         {0: -root(ctx), 1: ctx.one})
    elif kind == "unit":
        watch = alg.one if alg.norm(elem(*coeffs[4:])).is_zero() \
            else elem(*coeffs[4:])
    elif kind == "zero":
        watch = {}
    else:
        watch = elem(*coeffs[4:])
    if ratio is not None:
        ratio = ctx.fraction(Fraction(ratio))
    got = alg.first_nonunit_in_pencil(p, b, ratio, watch)
    walked = next((q for q in range(_PENCIL_WALK + 1) if alg.radical_contains(
        _pencil_at(alg, p, b, ratio, q), watch).status is Status.FAILS), None)
    if got is not None and got <= _PENCIL_WALK:
        assert walked == got
    else:
        assert walked is None


def test_ratio_solver_shapes():
    ctx = ScalarContext()
    assert least_integer_root([[ctx.int_(-8), ctx.one]], 0, ctx.int_(2)) == 3
    assert least_integer_root([[ctx.int_(-8), ctx.one]], 4, ctx.int_(2)) is None
    assert least_integer_root([[-ctx.one / 8, ctx.one]], 0,
                              ctx.one / 2) == 3
    assert least_integer_root([[ctx.int_(-81), ctx.one]], 0, ctx.int_(-3)) == 4
    assert least_integer_root([[ctx.int_(27), ctx.one]], 0, ctx.int_(-3)) == 3
    # a quadratic in X: (X - 2^5)(X - 2^9)
    coeffs = [ctx.int_(2 ** 14), ctx.int_(-(2 ** 5 + 2 ** 9)), ctx.one]
    assert least_integer_root([coeffs], 0, ctx.int_(2)) == 5
    assert least_integer_root([coeffs], 6, ctx.int_(2)) == 9
    # huge exponents stay exact: X = 3^400
    big = [ctx.int_(-(3 ** 400)), ctx.one]
    assert least_integer_root([big], 0, ctx.int_(3)) == 400
    assert least_integer_root([big], 0, ctx.int_(9)) == 200
    assert least_integer_root([[ctx.zero, ctx.zero]], 5, ctx.int_(2)) == 5
    qctx = ScalarContext(parameters=("q",))
    q = qctx.param("q")
    # degree tie: q^6 = (q^2)^3; lowest-order tie for q/(q + 1)
    assert least_integer_root([[-q ** 6, qctx.one]], 0, q ** 2) == 3
    r = q / (q + 1)
    assert least_integer_root([[-(r ** 5), qctx.one]], 0, r) == 5
    assert least_integer_root([[-q ** 6, qctx.one + q]], 0, q ** 2) is None
    zctx = ScalarContext(cyclotomic_order=4)
    with pytest.raises(ValueError, match="neither rational"):
        least_integer_root([[zctx.one, zctx.one]], 0,
                           zctx.one + zctx.zeta())
    with pytest.raises(ValueError, match="neither rational"):
        least_integer_root([[-qctx.one, qctx.one]], 0, (q + 1) / (q + 2))


_FINITE_CONTEXTS = (ScalarContext(characteristic=13),
                    ScalarContext(characteristic=13, parameters=("q",)),
                    ScalarContext(cyclotomic_order=8))


@st.composite
def _finite_ratio_polys(draw):
    """(ratio, polys): a ratio R != 1 of finite order over F_13, F_13(q) or
    Q(zeta_8), and polynomials in X that are zero, have a root R^j planted,
    or are drawn freely (often without a root among the powers of R)."""
    ctx = draw(st.sampled_from(_FINITE_CONTEXTS))
    if ctx.characteristic:
        ratio = ctx.int_(draw(st.integers(2, 12)))
    else:
        ratio = ctx.zeta(draw(st.integers(1, 7)))

    def scalar():
        s = ctx.int_(draw(st.integers(-3, 3)))
        if ctx.cyclotomic_order > 1:
            zeta = ctx.zeta(draw(st.integers(1, 7)))
            s = s + draw(st.integers(-1, 1)) * zeta
        if ctx.parameters:
            s = s + draw(st.integers(-1, 1)) * ctx.param("q")
        return s

    polys = []
    for shape in draw(st.lists(st.sampled_from(["zero", "planted", "free"]),
                               min_size=1, max_size=2)):
        if shape == "zero":
            polys.append([ctx.zero, ctx.zero])
        elif shape == "planted":
            root = ratio ** draw(st.integers(0, 15))
            c0, c1 = scalar(), scalar()
            # (X - root)*(c1*X + c0)
            polys.append([-root * c0, c0 - root * c1, c1])
        else:
            polys.append([scalar() for _ in range(draw(st.integers(2, 3)))])
    return ratio, polys


@settings(max_examples=150, deadline=None)
@given(_finite_ratio_polys(), st.sampled_from([0, 1, 5]))
def test_finite_order_ratio_roots_match_brute_force(case, q0):
    ratio, polys = case
    order = root_of_unity_order(ratio)

    def vanishes(coeffs, q):
        x = ratio ** q
        return sum((c * x ** k for k, c in enumerate(coeffs)),
                   ratio.ctx.zero).is_zero()

    # R^q repeats with the order of R, so one period from q0 decides
    want = min((q for coeffs in polys for q in range(q0, q0 + order)
                if vanishes(coeffs, q)), default=None)
    assert least_integer_root(polys, q0, ratio) == want


def _orbit_sum_rings():
    """K[C_4], Q(q) and a two-level tower, with v moved by rho*alpha."""
    ctx = ScalarContext(cyclotomic_order=4)
    alg = CyclicGroupAlgebra(ctx, 4, ctx.zeta())
    for rho in (ctx.int_(2), ctx.one, ctx.zeta()):
        yield AmbiskewRing(alg, DiagonalAuto((ctx.zeta(),)),
                           {0: ctx.one, 1: ctx.int_(2), 3: ctx.zeta()}, rho)
    qctx = ScalarContext(parameters=("q",))
    q = qctx.param("q")
    laurent = LaurentAlgebra(qctx)
    yield AmbiskewRing(laurent, DiagonalAuto((q ** -1,)),
                       {-1: q, 1: qctx.one, 2: q + 1}, q + 1)
    yield parse_spec("""context(cyclotomic_order = 3, parameters = [l])
base A = cyclic_group(n = 3, epsilon = zeta)
auto a on A { s -> zeta*s }
ring R1 = ambiskew(A, a, v = s, rho = zeta^-1, y = y1, x = x1)
auto b on R1 { s -> zeta*s, y1 -> l*y1, x1 -> zeta*l^-1*x1 }
ring R2 = ambiskew(R1, b, v = s^2, rho = l + 1, y = y2, x = x2)
""").rings["R2"]


def test_closed_form_v_m_matches_the_recurrence():
    # a far index first takes the square-and-multiply route; the walk that
    # follows takes single steps, through the far index and beyond it
    for ring in _orbit_sum_rings():
        alg, walk = ring.base, v_m_recurrence(ring, 40)
        assert alg.eq(ring.v_m(37), walk[37])
        for m, expected in enumerate(walk):
            assert alg.eq(ring.v_m(m), expected)


def test_power_by_squaring_matches_repeated_products():
    ctx = ScalarContext(parameters=("q",))
    field = FieldAlgebra(ctx)
    ring = AmbiskewRing(field, field.identity_auto(), field.one, ctx.param("q"))
    a = ring.add(ring.gen_elem("x"), ring.gen_elem("y"))
    slow = ring.one
    for k in range(8):
        assert ring.eq(ring.power(a, k), slow)
        slow = ring.mul(slow, a)
    cyc = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    u = {0: ctx.int_(2), 1: ctx.one}
    assert cyc.eq(cyc.mul(cyc.power(u, -5), cyc.power(u, 5)), cyc.one)


# -- whole blocks: units and radical -----------------------------------------------


def _blocks():
    """K[C_n] (n = 2, 3, 4) and quadratic blocks whose rho*alpha repeats v
    only up to a factor R, of infinite order, or of finite order for K[C_2]
    over F_13 with rho = 3 (R = 9, of order 3, so v^(6) vanishes) and over
    Q(zeta_8) with rho = zeta_8 (R = zeta_4).  For each K[C_n] and rho one
    more block splits through a zero divisor u, so that A[1/u] drops
    characters and the radical condition differs from the units condition,
    from m = 1 on when n > 2."""
    rng, plant = random.Random(6), random.Random(7)
    q3 = ScalarContext(cyclotomic_order=3)
    q4 = ScalarContext(cyclotomic_order=4)
    q8 = ScalarContext(cyclotomic_order=8)
    qq = ScalarContext(parameters=("q",))
    f13 = ScalarContext(characteristic=13)
    out = []
    specs = [(ScalarContext(), 2, -1, None), (q3, 3, None, None),
             (q4, 4, None, None), (qq, 2, -1, [qq.param("q")]),
             (f13, 2, -1, [f13.int_(3)]), (q8, 2, -1, [q8.zeta()])]
    for ctx, n, eps, rhos in specs:
        eps = ctx.zeta() if eps is None else ctx.int_(eps)
        alg = CyclicGroupAlgebra(ctx, n, eps)
        rhos = rhos or [ctx.int_(2), ctx.fraction(Fraction(1, 2)),
                        ctx.int_(-3)]
        for rho in rhos:
            for _ in range(3):
                v = {k: ctx.int_(rng.choice((-3, -2, -1, 1, 2, 3)))
                     for k in range(n)}
                out.append(AmbiskewRing(alg, DiagonalAuto((eps,)), v, rho))
            # u dies at characters l and l + 1 (only l when n = 2); alpha
            # moves character l + 1 to l, so v^(1) dies at l as well
            u = {k: ctx.int_(plant.choice((-3, -2, -1, 1, 2, 3)))
                 for k in range(n)}
            l = plant.randrange(n)
            for k in range(l, l + min(n - 1, 2)):
                u = alg.mul(u, {1: ctx.one, 0: -eps ** k})
            alpha = DiagonalAuto((eps,))
            v = alg.sub(u, alg.smul(rho, alg.apply(alpha, u)))
            out.append(AmbiskewRing(alg, alpha, v, rho))
    for ctx, d in ((q4, -1), (ScalarContext(), 2), (ScalarContext(), 4)):
        alg = QuadraticAlgebra(ctx, ctx.int_(d))
        for rho in (ctx.int_(2), ctx.fraction(Fraction(-1, 3))):
            for _ in range(3):
                v = {0: ctx.int_(rng.choice((-2, -1, 1, 2, 3))),
                     1: ctx.int_(rng.choice((-2, -1, 1, 2)))}
                out.append(AmbiskewRing(alg, alg.conjugation(), v, rho))
    return out


def _eigen_blocks():
    """Period-1 blocks, where v is an eigenvector of alpha: the field
    Q(zeta_5) with rho = zeta (fails at 5), the Weyl algebra over F_5
    (fails at 5), the field Q(q) with the factor q (holds), and K[C_4] over
    Q(zeta_4) with v = s, rho = 1 (fails at 4) and with alpha = 1,
    v = -(1 + s), rho = 2, a non-unit that a zero divisor u splits.  Each
    splits, so each meets the radical walk as well."""
    z5 = ScalarContext(cyclotomic_order=5)
    f5 = ScalarContext(characteristic=5)
    qq = ScalarContext(parameters=("q",))
    z4 = ScalarContext(cyclotomic_order=4)
    cyclic, fields = CyclicGroupAlgebra(z4, 4, z4.zeta()), []
    for ctx, rho in ((z5, z5.zeta()), (qq, qq.param("q"))):
        alg = FieldAlgebra(ctx)
        fields.append(AmbiskewRing(alg, alg.identity_auto(), alg.one, rho))
    poly = PolyAlgebra(f5)
    return fields + [
        AmbiskewRing(poly, AffineAuto(f5.one, f5.one), poly.one, f5.one),
        AmbiskewRing(cyclic, DiagonalAuto((z4.zeta(),)), {1: z4.one}, z4.one),
        AmbiskewRing(cyclic, cyclic.identity_auto(),
                     {0: -z4.one, 1: -z4.one}, z4.int_(2))]


def _walk(ring, fails, horizon):
    for m in range(1, horizon + 1):
        if fails(ring.v_m(m)):
            return m
    return None


def _nonunit(base):
    return lambda a: base.is_unit(a).status is not Status.HOLDS


_NONZERO = st.integers(-3, 3).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["field", "poly", "laurent"]), st.sampled_from([0, 7]),
       st.lists(_NONZERO, min_size=4, max_size=4), st.integers(-2, 2))
def test_a_unit_v_has_period_one(kind, p, draws, k):
    # a unit of the field, K[t] or K[t, t^-1] is a multiple of a monomial
    # that alpha only rescales, and a unit of a domain tower lies in its
    # coefficient algebra, so the period route asks no pencil of them
    ctx = ScalarContext(characteristic=p)
    a, c, rho, lam = (ctx.int_(x) for x in draws)
    if kind == "field":
        alg = FieldAlgebra(ctx)
        alpha, unit = alg.identity_auto(), {(): c}
    elif kind == "poly":
        alg = PolyAlgebra(ctx)
        alpha, unit = AffineAuto(a, ctx.int_(k)), {0: c}
    else:
        alg = LaurentAlgebra(ctx)
        alpha, unit = DiagonalAuto((a,)), {k: c}
    ring = AmbiskewRing(alg, alpha, unit, rho, y_name="y1", x_name="x1")
    assert ring.v_period()[0] == 1
    # a second level moving A by alpha, which rescales v1 by mu, with v
    # the inverse of v1
    mu = scalar_ratio(alg, alg.apply(alpha, unit), unit)
    nested = NestedAuto(alpha, lam, mu / lam)
    ring.validate_auto(nested)
    top = AmbiskewRing(ring, nested, ring.embed(alg.is_unit(unit).inverse),
                       rho)
    assert top.v_period()[0] == 1


def test_units_and_radical_match_a_walk_to_300():
    seen = {"holds": 0, "fails": 0}
    for ring in _blocks() + _eigen_blocks():
        base = ring.base
        span, ratio = ring.v_period()
        # an eigenvector is the period-1 case, whatever the order of R
        eigen = scalar_ratio(base, base.apply(ring.alpha, ring.v), ring.v)
        assert (span == 1) is (eigen is not None)
        moved = base.apply(base.auto_power(ring.alpha, span), ring.v)
        assert base.eq(base.smul(ring.rho ** span, moved),
                       base.smul(ratio, ring.v))
        units = units_for_all_m(ring)
        walked = _walk(ring, _nonunit(base), HORIZON)
        assert units.status is not Status.INCONCLUSIVE
        seen[units.status.value] += 1
        if units.fails:
            m = units.certificate["m"]
            assert walked == m or (walked is None and m > HORIZON)
            assert base.is_unit(ring.v_m(m)).status is not Status.HOLDS
        else:
            assert walked is None
        if ring.conformality().status is not Status.HOLDS:
            continue
        u = ring.conformality().u
        radical = dict(localized_simple(ring).conditions)["radical"]
        walked = _walk(ring, lambda a: base.radical_contains(a, u).status
                       is Status.FAILS, HORIZON)
        assert radical.status is not Status.INCONCLUSIVE
        if radical.fails:
            m = radical.certificate["m"]
            assert walked == m or (walked is None and m > HORIZON)
            assert base.radical_contains(ring.v_m(m), u).status is Status.FAILS
        else:
            assert walked is None
    assert seen["holds"] and seen["fails"]


def _identity_blocks(rng):
    """Rings over the field, K[C_2], K[C_4] and K[s]/(s^2 - d) for
    d in {4, 2, -1}, in Q, Q(zeta_4), F_5 and F_13, with every diagonal
    automorphism and random v and rho."""
    for ctx, four in ((ScalarContext(), None),
                      (ScalarContext(cyclotomic_order=4), "zeta"),
                      (ScalarContext(characteristic=5), 2),
                      (ScalarContext(characteristic=13), 5)):
        field = FieldAlgebra(ctx)
        families = [(field, [field.identity_auto()])]
        eps4 = ctx.zeta() if four == "zeta" else four and ctx.int_(four)
        for n, eps in ((2, -ctx.one), (4, eps4)):
            if eps:
                alg = CyclicGroupAlgebra(ctx, n, eps)
                families.append(
                    (alg, [DiagonalAuto((eps ** j,)) for j in range(n)]))
        for d in (4, 2, -1):
            alg = QuadraticAlgebra(ctx, ctx.int_(d))
            families.append((alg, [alg.identity_auto(), alg.conjugation()]))
        if ctx.characteristic:
            rhos = [ctx.int_(k) for k in range(1, ctx.characteristic)]
        else:
            rhos = [ctx.fraction(Fraction(a, b)) for a, b in
                    ((1, 1), (-1, 1), (2, 1), (1, 2), (-3, 1), (3, 2))]
            if ctx.cyclotomic_order == 4:
                rhos += [ctx.zeta(), -ctx.zeta()]
        for alg, autos in families:
            keys = alg.finite_basis()
            for alpha in autos:
                for _ in range(8):
                    v = {k: ctx.int_(rng.randint(-2, 2)) for k in keys}
                    v = {k: c for k, c in v.items() if not c.is_zero()}
                    yield AmbiskewRing(alg, alpha, v, rng.choice(rhos))


def test_radical_watching_one_is_the_units_condition():
    # A[1/1] = A: the radical condition with u = 1 is the units condition
    seen = {status: 0 for status in Status}
    for ring in _identity_blocks(random.Random(8)):
        units = units_for_all_m(ring)
        watched = every_v_m_unit(ring, watch=ring.base.one)
        assert watched.status is units.status, repr(type(ring))
        if units.fails:
            assert watched.certificate["m"] == units.certificate["m"]
        seen[units.status] += 1
    assert sum(seen.values()) == 384
    assert seen[Status.HOLDS] and seen[Status.FAILS]


def test_radical_scan_asks_v_once(monkeypatch):
    # t -> 2*t + 1 leaves v = t with no scalar period, so the radical
    # condition scans; v^(1) was asked before the scan and is not asked
    # again, and v^(2) = t + 3*(2*t + 1) fails
    seen = []
    radical_contains = PolyAlgebra.radical_contains

    def spy(self, d, u):
        seen.append(self.render(d))
        return radical_contains(self, d, u)

    monkeypatch.setattr(PolyAlgebra, "radical_contains", spy)
    ctx = ScalarContext()
    poly = PolyAlgebra(ctx)
    t = poly.gen_elem("t")
    ring = AmbiskewRing(poly, AffineAuto(ctx.int_(2), ctx.one), t, ctx.int_(3))
    verdict = every_v_m_unit(ring, watch=t)
    assert seen == ["0", "t", "7*t + 3"]
    assert verdict.fails
    assert verdict.certificate == {
        "kind": "nonunit_v_m", "m": 2, "value": "7*t + 3",
        "detail": {"kind": "radical_witness", "power": 1}}


def test_units_failing_at_m_1_wait_for_no_period_search(monkeypatch):
    # over Q(q) the period search of this affine alpha swells; v^(1) has
    # positive degree, so the units condition fails before that search
    def no_search(self):
        raise AssertionError("v^(1) decides; no period search is needed")

    monkeypatch.setattr(AmbiskewRing, "v_period", no_search)
    ring = parse_spec("""context(parameters = [q])
base P = poly(t)
auto a on P { t -> (q^2 + 1/2)*t + (q^2 - 1/2)*(q - 1) }
ring R = ambiskew(P, a, v = 2*q*t^2 + 4*(q^2 - q)*t + 1, rho = 1/(q^2 + 1/2))
""").rings["R"]
    verdict = units_for_all_m(ring)
    assert verdict.fails
    assert verdict.reason == "v^(1) is not a unit"
    assert verdict.certificate == {
        "kind": "nonunit_v_m", "m": 1, "value": "2*q*t^2 + (4*q^2 - 4*q)*t + 1",
        "detail": {"kind": "positive_degree", "degree": 2}}


def test_the_units_condition_builds_no_inverse(monkeypatch):
    # K[C_4] over Q(zeta_4)(mu), v = s + mu*s^3, rho = zeta: every v^(m)
    # the units condition asks about is a unit, and only its status is read
    expected = json.dumps(simple(fc4_mixed()[2]).to_json())

    def refuse(self, chars):
        raise AssertionError("the units condition reads no inverse")

    monkeypatch.setattr(CyclicGroupAlgebra, "_inverse", refuse)
    verdict = simple(fc4_mixed()[2])
    assert dict(verdict.conditions)["units"].holds
    assert json.dumps(verdict.to_json()) == expected


def test_a_ratio_moving_a_parameter_decides():
    # K[C_2] over Q(q), v = 1 + 2*s, rho = q: (rho*alpha)^2 rescales v by
    # q^2, whose degree in q pins every candidate
    ctx = ScalarContext(parameters=("q",))
    alg = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    ring = AmbiskewRing(alg, DiagonalAuto((-ctx.one,)),
                        {0: ctx.one, 1: ctx.int_(2)}, ctx.param("q"))
    verdict = units_for_all_m(ring)
    assert verdict.holds
    assert verdict.certificate == {"kind": "periodic_units", "period": 2,
                                   "ratio": "q^2"}


def test_planted_failure_past_the_old_scan_bound():
    # K[C_2], s -> -s, rho = 2: (rho*alpha)^2 rescales v by R = 4, and with
    # chi_0(v) = A, chi_1(v) = B the residue-1 pencil has
    # chi_0(v^(2q + 1)) = [q]_4*(A + 2*B) + 4^q*A, which vanishes exactly
    # when 4^q = (A + 2*B)/(4*A + 2*B); plant q = 150, so m = 301
    ctx = ScalarContext()
    alg = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    big = 4 ** 150
    a, b = 2 * (big - 1), 1 - 4 * big
    v = {0: ctx.fraction(Fraction(a + b, 2)), 1: ctx.fraction(Fraction(a - b, 2))}
    ring = AmbiskewRing(alg, DiagonalAuto((-ctx.one,)), v, ctx.int_(2))
    verdict = units_for_all_m(ring)
    assert verdict.fails and verdict.certificate["m"] == 301
    assert verdict.certificate["detail"]["character"] == 0
    assert _walk(ring, _nonunit(alg), 301) == 301


@pytest.mark.parametrize("p, eps, c, rho, m", [(257, 9, -3, 3, 2),
                                                 (3329, 289, 29, 2, 197)])
def test_a_period_of_128_takes_the_period_route(monkeypatch, p, eps, c, rho,
                                                m):
    # K[C_128] over F_p, s -> eps*s with eps of order 128, v = s + c: the
    # period of v is 128, which the period search reaches within M_MAX;
    # with M_MAX below the period the units condition scans.  A residue r
    # that fails at q = 0 is m = r, and no later residue is asked
    ctx = ScalarContext(characteristic=p)
    alg = CyclicGroupAlgebra(ctx, 128, ctx.int_(eps))
    ring = AmbiskewRing(alg, DiagonalAuto((ctx.int_(eps),)),
                        {0: ctx.int_(c), 1: ctx.one}, ctx.int_(rho))
    assert ring.v_period() == (128, ctx.int_(rho) ** 128)
    asked = []
    pencil = CyclicGroupAlgebra.first_nonunit_in_pencil
    monkeypatch.setattr(CyclicGroupAlgebra, "first_nonunit_in_pencil",
                        lambda self, *args: asked.append(1) or pencil(self, *args))
    verdict = units_for_all_m(ring)
    assert verdict.fails and verdict.certificate["m"] == m
    assert len(asked) == min(m, 127)
    assert _walk(ring, _nonunit(alg), HORIZON) == m
    monkeypatch.setattr(bounds, "M_MAX", 100)
    assert ring.v_period() is None
    scanned = units_for_all_m(ring)
    if m <= 100:
        assert scanned.to_json() == verdict.to_json()
    else:
        assert scanned.status is Status.INCONCLUSIVE
        assert scanned.reason == ("no scalar period within 100 steps; units "
                                  "verified through m = 100")
        assert scanned.certificate == {"kind": "bounded_scan", "m_max": 100}


def test_a_radical_pencil_reads_watch_only_where_a_line_has_a_root(monkeypatch):
    # K[C_128] over F_257, s -> 9*s, v = s - 3, rho = 3, watching the
    # idempotent u of character 28: each of the 127 residue pencils reads
    # watch only at a character whose line has a root, 158 reads in all
    # rather than 128 per pencil.  Each pencil derives the ratio's order and
    # its discrete log once: 127 orders, and 127 + 16,258 logs, one per
    # nonzero root read (the 158 watched lines are read twice)
    ctx = ScalarContext(characteristic=257)
    alg = CyclicGroupAlgebra(ctx, 128, ctx.int_(9))
    ring = AmbiskewRing(alg, DiagonalAuto((ctx.int_(9),)),
                        {0: ctx.int_(-3), 1: ctx.one}, ctx.int_(3))
    u = {k: alg.eps ** (-k * 28) / 128 for k in range(128)}
    reads, calls = [], {"root_of_unity_order": 0, "_dlog": 0}
    character = CyclicGroupAlgebra.character
    monkeypatch.setattr(CyclicGroupAlgebra, "character", lambda self, l, a:
                        (a is u and reads.append(l)) or character(self, l, a))
    for name in calls:
        def counted(*args, _name=name, _f=getattr(scalars, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(scalars, name, counted)
    verdict = every_v_m_unit(ring, watch=u)
    assert verdict.status is Status.FAILS and verdict.certificate["m"] == 228
    assert len(reads) == 158
    assert calls == {"root_of_unity_order": 127, "_dlog": 127 + 16258}


_ONE_CALL_RATIOS = {
    # 1 + zeta has infinite order and is not rational, so it raises
    "Q(zeta_4)": (ScalarContext(cyclotomic_order=4), lambda c: [
        None, c.int_(2), -c.one, c.zeta(), c.one + c.zeta(),
        c.fraction(Fraction(1, 3))]),
    "F_13": (ScalarContext(characteristic=13), lambda c: [
        None, c.int_(2), c.int_(5), c.int_(12), c.int_(3)]),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_ONE_CALL_RATIOS)), st.sampled_from([2, 4]),
       st.integers(0, 5), st.lists(st.integers(-1, 1), min_size=12,
                                   max_size=12))
def test_a_radical_pencil_is_one_call_over_the_watched_lines(name, n, pick,
                                                             coeffs):
    # the answer, a ValueError included, is that of one least_integer_root
    # call over the lines of the characters that do not vanish on watch
    ctx, ratios = _ONE_CALL_RATIOS[name]
    ratios = ratios(ctx)
    ratio = ratios[pick % len(ratios)]
    eps = ctx.zeta() if ctx.cyclotomic_order == 4 else ctx.int_(5)
    alg = CyclicGroupAlgebra(ctx, n, eps ** (4 // n))
    p, b, watch = ({k: ctx.int_(c) for k, c in enumerate(coeffs[i:i + n]) if c}
                   for i in (0, 4, 8))
    lead, const = _pencil_line(alg, p, b, ratio)

    def outcome(solve):
        try:
            return solve()
        except ValueError as exc:
            return str(exc)

    expected = outcome(lambda: least_integer_root(
        [[alg.character(l, const), alg.character(l, lead)] for l in range(n)
         if not alg.character(l, watch).is_zero()], 0, ratio))
    assert outcome(lambda: alg.first_nonunit_in_pencil(p, b, ratio, watch)) == expected


# -- GWA comaximality over a shift: the dispersion of u ---------------------------


def _shift_u(ctx, rng):
    """u of degree 2-4 over Q with planted integer gaps between roots, and
    sometimes an irreducible quadratic factor."""
    alg = PolyAlgebra(ctx)
    base = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    roots = [base + rng.randint(0, 7) for _ in range(rng.randint(1, 2))]
    roots += [Fraction(rng.randint(-9, 9), rng.choice((2, 3, 5)))
              for _ in range(rng.randint(0, 1))]
    u = {0: ctx.int_(rng.choice((1, -2, 3)))}
    for r in roots:
        u = alg.mul(u, {1: ctx.one, 0: ctx.fraction(-r)})
    if len(roots) < 2 or (len(roots) == 2 and rng.random() < 0.3):
        u = alg.mul(u, {2: ctx.one, 0: ctx.int_(rng.randint(1, 5))})
    return alg, u


def test_dispersion_matches_a_comaximality_walk():
    ctx = ScalarContext()
    rng = random.Random(1971)
    seen = {"holds": 0, "fails": 0}
    for _ in range(40):
        alg, u = _shift_u(ctx, rng)
        assert 2 <= max(u) <= 4
        step = ctx.fraction(rng.choice((Fraction(1), Fraction(-1), Fraction(2),
                                        Fraction(1, 2))))
        alpha = AffineAuto(ctx.one, step)
        comax = dict(gwa_simple(GwaRing(alg, alpha, u)).conditions)["comaximal"]
        walked = None
        for m in range(1, 40):
            image = alg.apply(alg.auto_power(alpha, m), u)
            if alg.comaximal(u, image).status is Status.FAILS:
                walked = m
                break
        assert comax.status is not Status.INCONCLUSIVE
        seen[comax.status.value] += 1
        if comax.fails:
            assert comax.certificate["m"] == walked
        else:
            assert walked is None
            assert comax.certificate["kind"] == "shift_coprime"
            assert "resultant" in comax.certificate
    assert seen["holds"] and seen["fails"]


def test_dispersion_with_a_parametric_step():
    ctx = ScalarContext(parameters=("q",))
    alg = PolyAlgebra(ctx)
    q = ctx.param("q")
    # roots 0 and 3*q: alpha^m(u) = u(t + m*q) meets u at m = 3
    u = alg.mul({1: ctx.one}, {1: ctx.one, 0: -3 * q})
    comax = dict(gwa_simple(GwaRing(alg, AffineAuto(ctx.one, q), u))
                 .conditions)["comaximal"]
    assert comax.fails and comax.certificate["m"] == 3


# -- GWA comaximality by the resultant in the action, against a walk --------

_GWA_CONTEXTS = {
    "Q": ScalarContext(), "Q(q)": ScalarContext(parameters=("q",)),
    "F_5": ScalarContext(characteristic=5),
    "F_7": ScalarContext(characteristic=7),
    "F_101": ScalarContext(characteristic=101),
    "F_7(q)": ScalarContext(characteristic=7, parameters=("q",)),
}
COMAXIMAL_WALK = 40


@st.composite
def _gwa_draws(draw):
    """(algebra, alpha, u, ratio): a Poly shift (ratio None), a Poly
    affine scaling or a Laurent scaling by the ratio, and u of degree 1-3
    whose roots are sometimes planted images of one another under
    ``move(r, j)``, the root r moved by alpha^j, so both verdicts occur."""
    ctx = _GWA_CONTEXTS[draw(st.sampled_from(sorted(_GWA_CONTEXTS)))]
    one, half = ctx.one, ctx.fraction(Fraction(1, 2))
    pool = [ctx.int_(k) for k in range(-3, 4)]
    scales = [ctx.int_(2), ctx.int_(3), -one, half]
    family = draw(st.sampled_from(("shift", "scaling", "laurent")))
    if ctx.parameters:
        # the walk's gcds over Q(q) keep every common factor (ROADMAP item
        # 1b) and pass 10 s by m = 40 once a scaling moves parametric
        # coefficients: the parameter enters a shift's step and roots, and
        # a Laurent scaling
        q = ctx.param("q")
        if family == "shift":
            pool += [q, -q, q + one]
        elif family == "laurent":
            scales += [q, 2 * q]
    nonzero = [c for c in pool if not c.is_zero()]
    if family == "shift":
        b = draw(st.sampled_from(nonzero))
        alg, alpha, ratio = PolyAlgebra(ctx), AffineAuto(one, b), None
        move = lambda r, j: r + ctx.int_(j) * b
    else:
        a = draw(st.sampled_from([c for c in scales if c != one]))
        if family == "scaling":
            b = draw(st.sampled_from(pool))
            t0 = b / (one - a)
            alg, alpha = PolyAlgebra(ctx), AffineAuto(a, b)
            move = lambda r, j: t0 + (r - t0) * a ** j
        else:
            alg, alpha = LaurentAlgebra(ctx), DiagonalAuto((a,))
            move = lambda r, j: r * a ** j
        ratio = a
    roots = [draw(st.sampled_from(pool))]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            roots.append(move(draw(st.sampled_from(roots)),
                              draw(st.integers(1, 3))))
        else:
            roots.append(draw(st.sampled_from(pool)))
    u = {0: ctx.int_(draw(st.sampled_from((1, -2, 3))))}
    for r in roots:
        u = alg.mul(u, {1: one, 0: -r})
    if len(roots) == 1 and draw(st.booleans()):
        u = alg.mul(u, {2: one, 0: draw(st.sampled_from(nonzero))})
    if family == "laurent":
        u = alg.mul(u, {draw(st.integers(-1, 1)): one})
    return alg, alpha, u, ratio


@settings(max_examples=60, deadline=None)
@given(_gwa_draws())
def test_resultant_matches_a_comaximality_walk(draw):
    alg, alpha, u, ratio = draw
    comax = dict(gwa_simple(GwaRing(alg, alpha, u)).conditions)["comaximal"]
    assert comax.status is not Status.INCONCLUSIVE
    upto = comax.certificate["m"] if comax.fails else COMAXIMAL_WALK
    walked = next((m for m in range(1, upto + 1) if alg.comaximal(
        u, alg.apply(alg.auto_power(alpha, m), u)).status is Status.FAILS), None)
    if comax.fails:
        assert walked == comax.certificate["m"]
        return
    assert walked is None
    cert = comax.certificate
    if cert["kind"] == "unit_u":
        return
    assert cert["kind"] == "shift_coprime"
    assert cert.get("ratio") == (None if ratio is None else str(ratio))
    ctx = alg.ctx
    res = eval_element(parse_expression(cert["resultant"]),
                       PolyAlgebra(ctx, "m" if ratio is None else "X"))
    for m in range(1, COMAXIMAL_WALK + 1):
        x = ctx.int_(m) if ratio is None else ratio ** m
        assert sum((c * x ** k for k, c in res.items()), ctx.zero) != ctx.zero


# -- the resultant in the action from power sums, against sympy -------------

# every context draws degrees n with n^2 below its characteristic
_ORACLE_CONTEXTS = {
    "Q": (ScalarContext(), 4), "Q(q)": (ScalarContext(parameters=("q",)), 4),
    "Q(zeta_4)": (ScalarContext(cyclotomic_order=4), 4),
    "F_101": (ScalarContext(characteristic=101), 4),
    "F_7(q)": (ScalarContext(characteristic=7, parameters=("q",)), 2),
}


def _oracle_pool(ctx):
    """Coefficients, every one nonzero, and ratios of infinite order."""
    pool = [ctx.int_(k) for k in (1, 2, 3, -1, -3)] + [
        ctx.fraction(Fraction(1, 2))]
    ratios = [ctx.int_(2), ctx.fraction(Fraction(1, 2))]
    if ctx.parameters:
        q = ctx.param("q")
        pool += [q, q + 1, (q + 2) / (q - 1)]
        ratios = [q, 2 * q] + ([] if ctx.characteristic else ratios)
    if ctx.cyclotomic_order == 4:
        pool += [ctx.zeta(), ctx.one + ctx.zeta()]
    return pool, ratios


@st.composite
def _action_draws(draw):
    """(ctx, u0 dense, b, ratio): a shift by b (ratio None) or a scaling
    about 0 by the ratio (b None), of u0 of degree 1-4, whose constant
    term is sometimes 0 under a scaling."""
    ctx, top = _ORACLE_CONTEXTS[draw(st.sampled_from(sorted(_ORACLE_CONTEXTS)))]
    pool, ratios = _oracle_pool(ctx)
    n = draw(st.integers(1, top))
    c = [draw(st.sampled_from(pool + [ctx.zero])) for _ in range(n)]
    c.append(draw(st.sampled_from(pool)))
    if draw(st.booleans()):
        return ctx, c, draw(st.sampled_from(pool)), None
    if c[0].is_zero() and draw(st.booleans()):
        c[0] = draw(st.sampled_from(pool))
    return ctx, c, None, draw(st.sampled_from(ratios))


def _euclid_refused(*args):
    raise AssertionError("Euclid's resultant or interpolation ran")


@settings(max_examples=60, deadline=None)
@given(_action_draws())
def test_the_power_sum_resultant_is_sympys(draw):
    # R(X) = Res_s(u0(s), u0(s + b*X)) or Res_s(u0(s), u0(X*s)) exactly, and
    # in characteristic 0 or above n^2 the GWA route reaches neither
    # Euclid's resultant nor an interpolation
    sympy = pytest.importorskip("sympy")
    ctx, c, b, ratio = draw
    # cleared of denominators, as the route clears u0
    c = scalars._rational_component(c)[0]
    s, x, q, zeta = sympy.symbols("s X q zeta")

    def value(a):
        return sympy.sympify(str(a).replace("^", "**"),
                             locals={"q": q, "zeta": zeta})

    u0 = sum(value(a) * s ** k for k, a in enumerate(c))
    image = u0.subs(s, s + value(b) * x if b is not None else x * s)
    expected = sympy.resultant(u0, sympy.expand(image), s)
    alg = PolyAlgebra(ctx)
    alpha = AffineAuto(ctx.one, b) if ratio is None else AffineAuto(
        ratio, ctx.zero)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebras, "_resultant", _euclid_refused)
        patch.setattr(algebras, "_interpolate", _euclid_refused)
        m, _, _ = alg.coprime_to_shifts(
            alpha, {k: a for k, a in enumerate(c) if a})
    if ratio is not None and c[0].is_zero():
        # u0 and every image vanish at 0: R is zero, and m = 1
        assert sympy.expand(expected) == 0 and m == 1
        return
    expected = sympy.Poly(expected, x)
    got = scalars._action_resultant(c, b)
    assert len(got) == len(c) ** 2 - 2 * len(c) + 2 == expected.degree() + 1
    for d, coeff in enumerate(got):
        text = str(expected.coeff_monomial(x ** d)).replace("**", "^")
        assert coeff == eval_scalar(parse_expression(text), ctx), d


def _count_products(monkeypatch, run) -> int:
    count = [0]
    mul = scalars.Scalar.__mul__

    def counted(a, b):
        count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(scalars.Scalar, "__mul__", counted)
    run()
    monkeypatch.setattr(scalars.Scalar, "__mul__", mul)
    return count[0]


@pytest.mark.parametrize("a", [1, 2])
def test_the_action_resultant_costs_n_to_the_fourth(monkeypatch, a):
    # a shift (a = 1) or a scaling of u of degree n over Q: O(n^4) scalar
    # products, so doubling n multiplies them by at most 16 (about 9 here),
    # and never a Euclid resultant or an interpolation
    ctx = ScalarContext()
    alg = PolyAlgebra(ctx)
    monkeypatch.setattr(algebras, "_resultant", _euclid_refused)
    monkeypatch.setattr(algebras, "_interpolate", _euclid_refused)
    alpha = AffineAuto(ctx.int_(a), ctx.one)
    counts = []
    for n in (4, 8):
        u = {k: ctx.int_((3 * k * k + 5 * k + 7) % 11 + 1) for k in range(n + 1)}
        counts.append(_count_products(
            monkeypatch, lambda: alg.coprime_to_shifts(alpha, u)))
    assert counts[1] <= 16 * counts[0]


def test_a_parametric_shift_of_degree_four_forms_no_swell(monkeypatch):
    # u = t^4 + q*t^3 + (q + 2)/(q - 1)*t^2 + t + 1/(q + 3) under t -> t + 1:
    # 255 products and 33 scalars over a polynomial denominator, where N + 1
    # Euclid resultants made 1,701 and 669 and took about 20 times as long
    ctx = ScalarContext(parameters=("q",))
    q, one = ctx.param("q"), ctx.one
    alg = PolyAlgebra(ctx)
    u = {4: one, 3: q, 2: (q + 2) / (q - 1), 1: one, 0: one / (q + 3)}
    monkeypatch.setattr(algebras, "_resultant", _euclid_refused)
    monkeypatch.setattr(algebras, "_interpolate", _euclid_refused)
    fractions = [0]
    init = scalars.Scalar.__init__

    def counted(self, *args):
        fractions[0] += 1
        init(self, *args)

    monkeypatch.setattr(scalars.Scalar, "__init__", counted)
    out = []
    products = _count_products(monkeypatch, lambda: out.append(
        alg.coprime_to_shifts(AffineAuto(one, one), u)))
    m, _, cert = out[0]
    assert m is None and cert["kind"] == "shift_coprime"
    assert products <= 500 and fractions[0] <= 70


def test_a_degree_twelve_shift_picks_its_hensel_prime_mod_p(monkeypatch):
    # u = sum ((3k^2 + 5k + 7) mod 11 + 1)*t^k under t -> t + 1 over Q:
    # R has degree 144, X^12 times g of degree 132, and Res(g, g') by
    # Euclid over Fractions took about 1.5 s; Euclid mod 2 and mod 3
    # settle the same prime, 3, at once
    ctx = ScalarContext()
    alg = PolyAlgebra(ctx)
    u = {k: ctx.int_((3 * k * k + 5 * k + 7) % 11 + 1) for k in range(13)}
    monkeypatch.setattr(scalars, "_resultant", _euclid_refused)
    tried = []
    squarefree = scalars._squarefree_mod

    def spied(g, p):
        tried.append((len(g) - 1, p, squarefree(g, p)))
        return tried[-1][2]

    monkeypatch.setattr(scalars, "_squarefree_mod", spied)
    verdict = gwa_simple(GwaRing(alg, AffineAuto(ctx.one, ctx.one), u))
    comax = dict(verdict.conditions)["comaximal"]
    assert verdict.holds and comax.certificate["kind"] == "shift_coprime"
    assert tried == [(132, 2, False), (132, 3, True)]
