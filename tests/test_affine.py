"""Affine automorphisms t -> a*t + b of K[t].

The splitting solve runs one back-substitution on the t^k for every such
map, as 1 - rho*alpha is upper triangular there; it is held against the
dense solve on the window of degree deg v + 1, and its resonant
obstructions against v read in s = t - b/(1 - a), which a map with a != 1
scales.  The stable-ideal search and the conjugation invariance rest on
that fixed-point reading, and are held against the replay of every stable
generator and the statuses of the diagonal ring a translation conjugates.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ambiskew.algebras import (AffineAuto, PolyAlgebra, scalar_ratio,
                               solve_splitting_ex)
from ambiskew.dsl import eval_element, eval_scalar, parse_expression
from ambiskew.linear import gauss_solve
from ambiskew.rings import AmbiskewRing
from ambiskew.scalars import ScalarContext
from ambiskew.simplicity import simple, singular
from ambiskew.verdict import Status

CONTEXTS = {"Q": ScalarContext(), "Q(q)": ScalarContext(parameters=("q",)),
            **{f"F_{p}": ScalarContext(characteristic=p) for p in (2, 3, 5, 7)}}
QQR = ScalarContext(parameters=("q", "r"))
# shifts whose offset b and rho have two or more terms, with two parameters
# and in characteristic p: (context, offsets b, rhos, largest degree of v).
# Over Q(q, r) the windowed dense solve of degree 4 is a known cliff
SHIFT_POOLS = (
    (QQR, ("q", "1 + q", "r - q", "q*r + 1"),
     ("r", "1 + r", "2 + q", "q*r", "1"), 3),
    (ScalarContext(characteristic=5, parameters=("q",)), ("1", "1 + q", "q^2 - 2"),
     ("2 + q", "q", "1 + q^2", "3", "1"), 4))


@st.composite
def _scalar(draw, ctx, nonzero=False):
    if ctx.characteristic:
        s = ctx.int_(draw(st.integers(0, ctx.characteristic - 1)))
    elif ctx.parameters:
        q = ctx.param("q") ** draw(st.sampled_from([-1, 1]))
        s = ctx.int_(draw(st.integers(-2, 2))) \
            + ctx.int_(draw(st.integers(-1, 1))) * q
    else:
        s = ctx.fraction(Fraction(draw(st.integers(-3, 3)),
                                  draw(st.integers(1, 3))))
    assume(not (nonzero and s.is_zero()))
    return s


@st.composite
def _poly(draw, alg, max_degree=5):
    d = draw(st.integers(0, max_degree))
    v = {k: draw(_scalar(alg.ctx)) for k in range(d + 1)}
    v = {k: s for k, s in v.items() if not s.is_zero()}
    assume(v)
    return v


@st.composite
def _splitting_case(draw):
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    alg = PolyAlgebra(ctx)
    a = draw(_scalar(ctx, nonzero=True))
    alpha = AffineAuto(a, draw(_scalar(ctx)))
    # rho = a^-k makes (t - t0)^k resonant; otherwise rho is drawn freely
    k = draw(st.one_of(st.none(), st.integers(0, 3)))
    rho = draw(_scalar(ctx, nonzero=True)) if k is None else a ** -k
    return alg, alpha, draw(_poly(alg)), rho


@st.composite
def _shift_case(draw):
    """A shift t -> t + b over Q(q, r) or F_5(q), b and rho drawn from small
    pools, and v with coefficients c0 + c1*q."""
    ctx, offsets, rhos, degree = draw(st.sampled_from(SHIFT_POOLS))
    alg = PolyAlgebra(ctx)
    scalar = lambda text: eval_scalar(parse_expression(text), ctx)
    coeff = lambda: ctx.int_(draw(st.integers(-2, 2))) \
        + ctx.int_(draw(st.integers(-1, 1))) * ctx.param("q")
    v = {k: coeff() for k in range(draw(st.integers(0, degree)) + 1)}
    v = {k: s for k, s in v.items() if not s.is_zero()}
    assume(v)
    b = scalar(draw(st.sampled_from(offsets)))
    return alg, AffineAuto(ctx.one, b), v, scalar(draw(st.sampled_from(rhos)))


def _swell_solve_7():
    """The bench's swell-solve-7: t -> t + q, rho = r over Q(q, r)."""
    alg = PolyAlgebra(QQR)
    v = eval_element(parse_expression("-2 - 3*t + t^2 + 2*r*t^3"), alg)
    return alg, AffineAuto(QQR.one, QQR.param("q")), v, QQR.param("r")


def _two_resonances():
    """t -> -t + 2, rho = 1, v = t^2 + t over Q: v(1 + s) = s^2 + 3s + 2
    has both resonant terms s^0 and s^2."""
    ctx = CONTEXTS["Q"]
    return (PolyAlgebra(ctx), AffineAuto(-ctx.one, ctx.int_(2)),
            {2: ctx.one, 1: ctx.one}, ctx.one)


def _windowed_solve(alg, alpha, v, rho):
    """The dense solve of u - rho*alpha(u) = v over the monomials t^d,
    d <= deg v + 1, with the free unknowns set to zero; None when the
    system is inconsistent."""
    ctx = alg.ctx
    dim = max(v) + 2
    rows = [[ctx.zero] * dim for _ in range(dim)]
    for d in range(dim):
        image = alg.sub({d: ctx.one},
                        alg.smul(rho, alg.apply(alpha, {d: ctx.one})))
        for r, s in image.items():
            rows[r][d] = s
    sol = gauss_solve(rows, [v.get(r, ctx.zero) for r in range(dim)])
    return None if sol is None else {d: s for d, s in enumerate(sol)
                                     if not s.is_zero()}


@settings(max_examples=200, deadline=None)
@given(st.one_of(_splitting_case(), _shift_case()))
@example(_swell_solve_7())
@example(_two_resonances())
def test_splitting_matches_the_windowed_dense_solve(case):
    alg, alpha, v, rho = case
    u, obstruction, complete = solve_splitting_ex(alg, alpha,
                                                  alg.identity_auto(), v, rho)
    want = _windowed_solve(alg, alpha, v, rho)
    assert complete
    assert (u is None) == (want is None), obstruction
    if u is not None:
        replay = alg.sub(u, alg.smul(rho, alg.apply(alpha, u)))
        assert alg.eq(replay, v)
        assert alg.eq(u, want)
    elif obstruction["kind"] == "resonant_monomial":
        # the monomial reads back in t, and rho*alpha fixes it
        mono = eval_element(parse_expression(obstruction["monomial"]), alg)
        assert alg.eq(alg.smul(rho, alg.apply(alpha, mono)), mono)
        one = alg.ctx.one
        if alpha.a != one:
            # v(t0 + s) has an s^d term at the degree d named; the diagonal
            # solve names the first resonant term it meets, and a map that
            # moves 0 the highest
            d = max(mono)
            vs = alg.apply(AffineAuto(one, alpha.b / (one - alpha.a)), v)
            assert d in vs
            assert alg.is_diagonal(alpha) or all(
                rho * alpha.a ** k != one for k in vs if k > d)
    else:
        # a shift with rho = 1, stopped at a degree d with p | d + 1
        assert obstruction["kind"] == "no_polynomial_splitting"
        assert alpha.a == alg.ctx.one and rho == alg.ctx.one
        assert (obstruction["degree"] + 1) % alg.ctx.characteristic == 0


@st.composite
def _auto_family(draw):
    """Up to three maps, most of them scalings about one drawn point or
    shifts, so that stable ideals come up often."""
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    t0 = draw(_scalar(ctx))
    autos = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["about", "shift", "free"]))
        a = ctx.one if kind == "shift" else draw(_scalar(ctx, nonzero=True))
        b = (ctx.one - a) * t0 if kind == "about" else draw(_scalar(ctx))
        autos.append(AffineAuto(a, b))
    return PolyAlgebra(ctx), autos


@settings(max_examples=200, deadline=None)
@given(_auto_family())
def test_every_stable_ideal_generator_is_fixed_by_each_map(case):
    alg, autos = case
    verdict = alg.alpha_simple(autos)
    if not alg.ctx.characteristic:
        assert verdict.status is not Status.INCONCLUSIVE
    if verdict.fails:
        f = eval_element(parse_expression(verdict.certificate["generator"]),
                         alg)
        assert max(f) > 0
        for h in autos:
            assert scalar_ratio(alg, alg.apply(h, f), f) is not None


@st.composite
def _conjugate_pair(draw):
    """R(K[t], t -> a*t, v, rho) and its conjugate by t -> t + c, which is
    R(K[t], t -> a*t + (a - 1)*c, v(t + c), rho).  Scalars stay small: a
    parametric affine alpha swells the period search of the units
    condition."""
    ctx = CONTEXTS[draw(st.sampled_from(["Q", "Q(q)"]))]
    alg = PolyAlgebra(ctx)
    q = ctx.param("q") if ctx.parameters else ctx.int_(3)
    small = lambda *texts: st.sampled_from(
        [q if x == "q" else ctx.fraction(Fraction(x)) for x in texts])
    a = draw(small("2", "-1", "1/2", "q", "1"))
    k = draw(st.one_of(st.none(), st.integers(0, 2)))
    rho = draw(small("1", "2", "-1", "q")) if k is None else a ** -k
    v = {i: ctx.int_(draw(st.integers(-2, 2))) for i in range(3)}
    v = {i: s for i, s in v.items() if not s.is_zero()}
    assume(v)
    c = draw(small("1", "-2", "1/2", "q"))
    diagonal = AmbiskewRing(alg, AffineAuto(a, ctx.zero), v, rho)
    moved = AmbiskewRing(alg, AffineAuto(a, (a - ctx.one) * c),
                         alg.apply(AffineAuto(ctx.one, c), v), rho)
    return diagonal, moved


@settings(max_examples=150, deadline=None)
@given(_conjugate_pair())
def test_a_translation_conjugate_gets_the_same_statuses(pair):
    diagonal, moved = pair
    assert singular(moved).status is singular(diagonal).status
    assert simple(moved).status is simple(diagonal).status


def _cliff_case(ctx, a: str, b: str, rho: str, n: int):
    """(algebra, t -> a*t + b, v, rho) with v = sum_k ((k+1)*q + k)*t^k,
    k <= n."""
    alg = PolyAlgebra(ctx)
    v = eval_element(parse_expression(" + ".join(
        f"({k + 1}*q + {k})*t^{k}" for k in range(n + 1))), alg)
    scalar = lambda text: eval_scalar(parse_expression(text), ctx)
    return alg, AffineAuto(scalar(a), scalar(b)), v, scalar(rho)


def _cliff_ring(a: str, b: str, rho: str, n: int):
    """The ring of ``_cliff_case`` over Q(q)."""
    return AmbiskewRing(*_cliff_case(CONTEXTS["Q(q)"], a, b, rho, n))


def test_scalings_about_a_point_solve_in_small_forms():
    # deterministic guards against the Q(q) swell: a size and a route, no time
    conformal = _cliff_ring("2", "1", "q", 11).conformality()
    assert conformal.status is Status.HOLDS
    assert len(PolyAlgebra(CONTEXTS["Q(q)"]).render(conformal.u)) < 10_000
    verdict = singular(_cliff_ring("q", "1", "1", 15))
    assert verdict.holds
    assert verdict.certificate["obstruction"] == {
        "kind": "resonant_monomial", "monomial": "1", "scale": "1"}


@pytest.mark.parametrize("ctx, a, b, rho",
                         [(CONTEXTS["Q(q)"], "1", "1", "q"), (QQR, "1", "q", "r"),
                          (CONTEXTS["Q(q)"], "q", "1", "q^3"),
                          (QQR, "q", "r", "r")],
                         ids=["Q(q)", "Q(q, r)", "Q(q) scaling",
                              "Q(q, r) scaling"])
def test_a_parametric_affine_map_splits_in_quadratic_products(
        monkeypatch, ctx, a, b, rho):
    # t -> a*t + b carries one denominator, the product of the leads
    # 1 - rho*a^k: O(n^2) scalar products, so doubling n multiplies the
    # domain's products by at most 16 (about 4, 7, 7 and 12 here).  Divided
    # into the remainder at each step, the shift leads made 176 and 408 times
    # as many; solved in s = t - b/(1 - a) and moved back, the scalings 24
    # and 67 times
    calls = [0]
    mul = type(ctx.dom).mul

    def counting(dom, x, y):
        calls[0] += 1
        return mul(dom, x, y)

    monkeypatch.setattr(type(ctx.dom), "mul", counting)
    counts = []
    for n in (4, 8):
        alg, alpha, v, r = _cliff_case(ctx, a, b, rho, n)
        calls[0] = 0
        u, _, _ = solve_splitting_ex(alg, alpha, alg.identity_auto(), v, r)
        counts.append(calls[0])
        assert alg.eq(alg.sub(u, alg.smul(r, alg.apply(alpha, u))), v)
    assert counts[1] <= 16 * counts[0]


def test_the_shift_row_renders_u_small_at_degree_11():
    # t -> t + 1, rho = q: u renders in about 1.8 KB.  With the leads divided
    # into the remainder, whose denominators doubled in degree each step, it
    # took 169 KB at degree 9
    alg, alpha, v, rho = _cliff_case(CONTEXTS["Q(q)"], "1", "1", "q", 11)
    u, _, _ = solve_splitting_ex(alg, alpha, alg.identity_auto(), v, rho)
    assert len(alg.render(u)) < 4_096


def test_the_scaling_row_renders_u_small_at_degree_15():
    # t -> q*t + 1, rho = q^3: u renders in about 34 KB.  Solved in
    # s = t - 1/(1 - q) and moved back, it took 1.12 MB
    alg, alpha, v, rho = _cliff_case(CONTEXTS["Q(q)"], "q", "1", "q^3", 15)
    u, _, _ = solve_splitting_ex(alg, alpha, alg.identity_auto(), v, rho)
    assert len(alg.render(u)) < 65_536
