"""Affine automorphisms t -> a*t + b of K[t], read by their fixed point.

A map with a != 1 is the scaling s -> a*s in s = t - b/(1 - a), and a map
with a = 1 is a shift.  The splitting solve, the stable-ideal search and
the conjugation invariance all rest on that; each is held here against an
independent route: the dense solve on the window of degree deg v + 1, the
replay of every stable generator, and the statuses of the diagonal ring a
translation conjugates.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ambiskew.algebras import (AffineAuto, PolyAlgebra, scalar_ratio,
                               solve_splitting_ex)
from ambiskew.dsl import eval_element, parse_expression
from ambiskew.linear import gauss_solve
from ambiskew.rings import AmbiskewRing
from ambiskew.scalars import ScalarContext
from ambiskew.simplicity import simple, singular
from ambiskew.verdict import Status

CONTEXTS = {"Q": ScalarContext(), "Q(q)": ScalarContext(parameters=("q",)),
            **{f"F_{p}": ScalarContext(characteristic=p) for p in (2, 3, 5, 7)}}


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


@settings(max_examples=150, deadline=None)
@given(_splitting_case())
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


def _cliff_ring(a: str, b: str, rho: str, n: int):
    """Over Q(q): t -> a*t + b and v = sum_k ((k+1)*q + k)*t^k, k <= n."""
    ctx = CONTEXTS["Q(q)"]
    alg = PolyAlgebra(ctx)
    v = eval_element(parse_expression(" + ".join(
        f"({k + 1}*q + {k})*t^{k}" for k in range(n + 1))), alg)
    scalar = lambda text: eval_element(parse_expression(text), alg)[0]
    return AmbiskewRing(alg, AffineAuto(scalar(a), scalar(b)), v,
                        scalar(rho))


def test_scalings_about_a_point_solve_in_small_forms():
    # deterministic guards against the Q(q) swell: a size and a route, no time
    conformal = _cliff_ring("2", "1", "q", 11).conformality()
    assert conformal.status is Status.HOLDS
    assert len(PolyAlgebra(CONTEXTS["Q(q)"]).render(conformal.u)) < 10_000
    verdict = singular(_cliff_ring("q", "1", "1", 15))
    assert verdict.holds
    assert verdict.certificate["obstruction"] == {
        "kind": "resonant_monomial", "monomial": "1", "scale": "1"}
