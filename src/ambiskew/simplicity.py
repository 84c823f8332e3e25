"""Simplicity criteria for ambiskew polynomial rings.

In characteristic zero the ring R(A, alpha, v, rho) is simple exactly when
the coefficient algebra has no proper alpha-stable ideal, the defining
quadruple is singular (no admissible u solves v = u - rho*alpha(u)), and
every v^(m) is a unit of A.  In characteristic p the singularity condition
strengthens to the absence of a height-n witness: elements u and
b_0, ..., b_{n-1} with

    rho^(p^n) * alpha(u) - u = v^(p^n) + sum_i b_i * v^(p^i)

and alpha(b_i) = rho^(p^i - p^n) * b_i; height 0 is the ordinary splitting
equation.  A tower is certified level by level in either characteristic:
once a level is simple, every automorphism leaves only the trivial ideals
stable, so the next level reduces to the conditions ``simple`` asks of it.

Every verdict carries a certificate.  The least failing index m of a
"for every m" condition is certified by one replay of the unit test on
v^(m), a splitting element or height-n witness replays through its
defining equation, and a stable-ideal generator names the obstructing
ideal.  A search that merely exhausts a bound returns Inconclusive; Holds
is only claimed when the family structure makes the search complete.

>>> from .scalars import ScalarContext
>>> from .algebras import FieldAlgebra
>>> from .rings import AmbiskewRing
>>> ctx = ScalarContext()
>>> field = FieldAlgebra(ctx)
>>> weyl = AmbiskewRing(field, field.identity_auto(), field.one, ctx.one)
>>> simple(weyl).status.value
'holds'
>>> qctx = ScalarContext(parameters=("q",))
>>> qfield = FieldAlgebra(qctx)
>>> plane = AmbiskewRing(qfield, qfield.identity_auto(), {}, qctx.param("q"))
>>> [name for name, sub in simple(plane).conditions if sub.fails]
['singular', 'units']
"""

from __future__ import annotations

from . import bounds
from .algebras import scalar_ratio
from .linear import gauss_solve
from .scalars import root_of_unity_order
from .verdict import (Status, Verdict, bounded_scan, conjunction, fails, holds,
                      inconclusive)

# ---------------------------------------------------------------------------
# condition (iii): every v^(m) is a unit
# ---------------------------------------------------------------------------


def units_for_all_m(ring) -> Verdict:
    """Whether v^(m) is a unit of the coefficient algebra for all m >= 1.

    The terms rho^l * alpha^l(v) are searched for a period L up to a factor
    R, which makes v^(q*L) = [q]_R*v^(L) a closed form and turns each other
    residue class of m into a pencil that the coefficient family decides:
    in q when R is 1, in X = R^q when R has finite order, is rational or
    moves a parameter.  An eigenvector v is the case L = 1, with no other
    residue.  Only without a period, or for a family or an R that decides
    no pencil, is the check truncated at ``bounds.M_MAX``.  Every Fails
    replays is_unit once, on v^(m) at the least failing m.  This is
    ``every_v_m_unit`` over A itself.
    """
    return every_v_m_unit(ring)


def every_v_m_unit(ring, watch: dict | None = None) -> Verdict:
    """Whether every v^(m), m >= 1, is a unit of A or, given ``watch`` = u,
    of A[1/u]: the radical condition of the Casimir localization.

    The routes, in order: A[1/u] = 0 (u nilpotent); v^(1) itself, so a
    failure at m = 1 waits for no period search; the period of v and its
    residue pencils; the bounded scan.  Both searches stop at
    ``bounds.M_MAX``.  Every Fails names the least m and replays the test
    on v^(m) once.
    """
    base = ring.base
    if watch is None:
        test, where = base.is_unit, ""
    else:
        test, where = (lambda d: base.radical_contains(d, watch)), " in A[1/u]"
        answer = test(base.zero)
        if answer.status is Status.HOLDS:
            return holds("u is nilpotent, so a power of u lies in every "
                         "v^(m)A", certificate={"kind": "nilpotent_u",
                                                **(answer.certificate or {})})

    def stop(m: int, answer) -> Verdict:
        """The verdict of ``answer``, the test replayed on v^(m)."""
        if answer.status is Status.HOLDS:
            raise AssertionError(f"v^({m}) is a unit{where}, against the "
                                 "period route")
        if answer.status is Status.FAILS:
            return fails(f"v^({m}) is not a unit{where}",
                         certificate={"kind": "nonunit_v_m", "m": m,
                                      "value": base.render(ring.v_m(m)),
                                      "detail": answer.certificate})
        return inconclusive(f"whether v^({m}) is a unit{where} was not decided")

    first = test(ring.v)
    if first.status is Status.FAILS:
        return stop(1, first)
    at = lambda m: first if m == 1 else test(ring.v_m(m))
    return _units_by_period(ring, at, where, watch, stop)


def _units_by_period(ring, at, where: str, watch, stop) -> Verdict:
    """Exact decision once (rho*alpha)^L rescales v by R (``v_period``):
    v^(q*L + r) = [q]_R*v^(L) + R^q*v^(r).  The failing candidates are L,
    k*L where [k]_R first vanishes (k the order of R, or p for R = 1), and
    each residue r < L at the least q of its pencil, in q or in R^q, that
    the family decides.  The least goes to ``stop`` with one replay.
    Without a period, a decided v^(L) or a decided pencil, the bounded
    scan.  ``at(m)`` is the test on v^(m)."""
    base, ctx = ring.base, ring.ctx
    if (found := ring.v_period()) is None:
        note = f"no scalar period within {bounds.M_MAX} steps"
    else:
        span, ratio = found
        top = ring.v_m(span)
        answer = at(span)
        if answer.status is Status.INCONCLUSIVE:
            note = f"whether v^({span}) is a unit{where} was not decided"
        else:
            failing = [span] if answer.status is Status.FAILS else []
            try:
                for r in range(1, span):
                    q = base.first_nonunit_in_pencil(top, ring.v_m(r), ratio,
                                                     watch)
                    if q is not None:
                        failing.append(q * span + r)
                        if q == 0:  # m = r: no other candidate is smaller
                            break
            except ValueError as exc:
                note = str(exc)
            else:
                k = ((ctx.characteristic or None) if ratio == ctx.one
                     else root_of_unity_order(ratio))
                if k is not None:
                    failing.append(k * span)
                if failing:
                    return stop(min(failing), at(min(failing)))
                cert, factor = {"kind": "periodic_units", "period": span}, ""
                if ratio != ctx.one:
                    cert["ratio"], factor = (str(ratio),
                                             f" up to the factor {ratio},")
                others = (f"every residue pencil stays invertible{where}"
                          if span > 1 else f"v^(m) = [m]*v is a nonzero "
                          f"multiple of the unit v{where}")
                return holds(f"the terms of v^(m) repeat with period {span}"
                             f"{factor} and {others}", certificate=cert)
    return bounded_scan(
        bounds.M_MAX, at, stop,
        inconclusive(f"{note}; units{where} verified through m = "
                     f"{bounds.M_MAX}", certificate={"kind": "bounded_scan",
                                                     "m_max": bounds.M_MAX}))


# ---------------------------------------------------------------------------
# condition (ii): singularity
# ---------------------------------------------------------------------------


def singular(ring) -> Verdict:
    """Whether the quadruple admits no splitting element at all."""
    conf = ring.conformality()
    base = ring.base
    if conf.status is Status.HOLDS:
        return fails("v = u - rho*alpha(u) for an admissible u",
                     certificate={"kind": "splitting_element",
                                  "u": base.render(conf.u),
                                  "casimir": ring.render(conf.casimir)})
    if conf.status is Status.FAILS:
        cert = {"kind": "singular"}
        if conf.detail:
            cert["obstruction"] = conf.detail
        return holds("no admissible splitting element exists",
                     certificate=cert)
    return inconclusive("the splitting solver declined to decide",
                        certificate=conf.detail)


# ---------------------------------------------------------------------------
# the criterion
# ---------------------------------------------------------------------------


def simple(ring) -> Verdict:
    """Simplicity of the ring: alpha-simplicity of A and the ring's own
    conditions (``_own_conditions``), reported together so a failing ring
    shows every obstruction."""
    alpha_simple = ring.base.alpha_simple([ring.alpha])
    return conjunction(
        [("alpha_simple", alpha_simple), *_own_conditions(ring)],
        theorem="simple.charp" if ring.ctx.characteristic else "simple.char0")


def _own_conditions(ring) -> list[tuple[str, Verdict]]:
    """The splitting condition, then the units condition.  The splitting
    condition is ``singular`` in characteristic zero, where a splitting
    element's Casimir element generates a proper ideal, and the absence of
    a height-n witness in characteristic p."""
    split = (("no_generalized_splitting", _no_generalized_splitting(ring))
             if ring.ctx.characteristic else ("singular", singular(ring)))
    return [split, ("units", units_for_all_m(ring))]


def _no_generalized_splitting(ring) -> Verdict:
    base = ring.base
    conf = ring.conformality()
    if conf.status is Status.HOLDS:
        return fails("a height-0 witness exists: an ordinary splitting element",
                     certificate={"kind": "generalized_splitting", "n": 0,
                                  "u": base.render(conf.u), "b": []})
    if conf.status is Status.INCONCLUSIVE:
        return inconclusive("the height-0 splitting solver declined to decide",
                            certificate=conf.detail)
    if not base.auto_is_identity(ring.gamma):
        return inconclusive(
            "the height-n witness search only runs over a trivial gamma")
    if not base.is_diagonal(ring.alpha):
        return inconclusive(
            "the height-n witness search needs alpha diagonal on the basis")
    if len(ring.v) == 1:
        b0 = _monomial_witness(base, ring.alpha, ring.v, ring.rho)
        if b0 is not None:
            return fails("a height-1 witness exists, with u = 0",
                         certificate={"kind": "generalized_splitting", "n": 1,
                                      "u": base.render({}),
                                      "b": [base.render(b0)]})
    keys = base.finite_basis()
    if keys is None:
        return inconclusive(
            "the witness search is exhaustive only over finite-dimensional "
            "coefficient families or a monomial v")
    for n in range(1, bounds.N_MAX + 1):
        found = _witness_for_height(base, ring.alpha, ring.rho, ring.v, n, keys)
        if found is not None:
            u, bs = found
            return fails(f"a height-{n} witness exists",
                         certificate={"kind": "generalized_splitting", "n": n,
                                      "u": base.render(u),
                                      "b": [base.render(b) for b in bs]})
    return inconclusive(
        f"no witness up to height {bounds.N_MAX}, and the family gives no "
        "bound that closes the search",
        certificate={"kind": "search_exhausted", "n_max": bounds.N_MAX})


def _monomial_witness(base, alpha, v: dict, rho):
    """The height-1 witness b0 = -v^(p-1), u = 0, when it is admissible.

    For a monomial v the splitting equation can only be resonant when
    rho * alpha rescales v trivially, and then b0 satisfies both the
    eigenvalue side condition and the height-1 equation.  Both are replayed
    here rather than assumed.
    """
    ctx = base.ctx
    p = ctx.characteristic
    b0 = base.smul(-ctx.one, base.power(v, p - 1))
    if not base.eq(base.apply(alpha, b0), base.smul(rho ** (1 - p), b0)):
        return None
    if not base.is_zero(base.add(base.power(v, p), base.mul(b0, v))):
        return None
    return b0


def _witness_for_height(base, alpha, rho, v: dict, n: int, keys):
    """A witness (u, b_0..b_{n-1}) at height n over a finite basis, or None.

    The equation is linear in u and the b_i jointly once the b_i are
    restricted to the required alpha-eigenspaces, so a single exact solve
    settles existence.  Solutions are replayed before being returned.
    """
    ctx = base.ctx
    p = ctx.characteristic
    big = p ** n
    rho_big = rho ** big
    powers = [dict(v)]
    for _ in range(n):
        powers.append(base.power(powers[-1], p))
    columns = []
    for k in keys:
        lam = base.eigenvalue(alpha, k)
        scale = rho_big * lam - ctx.one
        columns.append((("u", k), {} if scale.is_zero() else {k: scale}))
    for i in range(n):
        target = rho ** (p ** i - big)
        for k in keys:
            if base.eigenvalue(alpha, k) == target:
                image = base.smul(-ctx.one, base.mul({k: ctx.one}, powers[i]))
                columns.append((("b", i, k), image))
    rows = [[image.get(kk, ctx.zero) for _, image in columns] for kk in keys]
    rhs = [powers[n].get(kk, ctx.zero) for kk in keys]
    sol = gauss_solve(rows, rhs)
    if sol is None:
        return None
    u: dict = {}
    bs: list[dict] = [dict() for _ in range(n)]
    for (label, _), value in zip(columns, sol):
        if value.is_zero():
            continue
        if label[0] == "u":
            u[label[1]] = value
        else:
            bs[label[1]][label[2]] = value
    lhs = base.sub(base.smul(rho_big, base.apply(alpha, u)), u)
    expect = powers[n]
    for i in range(n):
        expect = base.add(expect, base.mul(bs[i], powers[i]))
    if not base.eq(lhs, expect):
        raise AssertionError("the height-n witness does not replay")
    return u, bs


# ---------------------------------------------------------------------------
# stable-ideal simplicity of iterated rings
# ---------------------------------------------------------------------------


def ring_alpha_simple(ring, autos: list) -> Verdict:
    """Whether an iterated ring has no proper ideal stable under ``autos``.

    Five routes decide this.  A simple ring has no proper ideals at all.
    With v = 0 the generator x is normal and generates a stable ideal.  A
    conformal ring whose Casimir element z is no unit has the proper ideal
    zR, stable when every automorphism rescales z.  Under identity
    automorphisms every ideal is stable, so the question is simplicity
    itself.  And when alpha is trivial, rho = 1 and v is a nonzero scalar,
    the generators x and y span a Weyl algebra factor over the scalars:
    every ideal is the extension of a coefficient ideal, and stability
    passes to the coefficient parts of the automorphisms.  Anything else is
    an honest refusal.
    """
    ctx = ring.ctx
    inner = simple(ring)
    if inner.holds:
        return holds("the ring is simple, so only the trivial ideals are "
                     "stable", certificate={"kind": "ring_simple"},
                     conditions=[("simple", inner)])
    if ring.base.is_zero(ring.v):
        return fails("with v = 0 the generator x is normal, so it generates "
                     "a proper ideal stable under every automorphism that "
                     "rescales the generators",
                     certificate={"kind": "stable_ideal",
                                  "generator": ring.x_name},
                     conditions=[("simple", inner)])
    z = ring.conformality().casimir
    if z is not None and ring.is_unit(z).status is Status.FAILS and all(
            scalar_ratio(ring, ring.apply(t, z), z) is not None for t in autos):
        return fails("the Casimir element z is no unit and every automorphism "
                     "rescales it, so zR is a proper stable ideal",
                     certificate={"kind": "stable_ideal",
                                  "generator": ring.render(z)},
                     conditions=[("simple", inner)])
    if all(ring.auto_is_identity(t) for t in autos):
        if inner.fails:
            return fails("every ideal is stable under the identity and the "
                         "ring is not simple",
                         certificate={"kind": "not_simple"},
                         conditions=[("simple", inner)])
        return inconclusive("the automorphisms are trivial and simplicity "
                            "itself was not decided",
                            conditions=[("simple", inner)])
    if (ctx.characteristic == 0 and ring.rho == ctx.one
            and ring.base.auto_is_identity(ring.alpha)):
        scalar = ring.base.scalar_of(ring.v)
        if scalar is not None and not scalar.is_zero():
            sub = ring.base.alpha_simple([t.base for t in autos])
            return Verdict(
                sub.status,
                "x and y span a Weyl algebra factor over the scalars, so "
                "stable ideals of the ring extend stable coefficient "
                "ideals; " + sub.reason,
                certificate=sub.certificate,
                conditions=[("coefficient_ideals", sub)])
    return inconclusive("no stable-ideal procedure applies to this "
                        "iterated ring", conditions=[("simple", inner)])


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------


def simple_iterated(chain) -> Verdict:
    """Level-by-level simplicity of a tower of ambiskew extensions.

    In either characteristic, the first level is ``simple`` on the bottom
    ring.  Every later level inherits stable-ideal simplicity from the
    simplicity of the level below it, so it reports only the splitting and
    unit conditions that ``simple`` asks of its own ring.  A failing or
    undecided level names itself in the combined verdict.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("the chain must contain at least one ring")
    for lower, upper in zip(chain, chain[1:]):
        if upper.base is not lower:
            raise ValueError("each level must be built over the previous one")
    if len(chain) == 1:
        return simple(chain[0])
    conditions = [("level_1", simple(chain[0]))] + [
        (f"level_{index}", conjunction(_own_conditions(ring)))
        for index, ring in enumerate(chain[1:], start=2)]
    return conjunction(conditions, theorem="simple.tower")


# ---------------------------------------------------------------------------
# skew Laurent extensions
# ---------------------------------------------------------------------------


def skew_laurent_simple(algebra, sigma) -> Verdict:
    """Simplicity of the skew Laurent extension by ``sigma``.

    The extension is simple exactly when the coefficient ring has no proper
    sigma-stable ideal and no positive power of sigma is inner.  Over the
    commutative families the inner automorphisms are trivial, so the second
    condition is a pure order computation; over an iterated ring only a
    finite order gives a definite (negative) answer.
    """
    algebra.validate_auto(sigma)
    conditions = [
        ("sigma_simple", algebra.alpha_simple([sigma])),
        ("no_inner_power", algebra.no_inner_power(sigma, "sigma")),
    ]
    return conjunction(conditions, theorem="skew_laurent")
