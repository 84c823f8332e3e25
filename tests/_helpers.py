"""Shared fixtures and slow reference oracles for the test suite.

The oracles here deliberately avoid the closed forms used by the package:
`slow_mul` normalizes products by exhaustive single-step rewriting of the
defining relations, so agreement with `AmbiskewRing.mul` checks confluence
of the fast path against the presentation itself.
"""

from __future__ import annotations

from fractions import Fraction

from ambiskew.algebras import (
    AffineAuto,
    CyclicGroupAlgebra,
    DiagonalAuto,
    FieldAlgebra,
    LaurentAlgebra,
    PolyAlgebra,
    QuadraticAlgebra,
)
from ambiskew.gwa import GwaRing
from ambiskew.rings import AmbiskewRing
from ambiskew.scalars import ScalarContext


def pw(ring, elem, m):
    out = ring.one
    for _ in range(m):
        out = ring.mul(out, elem)
    return out


def q_integer(m, q):
    """The q-integer [m]_q = 1 + q + ... + q^(m-1), summed term by term."""
    out, power = q.ctx.zero, q.ctx.one
    for _ in range(m):
        out, power = out + power, power * q
    return out


def fraction_signed_coeff(c, mono):
    """The sign and body of c*mono for a Fraction c: the Fraction-based
    renderer the integer one in ``scalars`` replaced, kept as its oracle."""
    neg = c < 0
    c = abs(c)
    if not mono:
        body = str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    elif c == 1:
        body = mono
    elif c.denominator == 1:
        body = f"{c.numerator}*{mono}"
    else:
        body = f"({c.numerator}/{c.denominator})*{mono}"
    return neg, body


def fraction_zeta_terms(coords):
    """The signed terms c_k*zeta^k of Fraction coordinates."""
    return [fraction_signed_coeff(c, "" if k == 0 else
                                  ("zeta" if k == 1 else f"zeta^{k}"))
            for k, c in enumerate(coords) if c]


def v_m_recurrence(ring, m):
    """[v^(0), ..., v^(m)] by the defining recurrence v^(0) = 0,
    v^(k+1) = v + rho*alpha(v^(k)), one step at a time."""
    base, out = ring.base, [{}]
    for _ in range(m):
        out.append(base.add(ring.v, base.smul(ring.rho,
                                              base.apply(ring.alpha, out[-1]))))
    return out


def w_alpha_power(ring, m):
    """The image of w = x*y under the m-th power of the extension of alpha
    determined by alpha(w) = rho^{-1}*(w - v), built one step of alpha at
    a time for negative m."""
    base = ring.base
    sigma = ring.rho ** (-m)
    if m >= 0:
        c = base.smul(-sigma, ring.v_m(m))
    else:
        c, scale = {}, ring.ctx.one
        for _ in range(-m):
            c = base.add(base.apply(ring.alpha_inv, c),
                         base.smul(scale, base.apply(ring.alpha_inv, ring.v)))
            scale = scale * ring.rho
    return ring.add(ring.smul(sigma, ring.w_element()), ring.embed(c))


def homogeneous_components(ring, a):
    """Split a ring element along the grading that gives y degree 1 and x
    degree -1."""
    out = {}
    for key, s in a.items():
        out.setdefault(key[1] - key[0], {})[key] = s
    return out


# -- slow word-rewriting multiplier ---------------------------------------------


def _first_inversion(word):
    for idx in range(len(word) - 1):
        a, b = word[idx], word[idx + 1]
        a_is_coeff = isinstance(a, tuple)
        b_is_coeff = isinstance(b, tuple)
        if a == "y" and (b == "x" or b_is_coeff):
            return idx
        if a_is_coeff and (b == "x" or b_is_coeff):
            return idx
    return None


def slow_mul(ring, f, g):
    """The product f*g, normalized one local rewrite at a time."""
    base, ctx = ring.base, ring.ctx
    rho_inv = ring.rho.inv()
    beta_inv = base.invert(base.compose(ring.gamma, base.invert(ring.alpha)))
    stack = []
    for (i, j), b in ring.grouped(f).items():
        for (k, l), c in ring.grouped(g).items():
            word = (("x",) * i + (("c", b),) + ("y",) * j
                    + ("x",) * k + (("c", c),) + ("y",) * l)
            stack.append((ctx.one, word))
    out = {}
    while stack:
        s, word = stack.pop()
        idx = _first_inversion(word)
        if idx is None:
            nx = sum(1 for a in word if a == "x")
            ny = sum(1 for a in word if a == "y")
            coeffs = [a[1] for a in word if isinstance(a, tuple)]
            c = coeffs[0] if coeffs else base.one
            out = ring.add(out, ring._flat((nx, ny), base.smul(s, c)))
            continue
        a, b = word[idx], word[idx + 1]
        head, tail = word[:idx], word[idx + 2:]
        if a == "y" and b == "x":
            stack.append((s * rho_inv, head + ("x", "y") + tail))
            if ring.v:
                stack.append((-s * rho_inv, head + (("c", ring.v),) + tail))
        elif a == "y":
            stack.append((s, head + (("c", base.apply(ring.alpha, b[1])), "y") + tail))
        elif b == "x":
            stack.append((s, head + ("x", ("c", base.apply(beta_inv, a[1]))) + tail))
        else:
            prod = base.mul(a[1], b[1])
            if prod:
                stack.append((s, head + (("c", prod),) + tail))
    return out


# -- random data -----------------------------------------------------------------


def random_scalar(ctx, rng, nonzero=False):
    while True:
        s = ctx.fraction(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))
        if ctx.cyclotomic_order > 1 and rng.random() < 0.3:
            s = s * ctx.zeta(rng.randrange(1, ctx.cyclotomic_order))
        if ctx.parameters and rng.random() < 0.3:
            s = s * ctx.param(rng.choice(ctx.parameters))
        if s.is_zero() and nonzero:
            continue
        return s


def key_pool(algebra):
    kind = algebra.kind
    if kind == "field":
        return [()]
    if kind == "cyclic_group":
        return list(range(algebra.n))
    if kind == "laurent":
        return list(range(-2, 3))
    if kind in ("poly", "quadratic"):
        return list(range(0, 3)) if kind == "poly" else [0, 1]
    return [(i, j, bk) for i in range(2) for j in range(2)
            for bk in key_pool(algebra.base)]


def random_elem(algebra, rng, terms=2):
    pool = key_pool(algebra)
    out = {}
    for key in rng.sample(pool, min(terms, len(pool))):
        s = random_scalar(algebra.ctx, rng, nonzero=True)
        out[key] = s
    return out


# -- standard rings ----------------------------------------------------------------


def quantum_plane():
    ctx = ScalarContext(parameters=("q",))
    field = FieldAlgebra(ctx)
    return AmbiskewRing(field, field.identity_auto(), field.zero, ctx.param("q"))


def weyl_over_field(characteristic=0):
    ctx = ScalarContext(characteristic=characteristic)
    field = FieldAlgebra(ctx)
    return AmbiskewRing(field, field.identity_auto(), field.one, ctx.one)


def quantized_weyl():
    ctx = ScalarContext(parameters=("q",))
    field = FieldAlgebra(ctx)
    return AmbiskewRing(field, field.identity_auto(), field.one, ctx.param("q"))


def fc2_block():
    """R(KC_2, s -> -s, 2t - 4c*s, 1): y and x need renaming for towers."""
    ctx = ScalarContext(parameters=("t", "c"))
    alg = CyclicGroupAlgebra(ctx, 2, -ctx.one)
    t, c = ctx.param("t"), ctx.param("c")
    v = {0: 2 * t, 1: -4 * c}
    ring = AmbiskewRing(alg, DiagonalAuto((-ctx.one,)), v, ctx.one,
                        y_name="y1", x_name="x1")
    return ctx, alg, ring


def fc4_mixed():
    """R(KC_4, s -> i*s, s + mu*s^3, i): v is not homogeneous."""
    ctx = ScalarContext(cyclotomic_order=4, parameters=("mu",))
    eps = ctx.zeta(1)
    alg = CyclicGroupAlgebra(ctx, 4, eps)
    v = {1: ctx.one, 3: ctx.param("mu")}
    ring = AmbiskewRing(alg, DiagonalAuto((eps,)), v, eps,
                        y_name="y1", x_name="x1")
    return ctx, alg, ring


def poly_shift(characteristic=0, v=None):
    ctx = ScalarContext(characteristic=characteristic)
    alg = PolyAlgebra(ctx)
    shift = AffineAuto(ctx.one, ctx.one)
    ring = AmbiskewRing(alg, shift, alg.one if v is None else v, ctx.one)
    return ctx, alg, ring


def laurent_scale():
    ctx = ScalarContext(parameters=("q", "r"))
    alg = LaurentAlgebra(ctx)
    ring = AmbiskewRing(alg, DiagonalAuto((ctx.param("q"),)),
                        {1: ctx.one}, ctx.param("r"))
    return ctx, alg, ring


def quadratic_conjugation(rho, a, b):
    """R(K[s]/(s^2 + 1), conjugation, a + b*s, rho) with integer data."""
    ctx = ScalarContext(cyclotomic_order=4)
    alg = QuadraticAlgebra(ctx, -ctx.one)
    v = {}
    if a:
        v[0] = ctx.int_(a)
    if b:
        v[1] = ctx.int_(b)
    ring = AmbiskewRing(alg, alg.conjugation(), v, ctx.fraction(rho))
    return ctx, alg, ring


def ambiskew_as_gwa(ring):
    """The inverse view over field coefficients: the quadruple itself is a
    generalized Weyl algebra over the polynomial algebra in w = x*y, with
    alpha extended by w -> rho^{-1}(w - v); when v = 0 the extension is
    diagonal and the base can carry w invertibly."""
    base = ring.base
    if base.gens():
        raise ValueError("the w-presentation is exposed over field "
                         "coefficients only")
    ctx = ring.ctx
    rho_inv = ring.rho ** -1
    if base.is_zero(ring.v):
        host = LaurentAlgebra(ctx, gen="w")
        alpha = DiagonalAuto((rho_inv,))
    else:
        host = PolyAlgebra(ctx, gen="w")
        v0 = base.scalar_of(ring.v)
        alpha = AffineAuto(rho_inv, -(rho_inv * v0))
    return GwaRing(host, alpha, host.gen_elem("w"),
                   y_name=ring.y_name, x_name=ring.x_name)
