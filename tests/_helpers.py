"""Shared fixtures and slow reference oracles for the test suite.

The oracles here deliberately avoid the closed forms used by the package:
`slow_mul` normalizes products by exhaustive single-step rewriting of the
defining relations, so agreement with `AmbiskewRing.mul` checks confluence
of the fast path against the presentation itself.
"""

from __future__ import annotations

import math
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
from ambiskew.scalars import ScalarContext, _grlex, _pshift


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


# -- the earlier renderer -----------------------------------------------------------
# Scalars and elements rendered naively, as before the one-pass renderer:
# every scalar's exponents are cleared by a shift that may be zero, every
# key is sorted by graded-lex order, every monomial joins its names and
# every coefficient takes a gcd; each term is a (negative, body) pair,
# joined at the end, and every scalar of an element is rendered first and
# then read again for a space or a leading "-".  Kept as the oracle of
# ``Scalar.__str__`` and of every ``render``.


def join_signed(parts):
    """The text of (negative, body) terms, "0" when there are none."""
    if not parts:
        return "0"
    chunks = [("-" + parts[0][1]) if parts[0][0] else parts[0][1]]
    for neg, body in parts[1:]:
        chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


def _signed_coeff(n, den, mono):
    g = math.gcd(n, den)
    c = str(abs(n) // g) if den == g else f"{abs(n) // g}/{den // g}"
    if mono:
        c = mono if c == "1" else f"{c}*{mono}" if den == g else f"({c})*{mono}"
    return n < 0, c


def _zeta_terms(a):
    return [_signed_coeff(c, a[-1], "" if k == 0 else
                          ("zeta" if k == 1 else f"zeta^{k}"))
            for k, c in enumerate(a[:-1]) if c]


def _render_poly(ctx, p):
    parts = []
    for e in sorted(p, key=_grlex, reverse=True):
        c = p[e]
        mono = "*".join(name if k == 1 else f"{name}^{k}"
                        for name, k in zip(ctx.parameters, e) if k)
        if isinstance(c, int):
            parts.append(_signed_coeff(c, 1, mono))
        elif not any(c[1:-1]):
            parts.append(_signed_coeff(c[0], c[-1], mono))
        elif mono:
            parts.append((False, f"({join_signed(_zeta_terms(c))})*{mono}"))
        else:
            parts += _zeta_terms(c)
    return join_signed(parts)


def oracle_str(s):
    """``str(s)`` as the earlier renderer wrote it."""
    lo = tuple([max(0, -min(k)) for k in zip(*s.num)])
    num, den = _pshift(s.num, lo), _pshift(s.den, lo)
    if den == s.ctx._pone:
        return _render_poly(s.ctx, num)
    return f"({_render_poly(s.ctx, num)})/({_render_poly(s.ctx, den)})"


def _render_terms(parts):
    signed = []
    minus_one = str(parts[0][0].ctx.characteristic - 1) if parts else ""
    for s, mono in parts:
        text = oracle_str(s)
        if " " in text:
            neg, body = False, f"({text})"
        elif text.startswith("-"):
            neg, body = True, text[1:]
        else:
            neg, body = False, text
        if mono and body == minus_one != "1":
            neg, body = True, mono
        elif mono:
            body = mono if body == "1" else f"{body}*{mono}"
        signed.append((neg, body))
    return join_signed(signed)


def oracle_render(algebra, a):
    """``algebra.render(a)`` as the earlier renderer wrote it, for every
    coefficient family, ambiskew rings and towers of them, and GWAs."""
    base = getattr(algebra, "base", None)
    if isinstance(algebra, GwaRing):
        if not a:
            return "0"
        parts = []
        for (d,), c in sorted(algebra.grouped(a).items()):
            name = algebra.y_name if d > 0 else algebra.x_name
            power = name if abs(d) == 1 else f"{name}^{abs(d)}"
            if d == 0:
                parts.append(oracle_render(base, c))
            elif base.eq(c, base.one):
                parts.append(power)
            else:
                parts.append(f"({oracle_render(base, c)})*{power}")
        return " + ".join(parts)
    if isinstance(algebra, AmbiskewRing):
        if not a:
            return "0"
        parts = []
        for (i, j), c in sorted(algebra.grouped(a).items()):
            factors = []
            if i:
                factors.append(algebra.x_name if i == 1 else f"{algebra.x_name}^{i}")
            s = base.scalar_of(c)
            if s is None:
                factors.append(f"({oracle_render(base, c)})")
                s = algebra.ctx.one
            if j:
                factors.append(algebra.y_name if j == 1 else f"{algebra.y_name}^{j}")
            parts.append((s, "*".join(factors)))
        return _render_terms(parts)
    if isinstance(algebra, FieldAlgebra):
        return oracle_str(a[()]) if a else "0"
    gen = algebra.gen
    return _render_terms([(s, "" if k == 0 else gen if k == 1 else f"{gen}^{k}")
                          for k, s in algebra.terms(a)])


# Q, Q(zeta_N) for N in {3, 4, 5, 8} and F_5, F_7, each with zero, one and
# two parameters: the contexts the renderer is held against its oracle in
RENDER_CTXS = [ScalarContext(characteristic=p, cyclotomic_order=n, parameters=names)
               for p, n in ((0, 1), (0, 3), (0, 4), (0, 5), (0, 8), (5, 1), (7, 1))
               for names in ((), ("q",), ("q", "r"))]


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


def exact(elem: dict) -> dict:
    """The element with each scalar as its stored (num, den) pair, so that
    two elements compare equal only when built to the same normal form."""
    return {key: (s.num, s.den) for key, s in elem.items()}


def random_elem(algebra, rng, terms=2):
    pool = key_pool(algebra)
    out = {}
    for key in rng.sample(pool, min(terms, len(pool))):
        s = random_scalar(algebra.ctx, rng, nonzero=True)
        out[key] = s
    return out


def random_small_elem(ring, rng, terms):
    """``random_elem``, or for a GWA ``terms`` distinct degrees in -2..2,
    each with a random coefficient."""
    if isinstance(ring, GwaRing):
        elem = {}
        for d in rng.sample(range(-2, 3), terms):
            elem = ring.add(elem, ring._flat((d,), random_elem(ring.base, rng)))
        return elem
    return random_elem(ring, rng, terms)


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
