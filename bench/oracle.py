"""Closed-form oracles for the benchmark documents.

Nothing here imports ``ambiskew``: the expected answers come from small
exact computations over plain rationals, so an error in the kernel's scalar
layer cannot hide itself by also corrupting the oracle.

Truth values are the strings "holds" and "fails".  A kernel answer of
"inconclusive" never contradicts an oracle; a "holds" or "fails" that
differs from the oracle's truth is an error.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The oracles look this far for a non-unit v^(m), as the character-oracle
# test of the suite does; the kernel itself scans to Bounds.m_max = 200.
UNIT_HORIZON = 300


class Gauss:
    """An element a + b*i of Q(i), exact."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return Gauss(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        if not (self.im or o.im):
            return Gauss(self.re * o.re)
        return Gauss(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re or self.im)


class Mod:
    """An element of the prime field F_p."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.p = p
        self.v = v % p

    def __add__(self, o):
        return Mod(self.v + o.v, self.p)

    def __mul__(self, o):
        return Mod(self.v * o.v, self.p)

    def __eq__(self, o):
        return self.v == o.v

    def __bool__(self):
        return self.v != 0


def _pow(x, k, one):
    out = one
    for _ in range(k):
        out = out * x
    return out


def _evaluate(coeffs, r, one, zero):
    """sum c_k * r^k."""
    acc, power = zero, one
    for c in coeffs:
        acc = acc + c * power
        power = power * r
    return acc


def _inverse(g: Gauss) -> Gauss:
    n = g.re * g.re + g.im * g.im
    return Gauss(g.re / n, -g.im / n)


def diagonal_block(roots, scale, coeffs, rho, one, zero):
    """Truths for R(A, alpha, v, rho) over a split commutative algebra.

    ``A`` is K[s]/(f) for a polynomial f with distinct roots ``roots`` in K,
    so an element is a unit exactly when it is nonzero at every root (its
    characters).  Scalars are Fractions, Gauss or Mod values; zero is falsy.
    ``alpha`` scales s^k by ``scale``^k and v = sum c_k s^k, so alpha
    permutes the characters: chi_j(alpha(a)) = a(scale*r_j).  Then
    v^(m) = sum_{l<m} rho^l alpha^l(v) has characters that are cheap to
    accumulate, and a splitting u - rho*alpha(u) = v exists exactly when no
    nonzero c_k sits on a resonant monomial (rho*scale^k = 1).

    Returns ``(singular, first_nonunit_m)``; the second is None when every
    v^(m) up to UNIT_HORIZON is a unit.
    """
    singular = any(c and rho * _pow(scale, k, one) == one
                   for k, c in enumerate(coeffs))
    return singular, _first_index(
        roots, scale, [_evaluate(coeffs, r, one, zero) for r in roots], rho,
        zero, [one] * len(roots))


def _first_index(roots, scale, chars, rho, zero, watch):
    """The least m <= UNIT_HORIZON at which a character j with watch[j]
    nonzero vanishes on v^(m), given the characters ``chars`` of v."""
    perm = [roots.index(scale * r) for r in roots]
    if isinstance(rho, Mod):
        total = [zero] * len(roots)
        for m in range(1, UNIT_HORIZON + 1):
            total = [t + c for t, c in zip(total, chars)]
            if any(not t and w for t, w in zip(total, watch)):
                return m
            chars = [rho * chars[perm[j]] for j in range(len(roots))]
        return None
    # Over Q or Q(i) with a rational rho = p/q, run in integers:
    # T_m = q^(m-1) * chi(v^(m)) * D obeys T_(m+1) = q*T_m + p^m * X_m,
    # where X_m = D * chi(alpha^m(v)) permutes the entries of X_0.
    rho = rho.re if isinstance(rho, Gauss) else Fraction(rho)
    parts = [(c.re, c.im) if isinstance(c, Gauss) else (Fraction(c), 0)
             for c in chars]
    den = math.lcm(*(Fraction(x).denominator for pair in parts for x in pair))
    x = [(int(re * den), int(im * den)) for re, im in parts]
    p, q = rho.numerator, rho.denominator
    total, power = list(x), 1
    for m in range(1, UNIT_HORIZON + 1):
        if any(t == (0, 0) and w for t, w in zip(total, watch)):
            return m
        x = [x[perm[j]] for j in range(len(roots))]
        power *= p
        total = [(q * a + power * c, q * b + power * d)
                 for (a, b), (c, d) in zip(total, x)]
    return None


def split_truths(roots, scale, coeffs, rho, one, zero):
    """Truths of the simplicity criterion for a diagonal block whose
    coefficient algebra is alpha-simple (alpha permutes the characters
    transitively): the whole verdict, its conditions and the first
    non-unit index.  In characteristic p only the height-0 part of the
    witness condition has a closed form, so a missing splitting element
    leaves that condition, and with it a unit-clean verdict, open."""
    singular, nonunit = diagonal_block(roots, scale, coeffs, rho, one, zero)
    charp = isinstance(one, Mod)
    truth = {"units": "fails" if nonunit else "holds"}
    if charp:
        if not singular:
            truth["no_generalized_splitting"] = "fails"
    else:
        truth["singular"] = "holds" if singular else "fails"
    if nonunit or not singular:
        whole = "fails"
    else:
        whole = None if charp else "holds"
    return whole, truth, nonunit


def radical_truth(roots, scale, coeffs, rho):
    """The first m at which no power of the splitting element u lies in
    v^(m)A, or None within UNIT_HORIZON, over Q(i) for a conformal
    quadruple.

    Over a split algebra the ideal v^(m)A is cut out by the characters that
    vanish on v^(m), and a power of u lies in it exactly when u vanishes at
    each of them too.  u_k = c_k / (1 - rho*scale^k).
    """
    one, zero = Gauss(1), Gauss(0)
    u = []
    for k, c in enumerate(coeffs):
        den = one + Gauss(-1) * rho * _pow(scale, k, one)
        if not den:
            raise ValueError("resonant monomial: the quadruple is singular")
        u.append(c * _inverse(den))
    return _first_index(roots, scale,
                        [_evaluate(coeffs, r, one, zero) for r in roots],
                        rho, zero, [_evaluate(u, r, one, zero) for r in roots])


def field_truths(v_zero: bool, rho_one: bool, rho_root_order: int | None):
    """Truths for R(K, id, v, rho) in characteristic zero.

    The ring is simple exactly when rho = 1 and v != 0.  v^(m) is
    [m]_rho * v, which vanishes exactly when v = 0 or rho is a root of unity
    other than 1, first at m = the order of rho.
    """
    singular = rho_one and not v_zero
    if v_zero:
        nonunit = 1
    elif not rho_one and rho_root_order is not None:
        nonunit = rho_root_order
    else:
        nonunit = None
    truth = {
        "singular": "holds" if singular else "fails",
        "units": "fails" if nonunit else "holds",
    }
    whole = "holds" if singular and nonunit is None else "fails"
    return whole, truth, nonunit


def shift_gwa_comaximal(a: Fraction, b: Fraction) -> int | None:
    """For u = (t - a)(t - b) and alpha(t) = t + 1 over Q: the least m >= 1
    with u and alpha^m(u) = u(t + m) sharing a root, or None.

    alpha^m(u) has the roots a - m and b - m, so they meet the roots of u
    exactly when m = |a - b| is a positive integer.
    """
    d = abs(a - b)
    if d and d.denominator == 1:
        return int(d)
    return None
