"""Exact scalars: rational functions over a cyclotomic or prime field.

Every quantity the kernel manipulates is a Scalar, an element of
``K = Frac(C[p_1, ..., p_k])`` where the coefficient domain ``C`` is the
cyclotomic field Q(zeta_N) (characteristic 0) or the prime field F_p, and
``p_1, ..., p_k`` are declared formal parameters.  Representation:

* C-values are int tuples ``(c_0, ..., c_(d-1), den)``, coordinates in the
  power basis ``1, zeta, ..., zeta^(d-1)`` over a common denominator, in
  characteristic 0 (``CyclotomicDomain``), or plain ints mod p;
* polynomials are sparse dicts mapping exponent tuples (one slot per
  declared parameter, in declaration order) to nonzero C-values;
* a Scalar is a num/den pair of such polynomials (num's exponents may be
  negative).

Without parameters a Scalar is a single C-value: its numerator is ``{}``
(zero) or ``{(): c}``, and its denominator is always the context's shared
unit polynomial, so multiplication and inversion act on ``c`` directly
and addition never cross-multiplies.  In Q (cyclotomic order 1 or 2) ``c`` is
the pair ``(n, den)``.

With parameters, fractions are deliberately *not* reduced to lowest
terms: the kernel never needs a multivariate gcd.  The normal form is
Laurent instead: a monomial denominator c*q^e, and the monomial content of
a longer one, moves into the numerator's exponents, which may go negative,
so (q^3 + q)/q is q^2 + 1 and (q + 1)/q^2 is q^-1 + q^-2.  The denominator
left is the context's shared unit ``{(0, ..., 0): 1}``, which products of
two polynomials pass through untouched, or else has two or more terms,
graded-lex leading coefficient 1 and no monomial factor, and is divided
into the numerator whenever that is exact, which catches quotients like
(q^2 - 1)/(q - 1).  So a scalar whose reduced denominator is a monomial
has one representation.

Equality is decided by cross-multiplication, which is exact and total.
Serialization clears negative exponents with the least monomial and sorts
terms in descending graded-lex order with the declared parameter order, so
the same computation prints identically from run to run, and a constant
prints the same with or without parameters in its context.

The first section holds the package's one square-and-multiply, ``_power``,
through which every power goes: of a scalar, of an element, of an
automorphism, and of the triples whose first entries are the sums v^(m) of
an ambiskew ring.  It then holds the one layer of dense univariate
polynomials (trim, divmod, monic gcd, resultant, interpolation, Horner),
generic over Fractions and Scalars: the integer roots below and the Poly
family's radical, comaximality and dispersion decisions all run on it.  The
last section finds the integer roots of scalar polynomials at any degree,
and the least q at which one vanishes at X = q or at X = R^q, which is how
the coefficient families decide their unit and radical pencils.  In
characteristic p the roots are residues mod p, solved through the
discriminant and a modular square root up to degree 2 rather than found by
trying all p of them.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

RatLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# powers, and dense univariate polynomials over Q or over the scalar field
# ---------------------------------------------------------------------------


def _power(mul, x, k: int):
    """x^k for k >= 1 under the associative product ``mul``, by
    square-and-multiply from x itself, so no identity is needed."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if not k:
            return out
        x = mul(x, x)


# Coefficient lists, lowest degree first, over any field whose elements
# support + - * / and a truth value that is False exactly at zero:
# Fractions and Scalars.


def _trim(a: list) -> list:
    """a without its trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by b, whose last coefficient is nonzero."""
    a = _trim(list(a))
    q = [0 * b[-1]] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv
        shift = len(a) - len(b)
        q[shift] = c
        for i, bc in enumerate(b):
            a[i + shift] = a[i + shift] - c * bc
        _trim(a)
    return q, a


def _gcd(a: list, b: list) -> list:
    """The monic gcd of a and b, [] when both are zero."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else a


def _resultant(a: list, b: list):
    """Res(a, b) of two nonzero polynomials, by Euclid's algorithm:
    Res(a, b) = (-1)^(deg a * deg b) * lc(b)^(deg a - deg r) * Res(b, r)
    for the remainder r of a by b."""
    out = b[-1] ** 0
    while len(b) > 1:
        r = _divmod(a, b)[1]
        if not r:
            return 0 * out
        if (len(a) - 1) * (len(b) - 1) % 2:
            out = -out
        out = out * b[-1] ** (len(a) - len(r))
        a, b = b, r
    return out * b[0] ** (len(a) - 1)


def _interpolate(values: list) -> list:
    """The polynomial of degree < len(values) taking values[i] at
    i = 0, 1, ..., by Newton's divided differences."""
    coef = list(values)
    for j in range(1, len(coef)):
        for i in range(len(coef) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / j
    poly = [coef[-1]]
    for i in range(len(coef) - 2, -1, -1):
        # poly <- poly*(x - i) + coef[i]
        poly = [coef[i] - poly[0] * i] + [
            prev - c * i for prev, c in zip(poly, poly[1:])] + [poly[-1]]
    return poly


def _horner(coeffs: list, x):
    """sum coeffs[k]*x^k, over ints, Fractions or Scalars."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Ascending coefficients of the n-th cyclotomic polynomial.

    Computed in integers as the product of ``(1 - x^d)^mu(n/d)`` over the
    divisors d of n, in power series modulo x^(n+1), made monic.

    >>> cyclotomic_coeffs(1)
    (-1, 1)
    >>> cyclotomic_coeffs(4)
    (1, 0, 1)
    >>> cyclotomic_coeffs(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    primes = list(factor_int(n))
    poly = [1] + [0] * n
    for r in range(len(primes) + 1):
        for ps in itertools.combinations(primes, r):
            d = n // math.prod(ps)
            if r % 2 == 0:  # times 1 - x^d
                for i in range(n, d - 1, -1):
                    poly[i] -= poly[i - d]
            else:  # over 1 - x^d, times 1 + x^d + x^(2d) + ...
                for i in range(d, n + 1):
                    poly[i] += poly[i - d]
    _trim(poly)
    return tuple(c * poly[-1] for c in poly)


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division.

    >>> factor_int(360)
    {2: 3, 3: 2, 5: 1}
    """
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases, which decides every n
    below 3.3e24 (Sorenson and Webster, "Strong pseudoprimes to twelve
    prime bases", 2017); larger n raise ValueError.

    >>> is_prime(2**61 - 1), is_prime(3215031751)
    (True, False)
    """
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}, got {n}")
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def _sqrt_mod(a: int, p: int) -> int | None:
    """The least square root of a modulo the prime p, or None: Euler's
    criterion, then Tonelli-Shanks (Cohen 1993, algorithm 1.5.1)."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i = next(i for i in range(1, m) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def _roots_mod(f: list[int], p: int) -> list[int]:
    """The residues 0 <= m < p at which the integer polynomial f, nonzero
    mod p, vanishes mod p: degrees up to 2 in closed form, through the
    discriminant and ``_sqrt_mod``, higher degrees (and p = 2) by trying
    every residue."""
    f = _trim([c % p for c in f])
    if len(f) > 3 or p == 2:
        return [m for m in range(p) if _horner(f, m) % p == 0]
    if len(f) < 3:
        return [] if len(f) < 2 else [-f[0] * pow(f[1], -1, p) % p]
    root = _sqrt_mod(f[1] * f[1] - 4 * f[2] * f[0], p)
    if root is None:
        return []
    inv = pow(2 * f[2], -1, p)
    return sorted({(-f[1] + root) * inv % p, (-f[1] - root) * inv % p})


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------


def _lowest(out: list) -> tuple:
    """Coordinates ending with a positive den, divided by their gcd."""
    g = math.gcd(*out)
    return tuple(out) if g == 1 else tuple([c // g for c in out])


class CyclotomicDomain:
    """Arithmetic in Q(zeta_N), d = phi(N).  A value is one int tuple
    ``(c_0, ..., c_(d-1), den)``, the value sum(c_k*zeta^k)/den, with den > 0
    and gcd 1: equal values are equal tuples, zero is ``(0, ..., 0, 1)``.
    Phi_N is monic over Z, so products fold back in integers.  The inverse
    of c/den is den*prod(sigma_k(c), k != 1)/N(c) over the Galois
    conjugates zeta -> zeta^k, and the norm N(c) is a positive integer when
    d > 1 (Cohen, "A Course in Computational Algebraic Number Theory",
    1993, section 4.3).

    >>> dom = CyclotomicDomain(4)
    >>> z = dom.zeta_pow(1)
    >>> dom.mul(z, z) == dom.from_fraction(-1)
    True
    >>> dom.inv(dom.add(dom.one, z))
    (1, -1, 2)
    >>> dom.render(dom.add(dom.one, z))
    '1 + zeta'
    """

    __slots__ = ("order", "degree", "zero", "one", "_fold", "_zeta_pows")

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        self.order = order
        coeffs = cyclotomic_coeffs(order)
        self.degree = d = len(coeffs) - 1
        self.zero = (0,) * d + (1,)
        self.one = (1,) + self.zero[1:]
        # x^d folded into the basis, then x^(d+1), ..., x^(2d-2)
        self._fold = [tuple(-c for c in coeffs[:d])]
        for _ in range(d - 2):
            self._fold.append(self._shift(self._fold[-1]))
        self._zeta_pows = [self.one]
        for _ in range(1, order):
            self._zeta_pows.append(self._shift(self._zeta_pows[-1]))

    def _shift(self, a: tuple) -> tuple:
        # the first d entries times zeta; a trailing den passes through
        d = self.degree
        shifted = [0] + list(a[:d - 1])
        over = a[d - 1]
        if over:
            shifted = [s + over * f for s, f in zip(shifted, self._fold[0])]
        return tuple(shifted) + a[d:]

    def from_fraction(self, c: RatLike) -> tuple[int, ...]:
        return (c.numerator,) + self.zero[1:-1] + (c.denominator,)

    def zeta_pow(self, k: int) -> tuple[int, ...]:
        return self._zeta_pows[k % self.order]

    def is_zero(self, a) -> bool:
        return a == self.zero

    def add(self, a, b):
        da, db = a[-1], b[-1]
        if da == db:
            out = list(map(operator.add, a, b))
            out[-1] = da
            return tuple(out) if da == 1 else _lowest(out)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        out = [x * fa + y * fb for x, y in zip(a, b)]
        out[-1] = da * fa
        return _lowest(out)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return tuple([-x for x in a[:-1]]) + a[-1:]

    def mul(self, a, b):
        d = self.degree
        if d == 1:
            den = a[1] * b[1]
            return (a[0] * b[0], 1) if den == 1 else _lowest([a[0] * b[0], den])
        if d == 2:
            (f0, f1), (a0, a1, da), (b0, b1, db) = self._fold[0], a, b
            top, den = a1 * b1, da * db
            out = (a0 * b0 + top * f0, a0 * b1 + a1 * b0 + top * f1, den)
            return out if den == 1 else _lowest(out)
        conv = [0] * (2 * d)
        terms = [(j, y) for j, y in enumerate(b[:d]) if y]
        for i, x in enumerate(a[:d]):
            for j, y in terms if x else ():
                conv[i + j] += x * y
        for k, row in enumerate(self._fold, d):
            c = conv[k]
            for i, f in enumerate(row) if c else ():
                conv[i] += c * f
        conv[d:] = [a[d] * b[d]]
        return tuple(conv) if conv[d] == 1 else _lowest(conv)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        d, n = self.degree, self.order
        if d == 1:
            return (a[1], a[0]) if a[0] > 0 else (-a[1], -a[0])
        # c/den with c integral: its conjugates and their product are too,
        # multiplied pairwise in a queue, so factors grow at the same pace
        c = a[:d] + (1,)
        conjs = []
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                conj = [0] * d + [1]
                for i, ci in enumerate(c[:d]):
                    for j, z in enumerate(self._zeta_pows[i * k % n][:d] if ci else ()):
                        conj[j] += ci * z
                conjs.append(tuple(conj))
        while len(conjs) > 1:
            conjs.append(self.mul(conjs.pop(0), conjs.pop(0)))
        adj, = conjs
        norm = self.mul(c, adj)[0]
        return _lowest([x * a[d] for x in adj[:d]] + [norm])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def coords(self, a) -> list[Fraction]:
        """The power-basis coordinates of a, as Fractions."""
        return [Fraction(c, a[-1]) for c in a[:-1]]

    def rational_value(self, a) -> Fraction | None:
        return None if any(a[1:-1]) else Fraction(a[0], a[-1])

    def render(self, a) -> str:
        return _join_signed(_zeta_terms(a))


class PrimeDomain:
    """Arithmetic in F_p.

    >>> dom = PrimeDomain(5)
    >>> dom.inv(3)
    2
    >>> dom.from_fraction(Fraction(1, 2))
    3
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p

    zero = 0
    one = 1

    def from_fraction(self, c: RatLike) -> int:
        c = Fraction(c)
        if c.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator of {c} vanishes mod {self.p}")
        return c.numerator * pow(c.denominator, -1, self.p) % self.p

    def is_zero(self, a) -> bool:
        return a == 0

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def coords(self, a) -> tuple[int]:
        return (a,)

    def rational_value(self, a) -> Fraction | None:
        return Fraction(a)

    def render(self, a) -> str:
        return str(a)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials (module-private; Scalar is the public face)
# ---------------------------------------------------------------------------


def _grlex(e: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(e), e)


def _padd(dom, a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = dom.add(out.get(e, dom.zero), c)
        if dom.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _pneg(dom, a: dict) -> dict:
    return {e: dom.neg(c) for e, c in a.items()}


def _pmul(dom, a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # a field has no zero divisors, so a one-term factor only shifts
        # and scales the other's terms
        (ea, ca), = a.items()
        mul = dom.mul
        if not any(ea):
            return {eb: mul(ca, cb) for eb, cb in b.items()}
        add = operator.add
        return {tuple(map(add, ea, eb)): mul(ca, cb) for eb, cb in b.items()}
    mul, add, plus = dom.mul, dom.add, operator.add
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(plus, ea, eb))
            c = mul(ca, cb)
            out[e] = add(out[e], c) if e in out else c
    zero = dom.zero
    return {e: c for e, c in out.items() if c != zero}


def _pshift(a: dict, e: tuple[int, ...]) -> dict:
    """a times the monomial p^e, whose exponents may be negative."""
    if not any(e):
        return a
    return {tuple(map(operator.add, k, e)): c for k, c in a.items()}


def _pscale(dom, a: dict, c) -> dict:
    if dom.is_zero(c):
        return {}
    return {e: dom.mul(v, c) for e, v in a.items()}


def _plead(a: dict) -> tuple[tuple[int, ...], object]:
    e = max(a, key=_grlex)
    return e, a[e]


def _pdiv_exact(dom, num: dict, den: dict) -> dict | None:
    """Quotient num/den when the division is exact, else None.

    Single-divisor multivariate long division in graded-lex order; leading
    monomials decrease strictly, and if den divides num the leading term of
    den divides the leading term of every remainder along the way.  den
    must be monic (graded-lex leading coefficient 1), so each quotient term
    is the remainder's leading coefficient as it stands.
    ``Scalar.__init__`` calls it only for a den of two or more terms, made
    monic and freed of its monomial content first, and for a num shifted
    by a monomial into a polynomial; a monomial den never gets here, and
    the unit is skipped.
    """
    de, _ = _plead(den)
    q: dict = {}
    rem = dict(num)
    while rem:
        re, c = _plead(rem)
        diff = tuple(i - j for i, j in zip(re, de))
        if any(d < 0 for d in diff):
            return None
        q[diff] = c
        for e, v in den.items():
            tgt = tuple(i + j for i, j in zip(diff, e))
            w = dom.sub(rem.get(tgt, dom.zero), dom.mul(c, v))
            if dom.is_zero(w):
                rem.pop(tgt, None)
            else:
                rem[tgt] = w
    return q


# ---------------------------------------------------------------------------
# rendering helpers shared by domains and scalars
# ---------------------------------------------------------------------------


def _signed_coeff(n: int, den: int, mono: str) -> tuple[bool, str]:
    """The sign and body of (n/den)*mono, for den > 0."""
    g = math.gcd(n, den)
    c = str(abs(n) // g) if den == g else f"{abs(n) // g}/{den // g}"
    if mono:
        c = mono if c == "1" else f"{c}*{mono}" if den == g else f"({c})*{mono}"
    return n < 0, c


def _zeta_terms(a: tuple) -> list[tuple[bool, str]]:
    """The signed terms c_k*zeta^k of a cyclotomic value."""
    return [_signed_coeff(c, a[-1], "" if k == 0 else ("zeta" if k == 1 else f"zeta^{k}"))
            for k, c in enumerate(a[:-1]) if c]


def _join_signed(parts: list[tuple[bool, str]]) -> str:
    if not parts:
        return "0"
    chunks = [("-" + parts[0][1]) if parts[0][0] else parts[0][1]]
    for neg, body in parts[1:]:
        chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# the scalar field
# ---------------------------------------------------------------------------


class ScalarContext:
    """The ambient scalar field: characteristic, cyclotomic order, parameters.

    All scalars of a computation share one context; mixing contexts is a
    programming error and raises.

    >>> ctx = ScalarContext(cyclotomic_order=4, parameters=("q",))
    >>> q = ctx.param("q")
    >>> print((q**2 - 1) / (q - 1))
    q + 1
    >>> print((q**3 + q) / q)
    q^2 + 1
    >>> print((q + 1) / q**2)
    (q + 1)/(q^2)
    >>> print(q**-3 + q**-1)
    (q^2 + 1)/(q^3)
    >>> print(ctx.zeta() ** 2)
    -1
    """

    __slots__ = ("characteristic", "cyclotomic_order", "parameters",
                 "dom", "_pzero", "_pone")

    def __init__(self, characteristic: int = 0, cyclotomic_order: int = 1,
                 parameters: Iterable[str] = ()):
        parameters = tuple(parameters)
        if characteristic == 0:
            self.dom = CyclotomicDomain(cyclotomic_order)
        else:
            if cyclotomic_order != 1:
                raise ValueError("cyclotomic order must be 1 in positive characteristic")
            self.dom = PrimeDomain(characteristic)
        seen = set()
        for name in parameters:
            if not name.isidentifier() or name == "zeta":
                raise ValueError(f"bad parameter name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate parameter {name!r}")
            seen.add(name)
        self.characteristic = characteristic
        self.cyclotomic_order = cyclotomic_order
        self.parameters = parameters
        self._pzero = (0,) * len(parameters)
        self._pone = {self._pzero: self.dom.one}

    def _const(self, c) -> "Scalar":
        num = {} if self.dom.is_zero(c) else {self._pzero: c}
        return Scalar(self, num, self._pone)

    @property
    def zero(self) -> "Scalar":
        return self._const(self.dom.zero)

    @property
    def one(self) -> "Scalar":
        return self._const(self.dom.one)

    def int_(self, n: int) -> "Scalar":
        return self._const(self.dom.from_fraction(n))

    def fraction(self, c: RatLike) -> "Scalar":
        return self._const(self.dom.from_fraction(c))

    def zeta(self, k: int = 1) -> "Scalar":
        if self.characteristic != 0:
            raise ValueError("zeta is only available in characteristic 0")
        return self._const(self.dom.zeta_pow(k))

    def param(self, name: str) -> "Scalar":
        i = self.parameters.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.parameters)))
        return Scalar(self, {e: self.dom.one}, self._pone)

    def __repr__(self) -> str:
        return (f"ScalarContext(characteristic={self.characteristic}, "
                f"cyclotomic_order={self.cyclotomic_order}, parameters={self.parameters})")


class Scalar:
    """An element of the scalar field, as a num/den pair in Laurent normal
    form: num may have negative exponents, and den is the unit or a monic
    polynomial of two or more terms without a monomial factor.

    Supports ``+ - * / **`` against other scalars of the same context and
    against ints or Fractions, which are coerced.  In a context without
    parameters the denominator is always the shared unit and the numerator
    holds the one domain value:

    >>> c = ScalarContext().fraction(Fraction(-3, 7))
    >>> c.num, c.den
    ({(): (-3, 7)}, {(): (1, 1)})
    >>> print(c.inv())
    -7/3
    >>> c.inv().den is c.den
    True

    >>> ctx = ScalarContext(parameters=("q", "r"))
    >>> q, r = ctx.param("q"), ctx.param("r")
    >>> print(q * r + 2)
    q*r + 2
    >>> (q / r) * (r / q) == ctx.one
    True
    >>> print((1 - q) ** -1)
    (-1)/(q - 1)
    """

    __slots__ = ("ctx", "num", "den")
    __hash__ = None  # identity-free equality; not usable as a dict key

    def __init__(self, ctx: ScalarContext, num: dict, den: dict):
        dom = ctx.dom
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not ctx.parameters:
            if num and den is not ctx._pone:
                num = {(): dom.div(num[()], den[()])}
            den = ctx._pone
        elif not num or den is ctx._pone:
            den = ctx._pone
        elif len(den) == 1:
            # a monomial moves into num's exponents, which may go negative
            (de, dc), = den.items()
            if dc != dom.one:
                num = _pscale(dom, num, dom.inv(dc))
            num, den = _pshift(num, tuple([-k for k in de])), ctx._pone
        else:
            # so does den's monomial content, and den is made monic
            lo = tuple([-min(k) for k in zip(*den)])
            num, den = _pshift(num, lo), _pshift(den, lo)
            _, lc = _plead(den)
            if lc != dom.one:
                s = dom.inv(lc)
                num, den = _pscale(dom, num, s), _pscale(dom, den, s)
            lo = tuple([min(k) for k in zip(*num)])
            q = _pdiv_exact(dom, _pshift(num, tuple([-k for k in lo])), den)
            if q is not None:
                num, den = _pshift(q, lo), ctx._pone
        self.ctx = ctx
        self.num = num
        self.den = den

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx:
                raise ValueError("mixing scalars from different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.fraction(other)
        return None

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        # the dense polynomial layer tests Fractions and Scalars alike
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num == self.ctx._pone and self.den == self.ctx._pone

    def is_constant(self) -> bool:
        return self.den == self.ctx._pone and (
            not self.num or set(self.num) == {self.ctx._pzero})

    def constant_value(self):
        """The domain value of a constant scalar (0 coords / int mod p)."""
        if not self.is_constant():
            raise ValueError(f"scalar {self} is not constant")
        return self.num.get(self.ctx._pzero, self.ctx.dom.zero)

    def as_fraction(self) -> Fraction | None:
        """The rational value, if this scalar is a rational constant."""
        if not self.is_constant():
            return None
        return self.ctx.dom.rational_value(self.constant_value())

    def as_monomial(self) -> tuple | None:
        """(c, e) when the scalar is c*p^e, with c a value of the domain
        and e one exponent per parameter; None otherwise, zero included."""
        if len(self.num) != 1 or self.den is not self.ctx._pone:
            return None
        (e, c), = self.num.items()
        return c, e

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        dom = self.ctx.dom
        if self.den == o.den:
            return Scalar(self.ctx, _padd(dom, self.num, o.num), self.den)
        num = _padd(dom, _pmul(dom, self.num, o.den), _pmul(dom, o.num, self.den))
        return Scalar(self.ctx, num, _pmul(dom, self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ctx, _pneg(self.ctx.dom, self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        if not ctx.parameters:
            num = {(): ctx.dom.mul(self.num[()], o.num[()])} \
                if self.num and o.num else {}
            return Scalar(ctx, num, ctx._pone)
        dom = ctx.dom
        num = _pmul(dom, self.num, o.num)
        if self.den is ctx._pone and o.den is ctx._pone:
            return Scalar(ctx, num, ctx._pone)
        return Scalar(ctx, num, _pmul(dom, self.den, o.den))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.ctx, self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        return _power(operator.mul, self, k) if k else self.ctx.one

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return self.num == o.num
        dom = self.ctx.dom
        return _pmul(dom, self.num, o.den) == _pmul(dom, o.num, self.den)

    # -- rendering -----------------------------------------------------------

    def _render_poly(self, p: dict) -> str:
        dom = self.ctx.dom
        parts: list[tuple[bool, str]] = []
        for e in sorted(p, key=_grlex, reverse=True):
            c = p[e]
            mono = "*".join(
                name if k == 1 else f"{name}^{k}"
                for name, k in zip(self.ctx.parameters, e) if k)
            if isinstance(c, int):  # a residue mod p
                parts.append(_signed_coeff(c, 1, mono))
            elif not any(c[1:-1]):
                parts.append(_signed_coeff(c[0], c[-1], mono))
            elif mono:
                parts.append((False, f"({dom.render(c)})*{mono}"))
            else:
                # inline the zeta-terms of a lone cyclotomic constant
                parts += _zeta_terms(c)
        return _join_signed(parts)

    def __str__(self) -> str:
        num, den = self.num, self.den
        # the least monomial that clears num's negative exponents
        lo = tuple([max(0, -min(k)) for k in zip(*num)])
        num, den = _pshift(num, lo), _pshift(den, lo)
        if den == self.ctx._pone:
            return self._render_poly(num)
        return f"({self._render_poly(num)})/({self._render_poly(den)})"

    def __repr__(self) -> str:
        return f"<Scalar {self}>"


# ---------------------------------------------------------------------------
# arithmetic facts the decision procedures lean on
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factor_int(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def root_of_unity_order(s: Scalar) -> int | None:
    """The multiplicative order of s, or None if infinite.

    Total: parameter-dependent scalars always have infinite order, and in
    the cyclotomic field the torsion units are exactly +-zeta^k, so one
    power computation settles torsion-ness before the order search.

    >>> ctx = ScalarContext(cyclotomic_order=3)
    >>> root_of_unity_order(-ctx.zeta())
    6
    >>> root_of_unity_order(ctx.int_(2)) is None
    True
    """
    if s.is_zero():
        raise ValueError("order of zero is undefined")
    if not s.is_constant():
        return None
    if s.is_one():
        return 1
    if s.ctx.characteristic:
        p = s.ctx.characteristic
        c = s.constant_value()
        for d in _divisors(p - 1):
            if pow(c, d, p) == 1:
                return d
        raise AssertionError("unreachable: F_p^* has order p - 1")
    n = s.ctx.cyclotomic_order
    m = n if n % 2 == 0 else 2 * n
    if s ** m != s.ctx.one:
        return None
    for d in _divisors(m):
        if s ** d == s.ctx.one:
            return d
    raise AssertionError("unreachable: torsion order divides m")


# ---------------------------------------------------------------------------
# integer roots of scalar polynomials, at X = q or at X = R^q
# ---------------------------------------------------------------------------


def _rational_component(coeffs: list[Scalar]):
    """The coefficients cleared to a common polynomial denominator, and one
    rational component of them: the entries at the least (parameter
    monomial, cyclotomic coordinate) where some coefficient is nonzero.
    At a rational point every component of the sum must vanish, so this
    one gives the candidates.  The entries are Fractions in characteristic
    0 and ints mod p in characteristic p."""
    ctx = coeffs[0].ctx
    cleared = coeffs
    for idx in range(len(cleared)):
        den = cleared[idx].den
        if den != ctx._pone:
            d = Scalar(ctx, den, ctx._pone)
            cleared = [x * d for x in cleared]
    coords = ctx.dom.coords
    e, i = min((e, i) for c in cleared for e, val in c.num.items()
               for i, coord in enumerate(coords(val)) if coord)
    return cleared, [coords(c.num[e])[i] if e in c.num else 0 for c in cleared]


def _ints(fracs) -> list[int]:
    """Fractions scaled by the lcm of their denominators."""
    den = math.lcm(*(Fraction(f).denominator for f in fracs))
    return [int(f * den) for f in fracs]


def _integer_roots_int(f: list[int]) -> list[int]:
    """The integer roots of a nonzero integer polynomial of any degree.

    The roots of its squarefree part g (f itself unless Res(f, f') = 0) are
    simple.  Modulo the least prime p that divides neither the leading
    coefficient of g nor Res(g, g') (the least integer >= 2 prime to both,
    which is prime) each one is a simple root of g mod p and lifts uniquely by Newton's
    iteration (Hensel's lemma) until the modulus exceeds twice the bound
    |g(0)| on a nonzero integer root; each lift is then checked exactly
    (Loos, "Computing rational zeros of integral polynomials by p-adic
    expansion", 1983).

    >>> _integer_roots_int([-6, 11, -6, 1])
    [1, 2, 3]
    >>> _integer_roots_int([0, -9, 6, -1])
    [0, 3]
    """
    lo = next(k for k, c in enumerate(f) if c)
    roots = [0] if lo else []
    g = f[lo:]
    if len(g) < 2:
        return roots
    a = [Fraction(c) for c in g]
    da = [k * c for k, c in enumerate(a)][1:]
    res = _resultant(a, da)
    if not res:
        # repeated roots: lift those of the squarefree part g / gcd(g, g')
        g = _ints(_divmod(a, _gcd(a, da))[0])
        a = [Fraction(c) for c in g]
        res = _resultant(a, [k * c for k, c in enumerate(a)][1:])
    p = next(d for d in itertools.count(2) if math.gcd(d, int(res) * g[-1]) == 1)
    bound = abs(g[0])
    dg = [k * c for k, c in enumerate(g)][1:]
    for r in range(p):
        if _horner(g, r) % p:
            continue
        mod = p
        while mod <= 2 * bound:
            mod *= mod
            r = (r - _horner(g, r) * pow(_horner(dg, r), -1, mod)) % mod
        r = r - mod if 2 * r > mod else r
        if _horner(g, r) == 0:
            roots.append(r)
    return sorted(roots)


def integer_roots_scalar_poly(coeffs: list[Scalar]):
    """Integer roots of sum coeffs[k]*m^k = 0, or "all" if identically zero;
    in characteristic p, the residues 0 <= m < p that are roots.

    Degree 1 is solved as m = -c_0/c_1.  Otherwise every root is a root of
    each rational component (per parameter monomial and zeta coordinate),
    so one component gives the candidates, each checked against the full
    polynomial: characteristic p solves that component for its residues
    mod p (``_roots_mod``: in closed form up to degree 2, the degrees the
    families reach, so no pencil walks the p residues), and characteristic
    0 lifts its roots p-adically (``_integer_roots_int``), at any degree.

    >>> ctx = ScalarContext()
    >>> integer_roots_scalar_poly([ctx.int_(-10**40), ctx.zero, ctx.one])
    [-100000000000000000000, 100000000000000000000]
    """
    coeffs = _trim(list(coeffs))
    if len(coeffs) < 2:
        return [] if coeffs else "all"
    if len(coeffs) == 2:
        m = (-coeffs[0] / coeffs[1]).as_fraction()
        return [int(m)] if m is not None and m.denominator == 1 else []
    ctx = coeffs[0].ctx
    p = ctx.characteristic
    cleared, first = _rational_component(coeffs)
    if p:
        cands = _roots_mod(first, p)
    else:
        cands = _integer_roots_int(_trim(_ints(first)))
    roots = [m for m in cands if _horner(cleared, ctx.int_(m)).is_zero()]
    return "all" if p and len(roots) == p else roots


def _ilog(n: int, base: int) -> int:
    """The largest k with base^k <= n, for n >= 1 and base >= 2: a lower
    estimate read from the bit lengths, then raised exactly."""
    k = (n.bit_length() - 1) // base.bit_length()
    power = base ** k
    while power * base <= n:
        power *= base
        k += 1
    return k


def _power_candidates(coeffs: list[Scalar], ratio: Scalar, q0: int):
    """Integers q >= q0 among which every root X = ratio^q of the scalar
    polynomial lies, or ValueError for a ratio without such a bound.

    A rational ratio a/b (reduced, not +-1) makes a^q divide the lowest and
    b^q the highest nonzero coefficient of an integer component (the
    rational root theorem), which bounds q by an integer logarithm.  A ratio
    with nonzero degree (or lowest order) d in a parameter gives each term
    c_k*X^k the degree deg(c_k) + k*q*d, and a vanishing sum needs its
    largest degree twice, which pins q for every pair of terms."""
    ctx = ratio.ctx
    f = ratio.as_fraction()
    if f is not None and abs(f) != 1 and not ctx.characteristic:
        comp = _ints(_rational_component(coeffs)[1])
        nonzero = [k for k, c in enumerate(comp) if c]
        lo, hi = nonzero[0], nonzero[-1]
        if lo == hi:
            return []
        a, b = f.numerator, f.denominator
        top = min(_ilog(abs(comp[k]), base)
                  for k, base in ((lo, abs(a)), (hi, b)) if base > 1)
        # b^(hi*q) * f((a/b)^q), in integers
        return [q for q in range(q0, top + 1)
                if _horner([c * b ** ((hi - k) * q)
                            for k, c in enumerate(comp[:hi + 1])], a ** q) == 0]
    for t in range(len(ctx.parameters)):
        for measure in (_degree, _order):
            d = measure(ratio, t)
            if d:
                vals = [(k, measure(c, t)) for k, c in enumerate(coeffs)
                        if not c.is_zero()]
                return sorted({(di - dj) // ((j - i) * d)
                               for (i, di), (j, dj) in
                               itertools.combinations(vals, 2)
                               if (di - dj) % ((j - i) * d) == 0
                               and (di - dj) // ((j - i) * d) >= q0})
    raise ValueError(f"the factor {ratio} has infinite multiplicative order "
                     "but is neither rational nor of nonzero degree or "
                     "order in a parameter")


def _degree(s: Scalar, t: int) -> int:
    return max(e[t] for e in s.num) - max(e[t] for e in s.den)


def _order(s: Scalar, t: int) -> int:
    return min(e[t] for e in s.num) - min(e[t] for e in s.den)


def least_integer_root(polys: list[list[Scalar]], q0: int,
                       ratio: Scalar | None = None) -> int | None:
    """The least integer q >= q0 at which one of the scalar polynomials
    sum c[k]*X^k vanishes at X = q, or None; in characteristic p a root
    stands for its whole residue class.  With a ``ratio`` R other than 1,
    of infinite order, the polynomials are read at X = R^q instead
    (``_power_candidates``, every candidate checked exactly), and a ratio
    outside the shapes solved there raises ValueError.

    >>> ctx = ScalarContext(characteristic=5)
    >>> least_integer_root([[ctx.int_(2), ctx.one]], 7)
    8
    >>> rationals = ScalarContext()
    >>> least_integer_root([[rationals.int_(-8), rationals.one]], 0,
    ...                    rationals.int_(2))
    3
    """
    best = None
    if ratio is not None and ratio != ratio.ctx.one:
        for coeffs in polys:
            if all(c.is_zero() for c in coeffs):
                return q0
            for q in _power_candidates(coeffs, ratio, q0):
                if _horner(coeffs, ratio ** q).is_zero():
                    best = q if best is None else min(best, q)
                    break
        return best
    for coeffs in polys:
        roots = integer_roots_scalar_poly(coeffs)
        if roots == "all":
            return q0
        p = coeffs[0].ctx.characteristic
        for r in roots:
            q = q0 + (r - q0) % p if p else r
            if q >= q0 and (best is None or q < best):
                best = q
    return best
