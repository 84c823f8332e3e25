"""Exact scalars: rational functions over a cyclotomic or prime field.

Every quantity the kernel manipulates is a Scalar, an element of
``K = Frac(C[p_1, ..., p_k])`` where the coefficient domain ``C`` is the
cyclotomic field Q(zeta_N) (characteristic 0) or the prime field F_p, and
``p_1, ..., p_k`` are declared formal parameters.  Representation:

* C-values are tuples of Fraction coordinates in the power basis
  ``1, zeta, ..., zeta^(phi(N)-1)`` in characteristic 0, or plain ints
  reduced mod p in characteristic p;
* polynomials are sparse dicts mapping exponent tuples (one slot per
  declared parameter, in declaration order) to nonzero C-values;
* a Scalar is a num/den pair of such polynomials.

Without parameters a Scalar is a single C-value: its numerator is ``{}``
(zero) or ``{(): c}``, and its denominator is always the context's shared
unit polynomial, so multiplication and inversion act on ``c`` directly
and addition never cross-multiplies.  In Q (cyclotomic order 1 or 2) ``c`` is a 1-tuple and the
domain multiplies and inverts its one Fraction without the power basis.

With parameters, fractions are deliberately *not* reduced to lowest
terms: the kernel never needs a multivariate gcd.  The normal form instead
fixes the denominator to have graded-lex leading coefficient 1 and
collapses it into the numerator whenever the division is exact, which
catches constants and quotients like (q^2 - 1)/(q - 1).  Equality is
decided by cross-multiplication, which is exact and total.  Serialization
sorts terms in descending graded-lex order with the declared parameter
order, so the same computation prints identically from run to run, and a
constant prints the same with or without parameters in its context.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

RatLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# dense univariate helpers over Q (for cyclotomic construction and inverses)
# ---------------------------------------------------------------------------


def _dtrim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _ddivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and _dtrim(a):
        shift = len(a) - len(b)
        c = a[-1] * inv_lead
        q[shift] = c
        for i, bc in enumerate(b):
            a[i + shift] -= c * bc
        _dtrim(a)
    return _dtrim(q), a


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Ascending coefficients of the n-th cyclotomic polynomial.

    Computed by dividing ``x^n - 1`` by the cyclotomic polynomials of the
    proper divisors of n; the recursion grounds out at n = 1.

    >>> cyclotomic_coeffs(1)
    (-1, 1)
    >>> cyclotomic_coeffs(4)
    (1, 0, 1)
    >>> cyclotomic_coeffs(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    for d in range(1, n):
        if n % d == 0:
            num, rem = _ddivmod(num, [Fraction(c) for c in cyclotomic_coeffs(d)])
            assert not rem
    return tuple(int(c) for c in num)


def _poly_invert_mod(f: list[Fraction], mod: list[Fraction]) -> list[Fraction]:
    """Inverse of f modulo the (irreducible, monic) polynomial mod."""
    # extended Euclid; r0, r1 carry Bezout coefficients s0, s1 for f
    r0, r1 = list(mod), _dtrim(list(f))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _ddivmod(r0, r1)
        s = list(s0)
        s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
        for i, qc in enumerate(q):
            for j, sc in enumerate(s1):
                s[i + j] -= qc * sc
        r0, r1, s0, s1 = r1, r, s1, _dtrim(s)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    return _dtrim([c / r0[0] for c in s0])


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


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------


class CyclotomicDomain:
    """Arithmetic in Q(zeta_N), coordinates in the power basis of zeta.

    >>> dom = CyclotomicDomain(4)
    >>> z = dom.zeta_pow(1)
    >>> dom.mul(z, z) == dom.from_fraction(-1)
    True
    >>> dom.render(dom.add(dom.one, z))
    '1 + zeta'
    """

    __slots__ = ("order", "degree", "zero", "one", "_mod", "_fold",
                 "_zeta_pows")

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        self.order = order
        coeffs = cyclotomic_coeffs(order)
        self.degree = d = len(coeffs) - 1
        self.zero = (Fraction(0),) * d
        self.one = (Fraction(1),) + (Fraction(0),) * (d - 1)
        self._mod = [Fraction(c) for c in coeffs]
        # x^d folded into the basis, then x^(d+1), ..., x^(2d-2)
        fold = [tuple(Fraction(-c) for c in coeffs[:d])]
        for _ in range(d - 2):
            prev = fold[-1]
            shifted = [Fraction(0)] + list(prev[:-1])
            over = prev[-1]
            fold.append(tuple(s + over * f for s, f in zip(shifted, fold[0])))
        self._fold = fold
        pows = [self.one]
        for _ in range(1, order):
            pows.append(self._shift(pows[-1]))
        self._zeta_pows = pows

    @property
    def characteristic(self) -> int:
        return 0

    def _shift(self, a: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        # multiply by zeta
        shifted = [Fraction(0)] + list(a[:-1])
        over = a[-1]
        if over:
            shifted = [s + over * f for s, f in zip(shifted, self._fold[0])]
        return tuple(shifted)

    def from_fraction(self, c: RatLike) -> tuple[Fraction, ...]:
        return (Fraction(c),) + (Fraction(0),) * (self.degree - 1)

    def zeta_pow(self, k: int) -> tuple[Fraction, ...]:
        return self._zeta_pows[k % self.order]

    def is_zero(self, a) -> bool:
        return all(c == 0 for c in a)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        d = self.degree
        if d == 1:
            return (a[0] * b[0],)
        conv = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                for i, f in enumerate(self._fold[k - d]):
                    out[i] += c * f
        return tuple(out)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.degree == 1:
            return (1 / a[0],)
        s = _poly_invert_mod(list(a), self._mod)
        s += [Fraction(0)] * (self.degree - len(s))
        return tuple(s[: self.degree])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def rational_value(self, a) -> Fraction | None:
        if any(c != 0 for c in a[1:]):
            return None
        return a[0]

    def render(self, a) -> str:
        parts: list[tuple[bool, str]] = []
        for k, c in enumerate(a):
            if c == 0:
                continue
            mono = "" if k == 0 else ("zeta" if k == 1 else f"zeta^{k}")
            parts.append(_signed_coeff(c, mono))
        return _join_signed(parts)


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
        if p < 2 or factor_int(p) != {p: 1}:
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

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
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            s = dom.add(out.get(e, dom.zero), dom.mul(ca, cb))
            if dom.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out


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
    den divides the leading term of every remainder along the way.
    """
    de, dc = _plead(den)
    q: dict = {}
    rem = dict(num)
    while rem:
        re, rc = _plead(rem)
        diff = tuple(i - j for i, j in zip(re, de))
        if any(d < 0 for d in diff):
            return None
        c = dom.div(rc, dc)
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


def _signed_coeff(c: Fraction, mono: str) -> tuple[bool, str]:
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
        return Scalar(self, {e: self.dom.one}, dict(self._pone))

    def describe(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "cyclotomic_order": self.cyclotomic_order,
            "parameters": list(self.parameters),
        }

    def __repr__(self) -> str:
        return (f"ScalarContext(characteristic={self.characteristic}, "
                f"cyclotomic_order={self.cyclotomic_order}, parameters={self.parameters})")


class Scalar:
    """An element of the scalar field, as an unreduced num/den pair.

    Supports ``+ - * / **`` against other scalars of the same context and
    against ints or Fractions, which are coerced.  In a context without
    parameters the denominator is always the shared unit and the numerator
    holds the one domain value:

    >>> c = ScalarContext().fraction(Fraction(-3, 7))
    >>> c.num, c.den
    ({(): (Fraction(-3, 7),)}, {(): (Fraction(1, 1),)})
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
        elif not num:
            den = dict(ctx._pone)
        else:
            _, lc = _plead(den)
            if lc != dom.one:
                s = dom.inv(lc)
                num = _pscale(dom, num, s)
                den = _pscale(dom, den, s)
            if den != ctx._pone:
                q = _pdiv_exact(dom, num, den)
                if q is not None:
                    num, den = q, dict(ctx._pone)
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

    def as_integer(self) -> int | None:
        f = self.as_fraction()
        if f is not None and f.denominator == 1:
            return f.numerator
        return None

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
        return Scalar(ctx, _pmul(dom, self.num, o.num), _pmul(dom, self.den, o.den))

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
        out = self.ctx.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

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
            rat = dom.rational_value(c)
            if rat is not None:
                parts.append(_signed_coeff(rat, mono))
            elif mono:
                parts.append((False, f"({dom.render(c)})*{mono}"))
            else:
                # inline the zeta-terms of a lone cyclotomic constant
                for k, coord in enumerate(c):
                    if coord:
                        zmono = "" if k == 0 else ("zeta" if k == 1 else f"zeta^{k}")
                        parts.append(_signed_coeff(coord, zmono))
        return _join_signed(parts)

    def __str__(self) -> str:
        if self.den == self.ctx._pone:
            return self._render_poly(self.num)
        return f"({self._render_poly(self.num)})/({self._render_poly(self.den)})"

    def __repr__(self) -> str:
        return f"<Scalar {self}>"


# ---------------------------------------------------------------------------
# arithmetic facts the decision procedures lean on
# ---------------------------------------------------------------------------


def q_integer(m: int, q: Scalar) -> Scalar:
    """The q-integer [m]_q = 1 + q + ... + q^(m-1).

    >>> ctx = ScalarContext(parameters=("q",))
    >>> print(q_integer(3, ctx.param("q")))
    q^2 + q + 1
    >>> q_integer(4, ctx.one).as_integer()
    4
    """
    if m < 0:
        raise ValueError("q-integers are indexed by m >= 0")
    out = q.ctx.zero
    power = q.ctx.one
    for _ in range(m):
        out = out + power
        power = power * q
    return out


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


ALL_M = "all"


def positive_integer_solution(a: Scalar, b: Scalar):
    """Solutions m >= 1 of m*a + b = 0 in characteristic 0.

    Returns an int (the unique solution), None (no solution), or the
    string constant ALL_M when a = b = 0.

    >>> ctx = ScalarContext(parameters=("c",))
    >>> c = ctx.param("c")
    >>> positive_integer_solution(c, -3 * c)
    3
    >>> positive_integer_solution(c, c) is None
    True
    >>> positive_integer_solution(ctx.zero, ctx.zero)
    'all'
    """
    if a.ctx.characteristic != 0:
        raise ValueError("positive_integer_solution requires characteristic 0")
    if a.is_zero():
        return ALL_M if b.is_zero() else None
    m = (-b / a).as_fraction()
    if m is None or m.denominator != 1 or m < 1:
        return None
    return int(m)
