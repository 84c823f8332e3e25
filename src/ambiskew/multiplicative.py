"""Multiplicative structure of scalars.

Several decision procedures reduce to exact questions about the
multiplicative group generated by finitely many scalars: whether a product
of powers can equal 1, and what the full lattice of such relations is.  For
scalars that are "monomial-like" (a root of unity times a rational times a
monomial in the parameters) this is decidable: torsion exponents live mod M
(the torsion order of the coefficient field), prime and parameter exponents
live in Z, and the relation lattice is an integer kernel with one congruence
row per condition.

Scalars outside that shape (e.g. 1 + zeta) have no decomposition here and
the callers report Inconclusive.

In characteristic p the torsion exponent is the least discrete logarithm
to the least primitive root mod p, by baby-step giant-step (Shanks 1971)
over a cached table of about sqrt(p) baby steps, never one of p entries:
``scalars._dlog``, which lives with the roots at X = R^q that use it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intlattice import kernel_with_congruences
from .scalars import _MR_LIMIT, Scalar, ScalarContext, _dlog, is_prime

_TRIAL_LIMIT = 10 ** 5


def factor_rational(c: Fraction) -> dict[int, int]:
    """Prime factorization of a positive rational, exponents in Z.  Trial
    division stops at a cofactor that ``scalars.is_prime`` certifies, and
    raises ValueError naming ``_TRIAL_LIMIT`` when it would pass it.

    >>> factor_rational(Fraction(12, 5))
    {2: 2, 3: 1, 5: -1}
    """
    if c <= 0:
        raise ValueError("factor_rational wants a positive rational")
    out: dict[int, int] = {}
    for n, sign in ((c.numerator, 1), (c.denominator, -1)):
        d = 2
        while n > 1 and not (n < _MR_LIMIT and is_prime(n)):
            d = next((e for e in range(d, _TRIAL_LIMIT + 1) if n % e == 0), 0)
            if not d:
                raise ValueError(f"trial division up to {_TRIAL_LIMIT} leaves "
                                 f"the factor {n}, not a certified prime")
            out[d], n = out.get(d, 0) + sign, n // d
        if n > 1:
            out[n] = out.get(n, 0) + sign
    return dict(sorted(out.items()))


def torsion_modulus(ctx: ScalarContext) -> int:
    """Order of the torsion unit group of the coefficient field."""
    if ctx.characteristic:
        return ctx.characteristic - 1
    n = ctx.cyclotomic_order
    return n if n % 2 == 0 else 2 * n


@dataclass(frozen=True)
class MultExpr:
    """g^torsion * prod p^e_p * prod param^e_i, where g generates the
    torsion units: zeta_N for even N, -zeta_N^((N+1)/2) for odd N, and the
    least primitive root mod p in characteristic p."""

    torsion: int
    primes: tuple[tuple[int, int], ...]
    params: tuple[int, ...]


def decompose(s: Scalar) -> MultExpr | None:
    """Monomial-like decomposition of a nonzero scalar, or None; ValueError
    from ``factor_rational`` when a rational part is not factored.

    >>> ctx = ScalarContext(cyclotomic_order=6, parameters=("q",))
    >>> decompose(ctx.fraction(Fraction(-12, 5)) * ctx.zeta(2) * ctx.param("q") ** 3)
    MultExpr(torsion=5, primes=((2, 2), (3, 1), (5, -1)), params=(3,))
    """
    mono = s.as_monomial()
    if mono is None:
        return None
    c, params = mono
    dom = s.ctx.dom
    m = torsion_modulus(s.ctx)
    if s.ctx.characteristic:
        return MultExpr(_dlog(c, s.ctx.characteristic), (), params)
    n = s.ctx.cyclotomic_order
    for k in range(n):
        rat = dom.rational_value(dom.mul(c, dom.zeta_pow(-k)))
        if rat is not None:
            sign = rat < 0
            primes = tuple(sorted(factor_rational(abs(rat)).items()))
            t = k * (1 if n % 2 == 0 else 2)
            if sign:
                t += m // 2
            return MultExpr(t % m, primes, params)
    return None


def relation_kernel(conditions: list[list[Scalar]]) -> list[list[int]] | None:
    """Basis of {x in Z^v : prod_i cond[i]^x_i = 1 for every condition}.

    Each condition is a list of scalars aligned with the variables.  None,
    or ``factor_rational``'s ValueError, when some scalar is not decomposed:
    the caller should report Inconclusive rather than guess.
    """
    if not conditions or not conditions[0]:
        raise ValueError("relation_kernel needs at least one condition and variable")
    ctx = conditions[0][0].ctx
    nvars = len(conditions[0])
    decs = []
    for cond in conditions:
        if len(cond) != nvars:
            raise ValueError("conditions must all have the same arity")
        row = [decompose(s) for s in cond]
        if any(d is None for d in row):
            return None
        decs.append(row)
    primes = sorted({p for row in decs for d in row for p, _ in d.primes})
    m = torsion_modulus(ctx)
    exact: list[list[int]] = []
    mod_rows: list[list[int]] = []
    for row in decs:
        for p in primes:
            r = [dict(d.primes).get(p, 0) for d in row]
            if any(r):
                exact.append(r)
        for i in range(len(ctx.parameters)):
            r = [d.params[i] for d in row]
            if any(r):
                exact.append(r)
        if m > 1:
            r = [d.torsion for d in row]
            if any(c % m for c in r):
                mod_rows.append(r)
    basis = kernel_with_congruences(exact, mod_rows, m, nvars)
    return sorted(basis, key=lambda v: (sum(map(abs, v)), v))
