"""The catalog of coefficient algebras and their automorphisms.

Five ground families implement one protocol, ``BaseAlgebra``: the scalar
field itself, the group algebra of a cyclic group with a distinguished
primitive root of unity, Laurent polynomials, polynomials, and a quadratic
extension K[s]/(s^2 - d).  Ambiskew rings (``AmbiskewRing``, rings.py)
implement it too, and generalized Weyl algebras (``GwaRing``, gwa.py) its
element, automorphism and unit hooks, so towers serve as coefficient
algebras and every criterion asks its questions the same way.

Elements are sparse dicts from a family-specific basis key to nonzero
Scalars; automorphisms are small dataclasses interpreted by their algebra.
The protocol hooks are:

- elements: ``from_scalar``, ``gens``, ``gen_elem``, ``mul``, ``power``,
  ``scalar_of``, ``render`` and ``describe``, plus the shared linear
  plumbing (``add``, ``sub``, ``smul``, ``eq``, ``terms``);
- automorphisms: ``identity_auto``, ``validate_auto``, ``apply``,
  ``compose``, ``invert``, ``auto_powers``/``auto_power``, ``auto_order``,
  ``eigenvalue``, ``is_diagonal`` (diagonal on the basis),
  ``auto_from_images`` (the automorphism with given generator images) and
  ``normalizing_auto`` (gamma with v*a = gamma(a)*v);
- structure: ``commutative``, ``finite_basis``, ``eigen_frame`` (the
  exponent lattice of the special-element search), ``no_inner_power`` and
  ``to_ground`` (an element of a tower read in its ground algebra);
- decisions: ``is_unit`` and ``is_regular`` with certificates,
  ``is_domain``, ``alpha_simple`` (no proper ideal stable under a set of
  automorphisms), ``radical_contains``, ``comaximal``,
  ``first_nonunit_in_pencil`` (the first non-unit q*P + B),
  ``split_nondiagonal`` (v = u - rho*alpha(u) for an alpha that is not
  diagonal) and ``coprime_to_shifts`` (a closed form for the comaximality
  of u with every alpha^m(u)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from .linear import gauss_solve
from .multiplicative import factor_rational
from .scalars import (
    Scalar,
    ScalarContext,
    positive_integer_solution,
    root_of_unity_order,
)
from .verdict import Status, Verdict, fails, holds, inconclusive

# ---------------------------------------------------------------------------
# automorphism data
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiagonalAuto:
    """Scales each family generator: one scalar per generator, in order."""

    scales: tuple[Scalar, ...]


@dataclass(frozen=True, eq=False)
class AffineAuto:
    """Polynomial algebras only: t -> a*t + b."""

    a: Scalar
    b: Scalar


@dataclass(frozen=True, eq=False)
class NestedAuto:
    """Automorphism of an iterated ring: base part plus y and x scales."""

    base: object
    lam_y: Scalar
    lam_x: Scalar


class UnitAnswer(NamedTuple):
    status: Status
    inverse: object | None
    certificate: dict | None


class EigenFrame(NamedTuple):
    """Eigen data of a diagonal pair (alpha, gamma) for the special-element
    search: one (alpha-scale, gamma-scale) per free exponent of a candidate
    monomial, one condition triple per algebra generator, a builder from
    exponent vectors to elements, and whether the candidate set loses no
    generality."""

    index_pairs: list
    gen_conditions: list
    build: Callable
    complete: bool


NO_EIGEN_FRAME = ("the special-element search needs diagonal automorphisms "
                  "on a monomial basis, or a polynomial shift with gamma = id")


# ---------------------------------------------------------------------------
# shared element plumbing (Scalar-valued sparse dicts)
# ---------------------------------------------------------------------------


def _eadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, s in b.items():
        t = out.get(k)
        t = s if t is None else t + s
        if t.is_zero():
            out.pop(k, None)
        else:
            out[k] = t
    return out


def _escale(a: dict, s: Scalar) -> dict:
    if s.is_zero():
        return {}
    return {k: v * s for k, v in a.items()}


def _signed_atom(s: Scalar) -> tuple[bool, str]:
    text = str(s)
    if " " in text:
        return False, f"({text})"
    if text.startswith("-"):
        return True, text[1:]
    return False, text


def _render_terms(parts: list[tuple[Scalar, str]]) -> str:
    if not parts:
        return "0"
    chunks: list[str] = []
    for i, (s, mono) in enumerate(parts):
        if not mono:
            neg, body = _signed_atom(s)
        elif s.is_one():
            neg, body = False, mono
        elif (-s).is_one():
            neg, body = True, mono
        else:
            neg, body = _signed_atom(s)
            body = f"{body}*{mono}"
        if i == 0:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


def scalar_ratio(algebra, a: dict, b: dict) -> Scalar | None:
    """s with a == s*b, if one exists (b nonzero)."""
    bt = algebra.terms(b)
    if not bt:
        raise ValueError("scalar_ratio against zero")
    key, coeff = bt[0]
    at = dict(algebra.terms(a))
    s = at.get(key)
    if s is None:
        s = coeff.ctx.zero
    else:
        s = s / coeff
    return s if algebra.eq(a, algebra.smul(s, b)) else None


# ---------------------------------------------------------------------------
# dense univariate helpers over the scalar field (Poly / Laurent decisions)
# ---------------------------------------------------------------------------


def _udense(a: dict, lo: int) -> list[Scalar]:
    hi = max(a)
    ctx = next(iter(a.values())).ctx
    out = [ctx.zero] * (hi - lo + 1)
    for i, s in a.items():
        out[i - lo] = s
    return out


def _utrim(a: list[Scalar]) -> list[Scalar]:
    while a and a[-1].is_zero():
        a.pop()
    return a


def _udivmod(a: list[Scalar], b: list[Scalar]) -> tuple[list[Scalar], list[Scalar]]:
    a = list(a)
    ctx = b[-1].ctx
    q = [ctx.zero] * max(0, len(a) - len(b) + 1)
    inv = b[-1].inv()
    while len(a) >= len(b) and _utrim(a):
        c = a[-1] * inv
        shift = len(a) - len(b)
        q[shift] = c
        for i, bc in enumerate(b):
            a[i + shift] = a[i + shift] - c * bc
        _utrim(a)
    return q, a


def _ugcd(a: list[Scalar], b: list[Scalar]) -> list[Scalar]:
    a, b = _utrim(list(a)), _utrim(list(b))
    while b:
        a, b = b, _udivmod(a, b)[1]
    if a:
        inv = a[-1].inv()
        a = [c * inv for c in a]
    return a


def integer_roots_scalar_poly(coeffs: list[Scalar]):
    """Integer roots of sum coeffs[k]*m^k = 0, or "all" if identically zero.

    The coefficients live in the scalar field; an integer m is a root iff
    every rational component (per parameter monomial and zeta coordinate)
    of the polynomial vanishes at m, so candidates come from one component
    and are verified against the full scalar polynomial.
    """
    if all(c.is_zero() for c in coeffs):
        return "all"
    ctx = coeffs[0].ctx
    cleared = list(coeffs)
    for idx in range(len(cleared)):
        den = cleared[idx].den
        if den != ctx._pone:
            d = Scalar(ctx, dict(den), dict(ctx._pone))
            cleared = [x * d for x in cleared]

    def value_at(m: int) -> Scalar:
        val = ctx.zero
        for k, c in enumerate(cleared):
            val = val + c * (ctx.int_(m) ** k)
        return val

    if ctx.characteristic:
        # roots are periodic mod p; check one period
        p = ctx.characteristic
        out = [m for m in range(p) if value_at(m).is_zero()]
        return "all" if len(out) == p else out
    components: dict[tuple, list[Fraction]] = {}
    for k, c in enumerate(cleared):
        for e, val in c.num.items():
            for i, coord in enumerate(val):
                if coord:
                    comp = components.setdefault((e, i), [Fraction(0)] * len(cleared))
                    comp[k] = coord
    first = components[min(components)]
    denlcm = math.lcm(*(f.denominator for f in first))
    ints = [int(f * denlcm) for f in first]
    while ints[-1] == 0:
        ints.pop()
    # Cauchy bound on one rational component limits the integer candidates
    bound = 1 + max(abs(c) for c in ints) // abs(ints[-1])
    out = []
    for m in range(-bound, bound + 1):
        if sum(c * m**k for k, c in enumerate(ints)):
            continue
        if value_at(m).is_zero():
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------


class BaseAlgebra:
    """The protocol every algebra implements; defaults suit commutative
    families, which override the real behavior."""

    kind = "abstract"
    ctx: ScalarContext
    # every inner automorphism of a commutative algebra is the identity
    commutative = True

    # elements ---------------------------------------------------------------

    @property
    def zero(self) -> dict:
        return {}

    @property
    def one(self) -> dict:
        return self.from_scalar(self.ctx.one)

    def from_scalar(self, s: Scalar) -> dict:
        raise NotImplementedError

    def add(self, a: dict, b: dict) -> dict:
        return _eadd(a, b)

    def neg(self, a: dict) -> dict:
        return _escale(a, -self.ctx.one)

    def sub(self, a: dict, b: dict) -> dict:
        return _eadd(a, self.neg(b))

    def smul(self, s: Scalar, a: dict) -> dict:
        return _escale(a, s)

    def mul(self, a: dict, b: dict) -> dict:
        raise NotImplementedError

    def power(self, a: dict, k: int) -> dict:
        """a^k by repeated multiplication; k < 0 needs a unit."""
        if k < 0:
            answer = self.is_unit(a)
            if answer.status is not Status.HOLDS:
                raise ValueError("a negative power needs an invertible element")
            a, k = answer.inverse, -k
        out = dict(self.one)
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def is_zero(self, a: dict) -> bool:
        return not a

    def eq(self, a: dict, b: dict) -> bool:
        return self.is_zero(self.sub(a, b))

    def scalar_of(self, a: dict) -> Scalar | None:
        """s with a == s*1, if the element is scalar."""
        if not a:
            return self.ctx.zero
        t = self.terms(a)
        if len(t) == 1 and t[0][0] == self.terms(self.one)[0][0]:
            return t[0][1]
        return None

    def terms(self, a: dict) -> list[tuple[object, Scalar]]:
        return sorted(a.items(), key=lambda kv: self._key_order(kv[0]))

    def monomial(self, key, s: Scalar) -> dict:
        return {} if s.is_zero() else {key: s}

    def _key_order(self, key):
        return key

    # generators and automorphisms -------------------------------------------

    def gens(self) -> tuple[str, ...]:
        raise NotImplementedError

    def gen_elem(self, name: str) -> dict:
        raise NotImplementedError

    def identity_auto(self):
        raise NotImplementedError

    def validate_auto(self, auto) -> None:
        raise NotImplementedError

    def apply(self, auto, a: dict) -> dict:
        raise NotImplementedError

    def compose(self, f, g):
        """f after g."""
        raise NotImplementedError

    def invert(self, auto):
        raise NotImplementedError

    def auto_powers(self, auto):
        """auto^0, auto^1, auto^2, ..., each composed onto the last."""
        out = self.identity_auto()
        while True:
            yield out
            out = self.compose(auto, out)

    def auto_power(self, auto, k: int):
        """auto^k; k < 0 inverts first."""
        if k < 0:
            auto, k = self.invert(auto), -k
        return next(itertools.islice(self.auto_powers(auto), k, None))

    def auto_equal(self, f, g) -> bool:
        for name in self.gens():
            if not self.eq(self.apply(f, self.gen_elem(name)),
                           self.apply(g, self.gen_elem(name))):
                return False
        return True

    def auto_is_identity(self, auto) -> bool:
        return self.auto_equal(auto, self.identity_auto())

    def auto_order(self, auto) -> int | None:
        raise NotImplementedError

    def eigenvalue(self, auto, key) -> Scalar | None:
        """Scale of the auto on the basis monomial, or None if it mixes it."""
        raise NotImplementedError

    def is_diagonal(self, auto) -> bool:
        """Whether the auto scales every basis monomial."""
        return True

    def auto_from_images(self, images: dict[str, dict]):
        """The automorphism sending each named generator to its image
        (unnamed generators are fixed); ValueError when the family has no
        such automorphism.  This default scales each generator."""
        return DiagonalAuto(tuple(self._scale_of(images, g) for g in self.gens()))

    def _scale_of(self, images: dict[str, dict], gen: str) -> Scalar:
        elem = images.get(gen)
        if elem is None:
            return self.ctx.one
        lam = scalar_ratio(self, elem, self.gen_elem(gen))
        if lam is None or lam.is_zero():
            raise ValueError(f"the image of {gen} must be a nonzero scalar "
                             f"multiple of {gen}")
        return lam

    def normalizing_auto(self, v: dict):
        """An automorphism gamma with v*a = gamma(a)*v, or None when v is
        not normal in a way this kernel can represent.  Commutative
        algebras take the identity."""
        return self.identity_auto()

    def to_ground(self, elem: dict, autos: list):
        """(ground algebra, elem, autos) with every tower level peeled off,
        or None when elem does not come from the ground algebra."""
        return self, elem, autos

    def describe_auto(self, auto) -> str:
        images = []
        for name in self.gens():
            images.append(f"{name} -> {self.render(self.apply(auto, self.gen_elem(name)))}")
        return "{" + ", ".join(images) + "}" if images else "{identity}"

    # structure ----------------------------------------------------------------

    def finite_basis(self) -> list | None:
        """Every basis key, when the algebra is finite-dimensional over K."""
        return None

    def eigen_frame(self, alpha, gamma, units_only: bool) -> EigenFrame:
        """The exponent lattice of the special-element search for the pair
        (alpha, gamma); ValueError when the family has none."""
        raise ValueError(NO_EIGEN_FRAME)

    def no_inner_power(self, auto, name: str) -> Verdict:
        """Whether no positive power of ``auto`` (called ``name`` in the
        reasons) is inner."""
        order = self.auto_order(auto)
        if order is not None:
            return fails(f"{name}^{order} is the identity, which is inner",
                         certificate={"kind": "inner_power", "m": order})
        if not self.commutative:
            return inconclusive("inner automorphisms of an iterated ring are "
                                "not decided here")
        return holds(f"no positive power of {name} is the identity, and every "
                     "inner automorphism of a commutative ring is trivial")

    # decision hooks -----------------------------------------------------------

    def is_unit(self, a: dict) -> UnitAnswer:
        raise NotImplementedError

    def is_regular(self, a: dict) -> UnitAnswer:
        raise NotImplementedError

    def is_domain(self) -> bool | None:
        """True or False when known, None when undetermined."""
        raise NotImplementedError

    def alpha_simple(self, autos: list) -> Verdict:
        raise NotImplementedError

    def radical_contains(self, d: dict, u: dict) -> Verdict:
        """Whether u^n lies in the ideal generated by d for some n >= 0."""
        raise NotImplementedError

    def comaximal(self, a: dict, b: dict) -> Verdict:
        """Whether aA + bA = A."""
        raise NotImplementedError

    def coprime_to_shifts(self, alpha, u: dict) -> bool:
        """Whether a closed form shows uA + alpha^m(u)A = A for every m >= 1."""
        return False

    def first_nonunit_in_pencil(self, p: dict, b: dict, q0: int) -> int | None:
        """Least integer q >= q0 with q*p + b not a unit; None if none exists."""
        raise NotImplementedError

    def split_nondiagonal(self, alpha, v: dict, rho: Scalar):
        """(u, obstruction, complete) for v = u - rho*alpha(u) when alpha is
        not diagonal on the basis; see solve_splitting_ex."""
        return None, {"kind": "nondiagonal_automorphism"}, False

    def render(self, a: dict) -> str:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    # pencils in characteristic p are periodic: one shared exact fallback

    def _pencil_mod_p(self, p: dict, b: dict, q0: int) -> int | None:
        ch = self.ctx.characteristic
        for q in range(q0, q0 + ch):
            elem = _eadd(_escale(p, self.ctx.int_(q)), b)
            if self.is_unit(elem).status is not Status.HOLDS:
                return q
        return None


def _int_pencil_solutions(a: Scalar, b: Scalar, q0: int):
    """Integer q >= q0 with q*a + b = 0: "all", an int, or None."""
    shifted = positive_integer_solution(a, b + a * (q0 - 1))
    if shifted == "all":
        return "all"
    if shifted is None:
        return None
    return shifted + q0 - 1


# ---------------------------------------------------------------------------
# the scalar field as an algebra
# ---------------------------------------------------------------------------


class FieldAlgebra(BaseAlgebra):
    """The scalar field K itself: elements are {(): s}."""

    kind = "field"

    def __init__(self, ctx: ScalarContext):
        self.ctx = ctx

    def from_scalar(self, s: Scalar) -> dict:
        return {} if s.is_zero() else {(): s}

    def gens(self) -> tuple[str, ...]:
        return ()

    def gen_elem(self, name: str) -> dict:
        raise KeyError(name)

    def mul(self, a: dict, b: dict) -> dict:
        if not a or not b:
            return {}
        return self.from_scalar(a[()] * b[()])

    def identity_auto(self) -> DiagonalAuto:
        return DiagonalAuto(())

    def validate_auto(self, auto) -> None:
        if not isinstance(auto, DiagonalAuto) or auto.scales:
            raise ValueError("the scalar field only has the identity automorphism")

    def apply(self, auto, a: dict) -> dict:
        return dict(a)

    def compose(self, f, g):
        return self.identity_auto()

    def invert(self, auto):
        return self.identity_auto()

    def auto_order(self, auto) -> int:
        return 1

    def eigenvalue(self, auto, key) -> Scalar:
        return self.ctx.one

    def finite_basis(self) -> list:
        return [()]

    def eigen_frame(self, alpha, gamma, units_only: bool) -> EigenFrame:
        return EigenFrame([], [], lambda exps: self.one, True)

    def is_unit(self, a: dict) -> UnitAnswer:
        if not a:
            return UnitAnswer(Status.FAILS, None, {"kind": "zero"})
        return UnitAnswer(Status.HOLDS, {(): a[()].inv()}, None)

    is_regular = is_unit

    def is_domain(self) -> bool:
        return True

    def alpha_simple(self, autos: list) -> Verdict:
        return holds("the coefficient algebra is a field")

    def radical_contains(self, d: dict, u: dict) -> Verdict:
        if d:
            return holds("the ideal is everything", certificate={"power": 0})
        if not u:
            return holds("u is zero", certificate={"power": 1})
        return fails("u is a unit but the ideal is zero")

    def comaximal(self, a: dict, b: dict) -> Verdict:
        if a or b:
            return holds("one of the two elements is a unit")
        return fails("both elements are zero")

    def first_nonunit_in_pencil(self, p: dict, b: dict, q0: int) -> int | None:
        if self.ctx.characteristic:
            return self._pencil_mod_p(p, b, q0)
        pa = p.get((), self.ctx.zero)
        ba = b.get((), self.ctx.zero)
        sol = _int_pencil_solutions(pa, ba, q0)
        return q0 if sol == "all" else sol

    def render(self, a: dict) -> str:
        return str(a[()]) if a else "0"

    def describe(self) -> dict:
        return {"family": "Field"}


# ---------------------------------------------------------------------------
# one generator: the shared plumbing of the univariate families
# ---------------------------------------------------------------------------


class _Univariate(BaseAlgebra):
    """K-span of the powers of one generator, keyed by the exponent.

    Exponents wrap modulo ``period`` when it is positive (group algebras).
    Automorphisms default to scaling the generator, and the decision
    hooks default to those of a Euclidean domain whose units are the
    nonzero multiples of the monomials ``_normalize`` sends to exponent 0.
    """

    period = 0

    def __init__(self, ctx: ScalarContext, gen: str = "t"):
        self.ctx = ctx
        self.gen = gen

    def from_scalar(self, s: Scalar) -> dict:
        return {} if s.is_zero() else {0: s}

    def gens(self) -> tuple[str, ...]:
        return (self.gen,)

    def _reduce(self, k: int) -> int:
        return k % self.period if self.period else k

    def gen_elem(self, name: str) -> dict:
        if name != self.gen:
            raise KeyError(name)
        return {self._reduce(1): self.ctx.one}

    def mul(self, a: dict, b: dict) -> dict:
        n = self.period
        out: dict = {}
        for i, s in a.items():
            for j, t in b.items():
                k = (i + j) % n if n else i + j
                v = out.get(k)
                v = s * t if v is None else v + s * t
                if v.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = v
        return out

    def _key_order(self, key):
        return -key

    def render(self, a: dict) -> str:
        parts = []
        for k, s in self.terms(a):
            parts.append((s, "" if k == 0 else
                          (self.gen if k == 1 else f"{self.gen}^{k}")))
        return _render_terms(parts)

    # scaling automorphisms t -> c*t -----------------------------------------

    def identity_auto(self):
        return DiagonalAuto((self.ctx.one,))

    def apply(self, auto, a: dict) -> dict:
        return {k: s * self.eigenvalue(auto, k) if k else s for k, s in a.items()}

    def compose(self, f, g):
        return DiagonalAuto((f.scales[0] * g.scales[0],))

    def invert(self, auto):
        return DiagonalAuto((auto.scales[0].inv(),))

    def eigenvalue(self, auto, key) -> Scalar | None:
        c = auto.scales[0]
        return c if key == 1 else c ** key

    def eigen_frame(self, alpha, gamma, units_only: bool) -> EigenFrame:
        # candidates are the monomials c = t^k; both identities pin one
        # multiplicative relation on k, and normality against t is trivial
        pair = (self.eigenvalue(alpha, 1), self.eigenvalue(gamma, 1))
        build = lambda exps: self.monomial(self._reduce(exps[0]), self.ctx.one)
        return EigenFrame([pair], [pair + ((self.ctx.one,),)], build, True)

    # Euclidean decisions ------------------------------------------------------

    _common_factor = "nonconstant"

    def _normalize(self, a: dict) -> dict:
        """a divided by its largest unit monomial factor."""
        return a

    def is_regular(self, a: dict) -> UnitAnswer:
        if not a:
            return UnitAnswer(Status.FAILS, None, {"kind": "zero"})
        return UnitAnswer(Status.HOLDS, None, None)

    def is_domain(self) -> bool | None:
        return True

    def radical_contains(self, d: dict, u: dict) -> Verdict:
        if not d:
            if not u:
                return holds("u is zero", certificate={"power": 1})
            return fails("the ideal is zero but u is not")
        dp = self._normalize(d)
        deg = max(dp)
        if deg == 0:
            return holds("the ideal is everything", certificate={"power": 0})
        if not u:
            return holds("u is zero", certificate={"power": 1})
        power = self._normalize(self.power(u, deg))
        _, rem = _udivmod(_udense(power, 0), _udense(dp, 0))
        if rem:
            return fails(f"d does not divide u^{deg}",
                         certificate={"kind": "radical_witness", "power": deg})
        return holds(f"d divides u^{deg}", certificate={"power": deg})

    def comaximal(self, a: dict, b: dict) -> Verdict:
        if not a and not b:
            return fails("both elements are zero")
        if not a or not b:
            if max(self._normalize(a or b)) == 0:
                return holds("one element is a unit")
            return fails("one element is zero, the other is not a unit")
        g = _ugcd(_udense(self._normalize(a), 0), _udense(self._normalize(b), 0))
        if len(g) <= 1:
            return holds("the elements generate the unit ideal")
        return fails(f"the elements share a {self._common_factor} factor",
                     certificate={"kind": "common_factor_degree", "degree": len(g) - 1})

    def first_nonunit_in_pencil(self, p: dict, b: dict, q0: int) -> int | None:
        if self.ctx.characteristic:
            return self._pencil_mod_p(p, b, q0)
        support = set(p) | set(b)
        if not support:
            return q0
        if len(support) == 1:
            (i,) = support
            if 0 in self._normalize({i: self.ctx.one}):
                sol = _int_pencil_solutions(p.get(i, self.ctx.zero),
                                            b.get(i, self.ctx.zero), q0)
                return q0 if sol == "all" else sol
        # only finitely many q cancel the pencil down to one unit monomial
        for q in range(q0, q0 + len(support) + 2):
            elem = _eadd(_escale(p, self.ctx.int_(q)), b)
            if self.is_unit(elem).status is not Status.HOLDS:
                return q
        raise AssertionError("unreachable: a pencil off the unit monomials is "
                             "non-unit for all but finitely many q")


# ---------------------------------------------------------------------------
# group algebra of a cyclic group
# ---------------------------------------------------------------------------


class CyclicGroupAlgebra(_Univariate):
    """K[C_n] with a distinguished primitive n-th root of unity epsilon.

    epsilon both parametrizes the standard scaling automorphisms and splits
    the algebra: the characters chi_l(s^k) = epsilon^(kl) identify K[C_n]
    with K^n, which is what every decision below works through.
    """

    kind = "cyclic_group"

    def __init__(self, ctx: ScalarContext, n: int, eps: Scalar, gen: str = "s"):
        if n < 1:
            raise ValueError("the group order must be positive")
        if root_of_unity_order(eps) != n:
            raise ValueError("epsilon must be a primitive root of unity of order n")
        super().__init__(ctx, gen)
        self.n = self.period = n
        self.eps = eps

    @cached_property
    def _eps_pows(self) -> list[Scalar]:
        """eps^j for j = 0..n-1, built on first use: a document that only
        declares a large group pays nothing for it."""
        pows = [self.ctx.one]
        for _ in range(1, self.n):
            pows.append(pows[-1] * self.eps)
        return pows

    def character(self, l: int, a: dict) -> Scalar:
        val = self.ctx.zero
        for k, s in a.items():
            val = val + s * self._eps_pows[k * l % self.n]
        return val

    def scale_exponent(self, c: Scalar) -> int:
        for j in range(self.n):
            if c == self.eps ** j:
                return j
        raise ValueError("scale is not a power of epsilon")

    def validate_auto(self, auto) -> None:
        if not isinstance(auto, DiagonalAuto) or len(auto.scales) != 1:
            raise ValueError("cyclic group automorphisms scale the generator")
        self.scale_exponent(auto.scales[0])

    def auto_order(self, auto) -> int:
        return root_of_unity_order(auto.scales[0]) or 1

    def finite_basis(self) -> list:
        return list(range(self.n))

    def _character_unit(self, l: int) -> dict:
        inv_n = self.ctx.fraction(Fraction(1, self.n))
        return {k: inv_n * self._eps_pows[-k * l % self.n]
                for k in range(self.n)}

    def is_unit(self, a: dict) -> UnitAnswer:
        chars = [self.character(l, a) for l in range(self.n)]
        for l, val in enumerate(chars):
            if val.is_zero():
                cert = {"kind": "character_zero", "character": l,
                        "cofactor": self.render(self._character_unit(l))}
                return UnitAnswer(Status.FAILS, None, cert)
        inv: dict = {}
        inv_n = self.ctx.fraction(Fraction(1, self.n))
        inv_chars = [val.inv() for val in chars]
        for k in range(self.n):
            c = self.ctx.zero
            for l, val in enumerate(inv_chars):
                c = c + val * self._eps_pows[-k * l % self.n]
            c = c * inv_n
            if not c.is_zero():
                inv[k] = c
        return UnitAnswer(Status.HOLDS, inv, None)

    is_regular = is_unit

    def is_domain(self) -> bool:
        return self.n == 1

    def alpha_simple(self, autos: list) -> Verdict:
        js = [self.scale_exponent(a.scales[0]) for a in autos]
        g = math.gcd(self.n, *js) if js else self.n
        if g == 1:
            return holds("the character translations generated by the scalings "
                         "act transitively")
        f = {0: -self.ctx.one, self.n // g: self.ctx.one}
        zeros = sorted(l for l in range(self.n) if self.character(l, f).is_zero())
        return fails(
            f"the scalings only translate characters by multiples of {g}",
            certificate={"kind": "stable_ideal", "generator": self.render(f),
                         "vanishing_characters": zeros, "fixed_by_all": True})

    def radical_contains(self, d: dict, u: dict) -> Verdict:
        bad = [l for l in range(self.n)
               if self.character(l, d).is_zero()
               and not self.character(l, u).is_zero()]
        if bad:
            return fails(f"character {bad[0]} kills the ideal but not u",
                         certificate={"kind": "character_witness", "character": bad[0]})
        return holds("u vanishes wherever the ideal does", certificate={"power": 1})

    def comaximal(self, a: dict, b: dict) -> Verdict:
        for l in range(self.n):
            if self.character(l, a).is_zero() and self.character(l, b).is_zero():
                return fails(f"character {l} kills both elements",
                             certificate={"kind": "character_witness", "character": l})
        return holds("no character kills both elements")

    def first_nonunit_in_pencil(self, p: dict, b: dict, q0: int) -> int | None:
        if self.ctx.characteristic:
            return self._pencil_mod_p(p, b, q0)
        best = None
        for l in range(self.n):
            sol = _int_pencil_solutions(self.character(l, p), self.character(l, b), q0)
            if sol == "all":
                return q0
            if sol is not None and (best is None or sol < best):
                best = sol
        return best

    def describe(self) -> dict:
        return {"family": "CyclicGroup", "order": self.n, "epsilon": str(self.eps),
                "generator": self.gen}


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentAlgebra(_Univariate):
    """K[t, t^-1]; units are the nonzero monomials."""

    kind = "laurent"
    _common_factor = "nonmonomial"

    def validate_auto(self, auto) -> None:
        if not isinstance(auto, DiagonalAuto) or len(auto.scales) != 1:
            raise ValueError("laurent automorphisms here scale the variable")
        if auto.scales[0].is_zero():
            raise ValueError("scale must be invertible")

    def auto_order(self, auto) -> int | None:
        return root_of_unity_order(auto.scales[0])

    def is_unit(self, a: dict) -> UnitAnswer:
        if not a:
            return UnitAnswer(Status.FAILS, None, {"kind": "zero"})
        if len(a) == 1:
            ((i, s),) = a.items()
            return UnitAnswer(Status.HOLDS, {-i: s.inv()}, None)
        lo, hi = min(a), max(a)
        return UnitAnswer(Status.FAILS, None,
                          {"kind": "multiple_monomials", "exponents": [lo, hi]})

    def alpha_simple(self, autos: list) -> Verdict:
        orders = []
        for a in autos:
            q = a.scales[0]
            k = root_of_unity_order(q)
            if k is None:
                return holds(f"scaling by {q} has infinite multiplicative order")
            orders.append(k)
        big = math.lcm(*orders) if orders else 1
        f = {0: -self.ctx.one, big: self.ctx.one}
        return fails(
            "every scaling is by a root of unity",
            certificate={"kind": "stable_ideal", "generator": self.render(f),
                         "fixed_by_all": True})

    def _normalize(self, a: dict) -> dict:
        if not a:
            return {}
        lo = min(a)
        return {i - lo: s for i, s in a.items()}

    def describe(self) -> dict:
        return {"family": "Laurent", "generator": self.gen}


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class PolyAlgebra(_Univariate):
    """K[t] with affine automorphisms t -> a*t + b."""

    kind = "poly"
    # t^k with k < 0 is no element, so the monomial frame does not apply
    eigen_frame = BaseAlgebra.eigen_frame

    def identity_auto(self) -> AffineAuto:
        return AffineAuto(self.ctx.one, self.ctx.zero)

    def validate_auto(self, auto) -> None:
        if not isinstance(auto, AffineAuto):
            raise ValueError("polynomial automorphisms are affine in the variable")
        if auto.a.is_zero():
            raise ValueError("the linear part must be invertible")

    def auto_from_images(self, images: dict[str, dict]) -> AffineAuto:
        elem = images.get(self.gen)
        if elem is None:
            return self.identity_auto()
        a = elem.get(1)
        b = elem.get(0, self.ctx.zero)
        if set(elem) - {0, 1} or a is None or a.is_zero():
            raise ValueError(f"the image of {self.gen} must be "
                             f"a*{self.gen} + b with a nonzero")
        return AffineAuto(a, b)

    def apply(self, auto, elem: dict) -> dict:
        if not elem:
            return {}
        image = {0: self.ctx.one}
        powers = {0: image}
        gen_image = {}
        if not auto.a.is_zero():
            gen_image[1] = auto.a
        if not auto.b.is_zero():
            gen_image[0] = auto.b
        top = max(elem)
        for i in range(1, top + 1):
            powers[i] = self.mul(powers[i - 1], gen_image)
        out: dict = {}
        for i, s in elem.items():
            out = _eadd(out, _escale(powers[i], s))
        return out

    def compose(self, f, g):
        # (f.g)(t) = f applied to the element g(t) = a_g*t + b_g
        return AffineAuto(f.a * g.a, g.a * f.b + g.b)

    def invert(self, auto):
        ainv = auto.a.inv()
        return AffineAuto(ainv, -auto.b * ainv)

    def auto_order(self, auto) -> int | None:
        k = root_of_unity_order(auto.a)
        if k is None:
            return None
        if self.auto_power(auto, k).b.is_zero():
            return k
        return k * self.ctx.characteristic if self.ctx.characteristic else None

    def eigenvalue(self, auto, key) -> Scalar | None:
        if auto.b.is_zero():
            return auto.a ** key
        return self.ctx.one if key == 0 else None

    def is_diagonal(self, auto) -> bool:
        return auto.b.is_zero()

    def is_unit(self, a: dict) -> UnitAnswer:
        if not a:
            return UnitAnswer(Status.FAILS, None, {"kind": "zero"})
        if set(a) == {0}:
            return UnitAnswer(Status.HOLDS, {0: a[0].inv()}, None)
        return UnitAnswer(Status.FAILS, None,
                          {"kind": "positive_degree", "degree": max(a)})

    def alpha_simple(self, autos: list) -> Verdict:
        autos = list(autos) or [self.identity_auto()]
        closure = list(autos)
        for f in autos:
            for g in autos:
                closure.append(self.compose(f, self.invert(g)))
                # the commutator f g f^-1 g^-1 always has trivial linear part
                closure.append(self.compose(self.compose(f, g),
                                            self.invert(self.compose(g, f))))
        one = self.ctx.one
        if self.ctx.characteristic == 0:
            for h in closure:
                if h.a == one and not h.b.is_zero():
                    return holds("the group generated contains a nonzero shift, "
                                 "which fixes no proper ideal in characteristic 0")
        if all(h.a == one for h in autos):
            bs = [h.b for h in autos if not h.b.is_zero()]
            if not bs:
                return fails("every automorphism is the identity",
                             certificate={"kind": "stable_ideal",
                                          "generator": self.gen})
            # characteristic p: the product over the F_p-span of the shifts
            p = self.ctx.characteristic
            span = [self.ctx.zero]
            for b in bs:
                new = list(span)
                for s in span:
                    for k in range(1, p):
                        cand = s + b * k
                        if all(cand != t for t in new):
                            new.append(cand)
                span = new
            f = self.one
            for v in span:
                f = self.mul(f, {1: one, 0: -v})
            return fails(
                "the shifts only translate by the finite span of their offsets",
                certificate={"kind": "stable_ideal", "generator": self.render(f)})
        fixed = None
        consistent = True
        for h in autos:
            if h.a == one:
                consistent = consistent and h.b.is_zero()
                continue
            c = h.b / (one - h.a)
            if fixed is None:
                fixed = c
            else:
                consistent = consistent and fixed == c
        if consistent and fixed is not None:
            f = {1: one}
            if not fixed.is_zero():
                f[0] = -fixed
            return fails("every automorphism fixes the same point",
                         certificate={"kind": "stable_ideal",
                                      "generator": self.render(f)})
        return inconclusive("the automorphisms share no fixed point and no shift "
                            "was derived from their compositions")

    def coprime_to_shifts(self, alpha, u: dict) -> bool:
        # in characteristic 0 a nonzero shift moves the single root of a
        # linear u to a different point for every m >= 1
        return (alpha.a == self.ctx.one and not alpha.b.is_zero()
                and self.ctx.characteristic == 0 and max(u) == 1)

    def split_nondiagonal(self, alpha, v: dict, rho: Scalar):
        # window of degree deg(v) + 1: a shift can drop the degree of
        # u - rho*alpha(u) by one, and by no more than one for the minimal
        # representative modulo the kernel
        ctx = self.ctx
        dim = max(v) + 2
        rows = [[ctx.zero] * dim for _ in range(dim)]
        for d in range(dim):
            img = _eadd({d: ctx.one},
                        _escale(self.apply(alpha, {d: ctx.one}), -rho))
            for r, s in img.items():
                rows[r][d] = s
        sol = gauss_solve(rows, [v.get(r, ctx.zero) for r in range(dim)])
        if sol is None:
            return None, {"kind": "no_polynomial_splitting",
                          "window": dim - 1}, True
        return {d: s for d, s in enumerate(sol) if not s.is_zero()}, None, True

    def describe(self) -> dict:
        return {"family": "Poly", "generator": self.gen}


# ---------------------------------------------------------------------------
# quadratic extension
# ---------------------------------------------------------------------------


class QuadraticAlgebra(_Univariate):
    """K[s]/(s^2 - d): a field when d is not a square in K.

    The unit test is exact either way through the norm form a^2 - d*b^2;
    squareness of d only matters for alpha-simplicity, where it is decided
    for rational d by the conductor criterion and for parameter monomials
    by odd valuation.
    """

    kind = "quadratic"
    # s^2 = d is no basis monomial, so the monomial frame does not apply
    eigen_frame = BaseAlgebra.eigen_frame

    def __init__(self, ctx: ScalarContext, d: Scalar, gen: str = "s"):
        if d.is_zero():
            raise ValueError("the quadratic defect must be nonzero")
        super().__init__(ctx, gen)
        self.d = d

    def mul(self, a: dict, b: dict) -> dict:
        zero = self.ctx.zero
        a0, a1 = a.get(0, zero), a.get(1, zero)
        b0, b1 = b.get(0, zero), b.get(1, zero)
        c0 = a0 * b0 + self.d * a1 * b1
        c1 = a0 * b1 + a1 * b0
        out = {}
        if not c0.is_zero():
            out[0] = c0
        if not c1.is_zero():
            out[1] = c1
        return out

    def _key_order(self, key):
        return key

    def conjugation(self) -> DiagonalAuto:
        return DiagonalAuto((-self.ctx.one,))

    def validate_auto(self, auto) -> None:
        if not isinstance(auto, DiagonalAuto) or len(auto.scales) != 1:
            raise ValueError("quadratic automorphisms scale the generator")
        c = auto.scales[0]
        if not (c == self.ctx.one or c == -self.ctx.one):
            raise ValueError("the generator scale must be 1 or -1")

    def auto_order(self, auto) -> int:
        return 1 if auto.scales[0] == self.ctx.one else 2

    def finite_basis(self) -> list:
        return [0, 1]

    def norm(self, a: dict) -> Scalar:
        zero = self.ctx.zero
        a0, a1 = a.get(0, zero), a.get(1, zero)
        return a0 * a0 - self.d * a1 * a1

    def is_unit(self, a: dict) -> UnitAnswer:
        if not a:
            return UnitAnswer(Status.FAILS, None, {"kind": "zero"})
        n = self.norm(a)
        if n.is_zero():
            return UnitAnswer(Status.FAILS, None,
                              {"kind": "zero_divisor",
                               "cofactor": self.render(self._conj(a))})
        inv = n.inv()
        out = {}
        zero = self.ctx.zero
        if not a.get(0, zero).is_zero():
            out[0] = a[0] * inv
        if not a.get(1, zero).is_zero():
            out[1] = -a[1] * inv
        return UnitAnswer(Status.HOLDS, out, None)

    is_regular = is_unit

    def is_domain(self) -> bool | None:
        square, _root = self.square_root_of_d()
        if square is None:
            return None
        return not square

    def _conj(self, a: dict) -> dict:
        out = {}
        if 0 in a:
            out[0] = a[0]
        if 1 in a:
            s = -a[1]
            if not s.is_zero():
                out[1] = s
        return out

    def square_root_of_d(self) -> tuple[bool | None, Scalar | None]:
        """(is_square, explicit root): exact where decidable, else (None, None)."""
        ctx = self.ctx
        f = self.d.as_fraction()
        if f is not None and ctx.characteristic == 0:
            m = _squarefree_part(f)
            if m == 1:
                return True, ctx.fraction(_fraction_sqrt(f))
            if m == -1:
                if ctx.cyclotomic_order % 4 == 0:
                    r = ctx.fraction(_fraction_sqrt(-f))
                    return True, r * ctx.zeta(ctx.cyclotomic_order // 4)
                return False, None
            # the conductor of Q(sqrt(m)) decides membership in Q(zeta_N)
            cond = abs(m) if m % 4 == 1 else 4 * abs(m)
            if ctx.cyclotomic_order % cond:
                return False, None
            return True, None
        if f is not None:
            p = ctx.characteristic
            if p <= 10000:
                for r in range(p):
                    cand = ctx.int_(r)
                    if cand * cand == self.d:
                        return True, cand
                return False, None
            return None, None
        # a parameter monomial with an odd exponent is never a square
        if len(self.d.num) == 1 and len(self.d.den) == 1:
            (en,) = self.d.num.keys()
            (ed,) = self.d.den.keys()
            if any((i - j) % 2 for i, j in zip(en, ed)):
                return False, None
        return None, None

    def alpha_simple(self, autos: list) -> Verdict:
        neg_one = -self.ctx.one
        if self.ctx.characteristic != 2 and any(a.scales[0] == neg_one for a in autos):
            return holds("a stable ideal must survive conjugation, which leaves "
                         "only 0 and the whole algebra")
        is_square, root = self.square_root_of_d()
        if is_square is False:
            return holds("the defect is not a square, so the algebra is a field")
        if is_square is None:
            return inconclusive(f"squareness of the defect {self.d} in the "
                                "scalar field was not decided")
        if self.ctx.characteristic == 2:
            elem = {1: self.ctx.one}
            if root is not None and not root.is_zero():
                elem[0] = root
            return fails("the defect is a square, so the generator minus its root "
                         "spans a stable nilpotent ideal",
                         certificate={"kind": "stable_ideal",
                                      "generator": self.render(elem)})
        if root is None:
            return fails("the defect is a square in the cyclotomic field and "
                         "every automorphism fixes both split factors")
        half = self.ctx.fraction(Fraction(1, 2))
        idem = {0: half, 1: half / root}
        return fails("the algebra splits and no automorphism swaps the factors",
                     certificate={"kind": "stable_idempotent",
                                  "element": self.render(idem)})

    def radical_contains(self, d: dict, u: dict) -> Verdict:
        if self.is_unit(d).status is Status.HOLDS:
            return holds("the ideal is everything", certificate={"power": 0})
        if not u:
            return holds("u is zero", certificate={"power": 1})
        if not d:
            return fails("the ideal is zero but u is not")
        # d is a nonzero zero divisor, so conj(d) spans the annihilator of
        # the ideal; u is in the radical exactly when conj(d)*u = 0
        conj = self._conj(d)
        if self.is_zero(self.mul(conj, u)):
            return holds("u lies in the same split component as the ideal",
                         certificate={"power": 1})
        return fails("the conjugate of the generator annihilates the ideal but not u",
                     certificate={"kind": "cofactor_witness",
                                  "cofactor": self.render(conj)})

    def comaximal(self, a: dict, b: dict) -> Verdict:
        if self.is_unit(a).status is Status.HOLDS or self.is_unit(b).status is Status.HOLDS:
            return holds("one element is a unit")
        if not a and not b:
            return fails("both elements are zero")
        if not a or not b:
            return fails("one element is zero, the other is not a unit")
        if self.ctx.characteristic != 2 and self.is_zero(self.mul(a, b)):
            return holds("the elements lie in complementary split components")
        return fails("both elements lie in a common proper ideal",
                     certificate={"kind": "annihilator_witness",
                                  "annihilator": self.render(self._conj(a))})

    def first_nonunit_in_pencil(self, p: dict, b: dict, q0: int) -> int | None:
        if self.ctx.characteristic:
            return self._pencil_mod_p(p, b, q0)
        zero = self.ctx.zero
        p0, p1 = p.get(0, zero), p.get(1, zero)
        b0, b1 = b.get(0, zero), b.get(1, zero)
        # norm(q*p + b) is a quadratic polynomial in q
        c0 = b0 * b0 - self.d * b1 * b1
        c1 = 2 * (p0 * b0 - self.d * p1 * b1)
        c2 = p0 * p0 - self.d * p1 * p1
        roots = integer_roots_scalar_poly([c0, c1, c2])
        if roots == "all":
            return q0
        good = [q for q in roots if q >= q0]
        return min(good) if good else None

    def describe(self) -> dict:
        return {"family": "Quadratic", "defect": str(self.d), "generator": self.gen}


def _fraction_sqrt(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    n = math.isqrt(f.numerator)
    d = math.isqrt(f.denominator)
    if n * n == f.numerator and d * d == f.denominator:
        return Fraction(n, d)
    return None


def _squarefree_part(f: Fraction) -> int:
    """The signed squarefree integer m with f = m * (rational square)."""
    m = 1
    for p, e in factor_rational(abs(f)).items():
        if e % 2:
            m *= p
    return m if f > 0 else -m


# ---------------------------------------------------------------------------
# splitting elements: v = u - rho*alpha(u)
# ---------------------------------------------------------------------------


def solve_splitting_ex(algebra, alpha, gamma, v: dict, rho: Scalar):
    """(u, obstruction, complete) for v = u - rho*alpha(u).

    The solution must commute past the algebra the way v does (gamma-normal)
    and be fixed by gamma; over commutative coefficient algebras both come
    for free.  complete=True makes the answer definitive either way: a u is
    returned, or no admissible u exists and the obstruction says why.
    complete=False is an honest refusal, only reachable when the coefficient
    algebra is an iterated ring whose componentwise candidate fails the
    normality conditions, or when alpha is not diagonal on the basis of a
    family with no windowed solver.
    """
    ctx = algebra.ctx
    if algebra.is_zero(v):
        return {}, None, True
    if not algebra.is_diagonal(alpha):
        return algebra.split_nondiagonal(alpha, v, rho)
    # the equation decouples one basis monomial at a time
    u = {}
    for key, s in v.items():
        lam = algebra.eigenvalue(alpha, key)
        den = ctx.one - rho * lam
        if den.is_zero():
            mono = algebra.render(algebra.monomial(key, ctx.one))
            return None, {"kind": "resonant_monomial", "monomial": mono,
                          "scale": str(rho * lam)}, True
        u[key] = s / den
    if not algebra.commutative:
        for name in algebra.gens():
            g = algebra.gen_elem(name)
            if not algebra.eq(algebra.mul(u, g),
                              algebra.mul(algebra.apply(gamma, g), u)):
                return None, {"kind": "not_normalizing",
                              "generator": name}, False
        if not algebra.eq(algebra.apply(gamma, u), u):
            return None, {"kind": "not_gamma_fixed"}, False
    return u, None, True
