"""The catalog of coefficient algebras and their automorphisms.

Five ground families implement one protocol, ``BaseAlgebra``: the scalar
field itself, the group algebra of a cyclic group with a distinguished
primitive root of unity, Laurent polynomials, polynomials, and a quadratic
extension K[s]/(s^2 - d).  Ambiskew rings (``AmbiskewRing``, rings.py)
implement it too, so towers serve as coefficient algebras and every
criterion asks its questions the same way.  They and the generalized Weyl
algebras (``GwaRing``, gwa.py) share ``rings.ExtensionAlgebra``, which owns
their flat graded element layout and the hooks that read it.

Elements are sparse dicts from a family-specific basis key to nonzero
Scalars; automorphisms are small immutable values interpreted by their
algebra.  The protocol hooks are:

- elements: ``from_scalar``, ``gens``, ``gen_elem`` (ValueError for an
  unknown name), ``mul``, ``power``, ``scalar_of`` and ``render``, plus
  the shared linear plumbing (``add``, ``sub``, ``smul``, ``eq``,
  ``terms``);
- automorphisms: ``identity_auto``, ``validate_auto``, ``apply``,
  ``compose``, ``invert``, ``auto_power``, ``auto_order``,
  ``eigenvalue``, ``is_diagonal`` (diagonal on the basis),
  ``auto_from_images`` (the automorphism with given generator images) and
  ``normalizing_auto`` (gamma with v*a = gamma(a)*v);
- structure: ``commutative``, ``finite_basis``, ``eigen_frame`` (the
  exponent lattice of the special-element search), ``no_inner_power`` and
  ``to_ground`` (an element of a tower read in its ground algebra);
- decisions: ``is_unit``, ``is_regular``, ``radical_contains`` (d a unit
  of A[1/u]) and ``comaximal`` (b a unit of A/aA) answer with a status
  and a certificate (``UnitAnswer``), and only criteria write prose;
  ``is_domain``, ``alpha_simple`` (no proper ideal stable under a set of
  automorphisms), ``first_nonunit_in_pencil`` (the first q at which an
  element linear in q, or in R^q, is no unit of A, or of A[1/u]: K[C_n]
  and the quadratic family hand ``scalars.least_integer_root`` the scalar
  polynomials that vanish exactly there, a tower passes its pencil down,
  and the other families refuse),
  ``split_nondiagonal`` (v = u - rho*alpha(u) for an alpha that is not
  diagonal: a shift, or a scaling about a fixed point, over Poly) and
  ``coprime_to_shifts`` (the least m with u and alpha^m(u) not comaximal,
  or why there is none, from one resultant, built from power sums, in X = m
  under a shift of K[t] or X = a^m under a scaling of K[t] or K[t, t^-1]).

The Euclidean decisions of Poly and Laurent (radical, comaximality, the
resultant in the action) run on the dense polynomial layer of ``scalars``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from .scalars import (
    Scalar,
    ScalarContext,
    _action_resultant,
    _divmod,
    _dlog,
    _gcd,
    _interpolate,
    _join_signed,
    _least_roots,
    _power,
    _rational_component,
    _resultant,
    _sqrt_mod,
    factor_int,
    least_integer_root,
    root_of_unity_order,
)
from .verdict import Status, Verdict, fails, holds, inconclusive

# ---------------------------------------------------------------------------
# automorphism data
# ---------------------------------------------------------------------------


class DiagonalAuto:
    """Scales each family generator: one scalar per generator, in order.
    An immutable value, so ``_pows`` may keep each scales[0]^k made, by k."""

    __slots__ = ("scales", "_pows")

    def __init__(self, scales: tuple[Scalar, ...]):
        self.scales = scales
        self._pows: dict[int, Scalar] = {}


class AffineAuto:
    """Polynomial algebras only: t -> a*t + b.  An immutable value, so
    ``_pows`` may keep each (a*t + b)^k made."""

    __slots__ = ("a", "b", "_pows")

    def __init__(self, a: Scalar, b: Scalar):
        self.a = a
        self.b = b
        self._pows: list[dict] = [{0: a.ctx.one}]


class NestedAuto:
    """Automorphism of an iterated ring: base part plus y and x scales.  An
    immutable value, so ``_pows`` may keep each power of a scale made, by
    ("y" or "x", k)."""

    __slots__ = ("base", "lam_y", "lam_x", "_pows")

    def __init__(self, base, lam_y: Scalar, lam_x: Scalar):
        self.base = base
        self.lam_y = lam_y
        self.lam_x = lam_x
        self._pows: dict = {}


class UnitAnswer:
    """The answer of a unit test in A, A[1/u] or A/aA: its status, its
    certificate, and for a unit of A its inverse.  The inverse is built by
    the stored ``build`` on the first read of ``inverse`` and kept, so a
    caller that asks only for the status pays for no inverse."""

    def __init__(self, status: Status, certificate: dict | None = None,
                 build: Callable[[], dict] | None = None):
        self.status = status
        self.certificate = certificate
        self._build = build

    @cached_property
    def inverse(self) -> dict | None:
        return None if self._build is None else self._build()


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


def _eadd_into(out: dict, b: dict, s: Scalar | None = None) -> dict:
    """out += s*b (b when s is None) in place, dropping zero entries, and
    out returned; b is only read, so it may be shared."""
    for k, t in b.items():
        if s is not None:
            t = t * s
        u = out.get(k)
        if u is not None:
            t = u + t
        if t.is_zero():
            out.pop(k, None)
        else:
            out[k] = t
    return out


def _eadd(a: dict, b: dict) -> dict:
    return _eadd_into(dict(a), b)


def _signed_atom(s: Scalar) -> tuple[bool, str]:
    text = str(s)
    if " " in text:
        return False, f"({text})"
    if text.startswith("-"):
        return True, text[1:]
    return False, text


def _render_terms(parts: list[tuple[Scalar, str]]) -> str:
    signed = []
    minus_one = str(parts[0][0].ctx.characteristic - 1) if parts else ""
    for s, mono in parts:
        neg, body = _signed_atom(s)
        if mono and body == minus_one != "1":
            neg, body = True, mono  # -1 in F_p, which renders as p - 1
        elif mono:
            body = mono if body == "1" else f"{body}*{mono}"
        signed.append((neg, body))
    return _join_signed(signed)


def scalar_ratio(algebra, a: dict, b: dict) -> Scalar | None:
    """s with a == s*b, if one exists (b nonzero)."""
    bt = algebra.terms(b)
    if not bt:
        raise ValueError("scalar_ratio against zero")
    key, coeff = bt[0]
    s = a[key] / coeff if key in a else coeff.ctx.zero
    return s if algebra.eq(a, algebra.smul(s, b)) else None


def _kept_power(pows: dict, key, s: Scalar, k: int) -> Scalar:
    """s^k, made on the first request for ``key`` and kept in ``pows``."""
    if key not in pows:
        pows[key] = s ** k
    return pows[key]


def _udense(a: dict) -> list[Scalar]:
    """The dense coefficient list of a nonzero polynomial element."""
    zero = next(iter(a.values())).ctx.zero
    return [a.get(i, zero) for i in range(max(a) + 1)]


def _pencil_line(algebra, p: dict, b: dict, ratio: Scalar | None):
    """(lead, const) with the pencil element at q a nonzero multiple of
    lead*X + const.  With ``ratio`` None or 1 the element is q*p + b and
    X = q; with a ratio R the element is [q]_R*p + R^q*b and X = R^q,
    which turns (R - 1) times it into X*(p + (R - 1)*b) - p."""
    if ratio is None or ratio == ratio.ctx.one:
        return p, b
    return algebra.add(p, algebra.smul(ratio - 1, b)), algebra.neg(p)


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
        return {k: -s for k, s in a.items()}

    def sub(self, a: dict, b: dict) -> dict:
        return _eadd(a, self.neg(b))

    def smul(self, s: Scalar, a: dict) -> dict:
        return {} if s.is_zero() else {k: v * s for k, v in a.items()}

    def mul(self, a: dict, b: dict, out: dict | None = None) -> dict:
        """a*b, or ``out`` after a*b is added into it in place, dropping the
        entries that cancel; ``out`` must not alias a or b.

        >>> A = PolyAlgebra(ScalarContext())
        >>> t, acc = A.gen_elem("t"), {0: A.ctx.one, 2: A.ctx.one}
        >>> A.mul(t, A.sub(A.one, t), acc) is acc, A.render(acc)
        (True, 't + 1')
        """
        raise NotImplementedError

    def power(self, a: dict, k: int) -> dict:
        """a^k by square-and-multiply; k < 0 needs a unit."""
        if k < 0:
            answer = self.is_unit(a)
            if answer.status is not Status.HOLDS:
                raise ValueError("a negative power needs an invertible element")
            a, k = answer.inverse, -k
        return _power(self.mul, a, k) if k else self.one

    def is_zero(self, a: dict) -> bool:
        return not a

    def eq(self, a: dict, b: dict) -> bool:
        """a == b key by key, a missing key standing for a zero entry."""
        zero = self.ctx.zero
        return all(a.get(k, zero) == b.get(k, zero) for k in a.keys() | b.keys())

    def scalar_of(self, a: dict) -> Scalar | None:
        """s with a == s*1, if the element is scalar."""
        if not a:
            return self.ctx.zero
        if len(a) == 1:
            (key, s), = a.items()
            if key in self.one:
                return s
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

    def auto_power(self, auto, k: int):
        """auto^k by square-and-multiply; k < 0 inverts first."""
        if k < 0:
            auto, k = self.invert(auto), -k
        return _power(self.compose, auto, k) if k else self.identity_auto()

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

    def radical_contains(self, d: dict, u: dict) -> UnitAnswer:
        """Whether u^n lies in dA for some n >= 0: the unit test of d in
        A[1/u].  A Holds certifies the ``power`` n it found."""
        raise NotImplementedError

    def comaximal(self, a: dict, b: dict) -> UnitAnswer:
        """Whether aA + bA = A: the unit test of b in A/aA."""
        raise NotImplementedError

    def _action_coordinate(self, alpha, u: dict):
        """(u0, ratio, b): u in the coordinate s that alpha^m takes to
        s + m*b (ratio None) or to ratio^m*s (b None)."""
        raise ValueError(f"no resultant in the action over {self.kind}")

    def coprime_to_shifts(self, alpha, u: dict):
        """(m, reason, certificate) for u neither zero nor a unit: the least
        m >= 1 with uA + alpha^m(u)A proper, or None and why there is none.
        u0 meets its image where R(X) = Res_s(u0, u0(s + b*X)), or for a
        scaling Res_s(u0, u0(X*s)), vanishes (Abramov's dispersion, 1971).
        R costs O(n^4) products from power sums, or N + 1 = n^2 + 1 Euclid
        resultants in characteristic p <= N, for a scaling by a parameter.
        An order k > N is read in F_p by discrete logs; ValueError for a
        smaller one or any in characteristic 0, as a walk ends by k."""
        u0, ratio, b = self._action_coordinate(alpha, u)
        ctx, n = self.ctx, max(u0)
        p, order = ctx.characteristic, self.auto_order(alpha)
        if order is not None and (order <= n * n or not p):
            raise ValueError(f"alpha has finite order {order}")
        dense = _rational_component(_udense(u0))[0]  # R matters up to a unit
        if ratio is not None and not dense[0]:
            return 1, None, None  # u0 and every image vanish at s = 0
        if not p or p > n * n:
            res = _action_resultant(dense, b)
        else:  # Newton's identities would divide by p: interpolate R
            xs = [ctx.param(ctx.parameters[0]) ** x for x in range(n * n + 1)]
            res = _interpolate([_resultant(dense, [c * x ** k for k, c in
                                enumerate(dense)]) for x in xs], xs)
        m = least_integer_root([res], 1, ratio)
        if m is not None:
            return m, None, None
        var = "m" if ratio is None else "X"
        cert = {"kind": "shift_coprime", "resultant": PolyAlgebra(
            ctx, var).render({k: c for k, c in enumerate(res) if c})}
        if ratio is not None:
            cert["ratio"] = str(ratio)
        root = ("positive integer root" if ratio is None
                else f"root at X = ({ratio})^m")
        return None, (f"the resultant of u and alpha^m(u), a polynomial in "
                      f"{var}, has no {root}"), cert

    def first_nonunit_in_pencil(self, p: dict, b: dict,
                                ratio: Scalar | None = None,
                                watch: dict | None = None) -> int | None:
        """Least integer q >= 0 at which the pencil element fails, or None.

        With ``ratio`` None or 1 the element is q*p + b; with any other
        ratio R it is [q]_R*p + R^q*b, the shape of v^(q*L + r) when
        (rho*alpha)^L rescales v by R.  It fails when it is not a unit, or,
        given ``watch``, when no power of ``watch`` lies in the ideal it
        generates.  The kernel asks only at a period L > 1 after v was
        tested a unit, which over a field, K[t] or K[t, t^-1] cannot happen,
        so this default refuses with ValueError."""
        pencils = "unit" if watch is None else "radical"
        raise ValueError(f"{pencils} pencils over {self.kind} are not "
                         "decided here")

    def split_nondiagonal(self, alpha, v: dict, rho: Scalar):
        """(u, obstruction, complete) for v = u - rho*alpha(u) when alpha is
        not diagonal on the basis; see solve_splitting_ex."""
        return None, {"kind": "nondiagonal_automorphism"}, False

    def render(self, a: dict) -> str:
        raise NotImplementedError


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
        raise ValueError(f"unknown generator: {name!r}")

    def mul(self, a: dict, b: dict, out: dict | None = None) -> dict:
        prod = self.from_scalar(a[()] * b[()]) if a and b else {}
        return prod if out is None else _eadd_into(out, prod)

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
            return UnitAnswer(Status.FAILS, {"kind": "zero"})
        s = a[()]
        return UnitAnswer(Status.HOLDS, build=lambda: {(): s.inv()})

    is_regular = is_unit

    def is_domain(self) -> bool:
        return True

    def alpha_simple(self, autos: list) -> Verdict:
        return holds("the coefficient algebra is a field")

    def radical_contains(self, d: dict, u: dict) -> UnitAnswer:
        if d or not u:  # the ideal is everything, or u is zero
            return UnitAnswer(Status.HOLDS, {"power": 0 if d else 1})
        return UnitAnswer(Status.FAILS)

    def comaximal(self, a: dict, b: dict) -> UnitAnswer:
        return UnitAnswer(Status.HOLDS if a or b else Status.FAILS)

    def render(self, a: dict) -> str:
        return str(a[()]) if a else "0"


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
            raise ValueError(f"unknown generator: {name!r}")
        return {self._reduce(1): self.ctx.one}

    def mul(self, a: dict, b: dict, out: dict | None = None) -> dict:
        n, out = self.period, {} if out is None else out
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
        if key == 1:
            return auto.scales[0]
        return _kept_power(auto._pows, key, auto.scales[0], key)

    def eigen_frame(self, alpha, gamma, units_only: bool) -> EigenFrame:
        # candidates are the powers c = t^k, d^(k div 2)*s^(k mod 2) in
        # K[s]/(s^2 - d), whose multiples of 1 and s are every eigenvector of
        # s -> -s; both identities pin one multiplicative relation on k, and
        # normality against t is trivial
        pair = (self.eigenvalue(alpha, 1), self.eigenvalue(gamma, 1))
        build = lambda exps: self.power(self.gen_elem(self.gen), exps[0])
        return EigenFrame([pair], [pair + ((self.ctx.one,),)], build, True)

    # Euclidean decisions ------------------------------------------------------

    def _normalize(self, a: dict) -> dict:
        """a divided by its largest unit monomial factor."""
        return a

    def is_regular(self, a: dict) -> UnitAnswer:
        if not a:
            return UnitAnswer(Status.FAILS, {"kind": "zero"})
        return UnitAnswer(Status.HOLDS)

    def is_domain(self) -> bool | None:
        return True

    def radical_contains(self, d: dict, u: dict) -> UnitAnswer:
        dp = self._normalize(d)
        if dp and max(dp) == 0:
            return UnitAnswer(Status.HOLDS, {"power": 0})
        if not u:
            return UnitAnswer(Status.HOLDS, {"power": 1})
        if not d:
            return UnitAnswer(Status.FAILS)
        # u^deg(d) lies in dA exactly when each prime of d divides u: strip
        # them off d by gcds, each dividing the last, until d or one is 1
        rest, common = _udense(dp), _udense(self._normalize(u))
        while len(rest) > 1:
            common = _gcd(rest, common)
            if len(common) == 1:
                return UnitAnswer(Status.FAILS, {"kind": "radical_witness",
                                                 "power": max(dp)})
            rest = _divmod(rest, common)[0]
        return UnitAnswer(Status.HOLDS, {"power": max(dp)})

    def comaximal(self, a: dict, b: dict) -> UnitAnswer:
        if not a or not b:
            c = self._normalize(a or b)
            return UnitAnswer(Status.HOLDS if c and max(c) == 0 else Status.FAILS)
        g = _gcd(_udense(self._normalize(a)), _udense(self._normalize(b)))
        if len(g) <= 1:
            return UnitAnswer(Status.HOLDS)
        return UnitAnswer(Status.FAILS, {"kind": "common_factor_degree",
                                         "degree": len(g) - 1})


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

    def __init__(self, ctx: ScalarContext, n: int, epsilon: Scalar,
                 gen: str = "s"):
        if n < 1:
            raise ValueError("the group order must be positive")
        if root_of_unity_order(epsilon) != n:
            raise ValueError("epsilon must be a primitive root of unity of order n")
        super().__init__(ctx, gen)
        self.n = self.period = n
        self.eps = epsilon

    @cached_property
    def _eps_pows(self) -> list[Scalar]:
        """eps^j for j = 0..n-1, built on first use (a unit tested, or an
        automorphism validated by a walk): a document that only declares a
        large group pays nothing for it."""
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
        # a walk over the powers of eps; over F_p with n > sqrt(p), discrete
        # logs to the least primitive root g (about sqrt(p) steps) instead:
        # eps = g^(d*u) and c = g^(d*f), d = (p - 1)/n, give j = f/u mod n
        p, n = self.ctx.characteristic, self.n
        if not (p and n > math.isqrt(p)):
            for j, e in enumerate(self._eps_pows):
                if c == e:
                    return j
        elif c and c.is_constant() and pow(x := c.constant_value(), n, p) == 1:
            d = (p - 1) // n
            u = _dlog(self.eps.constant_value(), p) // d
            return _dlog(x, p) // d * pow(u, -1, n) % n
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
                return UnitAnswer(Status.FAILS, cert)
        return UnitAnswer(Status.HOLDS, build=lambda: self._inverse(chars))

    def _inverse(self, chars: list[Scalar]) -> dict:
        """The unit whose characters are the inverses of ``chars``."""
        inv: dict = {}
        for l, val in enumerate(chars):
            _eadd_into(inv, self._character_unit(l), val.inv())
        return inv

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

    def radical_contains(self, d: dict, u: dict) -> UnitAnswer:
        return self._witness(d, u, False, {"power": 1})

    def comaximal(self, a: dict, b: dict) -> UnitAnswer:
        return self._witness(a, b, True, None)

    def _witness(self, a: dict, b: dict, b_zero: bool, cert) -> UnitAnswer:
        """Fails at the first character zero on a whose zero on b is ``b_zero``."""
        for l in range(self.n):
            if (self.character(l, a).is_zero()
                    and self.character(l, b).is_zero() is b_zero):
                return UnitAnswer(Status.FAILS, {"kind": "character_witness",
                                                 "character": l})
        return UnitAnswer(Status.HOLDS, cert)

    def first_nonunit_in_pencil(self, p: dict, b: dict,
                                ratio: Scalar | None = None,
                                watch: dict | None = None) -> int | None:
        # a non-unit exactly where a character vanishes on it, and outside
        # the radical of watch where one that does not vanish on watch does,
        # read only at a line with a root (or a ValueError)
        lead, const = _pencil_line(self, p, b, ratio)
        lines = [[self.character(l, const), self.character(l, lead)]
                 for l in range(self.n)]
        least = _least_roots(0, ratio)  # one order and discrete log of ratio
        if watch is not None:
            lines = [line for l, line in enumerate(lines) if _has_root(least, line)
                     and not self.character(l, watch).is_zero()]
        return least(lines)


def _has_root(least, line: list[Scalar]) -> bool:
    """Whether ``least`` (of ``_least_roots``) finds a root, or raises."""
    try:
        return least([line]) is not None
    except ValueError:
        return True


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentAlgebra(_Univariate):
    """K[t, t^-1]; units are the nonzero monomials."""

    kind = "laurent"

    def validate_auto(self, auto) -> None:
        if not isinstance(auto, DiagonalAuto) or len(auto.scales) != 1:
            raise ValueError("laurent automorphisms here scale the variable")
        if auto.scales[0].is_zero():
            raise ValueError("scale must be invertible")

    def auto_order(self, auto) -> int | None:
        return root_of_unity_order(auto.scales[0])

    def is_unit(self, a: dict) -> UnitAnswer:
        if not a:
            return UnitAnswer(Status.FAILS, {"kind": "zero"})
        if len(a) == 1:
            ((i, s),) = a.items()
            return UnitAnswer(Status.HOLDS, build=lambda: {-i: s.inv()})
        lo, hi = min(a), max(a)
        return UnitAnswer(Status.FAILS,
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

    def _action_coordinate(self, alpha, u: dict):
        # u over its lowest monomial is a polynomial u0 with u0(0) != 0
        return self._normalize(u), alpha.scales[0], None


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class PolyAlgebra(_Univariate):
    """K[t] with affine automorphisms t -> a*t + b: a shift when a = 1, else
    the scaling s -> a*s in s = t - t0 about the fixed point t0 = b/(1 - a).
    """

    kind = "poly"

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
        powers = auto._pows
        while len(powers) <= max(elem):
            powers.append(self.mul(powers[-1], {1: auto.a, 0: auto.b}))
        out: dict = {}
        for i, s in elem.items():
            _eadd_into(out, powers[i], s)
        return out

    def compose(self, f, g):
        # (f.g)(t) = f applied to the element g(t) = a_g*t + b_g
        return AffineAuto(f.a * g.a, g.a * f.b + g.b)

    def invert(self, auto):
        ainv = auto.a.inv()
        return AffineAuto(ainv, -auto.b * ainv)

    def auto_order(self, auto) -> int | None:
        # a scaling has the order of a; a nonzero shift has order p, or none
        if auto.a != self.ctx.one:
            return root_of_unity_order(auto.a)
        return 1 if auto.b.is_zero() else self.ctx.characteristic or None

    def eigenvalue(self, auto, key) -> Scalar | None:
        if auto.b.is_zero():
            return auto.a ** key
        return self.ctx.one if key == 0 else None

    def is_diagonal(self, auto) -> bool:
        return auto.b.is_zero()

    def is_unit(self, a: dict) -> UnitAnswer:
        if not a:
            return UnitAnswer(Status.FAILS, {"kind": "zero"})
        if set(a) == {0}:
            s = a[0]
            return UnitAnswer(Status.HOLDS, build=lambda: {0: s.inv()})
        return UnitAnswer(Status.FAILS,
                          {"kind": "positive_degree", "degree": max(a)})

    def alpha_simple(self, autos: list) -> Verdict:
        one = self.ctx.one
        shifts = [h.b for h in autos if h.a == one and not h.b.is_zero()]
        points = [h.b / (one - h.a) for h in autos if h.a != one]
        if not shifts and all(c == points[0] for c in points):
            if not points:
                return fails("every automorphism is the identity",
                             certificate={"kind": "stable_ideal",
                                          "generator": self.gen})
            line = self.sub({1: one}, self.from_scalar(points[0]))
            return fails("every automorphism fixes the same point",
                         certificate={"kind": "stable_ideal",
                                      "generator": self.render(line)})
        if self.ctx.characteristic == 0:
            # a shift, or the commutator of scalings about two points
            return holds("the group generated contains a nonzero shift, "
                         "which fixes no proper ideal in characteristic 0")
        if points:
            return inconclusive("the automorphisms share no fixed point and no "
                                "shift was derived from their compositions")
        # characteristic p: the product over the F_p-span of the shifts,
        # built one offset at a time (Ore's subspace polynomial): f is
        # additive, so adding a b outside the span of its roots
        # (f(b) != 0) multiplies out to prod_k (f - k*f(b)), which is
        # f^p - f(b)^(p-1)*f with f^p taken termwise
        p = self.ctx.characteristic
        f = {1: one}
        for b in shifts:
            fb = self.ctx.zero
            for k, c in f.items():
                fb = fb + c * b ** k
            if not fb.is_zero():
                f = self.sub({k * p: c ** p for k, c in f.items()},
                             self.smul(fb ** (p - 1), f))
        return fails(
            "the shifts only translate by the finite span of their offsets",
            certificate={"kind": "stable_ideal", "generator": self.render(f)})

    def _action_coordinate(self, alpha, u: dict):
        one = self.ctx.one
        if alpha.a == one:
            return u, None, alpha.b
        u0 = self.apply(AffineAuto(one, alpha.b / (one - alpha.a)), u)
        return u0, alpha.a, None

    def split_nondiagonal(self, alpha, v: dict, rho: Scalar):
        """(u, obstruction, True) for v = u - rho*alpha(u), alpha: t -> a*t + b
        with b != 0; u has no term t^k with rho*a^k = 1.

        1 - rho*alpha is upper triangular on the t^k with diagonal 1 - rho*a^k,
        so the top term t^d of the remainder is cancelled by t^d, or for a
        shift with rho = 1 by t^(d+1), whose image leads with -(d+1)*b*t^d.
        A zero lead is the obstruction: for a != 1 a resonant s^d in
        s = t - b/(1 - a), which alpha scales; for a shift p | d + 1, as the
        image has no term t^i*(t^p - b^(p-1)*t)^j with i = p - 1.  A lead of
        two or more terms goes into den, not into rest (Bareiss): O(n^2)
        scalar products, each u[k] one division by at most n + 1 leads.

        >>> ctx = ScalarContext()
        >>> A, one = PolyAlgebra(ctx), ctx.one
        >>> alpha = AffineAuto(ctx.int_(2), one)
        >>> A.render(A.split_nondiagonal(alpha, {3: one, 1: one}, ctx.int_(3))[0])
        '-1/23*t^3 + 36/253*t^2 - 487/1265*t + 543/1265'
        >>> A.split_nondiagonal(alpha, {2: one, 0: one}, one / ctx.int_(4))[1]
        {'kind': 'resonant_monomial', 'monomial': '(t + 1)^2', 'scale': '1'}
        """
        one = self.ctx.one
        u, rest, den = {}, dict(v), one
        while rest:
            d = max(rest)
            k = d + 1 if alpha.a == one == rho else d
            image = _eadd_into({k: one}, self.apply(alpha, {k: one}), -rho)
            if d not in image and alpha.a == one:
                return None, {"kind": "no_polynomial_splitting", "degree": d}, True
            if d not in image:  # rho*a^d = 1
                line = self.sub({1: one}, self.from_scalar(alpha.b / (one - alpha.a)))
                mono = f"({self.render(line)})" + (f"^{d}" if d > 1 else "")
                return None, {"kind": "resonant_monomial", "monomial":
                              mono if d else "1", "scale": str(one)}, True
            if (lead := image[d]).as_monomial():
                c = rest[d] / lead  # a unit of the Laurent normal form
            else:
                rest, c, den = self.smul(lead, rest), rest[d], den * lead
            u[k] = c / den
            rest = _eadd_into(rest, image, -c)
        return u, None, True


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

    def __init__(self, ctx: ScalarContext, d: Scalar, gen: str = "s"):
        if d.is_zero():
            raise ValueError("the quadratic defect must be nonzero")
        super().__init__(ctx, gen)
        self.d = d

    def mul(self, a: dict, b: dict, out: dict | None = None) -> dict:
        zero = self.ctx.zero
        a0, a1 = a.get(0, zero), a.get(1, zero)
        b0, b1 = b.get(0, zero), b.get(1, zero)
        c0 = a0 * b0 + self.d * a1 * b1
        c1 = a0 * b1 + a1 * b0
        if out is not None:
            return _eadd_into(out, {0: c0, 1: c1})
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
            return UnitAnswer(Status.FAILS, {"kind": "zero"})
        n, conj = self.norm(a), self.conjugation()
        if n.is_zero():
            cofactor = self.render(self.apply(conj, a))
            return UnitAnswer(Status.FAILS, {"kind": "zero_divisor",
                                             "cofactor": cofactor})
        a = dict(a)  # the inverse is built from this copy on first read
        return UnitAnswer(Status.HOLDS,
                          build=lambda: self.smul(n.inv(), self.apply(conj, a)))

    is_regular = is_unit

    def is_domain(self) -> bool | None:
        square, _root = self.square_root_of_d()
        if square is None:
            return None
        return not square

    def square_root_of_d(self) -> tuple[bool | None, Scalar | None]:
        """(is_square, explicit root): exact where decidable, else (None, None)."""
        ctx = self.ctx
        f = self.d.as_fraction()
        if f is not None and ctx.characteristic == 0:
            # a root in Q(zeta_N) needs each prime of the squarefree part m of
            # f to divide 2N: only those are divided out, so no f is factored
            m, rest = 1 if f > 0 else -1, abs(f.numerator * f.denominator)
            for p in factor_int(2 * ctx.cyclotomic_order):
                while rest % p == 0:
                    rest, m = rest // p, m // p if m % p == 0 else m * p
            if math.isqrt(rest) ** 2 != rest:
                return False, None
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
            root = _sqrt_mod(f.numerator, ctx.characteristic)
            return (False, None) if root is None else (True, ctx.int_(root))
        # a parameter monomial with an odd exponent is never a square
        mono = self.d.as_monomial()
        if mono is not None and any(e % 2 for e in mono[1]):
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
        if root is None:
            return fails("the defect is a square in the cyclotomic field and "
                         "every automorphism fixes both split factors")
        # (s - r)(s + r) = d - r^2 = 0, and every automorphism here fixes s
        return fails("the defect is a square, so the generator minus its root "
                     "spans a proper stable ideal",
                     certificate={"kind": "stable_ideal", "generator":
                                  self.render({0: -root, 1: self.ctx.one})})

    def radical_contains(self, d: dict, u: dict) -> UnitAnswer:
        if self.is_unit(d).status is Status.HOLDS:
            return UnitAnswer(Status.HOLDS, {"power": 0})
        if not u:
            return UnitAnswer(Status.HOLDS, {"power": 1})
        if not d:
            if self.is_zero(self.mul(u, u)):  # nilpotent in dimension 2
                return UnitAnswer(Status.HOLDS, {"power": 2})
            return UnitAnswer(Status.FAILS)
        # d is a nonzero zero divisor, so conj(d) spans the annihilator of
        # the ideal; u is in the radical exactly when conj(d)*u = 0
        conj = self.apply(self.conjugation(), d)
        if self.is_zero(self.mul(conj, u)):
            return UnitAnswer(Status.HOLDS, {"power": 1})
        return UnitAnswer(Status.FAILS, {"kind": "zero_divisor",
                                         "cofactor": self.render(conj)})

    def comaximal(self, a: dict, b: dict) -> UnitAnswer:
        if Status.HOLDS in (self.is_unit(a).status, self.is_unit(b).status):
            return UnitAnswer(Status.HOLDS)
        if not a or not b:
            return UnitAnswer(Status.FAILS)
        if self.ctx.characteristic != 2 and self.is_zero(self.mul(a, b)):
            return UnitAnswer(Status.HOLDS)
        conj = self.apply(self.conjugation(), a)
        return UnitAnswer(Status.FAILS, {"kind": "zero_divisor",
                                         "cofactor": self.render(conj)})

    def first_nonunit_in_pencil(self, p: dict, b: dict,
                                ratio: Scalar | None = None,
                                watch: dict | None = None) -> int | None:
        lead, const = _pencil_line(self, p, b, ratio)
        if watch is not None and self.norm(watch).is_zero():
            if self.is_zero(self.mul(watch, watch)):
                return None  # A[1/u] = 0
            # A[1/u] is the field uA, a line, where an element is a non-unit
            # exactly when its product with u vanishes
            k, zero = next(iter(watch)), self.ctx.zero
            return least_integer_root([[self.mul(const, watch).get(k, zero),
                                        self.mul(lead, watch).get(k, zero)]],
                                      0, ratio)
        # no u, or a unit u, so A[1/u] = A: lead*X + const is a non-unit
        # exactly where its norm, quadratic in X, vanishes
        c0, c2 = self.norm(const), self.norm(lead)
        c1 = self.norm(self.add(lead, const)) - c0 - c2
        return least_integer_root([[c0, c1, c2]], 0, ratio)


def _fraction_sqrt(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    n = math.isqrt(f.numerator)
    d = math.isqrt(f.denominator)
    if n * n == f.numerator and d * d == f.denominator:
        return Fraction(n, d)
    return None


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
    family other than Poly.  Every affine map t -> a*t + b of K[t] costs
    O(n^2) scalar products for v of degree n, each coefficient of u one
    division by at most n + 1 leads.
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
