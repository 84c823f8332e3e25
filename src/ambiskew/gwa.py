"""Generalized Weyl algebras T(A, alpha, u).

T is generated over A by X and Y subject to XY = u, YX = alpha(u),
Xa = beta(a)X and Ya = alpha(a)Y, where beta = gamma*alpha^{-1} and u is a
gamma-normal element fixed by gamma.  Every element has a unique normal
form a + sum b_i*Y^i + sum c_j*X^j with coefficients on the left.
Multiplication annihilates opposite generators one pair at a time, each
annihilation emitting a twist of u; the closed forms
X^m Y^m = prod alpha^{-i}(u) and Y^m X^m = prod alpha^{i}(u) fall out.

GwaRing derives from ``rings.ExtensionAlgebra``, which owns the flat
element layout, generators, automorphisms (NestedAuto) and unit test it
shares with AmbiskewRing; GwaRing declares the degrees (0,) of A, (1,) of
Y and (-1,) of X and adds its multiplication and rendering.

The quotient of a conformal quadruple by its Casimir ideal zR is such an
algebra with the splitting element as u, and simplicity of T is a
four-condition criterion inside A.

>>> from .algebras import AffineAuto, PolyAlgebra
>>> from .scalars import ScalarContext
>>> ctx = ScalarContext()
>>> A = PolyAlgebra(ctx)
>>> T = GwaRing(A, AffineAuto(ctx.one, -ctx.one), A.gen_elem("t"))
>>> X, Y = T.gen_elem("X"), T.gen_elem("Y")
>>> T.render(T.mul(X, Y))
't'
>>> T.render(T.mul(Y, X))
't - 1'
>>> T.render(T.sub(T.mul(X, Y), T.mul(Y, X)))
'1'
>>> gwa_simple(T).status.value
'holds'
"""

from __future__ import annotations

from . import bounds
from .algebras import UnitAnswer, _kept_power
from .rings import ExtensionAlgebra, _ungroup
from .scalars import Scalar
from .verdict import (Status, Verdict, bounded_scan, conjunction, fails, holds,
                      inconclusive)

__all__ = ["GwaRing", "gwa_from_ambiskew", "gwa_simple"]


class GwaRing(ExtensionAlgebra):
    """T(A, alpha, u) with an optional gamma twist on the X side.

    Omitting gamma gives the classical relations Xa = alpha^{-1}(a)X.
    The degree (d,) holds the coefficient of Y^d for d > 0 and that of
    X^{-d} for d < 0.
    """

    kind = "gwa"
    normal_name = "u"
    origin, y_deg, x_deg = (0,), (1,), (-1,)

    def __init__(self, base, alpha, u: dict, gamma=None,
                 y_name: str = "Y", x_name: str = "X"):
        if gamma is not None:
            base.validate_auto(gamma)
        super().__init__(base, alpha, gamma, u, y_name, x_name)
        for name in base.gens():
            g = base.gen_elem(name)
            if not base.eq(base.mul(u, g),
                           base.mul(base.apply(self.gamma, g), u)):
                raise ValueError(f"u is not gamma-normal against {name}")
        self._crosses: dict[int, object] = {}

    # multiplication ---------------------------------------------------------

    def _cross(self, d: int):
        """The map with Z_d * a = cross(a) * Z_d: alpha^d, or beta^-d for
        d < 0."""
        if d not in self._crosses:
            self._crosses[d] = self.base.auto_power(
                self.alpha if d >= 0 else self.beta, abs(d))
        return self._crosses[d]

    def mul(self, f: dict, g: dict, out: dict | None = None) -> dict:
        base = self.base
        groups: dict = {}
        right = self.grouped(g)
        twists: dict = {}  # j -> cross(j)(u), kept for this product
        for (d1,), b in self.grouped(f).items():
            for (d2,), c in right.items():
                coeff, factor, i, k = b, base.apply(self._cross(d1), c), d1, d2
                # X^i Y^k collapses one pair at a time, emitting a twist of u
                while i * k < 0 and coeff:
                    coeff = base.mul(coeff, factor)
                    j, step = (i, 1) if i > 0 else (i + 1, -1)
                    if j not in twists:
                        twists[j] = base.apply(self._cross(j), self.u)
                    factor = twists[j]
                    i, k = i - step, k + step
                base.mul(coeff, factor, groups.setdefault((d1 + d2,), {}))
        return _ungroup(groups, out)

    # automorphisms ------------------------------------------------------------

    def _weight(self, auto, deg: tuple[int, ...]) -> Scalar:
        d, = deg
        name, scale = ("y", auto.lam_y) if d >= 0 else ("x", auto.lam_x)
        return _kept_power(auto._pows, (name, abs(d)), scale, abs(d))

    # decision hooks -------------------------------------------------------------

    def is_domain(self) -> bool | None:
        return None  # X is a unit whenever u is: nonzero degree stays open

    # rendering ----------------------------------------------------------------

    def render(self, f: dict) -> str:
        if not f:
            return "0"
        parts = []
        for (d,), c in sorted(self.grouped(f).items()):
            if d == 0:
                parts.append(self.base.render(c))
                continue
            name = self.y_name if d > 0 else self.x_name
            power = name if abs(d) == 1 else f"{name}^{abs(d)}"
            if self.base.eq(c, self.base.one):
                parts.append(power)
            else:
                parts.append(f"({self.base.render(c)})*{power}")
        return " + ".join(parts)


def gwa_from_ambiskew(ring) -> GwaRing:
    """The quotient of a conformal quadruple by the ideal of its Casimir
    element: XY becomes the splitting element u, YX becomes alpha(u).

    >>> from .algebras import FieldAlgebra
    >>> from .rings import AmbiskewRing
    >>> from .scalars import ScalarContext
    >>> ctx = ScalarContext(parameters=("q",))
    >>> field = FieldAlgebra(ctx)
    >>> R = AmbiskewRing(field, field.identity_auto(), field.one,
    ...                  ctx.param("q"))
    >>> T = gwa_from_ambiskew(R)
    >>> T.base.render(T.u)
    '(-1)/(q - 1)'
    """
    conf = ring.conformality()
    if conf.status is Status.FAILS:
        raise ValueError("the quadruple is singular: the Casimir quotient "
                         "needs a splitting element")
    if conf.status is not Status.HOLDS:
        raise ValueError("whether a splitting element exists was not decided")
    return GwaRing(ring.base, ring.alpha, conf.u, gamma=ring.gamma)


# ---------------------------------------------------------------------------
# simplicity
# ---------------------------------------------------------------------------


def gwa_simple(gwa: GwaRing) -> Verdict:
    """Four-condition simplicity criterion for T(A, alpha, u).

    T is simple exactly when A is alpha-simple, no positive power of alpha
    is inner, u is regular, and uA + alpha^m(u)A = A for every m >= 1.
    Inner powers are decided through the order of alpha (on a commutative
    base the only inner automorphism is the identity); the comaximality
    quantifier falls to a zero or unit u, else to the family's resultant
    (``coprime_to_shifts``), else to a walk over one period of alpha or
    to ``bounds.M_MAX``.
    """
    base = gwa.base
    return conjunction([
        ("alpha_simple", base.alpha_simple([gwa.alpha])),
        ("outer_powers", base.no_inner_power(gwa.alpha, "alpha")),
        ("regular", _regular_u(base, gwa.u)),
        ("comaximal", _comaximal_all_m(gwa)),
    ], theorem="gwa")


def _regular_u(base, u: dict) -> Verdict:
    answer = base.is_regular(u)
    if answer.status is Status.HOLDS:
        return holds("u is regular")
    if answer.status is Status.FAILS:
        reason = "u is zero" if base.is_zero(u) else "u is a zero divisor"
        return fails(reason, certificate=answer.certificate)
    return inconclusive("regularity of u was not decided")


def _comaximal_all_m(gwa: GwaRing) -> Verdict:
    base = gwa.base
    if base.is_zero(gwa.u):
        return fails("uA + alpha^m(u)A is the zero ideal",
                     certificate={"kind": "comaximal_witness", "m": 1})
    if base.is_unit(gwa.u).status is Status.HOLDS:
        return holds("u is a unit, so uA + alpha^m(u)A = A for every m",
                     certificate={"kind": "unit_u"})
    try:
        m, reason, certificate = base.coprime_to_shifts(gwa.alpha, gwa.u)
    except ValueError as exc:
        # alpha^k(u) = u for alpha of order k, so a walk to k fails there
        upto = base.auto_order(gwa.alpha) or bounds.M_MAX
        return bounded_scan(
            upto, lambda m: _comaximal_at(gwa, m), _comaximal_fails,
            inconclusive(f"{exc}; comaximality verified through m = {upto}",
                         certificate={"kind": "bounded_scan", "m_max": upto}))
    if m is None:
        return holds(reason, certificate=certificate)
    return _comaximal_fails(m, _comaximal_at(gwa, m))


def _comaximal_at(gwa: GwaRing, m: int) -> UnitAnswer:
    return gwa.base.comaximal(gwa.u, gwa.base.apply(gwa._cross(m), gwa.u))


def _comaximal_fails(m: int, answer: UnitAnswer) -> Verdict:
    """The verdict of ``answer``, comaximality replayed at the least
    failing m that the resultant or the walk found."""
    if answer.status is Status.HOLDS:
        raise AssertionError(f"the resultant disagrees with a direct "
                             f"comaximality check at m={m}")
    if answer.status is Status.FAILS:
        return fails(f"uA + alpha^{m}(u)A is a proper ideal",
                     certificate={"kind": "comaximal_witness", "m": m,
                                  "detail": answer.certificate})
    return inconclusive(f"comaximality of u and alpha^{m}(u) was not decided")
