"""Ambiskew polynomial rings over the catalog coefficient algebras.

Given a coefficient algebra A, an automorphism alpha, a normal element v
and a nonzero scalar rho, the ring adjoins two generators y and x subject
to

    y*a = alpha(a)*y,   x*a = beta(a)*x,   x*y = rho*y*x + v,

where gamma is the automorphism induced by v through v*a = gamma(a)*v and
beta = gamma o alpha^{-1}.  The construction demands that alpha and gamma
commute and that gamma fixes v; violations are reported by name.

Elements are kept in the normal form sum x^i * a_ij * y^j.  The single
rewrite behind multiplication is y*x -> rho^{-1}*(x*y - v); repeated
y-powers are folded through the closed form for y^t * x, which brings in
the elements v_m defined by v_0 = 0 and v_{m+1} = v + rho*alpha(v_m).
``v_m`` keeps each v_m, made by that step from a kept v_{m-1} or else by
squaring the triple (v, alpha, rho), as v_{a+b} = v_a + rho^a*alpha^a(v_b).
A product hands each coefficient product the sum of its degree, into
which ``mul`` adds it in place, and flattens the result once.

The ring implements the BaseAlgebra protocol of the coefficient families,
so a constructed ring can serve as the coefficient algebra of the next one.
``ExtensionAlgebra`` holds what it shares with the generalized Weyl
algebras of gwa.py, which adjoin Y and X the same way: an element stored
flat, as a sparse dict from (degree tuple, basis key of A) to scalars with
x^i * a * y^j in degree (i, j), and the hooks that read that layout.

>>> from .scalars import ScalarContext
>>> from .algebras import PolyAlgebra, AffineAuto
>>> ctx = ScalarContext()
>>> A = PolyAlgebra(ctx)
>>> shift = AffineAuto(ctx.one, ctx.one)
>>> weyl = AmbiskewRing(A, shift, A.one, ctx.one)
>>> weyl.render(weyl.mul(weyl.gen_elem("x"), weyl.gen_elem("y")))
'x*y'
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebras import (
    NO_EIGEN_FRAME,
    BaseAlgebra,
    EigenFrame,
    NestedAuto,
    UnitAnswer,
    _eadd_into,
    _kept_power,
    _render_terms,
    scalar_ratio,
    solve_splitting_ex,
)
from . import bounds
from .scalars import Scalar, _power, root_of_unity_order
from .verdict import Status, Verdict


def _ungroup(groups: dict, out: dict | None = None) -> dict:
    """The flat element of a map from degrees, added into ``out`` if given."""
    flat = {deg + (bk,): s for deg, c in groups.items() for bk, s in c.items()}
    return flat if out is None else _eadd_into(out, flat)


class Conformality(NamedTuple):
    """Whether v splits as u - rho*alpha(u) for an admissible u.

    HOLDS carries the splitting element and the Casimir element
    z = x*y - u; FAILS means no admissible u exists (the quadruple is
    singular) and detail names the obstruction; INCONCLUSIVE marks an
    honest refusal to decide.
    """

    status: Status
    u: dict | None
    casimir: dict | None
    detail: dict | None


class ExtensionAlgebra(BaseAlgebra):
    """What rings built over a coefficient algebra ``base`` by adjoining y
    and x share.  An element is stored flat, as a sparse dict from a degree
    tuple plus a basis key of ``base`` to scalars; a subclass declares the
    degrees ``origin`` of ``base``, ``y_deg`` of y and ``x_deg`` of x, and
    ``_weight``, the scale a NestedAuto (a coefficient part plus scales for
    y and x) puts on a degree.  ``normal_name`` names the attribute holding
    the normal element, which gamma must fix and every automorphism must
    rescale.  A gamma of None is the identity: nothing is checked or
    composed for it, and beta is alpha^-1."""

    commutative = False
    normal_name = "v"

    def __init__(self, base, alpha, gamma, normal: dict, y_name: str,
                 x_name: str):
        base.validate_auto(alpha)
        if y_name == x_name or y_name in base.gens() or x_name in base.gens():
            raise ValueError("the names of y and x must be distinct from each "
                             "other and from the coefficient generators")
        if gamma is not None:
            if not base.auto_equal(base.compose(alpha, gamma),
                                   base.compose(gamma, alpha)):
                raise ValueError("alpha and gamma must commute")
            if not base.eq(base.apply(gamma, normal), normal):
                raise ValueError(f"gamma must fix {self.normal_name}")
        self.base = base
        self.ctx = base.ctx
        self.alpha = alpha
        self.alpha_inv = base.invert(alpha)
        self.gamma = base.identity_auto() if gamma is None else gamma
        self.beta = (self.alpha_inv if gamma is None
                     else base.compose(gamma, self.alpha_inv))
        setattr(self, self.normal_name, dict(normal))
        self.y_name = y_name
        self.x_name = x_name

    # elements -------------------------------------------------------------

    def from_scalar(self, s: Scalar) -> dict:
        return self.embed(self.base.from_scalar(s))

    def embed(self, c: dict) -> dict:
        """The coefficient element c as a ring element."""
        return self._flat(self.origin, c)

    def _flat(self, deg: tuple[int, ...], c: dict) -> dict:
        return {deg + (bk,): s for bk, s in c.items()}

    def grouped(self, a: dict) -> dict[tuple[int, ...], dict]:
        """The element as a map from degrees to coefficient elements."""
        out: dict[tuple[int, ...], dict] = {}
        for key, s in a.items():
            out.setdefault(key[:-1], {})[key[-1]] = s
        return out

    def base_part(self, a: dict) -> dict:
        """The coefficient of degree zero, as a coefficient element."""
        return {key[-1]: s for key, s in a.items() if key[:-1] == self.origin}

    def _in_base(self, a: dict) -> bool:
        """Whether every term of a has degree zero."""
        return all(key[:-1] == self.origin for key in a)

    def _key_order(self, key):
        return key[:-1] + (self.base._key_order(key[-1]),)

    def gens(self) -> tuple[str, ...]:
        return self.base.gens() + (self.y_name, self.x_name)

    def gen_elem(self, name: str) -> dict:
        if name == self.y_name:
            return self._flat(self.y_deg, self.base.one)
        if name == self.x_name:
            return self._flat(self.x_deg, self.base.one)
        if name in self.base.gens():
            return self.embed(self.base.gen_elem(name))
        raise ValueError(f"unknown generator: {name!r}")

    # automorphisms ----------------------------------------------------------

    def _weight(self, auto, deg: tuple[int, ...]) -> Scalar:
        """The scale that the NestedAuto ``auto`` puts on degree ``deg``,
        from the powers of its scales kept in ``auto._pows``."""
        raise NotImplementedError

    def apply(self, auto, a: dict) -> dict:
        base = self.base
        return _ungroup({deg: base.smul(self._weight(auto, deg),
                                        base.apply(auto.base, c))
                         for deg, c in self.grouped(a).items()})

    def eigenvalue(self, auto, key) -> Scalar | None:
        lam = self.base.eigenvalue(auto.base, key[-1])
        if lam is None:
            return None
        return lam * self._weight(auto, key[:-1])

    def identity_auto(self) -> NestedAuto:
        return NestedAuto(self.base.identity_auto(), self.ctx.one, self.ctx.one)

    def validate_auto(self, auto) -> None:
        if not isinstance(auto, NestedAuto):
            raise ValueError("ring automorphisms pair a coefficient "
                             "automorphism with scales for y and x")
        self.base.validate_auto(auto.base)
        if auto.lam_y.is_zero() or auto.lam_x.is_zero():
            raise ValueError("the scales of y and x must be nonzero")
        b = self.base
        if not b.auto_equal(b.compose(auto.base, self.alpha),
                            b.compose(self.alpha, auto.base)):
            raise ValueError("the coefficient part must commute with alpha")
        if not b.auto_equal(b.compose(auto.base, self.gamma),
                            b.compose(self.gamma, auto.base)):
            raise ValueError("the coefficient part must commute with gamma")
        normal = getattr(self, self.normal_name)
        if not b.eq(b.apply(auto.base, normal),
                    b.smul(auto.lam_y * auto.lam_x, normal)):
            raise ValueError(f"the coefficient part must scale {self.normal_name} "
                             "by the product of the scales of y and x")

    def compose(self, f, g):
        return NestedAuto(self.base.compose(f.base, g.base),
                          f.lam_y * g.lam_y, f.lam_x * g.lam_x)

    def invert(self, auto):
        return NestedAuto(self.base.invert(auto.base),
                          auto.lam_y.inv(), auto.lam_x.inv())

    def auto_order(self, auto) -> int | None:
        k0 = self.base.auto_order(auto.base)
        ky = root_of_unity_order(auto.lam_y)
        kx = root_of_unity_order(auto.lam_x)
        if k0 is None or ky is None or kx is None:
            return None
        return math.lcm(k0, ky, kx)

    def is_diagonal(self, auto) -> bool:
        return self.base.is_diagonal(auto.base)

    def auto_from_images(self, images: dict[str, dict]) -> NestedAuto:
        inner = {}
        for g, img in images.items():
            if g in self.base.gens():
                inner[g] = self.base_part(img)
                if not self.eq(self.embed(inner[g]), img):
                    raise ValueError(f"the image of {g} must lie in the "
                                     "coefficient algebra")
        return NestedAuto(self.base.auto_from_images(inner),
                          self._scale_of(images, self.y_name),
                          self._scale_of(images, self.x_name))

    def normalizing_auto(self, v: dict):
        # each generator must commute past v up to one scalar, which then
        # defines a diagonal gamma
        if not v:
            return self.identity_auto()
        images = {}
        for name in self.gens():
            g = self.gen_elem(name)
            lam = scalar_ratio(self, self.mul(v, g), self.mul(g, v))
            if lam is None or lam.is_zero():
                return None
            images[name] = self.smul(lam, g)
        try:
            auto = self.auto_from_images(images)
            self.validate_auto(auto)
        except ValueError:
            return None
        return auto

    # decision hooks ---------------------------------------------------------

    def is_unit(self, a: dict) -> UnitAnswer:
        if not a:
            return UnitAnswer(Status.FAILS, {"kind": "zero"})
        if not self._in_base(a):
            if self.is_domain():
                return UnitAnswer(Status.FAILS,
                                  {"kind": "nonconstant_in_domain"})
            return UnitAnswer(Status.INCONCLUSIVE)
        ans = self.base.is_unit(self.base_part(a))
        if ans.status is Status.HOLDS:
            return UnitAnswer(Status.HOLDS, ans.certificate,
                              lambda: self.embed(ans.inverse))
        return ans


class AmbiskewRing(ExtensionAlgebra):
    """R(A, alpha, v, rho) in the shared coefficient-algebra interface;
    x^i * a * y^j has degree (i, j)."""

    kind = "ambiskew"
    origin, y_deg, x_deg = (0, 0), (0, 1), (1, 0)

    def __init__(self, base, alpha, v: dict, rho: Scalar,
                 y_name: str = "y", x_name: str = "x"):
        if rho.is_zero():
            raise ValueError("the twist rho must be a nonzero scalar")
        # over a commutative algebra gamma is the identity, passed as None
        gamma = None if base.commutative else base.normalizing_auto(v)
        if gamma is None and not base.commutative:
            raise ValueError("v is not normal: no diagonal automorphism gamma "
                             "satisfies v*a = gamma(a)*v")
        super().__init__(base, alpha, gamma, v, y_name, x_name)
        self.beta_inv = alpha if gamma is None else base.invert(self.beta)
        self.rho = rho
        self._vm: dict[int, dict] = {0: {}}
        self._conf: Conformality | None = None

    # multiplication ------------------------------------------------------

    def v_m(self, m: int) -> dict:
        """v_0 = 0, v_{m+1} = v + rho*alpha(v_m), copied from the kept ``_v(m)``:
        one step from a known v_{m-1}, else the first entry of (v, alpha, rho)^m
        under (f*g) = (f0 + f2*f1(g0), f1 o g1, f2*g2)."""
        return dict(self._v(m))

    def _v(self, m: int) -> dict:
        if m not in self._vm:
            b = self.base
            if m - 1 in self._vm:
                step = b.smul(self.rho, b.apply(self.alpha, self._vm[m - 1]))
                self._vm[m] = b.add(self.v, step)
            else:
                def mul(f, g):
                    return (b.add(f[0], b.smul(f[2], b.apply(f[1], g[0]))),
                            b.compose(f[1], g[1]), f[2] * g[2])
                self._vm[m] = _power(mul, (self.v, self.alpha, self.rho), m)[0]
        return self._vm[m]

    def _times_x(self, groups: dict, rinv: list, wv: list) -> dict:
        # (x^s c y^t) * x = rho^-t * x^{s+1} beta^{-1}(c) y^t + x^s c wv[t] y^{t-1}
        # with wv[t] = -rho^-t * v_t and rinv[t] = rho^-t (None at t = 0: no
        # scale), kept for one product and grown here as t rises
        base = self.base
        out: dict = {}
        for (s, t), c in groups.items():
            while len(rinv) <= t:
                rinv.append(rinv[1] * rinv[-1] if len(rinv) > 1 else self.rho.inv())
                wv.append((vt := self._v(len(wv))) and base.smul(-rinv[-1], vt))
            _eadd_into(out.setdefault((s + 1, t), {}),
                       base.apply(self.beta_inv, c), rinv[t])
            if wv[t]:
                base.mul(c, wv[t], out.setdefault((s, t - 1), {}))
        return {deg: c for deg, c in out.items() if c}

    def mul(self, f: dict, g: dict, out: dict | None = None) -> dict:
        # f * (x^k b y^l) = (f * x^k) * b * y^l, with f * x^k built one x
        # at a time and (x^s c y^t) * b * y^l = x^s (c * alpha^t(b)) y^(t+l)
        base = self.base
        groups: dict = {}
        fx, rinv, wv = [self.grouped(f)], [None], [{}]
        for (k, l), b in sorted(self.grouped(g).items()):
            while len(fx) <= k:
                fx.append(self._times_x(fx[-1], rinv, wv))
            images = [b]
            for (s, t), c in fx[k].items():
                while len(images) <= t:
                    images.append(base.apply(self.alpha, images[-1]))
                base.mul(c, images[t], groups.setdefault((s, t + l), {}))
        return _ungroup(groups, out)

    # automorphisms ------------------------------------------------------

    def _weight(self, auto, deg: tuple[int, ...]) -> Scalar:
        i, j = deg
        return (_kept_power(auto._pows, ("x", i), auto.lam_x, i)
                * _kept_power(auto._pows, ("y", j), auto.lam_y, j))

    def eigen_frame(self, alpha, gamma, units_only: bool) -> EigenFrame:
        if (not isinstance(alpha, NestedAuto) or not isinstance(gamma, NestedAuto)
                or not self.base.is_diagonal(self.alpha)):
            raise ValueError(NO_EIGEN_FRAME)
        inner = self.base.eigen_frame(alpha.base, gamma.base, units_only)
        # Candidates are embedded ground monomials.  Moving one past y or x
        # uses the ring's own structure maps, so those normality conditions
        # pick up the candidate's eigenvalue under alpha or beta.
        own = self.base.eigen_frame(self.alpha, self.beta, units_only).index_pairs
        gens = list(inner.gen_conditions)
        gens.append((alpha.lam_y, gamma.lam_y, tuple(a ** -1 for a, _ in own)))
        gens.append((alpha.lam_x, gamma.lam_x, tuple(b ** -1 for _, b in own)))
        build = lambda exps: self.embed(inner.build(exps))
        complete = bool(inner.complete and units_only
                        and self.is_domain() is True)
        return EigenFrame(inner.index_pairs, gens, build, complete)

    # structure ----------------------------------------------------------

    def is_domain(self) -> bool | None:
        return self.base.is_domain()

    def to_ground(self, elem: dict, autos: list):
        if not self._in_base(elem):
            return None
        return self.base.to_ground(self.base_part(elem),
                                   [auto.base for auto in autos])

    def v_period(self):
        """(span, ratio) with v^(q*span + r) = [q]_ratio*v^(span)
        + ratio^q*v^(r): the least span <= ``bounds.M_MAX`` at which
        (rho*alpha)^span rescales v, and that factor, whatever its order;
        None when there is no such span."""
        base = self.base
        if base.is_zero(self.v):
            return 1, self.ctx.one  # every factor rescales v = 0
        term = dict(self.v)
        for span in range(1, bounds.M_MAX + 1):
            term = base.smul(self.rho, base.apply(self.alpha, term))
            ratio = scalar_ratio(base, term, self.v)
            if ratio is not None:
                return span, ratio
        return None

    def w_element(self) -> dict:
        """The product x*y, whose commutation action on A is gamma."""
        return self._flat((1, 1), self.base.one)

    def conformality(self) -> Conformality:
        """Decide whether v = u - rho*alpha(u) has an admissible solution.

        When the solver over a coefficient tower declines, the equation is
        projected to the ground algebra: a splitting element would project,
        one bidegree at a time, to one there, so a complete ground solve
        without a solution proves the quadruple singular."""
        if self._conf is None:
            u, detail, complete = solve_splitting_ex(
                self.base, self.alpha, self.gamma, self.v, self.rho)
            if u is not None:
                z = self.sub(self.w_element(), self.embed(u))
                self._conf = Conformality(Status.HOLDS, u, z, None)
            elif complete:
                self._conf = Conformality(Status.FAILS, None, None, detail)
            else:
                self._conf = self._projected(detail)
        return self._conf

    def _projected(self, detail: dict | None) -> Conformality:
        stripped = self.base.to_ground(dict(self.v), [self.alpha, self.gamma])
        if stripped is not None and stripped[0] is not self.base:
            ground, v0, (alpha0, gamma0) = stripped
            u0, obstruction, complete = solve_splitting_ex(
                ground, alpha0, gamma0, v0, self.rho)
            if u0 is None and complete:
                cert = {"kind": "singular_by_projection"}
                if obstruction:
                    cert["obstruction"] = obstruction
                return Conformality(Status.FAILS, None, None, cert)
        return Conformality(Status.INCONCLUSIVE, None, None, detail)

    # decision hooks -------------------------------------------------------

    def is_regular(self, a: dict) -> UnitAnswer:
        if not a:
            return UnitAnswer(Status.FAILS, {"kind": "zero"})
        if not self._in_base(a):
            if self.is_domain():
                return UnitAnswer(Status.HOLDS)
            return UnitAnswer(Status.INCONCLUSIVE)
        return self.base.is_regular(self.base_part(a))

    def alpha_simple(self, autos: list) -> Verdict:
        from .simplicity import ring_alpha_simple
        return ring_alpha_simple(self, autos)

    def radical_contains(self, d: dict, u: dict) -> UnitAnswer:
        if self.is_unit(d).status is Status.HOLDS:
            return UnitAnswer(Status.HOLDS, {"power": 0})
        if self.is_zero(u):
            return UnitAnswer(Status.HOLDS, {"power": 1})
        if self.is_zero(d) and self.is_domain():
            return UnitAnswer(Status.FAILS)
        return UnitAnswer(Status.INCONCLUSIVE)

    def comaximal(self, a: dict, b: dict) -> UnitAnswer:
        # decided through units: aA + bA is bA for a = 0, aA for b in K*a
        units = [self.is_unit(a).status, self.is_unit(b).status]
        if Status.HOLDS in units:
            return UnitAnswer(Status.HOLDS)
        if self.is_zero(a):
            return UnitAnswer(units[1])
        if units[0] is Status.FAILS and scalar_ratio(self, b, a) is not None:
            return UnitAnswer(Status.FAILS)
        return UnitAnswer(Status.INCONCLUSIVE)

    def first_nonunit_in_pencil(self, p: dict, b: dict,
                                ratio: Scalar | None = None,
                                watch: dict | None = None) -> int | None:
        # a unit of a domain tower, and with it every v^(m) of a unit v,
        # lies in the coefficient algebra
        if watch is not None:
            raise ValueError("radical pencils over a coefficient tower are "
                             "not decided here")
        if self._in_base(p) and self._in_base(b):
            return self.base.first_nonunit_in_pencil(
                self.base_part(p), self.base_part(b), ratio)
        raise ValueError("the coefficient tower does not decide unit "
                         "pencils")

    # presentation ---------------------------------------------------------

    def render(self, a: dict) -> str:
        if not a:
            return "0"
        parts: list[tuple[Scalar, str]] = []
        for (i, j), c in sorted(self.grouped(a).items()):
            factors = []
            if i:
                factors.append(self.x_name if i == 1 else f"{self.x_name}^{i}")
            s = self.base.scalar_of(c)
            if s is None:
                factors.append(f"({self.base.render(c)})")
                s = self.ctx.one
            if j:
                factors.append(self.y_name if j == 1 else f"{self.y_name}^{j}")
            parts.append((s, "*".join(factors)))
        return _render_terms(parts)
