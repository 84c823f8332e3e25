"""Simplicity of the Casimir localization S = R_Z.

A conformal quadruple has a normal Casimir element z, and inverting its
powers yields the localization S.  Simplicity of S is equivalent to three
statements inside the coefficient algebra: {alpha, gamma}-simplicity, the
absence of (m, j)-special elements with (m, j) != (0, 0), and membership of
some power of the splitting element u in v^(m)A for every m >= 1.  The
localization itself is never constructed; every check is coefficient
arithmetic.

The last statement is the units condition of R read over A[1/u]: for a
commutative A, some power of u lies in dA exactly when d is a unit of
A[1/u], and A[1/u] = 0 exactly when u is nilpotent.  So one procedure,
``simplicity.every_v_m_unit``, decides both, with the same certificates.

For diagonal automorphisms on a monomial basis the special-element hunt is
an integer lattice problem: the coefficient field has no zero divisors, so
each defining identity pins one multiplicative relation between rho and the
generator scales, and a witness exists exactly when the relation lattice
contains a vector of the wanted shape.

>>> from .algebras import FieldAlgebra
>>> from .rings import AmbiskewRing
>>> from .scalars import ScalarContext
>>> ctx = ScalarContext(parameters=("q",))
>>> field = FieldAlgebra(ctx)
>>> plane = AmbiskewRing(field, field.identity_auto(), {}, ctx.param("q"))
>>> localized_simple(plane).status.value
'holds'
>>> zctx = ScalarContext(cyclotomic_order=5)
>>> zfield = FieldAlgebra(zctx)
>>> zplane = AmbiskewRing(zfield, zfield.identity_auto(), {}, zctx.zeta())
>>> bad = localized_simple(zplane)
>>> bad.reason
'failed: no_special'
>>> dict(bad.conditions)["no_special"].certificate["m"]
5
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebras import NO_EIGEN_FRAME, AffineAuto, EigenFrame
from .multiplicative import relation_kernel
from .scalars import Scalar, root_of_unity_order
from .simplicity import every_v_m_unit
from .verdict import Status, Verdict, conjunction, fails, holds, inconclusive

__all__ = [
    "SpecialElement",
    "TorusMatrix",
    "localized_simple",
    "quantum_torus_simple",
    "special_element_search",
]

# ---------------------------------------------------------------------------
# special elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialElement:
    """A nonzero c with gamma(c) = rho^m c, alpha(c) = rho^j c and
    c*gamma^j(a) = alpha^m(a)*c for every a.

    Any such element with (m, j) != (0, 0) obstructs the simplicity of the
    Casimir localization.  ``check`` replays the three identities exactly;
    the search never returns a witness it has not replayed.
    """

    c: dict
    m: int
    j: int

    def check(self, algebra, alpha, gamma, rho: Scalar) -> None:
        if algebra.is_zero(self.c):
            raise AssertionError("a special element must be nonzero")
        if not algebra.eq(algebra.apply(gamma, self.c),
                          algebra.smul(rho ** self.m, self.c)):
            raise AssertionError("gamma does not scale the witness by rho^m")
        if not algebra.eq(algebra.apply(alpha, self.c),
                          algebra.smul(rho ** self.j, self.c)):
            raise AssertionError("alpha does not scale the witness by rho^j")
        gamma_j = algebra.auto_power(gamma, self.j)
        alpha_m = algebra.auto_power(alpha, self.m)
        for name in algebra.gens():
            a = algebra.gen_elem(name)
            left = algebra.mul(self.c, algebra.apply(gamma_j, a))
            right = algebra.mul(algebra.apply(alpha_m, a), self.c)
            if not algebra.eq(left, right):
                raise AssertionError(f"the witness is not normal against {name}")


def special_element_search(algebra, alpha, gamma, rho: Scalar,
                           units_only: bool = False):
    """Hunt for an (m, j)-special element with (m, j) != (0, 0), returning
    ``(witness, complete)``.

    ``complete=True`` makes a ``None`` definitive.  ``units_only`` restricts
    the hunt to unit candidates, which loses nothing when the algebra is
    {alpha, gamma}-simple (special elements are then forced to be units);
    over an iterated coefficient ring that restriction is what makes the
    embedded-monomial reduction exhaustive.

    >>> from .algebras import FieldAlgebra
    >>> from .scalars import ScalarContext
    >>> ctx = ScalarContext(cyclotomic_order=6)
    >>> field = FieldAlgebra(ctx)
    >>> one = field.identity_auto()
    >>> w, complete = special_element_search(field, one, one, ctx.zeta())
    >>> (w.m, w.j), complete
    ((6, 6), True)
    >>> special_element_search(field, one, one, ctx.int_(2))
    (None, True)
    """
    if algebra.auto_is_identity(alpha) and algebra.auto_is_identity(gamma):
        return _unit_witness(algebra, alpha, gamma, rho, zero_m=False)
    if not algebra.is_diagonal(alpha):
        shift = (isinstance(alpha, AffineAuto) and alpha.a == algebra.ctx.one
                 and not alpha.b.is_zero())
        if not shift or not algebra.auto_is_identity(gamma):
            raise ValueError(NO_EIGEN_FRAME)
        return _unit_witness(algebra, alpha, gamma, rho, zero_m=True)
    frame = algebra.eigen_frame(alpha, gamma, units_only)
    return _lattice_search(algebra, alpha, gamma, rho, frame)


def _unit_witness(algebra, alpha, gamma, rho: Scalar, zero_m: bool):
    """The witness c = 1 with j = order(rho), or none when rho has infinite
    order; m = j, or m = 0 when ``zero_m``.  Two cases reduce to it:

    - alpha = gamma = id: scalars act without zero divisors, so both eigen
      identities force rho^m = rho^j = 1, and the normality identity
      degenerates to a = a;
    - a polynomial shift alpha with gamma = id: alpha preserves degree and
      leading coefficient, so alpha(c) = rho^j c forces rho^j = 1, and
      normality of a regular witness in a domain forces alpha^m = id, which
      pins m = 0."""
    k = root_of_unity_order(rho)
    if k is None:
        return None, True
    witness = SpecialElement(algebra.one, 0 if zero_m else k, k)
    witness.check(algebra, alpha, gamma, rho)
    return witness, True


def _lattice_search(algebra, alpha, gamma, rho: Scalar, frame: EigenFrame):
    ctx = algebra.ctx
    one = ctx.one
    rho_inv = rho ** -1
    conditions = [
        [rho_inv, one] + [lg for _, lg in frame.index_pairs],
        [one, rho_inv] + [la for la, _ in frame.index_pairs],
    ]
    for la, lg, factors in frame.gen_conditions:
        conditions.append([la ** -1, lg] + list(factors))
    basis = relation_kernel(conditions)
    if basis is None:
        return None, False
    if not any(b[0] or b[1] for b in basis):
        return None, frame.complete
    vec = _pick_vector(basis)
    try:
        c = frame.build(vec[2:])
    except ValueError:
        # t^k with k < 0 is no element of K[t]; the lattice is a group, so
        # the negated vector is a witness with k > 0
        vec = [-t for t in vec]
        c = frame.build(vec[2:])
    witness = SpecialElement(c, vec[0], vec[1])
    witness.check(algebra, alpha, gamma, rho)
    return witness, True


def _pick_vector(basis: list[list[int]]) -> list[int]:
    """Smallest vector with (m, j) != (0, 0) among small combinations of the
    basis, so the reported witness does not depend on elimination order:
    sign-normalized, then minimal in max(|m|, |j|), then in exponent
    weight."""
    span = 2 if len(basis) <= 4 else 1
    best_key, best = None, None
    for combo in itertools.product(range(-span, span + 1), repeat=len(basis)):
        vec = [sum(c * b[t] for c, b in zip(combo, basis))
               for t in range(len(basis[0]))]
        m, j = vec[0], vec[1]
        if (m, j) == (0, 0):
            continue
        if m < 0 or (m == 0 and j < 0):
            vec = [-t for t in vec]
            m, j = vec[0], vec[1]
        key = (max(abs(m), abs(j)), sum(abs(t) for t in vec[2:]), tuple(vec))
        if best_key is None or key < best_key:
            best_key, best = key, vec
    return best


# ---------------------------------------------------------------------------
# the localization criterion
# ---------------------------------------------------------------------------


def localized_simple(ring) -> Verdict:
    """Three-condition criterion for the simplicity of S = R_Z.

    Requires a conformal quadruple (a singular one has no Casimir element
    to invert and raises ValueError).  The conditions:

    - ``alpha_gamma_simple``: no proper nonzero ideal of the coefficient
      algebra is stable under both alpha and gamma;
    - ``no_special``: no (m, j)-special element with (m, j) != (0, 0);
    - ``radical``: for every m >= 1 some power of u lies in v^(m)A, that
      is, v^(m) is a unit of A[1/u] (``every_v_m_unit`` with ``watch=u``).

    The certificate names u, and so the Casimir element that S inverts.
    """
    conf = ring.conformality()
    if conf.status is Status.FAILS:
        raise ValueError("the quadruple is singular: there is no Casimir "
                         "element to invert")
    if conf.status is not Status.HOLDS:
        raise ValueError("whether a Casimir element exists was not decided")
    simple = ring.base.alpha_simple([ring.alpha, ring.gamma])
    verdict = conjunction([
        ("alpha_gamma_simple", simple),
        ("no_special", _no_special(ring, units_only=simple.holds)),
        ("radical", every_v_m_unit(ring, watch=conf.u)),
    ], theorem="localized.full")
    verdict.certificate = {"kind": "splitting_element",
                           "u": ring.base.render(conf.u),
                           "casimir": ring.render(conf.casimir)}
    return verdict


def _no_special(ring, units_only: bool) -> Verdict:
    base = ring.base
    note = None
    try:
        witness, complete = special_element_search(
            base, ring.alpha, ring.gamma, ring.rho, units_only=units_only)
    except ValueError as exc:
        witness, complete, note = None, False, str(exc)
    if witness is not None:
        return _special_fails(base, witness)
    if complete:
        return holds("no (m, j)-special element exists with (m, j) != (0, 0)")
    return inconclusive(note or "the special-element lattice was not decided")


def _special_fails(base, w: SpecialElement) -> Verdict:
    return fails(f"{base.render(w.c)} is ({w.m}, {w.j})-special",
                 certificate={"kind": "special_element", "m": w.m, "j": w.j,
                              "element": base.render(w.c)})


# ---------------------------------------------------------------------------
# quantum tori
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusMatrix:
    """Commutation data for a quantum torus: x_i x_j = q_{i,j} x_j x_i.

    The diagonal must be 1 and the matrix multiplicatively antisymmetric,
    both exactly.
    """

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise ValueError("the commutation matrix needs at least one row")
        for row in self.entries:
            if len(row) != n:
                raise ValueError("the commutation matrix must be square")
        for i in range(n):
            if not self.entries[i][i].is_one():
                raise ValueError("the diagonal of a commutation matrix is 1")
            for j in range(n):
                q = self.entries[i][j]
                if q.is_zero():
                    raise ValueError("commutation scalars must be nonzero")
                if not (q * self.entries[j][i]).is_one():
                    raise ValueError("the commutation matrix is not "
                                     "multiplicatively antisymmetric")

    @property
    def n(self) -> int:
        return len(self.entries)


def quantum_torus_simple(Q: TorusMatrix) -> Verdict:
    """Whether the quantum torus with commutation matrix Q is simple.

    The torus is simple exactly when the only integer vector (m_1..m_n)
    with prod_k q_{k,i}^{m_k} = 1 for every column i is zero.  The integer
    relation lattice of the entries decides this; a nonzero kernel vector
    is returned as a replayable witness.

    >>> from .scalars import ScalarContext
    >>> ctx = ScalarContext(cyclotomic_order=6)
    >>> Q = TorusMatrix(((ctx.one, ctx.zeta()), (ctx.zeta() ** -1, ctx.one)))
    >>> quantum_torus_simple(Q).certificate["vector"]
    [0, 6]
    """
    n = Q.n
    conditions = [[Q.entries[k][i] for k in range(n)] for i in range(n)]
    basis = relation_kernel(conditions)
    if basis is None:
        return inconclusive("some commutation scalar has no monomial-like "
                            "decomposition", theorem="torus.lattice")
    if not basis:
        return holds("only the zero vector relates the columns of the "
                     "commutation matrix",
                     certificate={"kind": "trivial_kernel", "rank": n},
                     theorem="torus.lattice")
    vec = basis[0]
    for i in range(n):
        prod = Q.entries[0][i] ** vec[0]
        for k in range(1, n):
            prod = prod * Q.entries[k][i] ** vec[k]
        if not prod.is_one():
            raise AssertionError("the kernel vector does not replay to 1")
    return fails("the commutation scalars satisfy a nontrivial relation "
                 f"with exponents {vec}",
                 certificate={"kind": "torus_relation", "vector": list(vec)},
                 theorem="torus.lattice")
