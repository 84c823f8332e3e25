"""Seeded DSL documents for the three benchmark workloads.

Every document is plain text in the ``ambiskew`` DSL plus, for a
``torus`` check, the CSV text of its table.  Each carries the oracle's
expectations, one per check, and for ``swell`` the element expressions to
evaluate.  The same (workload, seed) pair always yields the same documents.

- ``catalog``: the worked examples of the test suite with the statuses it
  asserts, plus seeded variants from the two families with a closed-form
  oracle (R(K, id, v, rho) and the K[C_2] character recurrence).
- ``scan``: parameter-free blocks whose units, radical or comaximality
  condition walks Bounds.m_max steps when rho has infinite order.
- ``swell``: parameter-heavy element powers and splitting solves.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from oracle import (Gauss, Mod, diagonal_block, field_truths, radical_truth,
                    shift_gwa_comaximal, split_truths)


@dataclass(frozen=True)
class Expect:
    """The oracle's view of one check: truths of the whole verdict and of
    named conditions, and the index a failing ``units`` condition must
    name.  None means the oracle has no closed form for that entry."""

    status: str | None = None
    conditions: dict = field(default_factory=dict)
    units_m: int | None = None
    radical_m: int | None = None
    comaximal_m: int | None = None


@dataclass(frozen=True)
class Doc:
    """A document and its oracle.  ``expects`` computes the expectations,
    one per check, when the output check asks for them: the closed forms
    are benchmark work and stay out of the timed set-up."""

    name: str
    text: str
    expects: Callable[[], tuple[Expect, ...]]
    tables: tuple[tuple[str, str], ...] = ()
    elements: tuple[tuple[str, str], ...] = ()


H, F = "holds", "fails"


def _frac(c) -> str:
    return f"({Fraction(c)})"


def _gauss(g: Gauss) -> str:
    if not g.im:
        return _frac(g.re)
    if not g.re:
        return f"{_frac(g.im)}*zeta"
    return f"({g.re} + {_frac(g.im)}*zeta)"


def _poly(coeffs, gen: str, fmt) -> str:
    """sum c_k * gen^k as DSL text, skipping zero terms."""
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        mono = "" if k == 0 else gen if k == 1 else f"{gen}^{k}"
        parts.append(fmt(c) + ("*" + mono if mono else ""))
    return " + ".join(parts) if parts else "0"


def _mod_text(c: Mod) -> str:
    return str(c.v)


# ---------------------------------------------------------------------------
# catalog: worked examples
# ---------------------------------------------------------------------------

_FIELD = """{ctx}base F = field()
auto i on F {{ }}
ring R = ambiskew(F, i, v = {v}, rho = {rho})
"""

_FC2 = """{ctx}base A = cyclic_group(n = 2, epsilon = -1)
auto a on A {{ s -> -s }}
ring R = ambiskew(A, a, v = {v}, rho = {rho})
"""

_FC4 = """context(cyclotomic_order = 4{params})
base A = cyclic_group(n = 4, epsilon = zeta)
auto a on A {{ s -> zeta*s }}
ring R = ambiskew(A, a, v = {v}, rho = {rho}, y = y1, x = x1)
"""

_QUAD = """context(cyclotomic_order = 4)
base Q = quadratic(d = -1)
auto c on Q {{ s -> -s }}
ring R = ambiskew(Q, c, v = {v}, rho = {rho})
"""

_POLY = """{ctx}base P = poly(t)
auto a on P {{ t -> {image} }}
ring R = ambiskew(P, a, v = {v}, rho = {rho})
"""

_LAURENT = """{ctx}base L = laurent(t)
auto a on L {{ t -> {image} }}
ring R = ambiskew(L, a, v = {v}, rho = {rho})
"""

_GWA = """{ctx}base {base}
auto a on {name} {{ {rule} }}
ring T = gwa({name}, a, u = {u})
check simple(T)
"""


def _doc(name, text, checks, *expects, oracle=None, **kw) -> Doc:
    lines = "".join(f"check {c}\n" for c in checks)
    return Doc(name, text + lines, oracle or (lambda: expects), **kw)


def _split_oracle(checks, *block):
    """The expectations of a diagonal block (see oracle.split_truths) for
    ``simple``, ``singular`` and ``conformal`` checks."""
    def expects():
        whole, truth, nonunit = split_truths(*block)
        by_check = {
            "simple(R)": Expect(whole, truth, units_m=nonunit),
            "singular(R)": Expect(truth.get("singular")),
            "conformal(R)": Expect({H: F, F: H}.get(truth.get("singular"))),
        }
        return tuple(by_check[c] for c in checks)
    return expects


def _worked() -> list[Doc]:
    """Worked examples; every expectation restates a tier-1 assertion, or a
    closed form given in oracle.py."""
    q = "context(parameters = [q])\n"
    qr = "context(parameters = [q, r])\n"
    docs = [
        # the Weyl algebra, simple in characteristic 0
        _doc("weyl", _FIELD.format(ctx="", v="1", rho="1"),
             ["simple(R)", "singular(R)", "conformal(R)", "iterated(R)"],
             Expect(H, {"singular": H, "units": H}), Expect(H), Expect(F),
             Expect(H)),
        # the quantum plane fails on singular and units; its localization
        # with a formal q is simple
        _doc("quantum-plane", _FIELD.format(ctx=q, v="0", rho="q"),
             ["simple(R)", "conformal(R)", "localized_simple(R)"],
             Expect(F, {"singular": F, "units": F}), Expect(H), Expect(H)),
        # the quantized Weyl algebra is conformal, with a replayable split
        _doc("quantized-weyl", _FIELD.format(ctx=q, v="1", rho="q"),
             ["simple(R)", "singular(R)", "conformal(R)",
              "localized_simple(R)"],
             Expect(F, {"singular": F, "units": H}), Expect(F), Expect(H),
             Expect(H)),
        _doc("plane-zeta5",
             _FIELD.format(ctx="context(cyclotomic_order = 5)\n", v="0",
                           rho="zeta"),
             ["localized_simple(R)"],
             Expect(F, {"no_special": F, "radical": H})),
        _doc("quantized-weyl-zeta3",
             _FIELD.format(ctx="context(cyclotomic_order = 3)\n", v="1",
                           rho="zeta"),
             ["localized_simple(R)"],
             Expect(F, {"alpha_gamma_simple": H, "no_special": F,
                        "radical": F}, radical_m=3)),
        # the K[C_2] block of the reflection algebra is singular
        _doc("fc2-block",
             _FC2.format(ctx="context(parameters = [t, c])\n",
                         v="2*t - 4*c*s", rho="1"),
             ["singular(R)", "conformal(R)"], Expect(H), Expect(F)),
        # fc4_mixed: units hold for a formal mu and fail at the least odd
        # m with m*mu = -+1
        _doc("fc4-mixed", _FC4.format(params=", parameters = [mu]",
                                      v="s + mu*s^3", rho="zeta"),
             ["simple(R)", "conformal(R)"],
             Expect(None, {"units": H}), Expect(F)),
        _doc("fc4-mixed-third", _FC4.format(params="", v="s + 1/3*s^3",
                                            rho="zeta"),
             ["simple(R)"], Expect(F, {"units": F}, units_m=3)),
        _doc("fc4-mixed-two", _FC4.format(params="", v="s + 2*s^3",
                                          rho="zeta"),
             ["simple(R)"], Expect(None, {"units": H})),
        # the shift over K[t] splits with u = -t
        _doc("poly-shift", _POLY.format(ctx="", image="t + 1", v="1",
                                        rho="1"),
             ["simple(R)", "conformal(R)"],
             Expect(F, {"singular": F}), Expect(H)),
        # the Laurent scaling ring splits; its localization is simple
        _doc("laurent-scale", _LAURENT.format(ctx=qr, image="q*t", v="t",
                                              rho="r"),
             ["conformal(R)", "localized_simple(R)"], Expect(H), Expect(H)),
        _doc("heisenberg-dependent",
             _LAURENT.format(ctx=q, image="q*t", v="t", rho="q"),
             ["localized_simple(R)"], Expect(F, {"no_special": F})),
        # the Smith shift with v = t fails the radical condition at m = 1,
        # with v = 1 its localization is simple
        _doc("smith-shift", _POLY.format(ctx="", image="t + 1", v="t",
                                         rho="2"),
             ["localized_simple(R)"],
             Expect(F, {"alpha_gamma_simple": H, "no_special": H,
                        "radical": F}, radical_m=1)),
        _doc("smith-shift-scalar", _POLY.format(ctx="", image="t + 1",
                                                v="1", rho="2"),
             ["localized_simple(R)"], Expect(H)),
        # quadratic conjugation slices
        _doc("quad-1-m2-1", _QUAD.format(v="-2 + s", rho="1"),
             ["simple(R)"], Expect(H)),
        _doc("quad-1-1-1", _QUAD.format(v="1 + s", rho="1"),
             ["simple(R)"], Expect(H)),
        _doc("quad-1-0-2", _QUAD.format(v="2*s", rho="1"),
             ["simple(R)"], Expect(F, {"singular": F})),
        _doc("quad-m1-2-1", _QUAD.format(v="2 + s", rho="-1"),
             ["simple(R)"], Expect(H)),
        # (its units condition is a bounded scan, which belongs to ``scan``)
        _doc("quad-2-1-1", _QUAD.format(v="1 + s", rho="2"),
             ["singular(R)", "conformal(R)"], Expect(F), Expect(H)),
        _doc("quad-gaussian-unit", _QUAD.format(v="1", rho="1"),
             ["simple(R)"], Expect(H, {"units": H})),
        _doc("quad-localized", _QUAD.format(v="s", rho="3"),
             ["localized_simple(R)"],
             Expect(None, {"alpha_gamma_simple": H, "radical": H})),
        # characteristic p
        _doc("weyl-f5", _FIELD.format(ctx="context(characteristic = 5)\n",
                                      v="1", rho="1"),
             ["simple(R)"],
             Expect(F, {"alpha_simple": H, "no_generalized_splitting": F,
                        "units": F}, units_m=5)),
        _doc("poly-shift-f5",
             _POLY.format(ctx="context(characteristic = 5)\n",
                          image="t + 1", v="1", rho="1"),
             ["simple(R)"],
             Expect(F, {"alpha_simple": F, "no_generalized_splitting": F,
                        "units": F}, units_m=5)),
        _doc("laurent-f5",
             _LAURENT.format(ctx="context(characteristic = 5)\n",
                             image="t", v="t", rho="1"),
             ["simple(R)"], Expect(None, {"no_generalized_splitting": F})),
        _doc("cyclic-f5", """context(characteristic = 5)
base A = cyclic_group(n = 4, epsilon = 2)
auto a on A { s -> 2*s }
ring R = ambiskew(A, a, v = s, rho = 3)
""", ["simple(R)"], Expect(F, {"no_generalized_splitting": F})),
        _doc("laurent-f5-nonmonomial",
             _LAURENT.format(ctx="context(characteristic = 5)\n",
                             image="2*t", v="t + t^2", rho="3"),
             ["simple(R)"], Expect(F, {"alpha_simple": F, "units": F})),
        # generalized Weyl algebras
        _doc("gwa-weyl", _GWA.format(ctx="", base="P = poly(t)", name="P",
                                     rule="t -> t - 1", u="t"),
             [], Expect(H)),
        _doc("gwa-weyl-f5",
             _GWA.format(ctx="context(characteristic = 5)\n",
                         base="P = poly(t)", name="P", rule="t -> t - 1",
                         u="t"),
             [], Expect(F, {"alpha_simple": F, "outer_powers": F,
                            "regular": H, "comaximal": F}, comaximal_m=5)),
        _doc("gwa-field-identity", _GWA.format(ctx="", base="F = field()",
                                               name="F", rule="", u="1"),
             [], Expect(F, {"outer_powers": F})),
        _doc("gwa-laurent-unit", _GWA.format(ctx=q, base="L = laurent(t)",
                                             name="L", rule="t -> q*t",
                                             u="t"),
             [], Expect(H, {"comaximal": H})),
        _doc("gwa-laurent-zero", _GWA.format(ctx=q, base="L = laurent(t)",
                                             name="L", rule="t -> q*t",
                                             u="0"),
             [], Expect(F, {"regular": F, "comaximal": F}, comaximal_m=1)),
        _doc("gwa-scaled-ideal", _GWA.format(ctx="", base="P = poly(t)",
                                             name="P", rule="t -> 2*t",
                                             u="t"),
             [], Expect(F, {"comaximal": F}, comaximal_m=1)),
        _doc("gwa-cyclic-periodic",
             _GWA.format(ctx="context(cyclotomic_order = 4)\n",
                         base="A = cyclic_group(n = 4, epsilon = zeta)",
                         name="A", rule="s -> zeta*s", u="1 + s"),
             [], Expect(F, {"comaximal": F}, comaximal_m=4)),
        # the Casimir quotient of the quantized Weyl algebra is a GWA over
        # the scalars with the identity twist, which is inner
        _doc("casimir-quotient",
             _FIELD.format(ctx=q, v="1", rho="q")
             + "ring T = quotient_by_casimir(R)\n",
             ["simple(T)"], Expect(F, {"outer_powers": F})),
        # towers
        _doc("tower-a-third", _tower_a("2 - 4/3*s", "2"),
             ["iterated(R2)"], Expect(H)),
        _doc("tower-a-three-halves", _tower_a("2 - 6*s", "2"),
             ["iterated(R2)"], Expect(F, {"level_1": F})),
        _doc("tower-a-zero-t", _tower_a("-4*s", "0"),
             ["iterated(R2)"], Expect(F)),
        _doc("tower-quantized-lambda", """context(parameters = [l21, l31, l32])
base F = field()
auto i on F { }
ring R1 = ambiskew(F, i, v = 1, rho = 1, y = y1, x = x1)
auto a2 on R1 { y1 -> l21*y1, x1 -> l21^-1*x1 }
ring R2 = ambiskew(R1, a2, v = 1, rho = 1, y = y2, x = x2)
auto a3 on R2 { y1 -> l31*y1, x1 -> l31^-1*x1, y2 -> l32*y2, x2 -> l32^-1*x2 }
ring R3 = ambiskew(R2, a3, v = 1, rho = 1, y = y3, x = x3)
""", ["iterated(R2)", "iterated(R3)"], Expect(H), Expect(H)),
        _doc("tower-cyclic", _tower_cyclic("zeta^-2"),
             ["iterated(R2)"], Expect(H)),
        _doc("tower-cyclic-conformal", _tower_cyclic("1"),
             ["iterated(R2)"], Expect(F, {"level_2": F})),
        # quantum tori
        _doc("torus-primes", "", ["torus(primes.csv)"], Expect(H),
             tables=(("primes.csv", "1, 1, 2, 3\n1, 1, 5, 7\n"
                      "1/2, 1/5, 1, 11\n1/3, 1/7, 1/11, 1\n"),)),
        _doc("torus-commuting", "", ["torus(corner.csv)"], Expect(F),
             tables=(("corner.csv", "1, 1\n1, 1\n"),)),
        _doc("torus-zeta6", "context(cyclotomic_order = 6)\n",
             ["torus(zeta6.csv)"], Expect(F),
             tables=(("zeta6.csv", "1, zeta\nzeta^-1, 1\n"),)),
        _doc("torus-formal", q, ["torus(formal.csv)"], Expect(H),
             tables=(("formal.csv", "1, q\nq^-1, 1\n"),)),
    ]
    return docs


def _tower_a(v1: str, v2: str) -> str:
    return f"""base A = cyclic_group(n = 2, epsilon = -1)
auto a on A {{ s -> -s }}
ring R1 = ambiskew(A, a, v = {v1}, rho = 1, y = y1, x = x1)
auto b on R1 {{ }}
ring R2 = ambiskew(R1, b, v = {v2}, rho = 1, y = y2, x = x2)
"""


def _tower_cyclic(rho2: str) -> str:
    return f"""context(cyclotomic_order = 3, parameters = [l])
base A = cyclic_group(n = 3, epsilon = zeta)
auto a on A {{ s -> zeta*s }}
ring R1 = ambiskew(A, a, v = s, rho = zeta^-1, y = y1, x = x1)
auto b on R1 {{ s -> zeta*s, y1 -> l*y1, x1 -> zeta*l^-1*x1 }}
ring R2 = ambiskew(R1, b, v = s^2, rho = {rho2}, y = y2, x = x2)
"""


# ---------------------------------------------------------------------------
# seeded variants with closed-form oracles
# ---------------------------------------------------------------------------


def _signed(rng, magnitude: int) -> int:
    """``magnitude`` with a seeded sign.  In ``scan`` and ``swell`` the index
    fixes every magnitude and the seed only signs and orders, because the
    cost of a long scan or a parametric computation follows the sizes of
    its inputs closely."""
    return magnitude * rng.choice((1, -1))


_MAGNITUDES = ((1, 2), (2, 1), (3, 2), (2, 3), (3, 1), (1, 3), (4, 3), (3, 4))


def _scanned_pairs(rng, i: int):
    """Signed coefficient pairs for the i-th scanned document: the index
    picks the magnitudes, the seed the signs; a pair the oracle rejects
    moves on to the next magnitudes."""
    for k in itertools.count(i):
        m0, m1 = _MAGNITUDES[k % len(_MAGNITUDES)]
        for _ in range(4):
            yield Fraction(_signed(rng, m0)), Fraction(_signed(rng, m1))


def _small(rng, zero_ok=True) -> Fraction:
    while True:
        c = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        if c or zero_ok:
            return c


def _field_variant(rng, i: int) -> Doc:
    """R(K, id, v, rho) over Q, Q(zeta_4) or Q(q)."""
    kind = ("Q", "Qzeta", "Qq")[i % 3]
    v = _small(rng) if rng.random() < 0.85 else Fraction(0)
    rho_choices = [("1", True, None), ("1", True, None), ("2", False, None),
                   ("-1/2", False, None), ("-1", False, 2)]
    ctx, v_text = "", _frac(v)
    if kind == "Qzeta":
        ctx = "context(cyclotomic_order = 4)\n"
        rho_choices.append(("zeta", False, 4))
        if v:
            v_text = f"({v})*zeta + {_frac(_small(rng))}"
            v = 1
    elif kind == "Qq":
        ctx = "context(parameters = [q])\n"
        rho_choices.append(("q", False, None))
        if v:
            v_text = f"({v})*q + {_frac(_small(rng))}"
    rho, rho_one, order = rng.choice(rho_choices)
    whole, truth, nonunit = field_truths(not v, rho_one, order)
    return _doc(f"field-{kind}-{i}", _FIELD.format(ctx=ctx, v=v_text, rho=rho),
                ["simple(R)", "singular(R)", "conformal(R)"],
                Expect(whole, truth, units_m=nonunit),
                Expect(truth["singular"]),
                Expect(F if truth["singular"] == H else H))


def _scans(block) -> bool:
    """Whether the units condition of a diagonal block takes the bounded
    scan: v is no eigenvector of alpha and no v^(m) within the oracle's
    horizon is a non-unit.  Documents meant for the scan are redrawn until
    this holds, so every seed has the same mix of scanned and decided
    documents."""
    coeffs = block[2]
    return sum(1 for c in coeffs if c) > 1 and diagonal_block(*block)[1] is None


def _fc2_variant(rng, i: int, rho: Fraction, checks, scanned=False) -> Doc:
    """The K[C_2] block R(K[C_2], s -> -s, c0 + c1*s, rho) over Q."""
    pairs = _scanned_pairs(rng, i) if scanned else \
        iter(lambda: (_small(rng), _small(rng)), None)
    for c0, c1 in pairs:
        block = ([Fraction(1), Fraction(-1)], Fraction(-1), [c0, c1], rho,
                 Fraction(1), Fraction(0))
        if not scanned or _scans(block):
            break
    oracle = _split_oracle(checks, *block)
    v = _poly([c0, c1], "s", _frac)
    return _doc(f"fc2-{rho}-{i}", _FC2.format(ctx="", v=v, rho=_frac(rho)),
                checks, oracle=oracle)


# ---------------------------------------------------------------------------
# scan: parameter-free bounded searches
# ---------------------------------------------------------------------------

_RHOS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3))


def _gauss_small(rng) -> Gauss:
    return Gauss(_small(rng), _small(rng) if rng.random() < 0.5 else 0)


def _fc4_variant(rng, i: int, rho: Fraction) -> Doc:
    zeta = Gauss(0, 1)
    coeffs = [_gauss_small(rng) for _ in range(4)]
    one, zero = Gauss(1), Gauss(0)
    roots = [one, zeta, Gauss(-1), Gauss(0, -1)]
    oracle = _split_oracle(["simple(R)"], roots, zeta, coeffs, Gauss(rho),
                           one, zero)
    v = _poly(coeffs, "s", _gauss)
    return _doc(f"fc4-{rho}-{i}", _FC4.format(params="", v=v, rho=_frac(rho)),
                ["simple(R)"], oracle=oracle)


def _quad_variant(rng, i: int, rho: Fraction, scanned=False) -> Doc:
    """Conjugation on Q(zeta_4)[s]/(s^2 + 1), which splits as two copies of
    Q(zeta_4) at s = +-zeta."""
    zeta = Gauss(0, 1)
    pairs = _scanned_pairs(rng, i) if scanned else \
        iter(lambda: (_gauss_small(rng), _small(rng, zero_ok=False)), None)
    for a, b in pairs:
        if scanned:
            a = Gauss(a, _signed(rng, 1))
        b = Gauss(b)
        block = ([zeta, Gauss(0, -1)], Gauss(-1), [a, b], Gauss(rho),
                 Gauss(1), Gauss(0))
        if not scanned or _scans(block):
            break
    oracle = _split_oracle(["simple(R)"], *block)
    v = _poly([a, b], "s", _gauss)
    return _doc(f"quad-{rho}-{i}", _QUAD.format(v=v, rho=_frac(rho)),
                ["simple(R)"], oracle=oracle)


def _gwa_shift_variant(rng, i: int) -> Doc:
    """T(Q[t], t -> t + 1, (t - a)(t - b)); a - b is an integer for every
    fourth document, which ends the scan early, and a third-integer for the
    others, which scan."""
    a = Fraction(_signed(rng, 1 + i % 3))
    if i % 4 == 0:
        b = a - 1 - i // 4
    else:
        b = a + Fraction(_signed(rng, (1, 2, 4)[i % 3]), 3)
    m = shift_gwa_comaximal(a, b)
    comax = F if m else H
    u = f"(t - {_frac(a)})*(t - {_frac(b)})"
    return _doc(f"gwa-shift-{i}",
                _GWA.format(ctx="", base="P = poly(t)", name="P",
                            rule="t -> t + 1", u=u),
                [], Expect(comax, {"alpha_simple": H, "outer_powers": H,
                                   "regular": H, "comaximal": comax},
                           comaximal_m=m))


def _localized_variant(rng, i: int, rho: Fraction) -> Doc:
    """The localization of a conformal K[C_2] block.  v is no eigenvector
    and, by the oracle, no power of u ever leaves v^(m)A, so the radical
    condition takes its bounded scan."""
    for c0, c1 in _scanned_pairs(rng, i):
        if radical_truth([Gauss(1), Gauss(-1)], Gauss(-1),
                         [Gauss(c0), Gauss(c1)], Gauss(rho)) is None:
            break
    expect = Expect(None, {"alpha_gamma_simple": H, "radical": H})
    v = _poly([c0, c1], "s", _frac)
    return _doc(f"localized-{rho}-{i}",
                _FC2.format(ctx="", v=v, rho=_frac(rho)),
                ["localized_simple(R)"], expect)


_PRIME_BLOCKS = ((5, 4, 2), (7, 3, 2), (13, 2, 12), (13, 4, 5))


def _charp_variant(rng, i: int) -> Doc:
    """K[C_n] over F_p with alpha(s) = eps*s for a primitive n-th root eps:
    the height-n witness search plus the character recurrence mod p."""
    p, n, eps = _PRIME_BLOCKS[i % len(_PRIME_BLOCKS)]
    coeffs = [Mod(rng.randrange(p), p) for _ in range(n)]
    if not any(coeffs):
        coeffs[0] = Mod(1, p)
    rho = Mod(rng.randrange(1, p), p)
    one, zero = Mod(1, p), Mod(0, p)
    roots = [Mod(eps ** j, p) for j in range(n)]
    oracle = _split_oracle(["simple(R)"], roots, Mod(eps, p), coeffs, rho,
                           one, zero)
    text = f"""context(characteristic = {p})
base A = cyclic_group(n = {n}, epsilon = {eps})
auto a on A {{ s -> {eps}*s }}
ring R = ambiskew(A, a, v = {_poly(coeffs, "s", _mod_text)}, rho = {rho.v})
"""
    return _doc(f"charp-{p}-{n}-{i}", text, ["simple(R)"], oracle=oracle)


# ---------------------------------------------------------------------------
# swell: parameter-heavy elements and splitting solves
# ---------------------------------------------------------------------------

def _field_expect(v_zero: bool) -> Expect:
    whole, truth, nonunit = field_truths(v_zero, False, None)
    return Expect(whole, truth, units_m=nonunit)


_SWELL_RINGS = (
    # (name, document, ring, generators, expectation of simple(ring))
    ("quantized-weyl", _FIELD.format(ctx="context(parameters = [q])\n",
                                     v="1", rho="q"),
     "R", ("x", "y"), _field_expect(False)),
    ("quantum-plane", _FIELD.format(ctx="context(parameters = [q])\n",
                                    v="0", rho="q"),
     "R", ("x", "y"), _field_expect(True)),
    ("laurent-scale", _LAURENT.format(ctx="context(parameters = [q, r])\n",
                                      image="q*t", v="t", rho="r"),
     "R", ("x", "y", "t"), Expect(F, {"singular": F})),
    ("fc4-mixed", _FC4.format(params=", parameters = [mu]", v="s + mu*s^3",
                              rho="zeta"),
     "R", ("x1", "y1", "s"), Expect(None, {"units": H})),
    ("gwa-laurent", _GWA.format(ctx="context(parameters = [q])\n",
                                base="L = laurent(t)", name="L",
                                rule="t -> q*t", u="t"),
     "T", ("X", "Y", "t"), Expect(H, {"comaximal": H})),
)

# Largest exponent per ring, sized so that re-parsing the rendered power
# (part of the output check) stays near 2 s.  At the seed commit the
# re-parse grows much faster than the power itself: quantized Weyl
# (x+y)^10 evaluates in 0.26 s but re-parses in 28 s, because its
# unreduced denominators reach q^100.
_SWELL_MAX_POWER = {"quantized-weyl": 8, "quantum-plane": 10,
                    "laurent-scale": 5, "fc4-mixed": 10, "gwa-laurent": 5}


def _swell_element(rng, i: int) -> Doc:
    name, text, ring, gens, expect = _SWELL_RINGS[i % len(_SWELL_RINGS)]
    step = (i // len(_SWELL_RINGS)) % 4
    n = _SWELL_MAX_POWER[name] - step
    terms = list(gens)
    terms[-1] = f"({_signed(rng, 1 + step % 2)})*{terms[-1]}"
    rng.shuffle(terms)
    expr = f"({' + '.join(terms)})^{n}"
    # the GWA template already checks simple(T)
    checks = [] if name == "gwa-laurent" else [f"simple({ring})"]
    return _doc(f"swell-{name}-{i}", text, checks, expect,
                elements=((ring, expr),))


def _swell_solve(rng, i: int) -> Doc:
    """A poly base with t -> t + q, v of degree 3-4 over Q(q), or of degree
    2-3 over Q(q, r): conformality runs gauss_solve on a (deg v + 2)-square
    system with parametric entries.  Over Q(q, r) a 5x5 system is the
    largest that stays inside the cap; a random 2-parameter 5x5 system is a
    known cliff."""
    two = i % 2 == 1
    deg = (2 if two else 3) + (i // 2) % 2
    params = "q, r" if two else "q"
    coeffs = [f"({_signed(rng, 1 + (i + k) % 3)}"
              f"{'*r' if two and k == deg else ''})" for k in range(deg + 1)]
    v = " + ".join(f"{c}*t^{k}" if k else c for k, c in enumerate(coeffs))
    rho = (("1", "2", "q") if not two else ("1", "r", "q"))[(i // 4) % 3]
    text = _POLY.format(ctx=f"context(parameters = [{params}])\n",
                        image="t + q", v=v, rho=rho)
    # t -> t + q with q formal always admits a polynomial splitting
    return _doc(f"swell-solve-{i}", text, ["conformal(R)", "singular(R)"],
                Expect(H), Expect(F))


def _swell_scan(rng, i: int) -> Doc:
    """A bounded scan over Q(q): the comaximality scan of T(K[t^+-1],
    t -> q*t, 1 + c*t), or the units scan of the K[C_2] block with
    v = c0 + c1*q*s and rho = 2.  Both answer Inconclusive after
    Bounds.m_max steps although the truth is known: alpha^m(u) = 1 + c*q^m*t
    never shares the root of u for a formal q, and the characters of v^(m)
    keep the nonzero constant term c0*(2^m - 1).  With rho = q instead the
    units scan takes over 30 s a document at the seed commit."""
    c0, c1 = _signed(rng, 1 + i % 3), _signed(rng, 2 + i % 2)
    ctx = "context(parameters = [q])\n"
    if i % 2 == 0:
        return _doc(f"swell-gwa-scan-{i}",
                    _GWA.format(ctx=ctx, base="L = laurent(t)", name="L",
                                rule="t -> q*t", u=f"1 + {_frac(c1)}*t"),
                    [], Expect(H, {"alpha_simple": H, "outer_powers": H,
                                   "regular": H, "comaximal": H}))
    v = f"{_frac(c0)} + {_frac(c1)}*q*s"
    return _doc(f"swell-units-scan-{i}", _FC2.format(ctx=ctx, v=v, rho="2"),
                ["simple(R)"], Expect(F, {"singular": F, "units": H}))


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def catalog(rng) -> list[Doc]:
    docs = _worked()
    docs += [_field_variant(rng, i) for i in range(30)]
    docs += [_fc2_variant(rng, i, _RHOS[i % 2],
                          ["simple(R)", "singular(R)", "conformal(R)"])
             for i in range(30)]
    return docs


def scan(rng) -> list[Doc]:
    """Two thirds of the documents take a bounded scan; rho = +-1 decides
    through periodic pencils.  K[C_4] runs only with rho = +-1: with rho of
    infinite order its 200-step scan over Q(zeta_4) takes 1.4-2.3 s a
    document at the seed commit."""
    docs = [_fc2_variant(rng, i, _RHOS[i % 2], ["simple(R)"])
            for i in range(3)]
    docs += [_fc2_variant(rng, i, _RHOS[2 + i % 3], ["simple(R)"],
                          scanned=True) for i in range(3, 15)]
    docs += [_fc4_variant(rng, i, _RHOS[i % 2]) for i in range(4)]
    docs += [_quad_variant(rng, i, _RHOS[i % 2]) for i in range(2)]
    docs += [_quad_variant(rng, i, _RHOS[2 + i % 3], scanned=True)
             for i in range(2, 10)]
    # the scanned GWAs are the slowest documents; six of them keep p90
    # inside their group rather than on its edge
    docs += [_gwa_shift_variant(rng, i) for i in range(8)]
    docs += [_localized_variant(rng, i, _RHOS[2 + i % 3]) for i in range(6)]
    docs += [_charp_variant(rng, i) for i in range(4)]
    return docs


def swell(rng) -> list[Doc]:
    docs = [_swell_element(rng, i) for i in range(20)]
    docs += [_swell_solve(rng, i) for i in range(8)]
    docs += [_swell_scan(rng, i) for i in range(4)]
    return docs


WORKLOADS = {"catalog": catalog, "scan": scan, "swell": swell}


def generate(workload: str, seed: int) -> list[Doc]:
    """The workload's documents, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    docs = WORKLOADS[workload](rng)
    rng.shuffle(docs)
    return docs
