from __future__ import annotations

import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ambiskew import scalars
from ambiskew.dsl import eval_element, parse_expression, parse_spec
from ambiskew.scalars import (
    CyclotomicDomain,
    Scalar,
    ScalarContext,
    _divmod,
    _gcd,
    _grlex,
    _horner,
    _integer_roots_int,
    _interpolate,
    _join_signed,
    _plead,
    _resultant,
    _signed_coeff,
    _zeta_terms,
    cyclotomic_coeffs,
    integer_roots_scalar_poly,
    is_prime,
    root_of_unity_order,
)

from _helpers import fraction_signed_coeff, fraction_zeta_terms, pw, q_integer


def _ctx(**kw) -> ScalarContext:
    return ScalarContext(**kw)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the cyclotomic field
# ---------------------------------------------------------------------------


def test_cyclotomic_table():
    # classical table values
    assert cyclotomic_coeffs(1) == (-1, 1)
    assert cyclotomic_coeffs(2) == (1, 1)
    assert cyclotomic_coeffs(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_coeffs(6) == (1, -1, 1)
    assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_recovers_xn_minus_1():
    for n in (1, 2, 6, 12, 15):
        ctx = _ctx(parameters=("x",))
        x = ctx.param("x")
        prod = ctx.one
        for d in range(1, n + 1):
            if n % d == 0:
                coeffs = cyclotomic_coeffs(d)
                prod = prod * sum((c * x**k for k, c in enumerate(coeffs)), ctx.zero)
        assert prod == x**n - 1


def test_zeta_arithmetic():
    ctx = _ctx(cyclotomic_order=4)
    z = ctx.zeta()
    assert z**2 == ctx.int_(-1)
    assert z**3 == -z
    assert z * z.inv() == ctx.one
    # in Q(zeta_5) the full sum of the five unit roots vanishes
    ctx5 = _ctx(cyclotomic_order=5)
    assert q_integer(5, ctx5.zeta()).is_zero()


def test_zeta_inverse_nontrivial():
    ctx = _ctx(cyclotomic_order=5)
    a = ctx.one + ctx.zeta()
    assert a * a.inv() == ctx.one
    assert (a - a).is_zero()


# -- the integer-coordinate domain against a Fraction reference ---------------


def _canonical(fracs: list, d: int) -> tuple:
    """Fraction coordinates as the domain's value: integers over the least
    positive common denominator."""
    fracs = list(fracs) + [Fraction(0)] * (d - len(fracs))
    den = math.lcm(*(f.denominator for f in fracs))
    return tuple(int(f * den) for f in fracs) + (den,)


def _reduce(poly: list, n: int) -> list:
    mod = [Fraction(c) for c in cyclotomic_coeffs(n)]
    return _divmod(poly, mod)[1] if poly else []


def _ref_mul(a: list, b: list, n: int) -> list:
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _reduce(out, n)


def _fracs(v: tuple) -> list:
    return [Fraction(c, v[-1]) for c in v[:-1]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 15])
def test_domain_matches_fraction_reference(n):
    rng = random.Random(1000 + n)
    dom = CyclotomicDomain(n)
    d = dom.degree
    for _ in range(25):
        # each operand is integral (den 1) half the time, which the closed
        # forms of degree <= 2 take
        a, b = ([(Fraction(rng.randint(-9, 9)) if whole else _rational(rng))
                 if rng.random() < 0.7 else Fraction(0) for _ in range(d)]
                for whole in (rng.random() < 0.5, rng.random() < 0.5))
        va, vb = _canonical(a, d), _canonical(b, d)
        assert dom.add(va, vb) == _canonical([x + y for x, y in zip(a, b)], d)
        assert dom.sub(va, vb) == _canonical([x - y for x, y in zip(a, b)], d)
        assert dom.neg(va) == _canonical([-x for x in a], d)
        assert dom.mul(va, vb) == _canonical(_ref_mul(a, b, n), d)
        if any(b):
            inv = _fracs(dom.inv(vb))
            assert _ref_mul(inv, b, n) == [1]
            assert _ref_mul(_fracs(dom.div(va, vb)), b, n) == _reduce(a, n)


@pytest.mark.parametrize("n", [1, 4, 12])
def test_domain_values_are_canonical(n):
    rng = random.Random(n)
    dom = CyclotomicDomain(n)
    d = dom.degree
    assert dom.zero == (0,) * d + (1,)
    vals = [dom.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
            for _ in range(6)] + [dom.zeta_pow(k) for k in range(n)]
    for _ in range(40):
        a, b = rng.choice(vals), rng.choice(vals)
        for c in (dom.add(a, b), dom.sub(a, b), dom.mul(a, b), dom.neg(a)) + (
                (dom.inv(b), dom.div(a, b)) if not dom.is_zero(b) else ()):
            assert c[-1] > 0 and math.gcd(*c) == 1
            vals.append(c)
        # the same value computed two ways is the same tuple
        assert dom.sub(dom.add(a, b), b) == a
        assert dom.mul(a, dom.add(b, b)) == dom.add(dom.mul(a, b), dom.mul(b, a))
    assert dom.sub(a, a) == dom.zero


@pytest.mark.parametrize("n", [60, 128])
def test_cyclotomic_inverse_round_trip_at_large_degree(n):
    rng = random.Random(n)
    dom = CyclotomicDomain(n)
    a = _canonical([_rational(rng) for _ in range(dom.degree)], dom.degree)
    inv = dom.inv(a)
    assert dom.mul(a, inv) == dom.one
    assert dom.div(dom.one, a) == inv
    # the inverse has coordinates of about 500 bits at n = 128
    assert dom.inv(inv) == a


def _oracle_render(s: Scalar) -> str:
    """A scalar rendered through the Fraction-based helpers."""
    dom = s.ctx.dom
    polys = [s.num] if s.den == s.ctx._pone else [s.num, s.den]
    out = []
    for p in polys:
        parts = []
        for e in sorted(p, key=_grlex, reverse=True):
            mono = "*".join(name if k == 1 else f"{name}^{k}"
                            for name, k in zip(s.ctx.parameters, e) if k)
            rat = dom.rational_value(p[e])
            if rat is not None:
                parts.append(fraction_signed_coeff(rat, mono))
            elif mono:
                zeta = _join_signed(fraction_zeta_terms(dom.coords(p[e])))
                parts.append((False, f"({zeta})*{mono}"))
            else:
                parts += fraction_zeta_terms(dom.coords(p[e]))
        out.append(_join_signed(parts))
    return out[0] if len(out) == 1 else f"({out[0]})/({out[1]})"


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 12])
def test_integer_renderer_matches_the_fraction_oracle(n):
    rng = random.Random(7 * n)
    dom = CyclotomicDomain(n)
    d = dom.degree
    for _ in range(60):
        # coordinates that share factors with the denominator, one by one
        # or all together
        den = rng.choice((1, 2, 4, 6, 9, 12, 30))
        a = tuple(rng.choice((0, rng.randint(-40, 40))) for _ in range(d)) + (den,)
        fracs = [Fraction(c, den) for c in a[:-1]]
        assert _zeta_terms(a) == fraction_zeta_terms(fracs)
        for mono in ("", "q", "q^2*r"):
            for c in a[:-1]:
                assert _signed_coeff(c, den, mono) == \
                    fraction_signed_coeff(Fraction(c, den), mono)
        value = _canonical(fracs, d)
        assert dom.render(value) == _join_signed(fraction_zeta_terms(dom.coords(value)))
    ctx = ScalarContext(cyclotomic_order=n, parameters=("q", "r"))
    q, r = ctx.param("q"), ctx.param("r")
    for _ in range(20):
        s = sum((ctx.fraction(_rational(rng)) * ctx.zeta(rng.randrange(n))
                 * q ** rng.randint(0, 2) * r ** rng.randint(0, 1)
                 for _ in range(3)), ctx.zero)
        for t in (s, s / (q + r), (1 + ctx.zeta()) * s):
            assert str(t) == _oracle_render(t)


@pytest.mark.parametrize("p", [2, 13, 10007])
def test_integer_renderer_matches_the_fraction_oracle_mod_p(p):
    rng = random.Random(p)
    ctx = ScalarContext(characteristic=p, parameters=("q",))
    q = ctx.param("q")
    for c in [0, 1, p - 1] + [rng.randrange(p) for _ in range(20)]:
        for mono in ("", "q"):
            assert _signed_coeff(c, 1, mono) == fraction_signed_coeff(Fraction(c), mono)
        s = ctx.int_(c) * q ** 2 - ctx.int_(rng.randrange(p)) * q + 1
        for t in (s, s / (q - 3), ctx.int_(c)):
            assert str(t) == _oracle_render(t)


def test_hand_checked_q_integer_at_zeta6():
    # [3] at zeta_6 is 1 + zeta_6 + zeta_6^2 = 2*zeta_6
    ctx = _ctx(cyclotomic_order=6)
    assert q_integer(3, ctx.zeta()) == 2 * ctx.zeta()


# ---------------------------------------------------------------------------
# the prime field
# ---------------------------------------------------------------------------


def test_prime_field_basics():
    ctx = _ctx(characteristic=5)
    assert ctx.fraction(Fraction(1, 2)) == ctx.int_(3)
    assert ctx.int_(7) == ctx.int_(2)
    assert (ctx.int_(3) * ctx.int_(2)) == ctx.one
    with pytest.raises(ZeroDivisionError):
        ctx.fraction(Fraction(1, 5))
    with pytest.raises(ValueError):
        _ctx(characteristic=6)
    with pytest.raises(ValueError):
        _ctx(characteristic=5, cyclotomic_order=3)


def test_primality_is_decided_without_trial_division():
    assert _ctx(characteristic=2**61 - 1).dom.p == 2**61 - 1
    # a Carmichael number and a strong pseudoprime to the bases 2, 3, 5, 7
    for n in (561, 3215031751):
        with pytest.raises(ValueError, match="characteristic must be prime"):
            _ctx(characteristic=n)
    with pytest.raises(ValueError, match="decided only below 3317044064679887385961981"):
        _ctx(characteristic=2**89 - 1)
    assert [n for n in range(2, 2000) if is_prime(n)] == [
        n for n in range(2, 2000) if all(n % d for d in range(2, math.isqrt(n) + 1))]


# ---------------------------------------------------------------------------
# normal form and equality
# ---------------------------------------------------------------------------


def test_exact_division_collapse():
    ctx = _ctx(parameters=("q",))
    q = ctx.param("q")
    s = (q**2 - 1) / (q - 1)
    assert str(s) == "q + 1"
    assert s == q + 1
    t = (6 * q) / (2 * q)
    assert t.as_fraction() == 3


def test_cross_multiplication_equality():
    ctx = _ctx(parameters=("q",))
    q = ctx.param("q")
    a = q / (q - 1)
    b = (q**2 + q) / (q**2 - 1)
    assert a == b
    assert not (a == b + 1)


def test_constant_predicates():
    ctx = _ctx(cyclotomic_order=4, parameters=("q",))
    q = ctx.param("q")
    assert ctx.fraction(Fraction(-3, 4)).as_fraction() == Fraction(-3, 4)
    assert ctx.zeta().as_fraction() is None
    assert ctx.zeta().is_constant()
    assert not q.is_constant()
    assert (q / q).is_one()


def test_mixed_context_rejected():
    a = _ctx(parameters=("q",)).param("q")
    b = _ctx(parameters=("q",)).param("q")
    with pytest.raises(ValueError):
        a + b


def test_rendering_is_deterministic_and_reparseable_shapes():
    ctx = _ctx(cyclotomic_order=4, parameters=("q", "r"))
    q, r = ctx.param("q"), ctx.param("r")
    s = 2 * q**2 * r - q + ctx.fraction(Fraction(1, 2)) + ctx.zeta() * r
    assert str(s) == str(s)
    assert "zeta" in str(s)


# ---------------------------------------------------------------------------
# q-integers, orders, linear solving, Lucas
# ---------------------------------------------------------------------------


def test_q_integer_telescope_identity():
    ctx = _ctx(parameters=("q",))
    q = ctx.param("q")
    for m in range(0, 9):
        assert q_integer(m, q) * (q - 1) == q**m - 1


def test_root_of_unity_orders():
    ctx = _ctx(cyclotomic_order=12, parameters=("q",))
    assert root_of_unity_order(ctx.zeta()) == 12
    assert root_of_unity_order(ctx.zeta(3)) == 4
    assert root_of_unity_order(-ctx.one) == 2
    assert root_of_unity_order(ctx.one) == 1
    assert root_of_unity_order(-ctx.zeta(3)) == 4
    # the torsion units of Q(zeta_3) have order up to 2*3
    assert root_of_unity_order(-_ctx(cyclotomic_order=3).zeta()) == 6
    assert root_of_unity_order(ctx.int_(2)) is None
    assert root_of_unity_order(ctx.param("q")) is None
    with pytest.raises(ValueError):
        root_of_unity_order(ctx.zero)


def test_root_of_unity_orders_mod_p():
    ctx = _ctx(characteristic=7)
    # 3 is a primitive root mod 7; 2 has order 3
    assert root_of_unity_order(ctx.int_(3)) == 6
    assert root_of_unity_order(ctx.int_(2)) == 3
    assert root_of_unity_order(ctx.int_(6)) == 2


# ---------------------------------------------------------------------------
# field axioms under random expression trees
# ---------------------------------------------------------------------------

_AXIOM_CTX = ScalarContext(cyclotomic_order=4, parameters=("q", "r"))


@st.composite
def _scalar_exprs(draw):
    ctx = _AXIOM_CTX
    atoms = [ctx.one, ctx.int_(2), ctx.int_(-3), ctx.fraction(Fraction(1, 2)),
             ctx.zeta(), ctx.param("q"), ctx.param("r")]
    s = draw(st.sampled_from(atoms))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from("+-*/"))
        t = draw(st.sampled_from(atoms))
        if op == "+":
            s = s + t
        elif op == "-":
            s = s - t
        elif op == "*":
            s = s * t
        elif not t.is_zero():
            s = s / t
    return s


@given(_scalar_exprs(), _scalar_exprs(), _scalar_exprs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@given(_scalar_exprs(), _scalar_exprs())
def test_division_inverts_multiplication(a, b):
    if not b.is_zero():
        assert (a * b) / b == a
        assert b * b.inv() == _AXIOM_CTX.one


@given(_scalar_exprs())
def test_normal_form_idempotent(a):
    again = Scalar(a.ctx, a.num, a.den)
    assert again.num == a.num and again.den == a.den
    assert str(again) == str(a)


# ---------------------------------------------------------------------------
# parameter-free fast path against the general path
# ---------------------------------------------------------------------------

# (parameter-free context, the same field with one unused parameter)
_PAIRED_CTXS = [(ScalarContext(**kw), ScalarContext(parameters=("q",), **kw))
                for kw in ({}, {"cyclotomic_order": 4},
                           {"cyclotomic_order": 12}, {"characteristic": 13})]


def _constant(ctx: ScalarContext, coords) -> Scalar:
    """sum_k coords[k]*zeta^k, or coords[0] in positive characteristic."""
    if ctx.characteristic:
        return ctx.fraction(coords[0])
    return sum((ctx.fraction(c) * ctx.zeta(k) for k, c in enumerate(coords)),
               ctx.zero)


_COORDS = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12)
                   | st.just(Fraction(0)), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_PAIRED_CTXS), _COORDS, _COORDS, st.integers(-3, 4))
def test_constant_fast_path_matches_general_path(ctxs, xs, ys, k):
    fast, general = ctxs
    a, b = _constant(fast, xs), _constant(fast, ys)
    ga, gb = _constant(general, xs), _constant(general, ys)
    assert (a == b) == (ga == gb)
    pairs = [(a + b, ga + gb), (a - b, ga - gb), (a * b, ga * gb),
             (-a, -ga), (a + 2, ga + 2), (3 - a, 3 - ga)]
    if not b.is_zero():
        pairs += [(a / b, ga / gb), (b.inv(), gb.inv()), (5 / b, 5 / gb),
                  (b ** k, gb ** k)]
    for x, gx in pairs:
        assert str(x) == str(gx)
        assert x.is_zero() == gx.is_zero() and x.is_one() == gx.is_one()
        assert x.as_fraction() == gx.as_fraction()


# ---------------------------------------------------------------------------
# every operator returns its result in normal form
# ---------------------------------------------------------------------------

_FAMILY_CTXS = [ScalarContext(), ScalarContext(cyclotomic_order=4),
                ScalarContext(characteristic=5),
                ScalarContext(parameters=("q",)),
                ScalarContext(parameters=("q", "r"))]


@st.composite
def _operand(draw, ctx: ScalarContext) -> Scalar:
    if ctx.characteristic:
        return ctx.int_(draw(st.integers(0, ctx.characteristic - 1)))
    if not ctx.parameters:
        return _constant(ctx, draw(_COORDS))
    num, den = draw(_param_fraction(ctx))
    return num / den


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_operator_returns_normal_form(data):
    ctx = data.draw(st.sampled_from(_FAMILY_CTXS))
    a, b = data.draw(_operand(ctx)), data.draw(_operand(ctx))
    n = data.draw(st.integers(-6, 6))
    f = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
    results = [-a, -b]
    for x, y in ((a, b), (b, a), (a, n), (n, a), (a, f), (f, a), (a, a)):
        results += [x + y, x - y, x * y]
        if ctx.zero + y:
            results.append(x / y)
    for k in range(-2, 4):
        if a or k >= 0:
            results.append(a ** k)
    if a:
        results.append(a.inv())
    for r in results:
        assert type(r) is Scalar and r.ctx is ctx
        again = Scalar(ctx, r.num, r.den)
        assert r.num == again.num and r.den == again.den
        assert (r.den is ctx._pone) == (again.den is ctx._pone)
    # a scalar of an equal but distinct context is refused on every path
    twin = ScalarContext(ctx.characteristic, ctx.cyclotomic_order,
                         ctx.parameters)
    for other in (twin.one, twin.zero, twin.int_(3)):
        for x, y in ((a, other), (other, a), (ctx.zero, other)):
            for op in (operator.add, operator.sub, operator.mul,
                       operator.truediv, operator.eq):
                with pytest.raises(ValueError, match="different contexts"):
                    op(x, y)


# ---------------------------------------------------------------------------
# the dense polynomial layer, against sympy
# ---------------------------------------------------------------------------


def _random_dense(rng, degree, coeff):
    """A dense polynomial of the given degree with a nonzero top term."""
    out = [coeff(rng) for _ in range(degree)]
    top = coeff(rng)
    while not top:
        top = coeff(rng)
    return out + [top]


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _to_sympy(sympy, coeffs, x, domain):
    return sympy.Poly(list(reversed(coeffs)), x, domain=domain)


def _sylvester_resultant(sympy, f, g, x):
    """Res(f, g) as the determinant of the Sylvester matrix.  (sympy's own
    ``resultant`` returns -729 for both Res(x - 9, x^3) and Res(x^3, x - 9),
    so it cannot serve as the oracle for the sign.)"""
    from sympy.polys.subresultants_qq_zz import sylvester
    return sylvester(f.as_expr(), g.as_expr(), x).det()


@pytest.mark.parametrize("seed", range(6))
def test_dense_layer_matches_sympy_over_q(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    x = sympy.Symbol("x")

    def poly(coeffs):
        return _to_sympy(sympy, [sympy.Rational(c.numerator, c.denominator)
                                 for c in coeffs], x, "QQ")

    for _ in range(8):
        a = _random_dense(rng, rng.randint(1, 6), _rational)
        b = _random_dense(rng, rng.randint(1, 4), _rational)
        if rng.random() < 0.4:
            # a shared factor, so the gcd and the resultant are not trivial
            c = _random_dense(rng, rng.randint(1, 2), _rational)
            a, b = (poly(a) * poly(c)).all_coeffs(), \
                (poly(b) * poly(c)).all_coeffs()
            a = [Fraction(int(t.p), int(t.q)) for t in reversed(a)]
            b = [Fraction(int(t.p), int(t.q)) for t in reversed(b)]
        q, r = _divmod(a, b)
        sq, sr = sympy.div(poly(a), poly(b))
        assert poly(q) == sq and poly(r) == sr
        assert not r or r[-1] != 0
        assert poly(_gcd(a, b)) == sympy.gcd(poly(a), poly(b))
        res = _resultant(a, b)
        assert sympy.Rational(res.numerator, res.denominator) == \
            _sylvester_resultant(sympy, poly(a), poly(b), x)
        values = [_rational(rng) for _ in range(rng.randint(1, 6))]
        expected = sympy.interpolate(
            [(i, sympy.Rational(v.numerator, v.denominator))
             for i, v in enumerate(values)], x)
        got = _interpolate(values, range(len(values)))
        assert poly(got) == sympy.Poly(expected, x, domain="QQ")


def test_resultant_sign_and_degenerate_cases():
    f = [Fraction(c) for c in (-2, 0, 1)]       # x^2 - 2
    g = [Fraction(c) for c in (0, 1)]           # x
    assert _resultant(f, g) == -2 and _resultant(g, f) == -2
    h = [Fraction(c) for c in (1, 1)]           # x + 1
    # Res(x, x + 1) = 1 and Res(x + 1, x) = -1: both degrees are odd
    assert _resultant(g, h) == 1 and _resultant(h, g) == -1
    assert _resultant(f, [Fraction(3)]) == 9
    assert _resultant([Fraction(3)], f) == 9
    assert _resultant(f, [Fraction(c) for c in (-4, 0, 2)]) == 0
    assert _gcd([], []) == [] and _gcd([], h) == h


@pytest.mark.parametrize("seed", range(3))
def test_dense_layer_matches_sympy_over_q_of_q(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    ctx = ScalarContext(parameters=("q",))
    qs = ctx.param("q")
    x, q = sympy.symbols("x q")
    field = sympy.QQ.frac_field(q)

    def coeff(rng):
        c = ctx.int_(rng.randint(-3, 3)) + ctx.int_(rng.randint(-2, 2)) * qs
        if rng.random() < 0.3:
            c = c / (qs + rng.randint(1, 3))
        return c

    def value(s: Scalar):
        return sympy.sympify(str(s).replace("^", "**"), locals={"q": q})

    def poly(coeffs):
        return _to_sympy(sympy, [value(c) for c in coeffs], x, field)

    for _ in range(4):
        a = _random_dense(rng, rng.randint(1, 3), coeff)
        b = _random_dense(rng, rng.randint(1, 2), coeff)
        q_, r = _divmod(a, b)
        sq, sr = sympy.div(poly(a), poly(b))
        assert poly(q_) == sq and poly(r) == sr
        assert poly(_gcd(a, b)) == sympy.gcd(poly(a), poly(b))
        assert sympy.cancel(value(_resultant(a, b)) - _sylvester_resultant(
            sympy, poly(a), poly(b), x)) == 0
        values = [coeff(rng) for _ in range(3)]
        expected = sympy.interpolate([(i, value(v)) for i, v in
                                      enumerate(values)], x)
        got = poly(_interpolate(values, range(len(values)))).as_expr()
        assert sympy.cancel(got - expected) == 0


def test_integer_roots_with_repeated_roots_and_colliding_primes():
    sympy = pytest.importorskip("sympy")
    m = sympy.Symbol("m")
    lc = math.prod(p for p in range(2, 42) if is_prime(p))
    cases = [
        [3, -4, 1],                  # (m - 1)(m - 3): collides mod 2
        [-28, 39, -12, 1],           # (m - 1)(m - 4)(m - 7): collides mod 3
        [-12, 16, -7, 1],            # (m - 2)^2 (m - 3)
        [0, 0, 125, 75, 15, 1],      # m^2 (m + 5)^3
        [1, -4, 6, -4, 1],           # (m - 1)^4
        [36, 0, -13, 0, 1],          # (m^2 - 4)(m^2 - 9)
        [-9, 0, 0, 3, 0, 1],         # m^5 + 3m^3 - 9: no integer root
        [4, 0, -4, 0, 1],            # (m^2 - 2)^2: repeated, no integer root
        [-6 * lc, lc, lc],           # lc*(m - 2)(m + 3): squarefree, and
                                     # no prime below 43 serves
    ]
    for f in cases:
        expected = sorted({int(r) for r in sympy.Poly(
            list(reversed(f)), m).ground_roots() if r.is_integer})
        assert _integer_roots_int(f) == expected, f
    assert _integer_roots_int([3, -4, 1]) == [1, 3]
    assert _integer_roots_int([-12, 16, -7, 1]) == [2, 3]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101])
def test_residue_roots_up_to_degree_two_match_a_walk(p):
    # in characteristic p the roots of degree <= 2 come from the
    # discriminant; a walk over every residue is the reference
    rng = random.Random(p)
    for ctx in (ScalarContext(characteristic=p),
                ScalarContext(characteristic=p, parameters=("q",))):
        q = ctx.param("q") if ctx.parameters else ctx.zero
        for _ in range(60):
            coeffs = [ctx.int_(rng.randrange(p)) + ctx.int_(rng.randrange(p)) * q
                      for _ in range(rng.randint(1, 3))]
            walk = [m for m in range(p)
                    if _horner(coeffs, ctx.int_(m)).is_zero()]
            expected = "all" if len(walk) == p else walk
            assert integer_roots_scalar_poly(coeffs) == expected, coeffs


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 12])
def test_cyclotomic_inverse_round_trip(n):
    rng = random.Random(n)
    ctx = ScalarContext(cyclotomic_order=n)
    for _ in range(6):
        a = sum((ctx.fraction(_rational(rng)) * ctx.zeta(k)
                 for k in range(rng.randint(1, n))), ctx.zero)
        if a.is_zero():
            continue
        assert a * a.inv() == ctx.one
        assert a.inv().inv() == a


@pytest.mark.parametrize("n", [5, 7, 8, 9, 12, 15])
def test_fold_rows_are_powers_reduced_mod_the_cyclotomic_polynomial(n):
    dom = CyclotomicDomain(n)
    d = dom.degree
    mod = [Fraction(c) for c in cyclotomic_coeffs(n)]
    assert len(dom._fold) == d - 1
    for k, row in enumerate(dom._fold):
        power = [Fraction(0)] * (d + k) + [Fraction(1)]
        rem = _divmod(power, mod)[1]
        assert row == tuple(rem + [Fraction(0)] * (d - len(rem)))


# ---------------------------------------------------------------------------
# parametric fast paths: unit, one-term and several-term denominators
# ---------------------------------------------------------------------------

_PARAM_CTXS = [ScalarContext(parameters=("q",)),
               ScalarContext(parameters=("q", "r")),
               ScalarContext(cyclotomic_order=3, parameters=("q",)),
               ScalarContext(cyclotomic_order=4, parameters=("mu",)),
               ScalarContext(characteristic=13, parameters=("q",))]


@st.composite
def _param_poly(draw, ctx: ScalarContext, size: int) -> Scalar:
    """A Laurent polynomial with `size` distinct monomials, each exponent
    between -2 and 2."""
    slot = st.integers(-2, 2)
    exps = draw(st.lists(st.tuples(*[slot] * len(ctx.parameters)),
                         min_size=size, max_size=size, unique=True))
    out = ctx.zero
    for e in exps:
        c = ctx.fraction(Fraction(draw(st.integers(-6, 6).filter(bool)),
                                  draw(st.integers(1, 3))))
        if ctx.cyclotomic_order > 1:
            c = c * ctx.zeta(draw(st.integers(0, ctx.cyclotomic_order - 1)))
        for name, k in zip(ctx.parameters, e):
            c = c * ctx.param(name) ** k
        out = out + c
    return out


@st.composite
def _param_fraction(draw, ctx: ScalarContext) -> tuple[Scalar, Scalar]:
    """(num, den): den is 1, one term or several; num is half the time a
    multiple of den, so the exact-division collapse gets exercised."""
    num = draw(_param_poly(ctx, draw(st.integers(0, 3))))
    size = draw(st.integers(0, 3))
    den = draw(_param_poly(ctx, size)) if size else ctx.one
    if draw(st.booleans()):
        num = num * den
    return num, den


def _sympy_poly(sympy, ctx: ScalarContext, p: dict):
    """p with zeta as the symbol `zeta`, which ``same`` reduces mod Phi_N."""
    gens = [sympy.Symbol(name) for name in ctx.parameters]
    zeta = sympy.Symbol("zeta")
    out = sympy.Integer(0)
    for e, c in p.items():
        coeff = sum(sympy.Rational(x.numerator, x.denominator) * zeta ** k
                    for k, x in enumerate(ctx.dom.coords(c)))
        out += coeff * sympy.Mul(*[g ** k for g, k in zip(gens, e)])
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parametric_fast_paths_match_sympy(data):
    sympy = pytest.importorskip("sympy")
    ctx = data.draw(st.sampled_from(_PARAM_CTXS))
    an, ad = data.draw(_param_fraction(ctx))
    bn, bd = data.draw(_param_fraction(ctx))
    k = data.draw(st.integers(-2, 3))
    gens = [sympy.Symbol(name) for name in ctx.parameters]

    def expr(s: Scalar):
        return _sympy_poly(sympy, ctx, s.num) / _sympy_poly(sympy, ctx, s.den)

    def same(s: Scalar, expected) -> bool:
        num, _ = sympy.fraction(sympy.together(expr(s) - expected))
        if not ctx.characteristic:
            # zero in Q(zeta)(q): Phi_N(zeta) divides the numerator
            zeta = sympy.Symbol("zeta")
            phi = sum(c * zeta ** k for k, c in
                      enumerate(cyclotomic_coeffs(ctx.cyclotomic_order)))
            return sympy.rem(sympy.expand(num), phi, zeta) == 0
        # sympy reads the F_p values as rationals: clear the numerator's
        # rational coefficients over QQ, then reduce it mod p (no
        # denominator here is divisible by p)
        _, num = sympy.Poly(num, *gens, domain="QQ").clear_denoms(convert=True)
        return sympy.Poly(num.as_expr(), *gens,
                          modulus=ctx.characteristic).is_zero

    a, b = an / ad, bn / bd
    ea, eb = expr(an) / expr(ad), expr(bn) / expr(bd)
    assert same(a, ea) and same(b, eb)
    assert same(a * b, ea * eb)
    assert same(a + b, ea + eb)
    if b:
        assert same(a / b, ea / eb)
    if a or k >= 0:
        assert same(a ** k, ea ** k)
    # the fast paths hand the shared unit around by identity
    assert ctx._pone == {ctx._pzero: ctx.dom.one}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_monomial_denominators_move_into_the_numerator(data):
    ctx = data.draw(st.sampled_from(_PARAM_CTXS))
    num = data.draw(_param_poly(ctx, data.draw(st.integers(1, 3))))
    mono = data.draw(_param_poly(ctx, 1))
    if data.draw(st.booleans()):
        num = num * mono
    got = Scalar(ctx, num.num, mono.num)
    assert got.den is ctx._pone
    assert got * mono == num
    # every stored denominator is the unit or a monic polynomial of two or
    # more terms without a monomial factor
    an, ad = data.draw(_param_fraction(ctx))
    bn, bd = data.draw(_param_fraction(ctx))
    for s in (an / ad, bn / bd, an / ad + bn / bd, (an / ad) * (bn / bd),
              got.inv(), (an / ad).inv() if an else ctx.one):
        assert s.den is ctx._pone or (
            len(s.den) > 1 and _plead(s.den)[1] == ctx.dom.one
            and not any(map(min, zip(*s.den))))
    assert ctx._pone == {ctx._pzero: ctx.dom.one}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_equal_scalars_over_monomials_render_alike(data):
    ctx = data.draw(st.sampled_from(_PARAM_CTXS))
    num = data.draw(_param_poly(ctx, data.draw(st.integers(1, 3))))
    m, n = data.draw(_param_poly(ctx, 1)), data.draw(_param_poly(ctx, 1))
    ways = [num / m, (num * n) / (m * n), num * n.inv() * (n / m),
            sum((Scalar(ctx, {e: c}, ctx._pone) / m
                 for e, c in num.num.items()), ctx.zero)]
    assert all(w == ways[0] for w in ways)
    assert len({str(w) for w in ways}) == 1


# ---------------------------------------------------------------------------
# rendered powers over parametric fields, pinned; the monomial-divisor guard
# ---------------------------------------------------------------------------

_WEYL = """context(parameters = [q])
base F = field()
auto i on F { }
ring R = ambiskew(F, i, v = 1, rho = q)
"""

_FC4_MIXED = """context(cyclotomic_order = 4, parameters = [mu])
base A = cyclic_group(n = 4, epsilon = zeta)
auto a on A { s -> zeta*s }
ring R = ambiskew(A, a, v = s + mu*s^3, rho = zeta, y = y1, x = x1)
"""

_LAURENT_SCALE = """context(parameters = [q, r])
base L = laurent(t)
auto a on L { t -> q*t }
ring R = ambiskew(L, a, v = t, rho = r)
"""

_WEYL_POW6 = (
    '((-5*q^3 - 6*q^2 - 3*q - 1)/(q^6)) + ((9*q^5 + 13*q^4 + 12*q^3'
    ' + 7*q^2 + 3*q + 1)/(q^7))*y^2 + ((-5*q^4 - 4*q^3 - 3*q^2 - '
    '2*q - 1)/(q^5))*y^4 + y^6 + ((9*q^6 + 22*q^5 + 25*q^4 + 19*q^3'
    ' + 10*q^2 + 4*q + 1)/(q^8))*x*y + ((-5*q^7 - 9*q^6 - 12*q^5 - '
    '14*q^4 - 10*q^3 - 6*q^2 - 3*q - 1)/(q^8))*x*y^3 + ((q^5 + q^4 '
    '+ q^3 + q^2 + q + 1)/(q^5))*x*y^5 + ((9*q^5 + 13*q^4 + 12*q^3 '
    '+ 7*q^2 + 3*q + 1)/(q^7))*x^2 + ((-5*q^8 - 9*q^7 - 17*q^6 - '
    '18*q^5 - 18*q^4 - 12*q^3 - 7*q^2 - 3*q - 1)/(q^9))*x^2*y^2 + '
    '((q^8 + q^7 + 2*q^6 + 2*q^5 + 3*q^4 + 2*q^3 + 2*q^2 + q + '
    '1)/(q^8))*x^2*y^4 + ((-5*q^7 - 9*q^6 - 12*q^5 - 14*q^4 - '
    '10*q^3 - 6*q^2 - 3*q - 1)/(q^8))*x^3*y + ((q^9 + q^8 + 2*q^7 +'
    ' 3*q^6 + 3*q^5 + 3*q^4 + 3*q^3 + 2*q^2 + q + 1)/(q^9))*x^3*y^3'
    ' + ((-5*q^4 - 4*q^3 - 3*q^2 - 2*q - 1)/(q^5))*x^4 + ((q^8 + '
    'q^7 + 2*q^6 + 2*q^5 + 3*q^4 + 2*q^3 + 2*q^2 + q + '
    '1)/(q^8))*x^4*y^2 + ((q^5 + q^4 + q^3 + q^2 + q + '
    '1)/(q^5))*x^5*y + x^6')

_FC4_POW5 = (
    '((7*mu^2 + 3 + 2*zeta)*s^3 + ((2 - 2*zeta)*mu)*s^2 + ((10 + '
    '2*zeta)*mu - 1)*s + (2 - 2*zeta)) + (-4*s^3 + ((3 - '
    '2*zeta)*mu^2 - 1)*s^2 - 8*mu*s + ((-2 + 2*zeta)*mu + 1))*y1 + '
    '((2 - 2*zeta)*s^2 + ((4 - 8*zeta)*mu))*y1^2 + (((-2 - '
    '2*zeta)*mu)*s^3)*y1^3 + (-s)*y1^4 + y1^5 + x1*(-4*s^3 + ((3 - '
    '2*zeta)*mu^2 - 1)*s^2 - 8*mu*s + ((-2 + 2*zeta)*mu + 1)) + '
    'x1*((4 + 4*zeta)*s^3 + 6*s^2 + ((-14 - 16*zeta)*mu))*y1 + '
    'x1*(2*mu*s^3 - 8*s^2 + 2*zeta*s)*y1^2 + x1*((-4 - '
    '4*zeta)*s)*y1^3 + x1*y1^4 + x1^2*((2 - 2*zeta)*s^2 + ((4 - '
    '8*zeta)*mu)) + x1^2*(2*mu*s^3 - 8*s^2 + 2*zeta*s)*y1 + '
    'x1^2*(-8*s)*y1^2 + x1^3*(((-2 - 2*zeta)*mu)*s^3) + x1^3*((-4 - '
    '4*zeta)*s)*y1 + x1^4*(-s) + x1^4*y1 + x1^5')

_LAURENT_POW3 = (
    '(8*t^3 + ((-2*q - 4)/(r))*t^2) + ((4*q^2 + 4*q + 4)*t^2 + '
    '((-q*r - r - 1)/(r^2))*t)*y + ((2*q^2 + 2*q + 2)*t)*y^2 + y^3 '
    '+ x*((4*q^2 + 4*q + 4)*t^2 + ((-q*r - r - 1)/(r^2))*t) + '
    'x*(((2*q^2 + 4*q*r + 4*q + 2*r)/(r))*t)*y + ((r^2 + r + '
    '1)/(r^2))*x*y^2 + x^2*((2*q^2 + 2*q + 2)*t) + ((r^2 + r + '
    '1)/(r^2))*x^2*y + x^3')


def _scalars_of(element):
    """The scalar coefficients of an element, through nested bases."""
    for c in element.values():
        if isinstance(c, Scalar):
            yield c
        else:
            yield from _scalars_of(c)


@pytest.mark.parametrize("text, expr, rendered", [
    (_WEYL, "(x + y)^6", _WEYL_POW6),
    (_FC4_MIXED, "(x1 + y1 - s)^5", _FC4_POW5),
    (_LAURENT_SCALE, "(x + y + 2*t)^3", _LAURENT_POW3),
])
def test_parametric_powers_render_pinned(text, expr, rendered):
    ring = parse_spec(text).rings["R"]
    element = eval_element(parse_expression(expr), ring)
    assert ring.render(element) == rendered
    # each rendered denominator is the reduced one, up to a constant
    sympy = pytest.importorskip("sympy")
    for s in _scalars_of(element):
        shown = sympy.sympify(str(s).replace("^", "**"),
                              locals={"zeta": sympy.I})
        reduced = sympy.fraction(sympy.cancel(shown))[1]
        assert sympy.cancel(sympy.fraction(shown)[1] / reduced).is_number, s


_QUANTUM_PLANE = _WEYL.replace("v = 1", "v = 0")

_LAURENT_GWA = """context(parameters = [q])
base L = laurent(t)
auto a on L { t -> q*t }
ring T = gwa(L, a, u = t)
"""


@pytest.mark.parametrize("text, name, expr, n", [
    (_WEYL, "R", "x + y", 8),
    (_QUANTUM_PLANE, "R", "x + y", 10),
    (_LAURENT_SCALE, "R", "x + y - 2*t", 5),
    (_LAURENT_GWA, "T", "X + Y + 2*t", 5),
])
def test_powers_render_the_same_however_they_are_multiplied(text, name, expr, n):
    ring = parse_spec(text).rings[name]
    element = eval_element(parse_expression(expr), ring)
    assert ring.render(ring.power(element, n)) == ring.render(pw(ring, element, n))


def test_quantized_weyl_twelfth_power_has_denominator_q36():
    ring = parse_spec(_WEYL).rings["R"]
    element = eval_element(parse_expression("(x + y)^12"), ring)
    shown = ring.render(element)
    dens = re.findall(r"/\(([^)]*)\)", shown)
    assert all(re.fullmatch(r"q\^\d+", d) for d in dens)
    assert max(int(d[2:]) for d in dens) == 36
    assert ring.eq(eval_element(parse_expression(shown), ring), element)


def test_monomial_divisors_skip_long_division(monkeypatch):
    divisor_terms = []
    general = scalars._pdiv_exact

    def counting(dom, num, den):
        divisor_terms.append(len(den))
        return general(dom, num, den)

    monkeypatch.setattr(scalars, "_pdiv_exact", counting)
    ring = parse_spec(_WEYL).rings["R"]
    eval_element(parse_expression("(x + y)^8"), ring)
    assert 1 not in divisor_terms
    # the counter sees the divisions that do run: two-term divisors
    q = ring.ctx.param("q")
    assert (q**2 - 1) / (q - 1) == q + 1
    assert 2 in divisor_terms


def test_monic_divisor_long_division_inverts_nothing(monkeypatch):
    # Scalar.__init__ makes a divisor of two or more terms monic before
    # _pdiv_exact runs, so the long division divides by no coefficient
    ctx = ScalarContext(cyclotomic_order=4, parameters=("mu",))
    mu, zeta = ctx.param("mu"), ctx.zeta()
    a = (mu + zeta) / (2 * mu - 1)
    b = mu ** 2 - zeta
    inverses = []
    inv = CyclotomicDomain.inv

    def counting(dom, x):
        inverses.append(x)
        return inv(dom, x)

    monkeypatch.setattr(CyclotomicDomain, "inv", counting)
    product = a * b
    assert inverses == []
    monkeypatch.undo()
    assert product * (2 * mu - 1) == (mu + zeta) * b


# ---------------------------------------------------------------------------
# results that are already known: products by one, and plain renders
# ---------------------------------------------------------------------------

_KNOWN_CTXS = [ScalarContext(), ScalarContext(cyclotomic_order=4),
               ScalarContext(cyclotomic_order=8),
               ScalarContext(characteristic=5),
               ScalarContext(parameters=("q",)),
               ScalarContext(parameters=("q", "r")),
               ScalarContext(cyclotomic_order=4, parameters=("mu",)),
               ScalarContext(characteristic=5, parameters=("q",))]


def _ones(ctx: ScalarContext) -> list[Scalar]:
    """Values equal to 1, the first of them ctx.one and none other that
    object."""
    out = [ctx.one, ctx.int_(1), ctx.fraction(Fraction(3, 3)),
           ctx.int_(3) * ctx.int_(3).inv(), ctx.int_(-1) * ctx.int_(-1)]
    if not ctx.characteristic:
        out.append(ctx.zeta(ctx.cyclotomic_order))
    for name in ctx.parameters:
        p = ctx.param(name)
        out += [p / p, (p + 1) / (p + 1)]
    return out


def _factors(ctx: ScalarContext) -> list[Scalar]:
    out = [ctx.int_(2), ctx.fraction(Fraction(-3, 4)), ctx.zero]
    if not ctx.characteristic:
        out.append(ctx.zeta() + ctx.fraction(Fraction(1, 2)))
    for name in ctx.parameters:
        p = ctx.param(name)
        out += [p ** -2 - 3, (p + 1) / (p - 2)]
    return out


@pytest.mark.parametrize("ctx", _KNOWN_CTXS, ids=repr)
def test_a_product_by_one_makes_no_domain_multiplication(monkeypatch, ctx):
    ones, factors = _ones(ctx), _factors(ctx)
    assert ones[0] is ctx.one
    assert all(one == ctx.one and one is not ctx.one for one in ones[1:])
    calls = []
    mul = type(ctx.dom).mul

    def counting(dom, a, b):
        calls.append((a, b))
        return mul(dom, a, b)

    monkeypatch.setattr(type(ctx.dom), "mul", counting)
    for one in ones:
        for x in factors:
            assert (x * one) is x and (one * x) is x
        assert one * one == ctx.one
    assert calls == []
    # the guard sees the products that do run
    assert factors[0] * factors[1] == ctx.fraction(Fraction(-3, 2))
    assert calls


# the earlier renderer, kept as the oracle of ``Scalar.__str__``: it clears
# the exponents with a shift that may be zero, sorts every key by graded-lex
# order, joins every monomial name and takes a gcd for every coefficient
def _oracle_signed_coeff(n: int, den: int, mono: str) -> tuple[bool, str]:
    g = math.gcd(n, den)
    c = str(abs(n) // g) if den == g else f"{abs(n) // g}/{den // g}"
    if mono:
        c = mono if c == "1" else f"{c}*{mono}" if den == g else f"({c})*{mono}"
    return n < 0, c


def _oracle_zeta_terms(a: tuple) -> list[tuple[bool, str]]:
    return [_oracle_signed_coeff(c, a[-1], "" if k == 0 else
                                 ("zeta" if k == 1 else f"zeta^{k}"))
            for k, c in enumerate(a[:-1]) if c]


def _oracle_render_poly(ctx: ScalarContext, p: dict) -> str:
    parts: list[tuple[bool, str]] = []
    for e in sorted(p, key=_grlex, reverse=True):
        c = p[e]
        mono = "*".join(name if k == 1 else f"{name}^{k}"
                        for name, k in zip(ctx.parameters, e) if k)
        if isinstance(c, int):
            parts.append(_oracle_signed_coeff(c, 1, mono))
        elif not any(c[1:-1]):
            parts.append(_oracle_signed_coeff(c[0], c[-1], mono))
        elif mono:
            parts.append((False, f"({_join_signed(_oracle_zeta_terms(c))})*{mono}"))
        else:
            parts += _oracle_zeta_terms(c)
    return _join_signed(parts)


def _oracle_str(s: Scalar) -> str:
    ctx = s.ctx
    lo = tuple([max(0, -min(k)) for k in zip(*s.num)])
    num, den = scalars._pshift(s.num, lo), scalars._pshift(s.den, lo)
    if den == ctx._pone:
        return _oracle_render_poly(ctx, num)
    return f"({_oracle_render_poly(ctx, num)})/({_oracle_render_poly(ctx, den)})"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rendering_matches_the_earlier_renderer(data):
    ctx = data.draw(st.sampled_from(_KNOWN_CTXS))
    if ctx.parameters:
        # a polynomial or monomial denominator, and a monomial factor whose
        # exponents may be negative
        num, den = data.draw(_param_fraction(ctx))
        assume(den)  # a coefficient of 5 vanishes in F_5(q)
        s = num / den
        for name in ctx.parameters:
            s = s * ctx.param(name) ** data.draw(st.integers(-3, 2))
    else:
        s = data.draw(_operand(ctx))
    for x in (s, -s, s.inv() if s else s, s * ctx.fraction(Fraction(-5, 3))):
        assert str(x) == _oracle_str(x)
