from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ambiskew.scalars import (
    ALL_M,
    Scalar,
    ScalarContext,
    cyclotomic_coeffs,
    positive_integer_solution,
    q_integer,
    root_of_unity_order,
)


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
    assert t.as_integer() == 3


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


def test_positive_integer_solution():
    ctx = _ctx(parameters=("c",))
    c = ctx.param("c")
    assert positive_integer_solution(c, -3 * c) == 3
    assert positive_integer_solution(c, c) is None
    assert positive_integer_solution(c, -c / 2) is None
    assert positive_integer_solution(ctx.zero, ctx.zero) == ALL_M
    assert positive_integer_solution(ctx.zero, c) is None
    assert positive_integer_solution(ctx.one, ctx.zero) is None
    ctxp = _ctx(characteristic=5)
    with pytest.raises(ValueError):
        positive_integer_solution(ctxp.one, ctxp.one)


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
