"""The DSL's error contract and its expression semantics.

Every document in ``ERRORS`` ends in one ``DslError``; the table pins its
kind, its line and column and its message, so a change to how the parser
reads or builds a statement cannot move or reword an error unnoticed.
"""

from __future__ import annotations

import operator
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambiskew.algebras import CyclicGroupAlgebra, FieldAlgebra, PolyAlgebra
from ambiskew.dsl import (DslError, _loc, _read, _tokenize_line, eval_element,
                          eval_scalar, parse_expression, parse_scalar_table,
                          parse_spec)
from ambiskew.scalars import CyclotomicDomain, ScalarContext, _power_size

from _helpers import exact

F = "base F = field()\nauto a on F { }\n"
P = "base P = poly(t)\nauto a on P { t -> t + 1 }\n"
R = F + "ring R = ambiskew(F, a, v = 1, rho = 1)\n"
C4 = "context(cyclotomic_order = 4)\n"

# (document, kind, line, column, message)
ERRORS = [
    # context
    ("context(characteristic = 5)\ncontext(characteristic = 7)",
     "semantic", 2, 1, "the context was already declared"),
    ("context(characteristic = 6)",
     "semantic", 1, 1, "characteristic must be prime, got 6"),
    ("base F = field()\ncontext(characteristic = 5)",
     "semantic", 2, 1, "the context must come before any declaration"),
    ("context(characteristic = 5, cyclotomic_order = 4)",
     "semantic", 1, 1, "cyclotomic order must be 1 in positive characteristic"),
    ("context(parameters = q)",
     "semantic", 1, 9, "parameters takes a list like [q, r]"),
    ("context(modulus = 3)",
     "semantic", 1, 9, "unknown context argument 'modulus'"),
    ("context(characteristic = 5, characteristic = 7)",
     "syntactic", 1, 29, "duplicate argument 'characteristic'"),
    ("context(characteristic = -5)",
     "semantic", 1, 9, "characteristic must be 0 or a prime"),
    ("context(cyclotomic_order = 0)",
     "semantic", 1, 9, "cyclotomic_order must be a positive integer"),
    # base
    (C4 + "base A = cyclic_group(n = 4, epsilon = -1)",
     "semantic", 2, 1, "epsilon must be a primitive root of unity of order n"),
    ("base A = cyclic_group(n = 4)",
     "semantic", 1, 1, "cyclic_group needs n = ... and epsilon = ..."),
    ("base A = quadratic(gen = t)",
     "semantic", 1, 1, "quadratic needs d = ..."),
    ("base A = cyclic_group(n = 2, epsilon = -1, d = 3)",
     "semantic", 1, 44, "unknown cyclic_group argument 'd'"),
    ("base A = cyclic_group(n = 0, epsilon = 1)",
     "semantic", 1, 23, "n must be a positive integer"),
    ("base A = matrix()",
     "semantic", 1, 10, "unknown base family 'matrix'; expected one of "
     "field, poly, laurent, cyclic_group, quadratic"),
    ("base A = poly(t)\nbase A = laurent(t)",
     "semantic", 2, 1, "the name 'A' is already declared"),
    ("base A = poly(t, u)",
     "syntactic", 1, 16, "expected a closing ')', found ','"),
    ("base F = field(x)",
     "syntactic", 1, 16, "expected a closing ')', found 'x'"),
    ("base L = laurent(1)",
     "syntactic", 1, 18, "expected a generator name, found '1'"),
    ("base A = quadratic(d = 2, n = 3)",
     "semantic", 1, 27, "unknown quadratic argument 'n'"),
    ("base A = quadratic(d = 2, gen = 3)",
     "semantic", 1, 27, "gen must be a plain name"),
    ("base A = quadratic(d = [q])",
     "semantic", 1, 20, "d takes an expression, not a list"),
    ("base A = field() $",
     "lexical", 1, 18, "unexpected character '$'"),
    ('check torus("a#b.csv)',
     "lexical", 1, 13, "unexpected character '\"'"),
    (C4 + "base A = cyclic_group(n = 2, epsilon = w)",
     "semantic", 2, 40, "unknown name 'w'"),
    ("base A = quadratic(d = 1/0)",
     "semantic", 1, 25, "division by zero"),
    # auto
    (C4 + "base A = cyclic_group(n = 4, epsilon = zeta)\n"
     "auto b on A { s -> s + 1 }",
     "semantic", 3, 1, "the image of s must be a nonzero scalar multiple of s"),
    ("base P = poly(t)\nauto a on P { t -> t^2 }",
     "semantic", 2, 1, "the image of t must be a*t + b with a nonzero"),
    ("base P = poly(t)\nauto a on P { u -> t }",
     "semantic", 2, 15, "P has no generator 'u'"),
    ("base P = poly(t)\nauto a on P { t -> t, t -> t + 1 }",
     "semantic", 2, 23, "duplicate rule for generator 't'"),
    ("base P = poly(t)\nauto a on Q { t -> t }",
     "semantic", 2, 1, "unknown base or ring 'Q'"),
    ("base P = poly(t)\nauto a of P { t -> t }",
     "syntactic", 2, 8, "expected 'on', found 'of'"),
    ("base P = poly(t)\nauto a on P { t -> t + w }",
     "semantic", 2, 24, "unknown name 'w'"),
    ("base P = poly(t)\nauto a on P { t => t }",
     "lexical", 2, 18, "unexpected character '>'"),
    # ring
    (F + "ring R = ambiskew(F, a, v = zeta, rho = 1)",
     "semantic", 3, 29, "unknown name 'zeta'"),
    (F + "ring R = ambiskew(F, a, v = 1, rho = 0)",
     "semantic", 3, 38, "rho must be nonzero"),
    (F + "ring R = ambiskew(F, b, v = 1, rho = 1)",
     "semantic", 3, 1, "unknown automorphism 'b'"),
    (F + "ring R = ambiskew(F, a, v = 1)",
     "semantic", 3, 1, "ambiskew needs v = ... and rho = ..."),
    (F + "ring R = ambiskew(F, a, v = 1, rho = 1, u = 2)",
     "semantic", 3, 41, "unknown ambiskew argument 'u'"),
    (F + "ring R = ambiskew(F, a, v = 1, rho = 1, y = 2)",
     "semantic", 3, 41, "y must be a plain name"),
    (F + "ring R = ambiskew(F, a, v = 1, rho = 1/0)",
     "semantic", 3, 39, "division by zero"),
    (F + "ring R = weyl(F, a, v = 1, rho = 1)",
     "semantic", 3, 10, "unknown ring constructor 'weyl'; expected "
     "ambiskew, gwa or quotient_by_casimir"),
    (F + "ring R = ambiskew(F, a)",
     "syntactic", 3, 23, "expected ',', found ')'"),
    (P + "ring R = ambiskew(P, a, v = t, rho = 1, y = u, x = u)",
     "semantic", 3, 1, "the names of y and x must be distinct from each "
     "other and from the coefficient generators"),
    (P + "ring R = ambiskew(P, a, v = 1/t, rho = 1)",
     "semantic", 3, 30, "the divisor must be a scalar"),
    ("base L = laurent(t)\nauto a on L { t -> 2*t }\n"
     "ring R = ambiskew(L, a, v = (t - 1)^-1, rho = 1)",
     "semantic", 3, 36, "a negative power needs an invertible element"),
    (F + "ring R = ambiskew(F, a, v = (1 + 2, rho = 1)",
     "syntactic", 3, 35, "expected a closing ')', found ','"),
    (F + "ring R = ambiskew(F, a, v = 2^x, rho = 1)",
     "syntactic", 3, 31, "expected an integer exponent after '^', found 'x'"),
    (F + "ring R = ambiskew(F, a, v = 1 +, rho = 1)",
     "syntactic", 3, 32, "expected a number, a name or '(', found ','"),
    (F + "ring R = ambiskew(F, a, v = 2^, rho = 1)",
     "syntactic", 3, 31, "expected an integer exponent after '^', found ','"),
    (F + "ring R = ambiskew(F, a, v = (), rho = 1)",
     "syntactic", 3, 30, "expected a number, a name or '(', found ')'"),
    (F + "ring R = ambiskew(F, a, v = -, rho = 1)",
     "syntactic", 3, 30, "expected a number, a name or '(', found ','"),
    (F + "ring R = ambiskew(F, a, v = 1 + * 2, rho = 1)",
     "syntactic", 3, 33, "expected a number, a name or '(', found '*'"),
    (F + "ring R = ambiskew(F, a, v = 1), rho = 1)",
     "syntactic", 3, 31, "expected end of line, found ','"),
    (F + "ring R = ambiskew(F, a, v = 1 2, rho = 1)",
     "syntactic", 3, 31, "expected a closing ')', found '2'"),
    (P + "ring T = gwa(P, a, u = t, gamma = g)",
     "semantic", 3, 1, "unknown automorphism 'g'"),
    (P + "ring T = gwa(P, a, gamma = a)",
     "semantic", 3, 1, "gwa needs u = ..."),
    (P + "ring T = gwa(P, a, u = t, v = 1)",
     "semantic", 3, 27, "unknown gwa argument 'v'"),
    (P + "ring T = gwa(P, a, u = t, gamma = 2)",
     "semantic", 3, 27, "gamma must be a plain name"),
    (P + "ring T = gwa(P, a, u = [t])",
     "semantic", 3, 20, "u takes an expression, not a list"),
    (P + "auto g on P { t -> -t }\nring T = gwa(P, a, u = t, gamma = g)",
     "semantic", 4, 1, "alpha and gamma must commute"),
    (P + "ring T = gwa(P, a, u = t, y = t)",
     "semantic", 3, 1, "the names of y and x must be distinct from each "
     "other and from the coefficient generators"),
    (P + "ring T = gwa(P, a, u = t, y = Z, x = Z)",
     "semantic", 3, 1, "the names of y and x must be distinct from each "
     "other and from the coefficient generators"),
    (R + "ring S = quotient_by_casimir(R)",
     "semantic", 4, 1, "the quadruple is singular: the Casimir quotient "
     "needs a splitting element"),
    (F + "ring S = quotient_by_casimir(F)",
     "semantic", 3, 1, "quotient_by_casimir needs a declared ambiskew ring, "
     "and 'F' is not one"),
    (R + "base G = field()\nauto b on G { }\n"
     "ring S = ambiskew(F, b, v = 1, rho = 1)",
     "semantic", 6, 1, "the automorphism 'b' is declared on 'G', not 'F'"),
    # check
    (R + "check simple(S)",
     "semantic", 4, 1, "unknown ring 'S'"),
    (R + "check fast(R)",
     "semantic", 4, 7, "unknown check 'fast'; expected one of simple, "
     "singular, conformal, iterated, localized_simple, torus"),
    (R + "check simple R",
     "syntactic", 4, 14, "expected '(', found 'R'"),
    ("check torus(3)",
     "syntactic", 1, 13, "expected a table file name, found '3'"),
    (P + "ring T = gwa(P, a, u = t)\ncheck singular(T)",
     "semantic", 4, 1, "check singular needs an ambiskew ring"),
    # lines
    ("frobnicate x",
     "syntactic", 1, 1, "expected a statement keyword (one of context, "
     "base, auto, ring, check), found 'frobnicate'"),
    ("context(parameters = [q])\nassume independent(q)",
     "syntactic", 2, 1, "expected a statement keyword (one of context, "
     "base, auto, ring, check), found 'assume'"),
    ("base A = field()\n  \n# comment\nring",
     "syntactic", 4, 5, "expected a ring name, found end of line"),
    ("context(characteristic = 5)\nbase A = field() junk",
     "syntactic", 2, 18, "expected end of line, found 'junk'"),
]

# (table text, kind, line, column, message)
TABLE_ERRORS = [
    ("1,,2", "syntactic", 1, 3, "empty table entry"),
    ("1, 2,", "syntactic", 1, 6, "empty table entry"),
    (" , 1", "syntactic", 1, 1, "empty table entry"),
    ("1 2, 3", "syntactic", 1, 3, "expected end of line, found '2'"),
    ("1, x", "semantic", 1, 4, "unknown name 'x'"),
    ("1, 2\n3, 1/0", "semantic", 2, 5, "division by zero"),
]


def _error(call, text) -> tuple:
    with pytest.raises(DslError) as info:
        call(text)
    err = info.value
    return err.kind, err.loc.line, err.loc.column, err.message


@pytest.mark.parametrize("text, kind, line, column, message", ERRORS)
def test_document_error_table(text, kind, line, column, message):
    assert _error(parse_spec, text) == (kind, line, column, message)


@pytest.mark.parametrize("text, kind, line, column, message", TABLE_ERRORS)
def test_scalar_table_error_table(text, kind, line, column, message):
    ctx = ScalarContext()
    got = _error(lambda t: parse_scalar_table(t, ctx), text)
    assert got == (kind, line, column, message)


def test_error_table_covers_every_statement_kind():
    heads = {re.match(r"\w+", text.splitlines()[-1]).group()
             for text, *_ in ERRORS}
    assert {"context", "base", "auto", "ring", "check"} <= heads
    assert len(ERRORS) >= 25


def test_document_objects():
    doc = parse_spec(C4 + "base A = cyclic_group(n = 4, epsilon = zeta)\n"
                     "auto b on A { s -> -s }\n"
                     "ring R = ambiskew(A, b, v = s, rho = -1, y = u)\n"
                     "check simple(R)\ncheck torus(m.csv)\n"
                     'check torus("my table.csv")\n'
                     'check torus("my#table.csv")  # a "quoted" comment\n'
                     "check torus(n.csv)# torus(o.csv)\n")
    assert doc.context.cyclotomic_order == 4
    assert list(doc.rings) == ["R"]
    assert doc.algebra("A") is doc.rings["R"].base
    assert doc.algebra("R") is doc.rings["R"]
    assert [c.echo() for c in doc.checks] == [
        "simple(R)", "torus(m.csv)", "torus(my table.csv)",
        "torus(my#table.csv)", "torus(n.csv)"]
    assert doc.checks[2].target == "my table.csv"
    assert doc.checks[3].target == "my#table.csv"


def test_scalar_table_skips_blank_and_comment_lines():
    ctx = ScalarContext(cyclotomic_order=4)
    text = "# a torus matrix\n\n1, zeta  # first row\n   \n-zeta, 1\n# end\n"
    rows = parse_scalar_table(text, ctx)
    assert [[str(s) for s in row] for row in rows] == [["1", "zeta"],
                                                       ["-zeta", "1"]]


# -- regression tests for fixed parser defects ------------------------------


def test_duplicate_ring_argument_is_an_error():
    text = F + "ring R = ambiskew(F, a, v = 1, v = 2, rho = 1)"
    assert _error(parse_spec, text) == (
        "syntactic", 3, 32, "duplicate argument 'v'")


@pytest.mark.parametrize("text", [
    "base A = quadratic(d = [q])",
    "base A = cyclic_group(n = 4, epsilon = [q])",
])
def test_a_list_is_accepted_only_for_parameters(text):
    kind, line, _column, _message = _error(parse_spec, text)
    assert (kind, line) == ("semantic", 1)


@pytest.mark.parametrize("text, kind, column, message", [
    ("1, 2)", "syntactic", 5, "expected end of line, found ')'"),
    ("1,   $", "lexical", 6, "unexpected character '$'"),
])
def test_table_cells_report_line_columns(text, kind, column, message):
    ctx = ScalarContext()
    got = _error(lambda t: parse_scalar_table(t, ctx), text)
    assert got == (kind, 1, column, message)


@pytest.mark.parametrize("text, value", [
    ("-2^2", "-4"), ("2*-3^2", "-18"), ("0-2^2", "-4"), ("(-2)^2", "4"),
    ("--2", "2"), ("2^-1", "1/2"),
])
def test_unary_minus_binds_looser_than_power(text, value):
    alg = FieldAlgebra(ScalarContext())
    assert alg.render(eval_element(parse_expression(text), alg)) == value


def test_long_sums_evaluate_without_recursion():
    terms = " + ".join(f"{k}*t^{k}" for k in range(990))
    alg = PolyAlgebra(ScalarContext())
    elem = eval_element(parse_expression(terms), alg)
    assert alg.render(elem).endswith("+ 3*t^3 + 2*t^2 + t")
    doc = parse_spec("base P = poly(t)\nauto a on P { t -> t }\n"
                     f"ring R = ambiskew(P, a, v = {terms}, rho = 1)\n")
    ring = doc.rings["R"]
    assert ring.base.render(ring.v) == alg.render(elem)


def test_deep_nesting_is_a_dsl_error():
    nested = "(" * 2000 + "1" + ")" * 2000
    with pytest.raises(DslError) as info:
        parse_expression(nested)
    assert info.value.loc.line == 1
    with pytest.raises(DslError) as info:
        parse_spec(F + f"ring R = ambiskew(F, a, v = {nested}, rho = 1)")
    assert info.value.loc.line == 3
    with pytest.raises(DslError) as info:
        parse_scalar_table(f"1, 2\n3, {nested}", ScalarContext())
    assert info.value.loc.line == 2


@pytest.mark.parametrize("order", [1009, 2 * 1000 ** 2 + 1, 10 ** 30])
def test_a_cyclotomic_order_above_the_degree_limit_fails_at_once(order):
    # the limit is phi(N) <= 1000: 1009 is the least order whose degree
    # passes it, and an order above 2*1000^2 is refused before factoring
    assert CyclotomicDomain.max_degree == 1000
    tracemalloc.start()
    try:
        got = _error(parse_spec, f"context(cyclotomic_order = {order})")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ("semantic", 1, 1, f"cyclotomic order {order} is too large: "
                   f"its degree phi({order}) must be at most 1000")
    assert peak < 1 << 20  # no table of zeta powers was built


@pytest.mark.parametrize("power", ["2^10000000000", "(1 + q)^100000000",
                                   "q^-1 * (3 - q)^-100000000", "2^1048577",
                                   "(1 + q)^1024"])
def test_a_scalar_power_past_the_size_limit_fails_at_once(power):
    # estimated before it is formed: 2^k has k bits, (1 + q)^k has k + 1
    # terms, and the limits are 2^20 bits and 1024 terms
    line = f"ring R = ambiskew(F, a, v = 1, rho = {power})"
    text = f"context(parameters = [q])\nbase F = field()\nauto a on F {{ }}\n{line}"
    tracemalloc.start()
    try:
        got = _error(parse_spec, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ("semantic", 4, line.rindex("^") + 1,
                   "the power is too large to compute")
    assert peak < 1 << 20


@pytest.mark.parametrize("power, base, k", [
    ("2^1048576", 2, 1048576), ("(-1)^10000000001", -1, 1),
    ("0^10000000000", 0, 1), ("(1/2)^-1000", 2, 1000)])
def test_a_scalar_power_within_the_size_limit_is_read(power, base, k):
    assert eval_scalar(parse_expression(power), ScalarContext()) == base ** k


def test_a_one_term_power_has_no_size_to_refuse():
    ctx = ScalarContext(parameters=("q",))
    got = eval_scalar(parse_expression("q^10000000000 * q^-9999999999"), ctx)
    assert got == ctx.param("q")
    assert _power_size(1 + ctx.param("q"), -1023) == (1023.0, 1024)


# -- the expression reader against a Fraction oracle and a lifting reader ------

# the precedence level of each node: a child printed where a higher level
# is needed gets parentheses
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _extend(sub):
    """Operator nodes over ``sub``; the last field asks for parentheses
    the precedence does not need."""
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub, st.booleans()),
        st.tuples(st.just("neg"), sub, st.booleans()),
        st.tuples(st.just("^"), sub, st.integers(-2, 2), st.booleans()))


# leaves are integers, the parameter q and the generator s
_TREES = st.recursive(st.integers(0, 6) | st.sampled_from(["q", "s"]),
                      _extend, max_leaves=8)
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}


def _show(tree, least: int, out: list) -> tuple:
    """Print ``tree`` into ``out`` where its precedence level must be at
    least ``least``, and evaluate it in Fractions.  Returns (value, None),
    or (anything, column) with the column of the operator where the
    evaluation, left operand first, first fails; the value is None once a
    name enters, which Fractions cannot value."""
    if not isinstance(tree, tuple):
        out.append(str(tree))
        return (Fraction(tree) if isinstance(tree, int) else None), None
    op, left, *rest, wrap = tree
    wrap = wrap or _LEVEL[op] < least
    out.append("(" * wrap)
    if op == "neg":
        out.append("-")
        value, failed = _show(left, 3, out)
        if value is not None and failed is None:
            value = -value
    elif op == "^":
        value, failed = _show(left, 4, out)
        column = sum(map(len, out)) + 1
        out.append(f"^{rest[0]}")
        if value is not None and failed is None:
            if value == 0 and rest[0] < 0:
                failed = column
            else:
                value = value ** rest[0]
    else:
        value, failed = _show(left, _LEVEL[op], out)
        column = sum(map(len, out)) + 2
        out.append(f" {op} ")
        right, right_failed = _show(rest[0], _LEVEL[op] + 1, out)
        failed = failed or right_failed
        if right is None:
            value = None
        elif value is not None and failed is None:
            if op == "/" and right == 0:
                failed = column
            else:
                value = _ARITH[op](value, right)
    out.append(")" * wrap)
    return value, failed


def _lifting_eval(expr, algebra) -> dict:
    """The reader's value as an earlier evaluator built it, kept as its
    oracle: every atom lifted to an element, and ring arithmetic on them."""
    ctx = algebra.ctx
    names = {p: algebra.from_scalar(ctx.param(p)) for p in ctx.parameters}
    names.update((g, algebra.gen_elem(g)) for g in algebra.gens())
    ring_ops = {"+": algebra.add, "-": algebra.sub, "*": algebra.mul}

    def atom(tok):
        if tok[0] == "INT":
            return algebra.from_scalar(ctx.int_(int(tok[1])))
        if tok[1] not in names:
            raise DslError("semantic", _loc(tok), f"unknown name {tok[1]!r}")
        return dict(names[tok[1]])

    def apply(op, left, right):
        if left is None:
            return algebra.neg(right)
        if op[0] == "^":
            try:
                return algebra.power(left, right)
            except ValueError as exc:
                raise DslError("semantic", _loc(op), str(exc)) from None
        if op[0] in ring_ops:
            return ring_ops[op[0]](left, right)
        s = algebra.scalar_of(right)
        if s is None:
            raise DslError("semantic", _loc(op), "the divisor must be a scalar")
        if s.is_zero():
            raise DslError("semantic", _loc(op), "division by zero")
        return algebra.smul(s.inv(), left)

    return _read(expr, 0, atom, apply)[0]


def _outcome(evaluate, expr, algebra) -> tuple:
    """The exact value of ``evaluate``, or the kind, place and message of
    its DslError."""
    try:
        return "value", exact(evaluate(expr, algebra))
    except DslError as err:
        return err.kind, err.loc.line, err.loc.column, err.message


_Q = ScalarContext(parameters=("q",))
_ALGEBRAS = [FieldAlgebra(_Q), CyclicGroupAlgebra(_Q, 2, -_Q.one, "s"),
             PolyAlgebra(_Q, "s")]


@settings(max_examples=400, deadline=None)
@given(_TREES, st.sampled_from(_ALGEBRAS))
@example(("^", 0, 0, False), _ALGEBRAS[2])
@example(("^", 0, -1, False), _ALGEBRAS[1])
@example(("/", 1, ("+", "s", 1, False), False), _ALGEBRAS[1])
@example(("^", ("+", "q", 1, True), -2, False), _ALGEBRAS[0])
@example(("*", ("^", "q", -2, False), "s", False), _ALGEBRAS[2])
def test_reader_matches_a_fraction_oracle(tree, alg):
    """The reader keeps a value a scalar until a generator enters it; it
    must agree with the lifting reader, value for value in normal form
    and error for error, and with Fractions where no name enters."""
    out: list[str] = []
    value, failed = _show(tree, 1, out)
    text = "".join(out)
    expr = parse_expression(text)
    got = _outcome(eval_element, expr, alg)
    assert got == _outcome(_lifting_eval, expr, alg), text
    if value is None:
        return  # a name entered, which Fractions cannot value
    if failed is not None:
        assert got[:3] == ("semantic", 1, failed), text
    elif value is not None:
        assert got == ("value", exact(alg.from_scalar(_Q.fraction(value)))), text


# -- the tokenizer against the text it reads ----------------------------------

# a character that can begin a token, a blank or a comment; '"' only when a
# closing quote follows it on the line
_STARTS = set("abxyzAZ_0123456789(){}[],=+-*/^ \t#")


def _strip(line: str) -> str:
    """The line with its comment and the blanks outside quotes removed."""
    out, quoted = [], False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        elif not quoted and ch == "#":
            break
        elif not quoted and ch in " \t":
            continue
        out.append(ch)
    return "".join(out)


@settings(max_examples=400, deadline=None)
@given(st.text(st.sampled_from(list('abxyzAZ_019.."##(){}[],=+-*/^>  \t@')),
               max_size=30))
def test_tokens_cover_the_line_or_the_first_stray_character_is_reported(line):
    try:
        tokens = _tokenize_line(line, 7)
    except DslError as err:
        assert (err.kind, err.loc.line) == ("lexical", 7)
        at = err.loc.column - 1
        assert err.message == f"unexpected character {line[at]!r}"
        assert line[at] not in _STARTS
        assert line[at] != '"' or '"' not in line[at + 1:]
        # every character before it is accepted, by a token or as a blank
        assert _tokenize_line(line[:at], 7)[-1][3] == at + 1
        return
    *tokens, (kind, _, lineno, column) = tokens
    assert kind == "END" and lineno == 7
    for _, text, _, at in tokens:
        assert line[at - 1:at - 1 + len(text)] == text
    assert "".join(text for _, text, _, _ in tokens) == _strip(line)
    assert line[column - 1:column] in ("", "#")


# the earlier tokenizer, kept as the oracle of ``_tokenize_line``: one
# ``finditer`` pass with a named group per kind, blank runs matching none
_ORACLE_RE = re.compile(r"""
    (?P<PATH>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)+)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<INT>[0-9]+)
  | (?P<STRING>"[^"\n]*")
  | (?P<PUNCT>->|[(){}\[\],=+\-*/^])
  | [ \t]+
  | (?P<COMMENT>\#.*)
  | (?P<BAD>.)
""", re.VERBOSE | re.DOTALL)


def _oracle_tokens(text: str, line: int):
    """The (kind, text, line, column) tokens of a line, or the column and
    message of its lexical error."""
    out = []
    end = len(text)
    for m in _ORACLE_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "COMMENT":
            end = m.start()
            break
        if kind == "BAD":
            return m.start() + 1, f"unexpected character {m.group()!r}"
        word = m.group()
        out.append((word if kind == "PUNCT" else kind, word, line,
                    m.start() + 1))
    out.append(("END", "", line, end + 1))
    return out


def _tokens_or_error(text: str, line: int):
    try:
        return _tokenize_line(text, line)
    except DslError as err:
        assert (err.kind, err.loc.line) == ("lexical", line)
        return err.loc.column, err.message


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(list('abxyzAZ_019.."##(){}[],=+-*/^>  \t@\n')
                                + ["->"]), max_size=30).map("".join))
def test_the_tokenizer_matches_the_finditer_oracle(line):
    assert _tokens_or_error(line, 3) == _oracle_tokens(line, 3)


def test_every_bench_line_tokenizes_as_the_oracle_does():
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads
    lines = set()
    for workload in ("catalog", "scan", "swell"):
        for seed in (1, 2, 3):
            for doc in workloads.generate(workload, seed):
                texts = [doc.text, *(t for _, t in doc.tables),
                         *(e for _, e in doc.elements)]
                lines.update(ln for text in texts for ln in text.splitlines())
    kinds = set()
    for line in sorted(lines):
        tokens = _tokens_or_error(line, 1)
        assert tokens == _oracle_tokens(line, 1), line
        kinds.update(tok[0] for tok in tokens)
    assert {"NAME", "INT", "PATH", "->", "^"} <= kinds


def test_a_line_break_in_a_bare_expression_is_a_stray_character():
    assert _error(parse_expression, "1\n+ 2") == (
        "lexical", 1, 2, "unexpected character '\\n'")
