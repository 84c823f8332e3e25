"""A small text language for declaring rings and the checks to run on them.

A document is a sequence of lines.  Each line is one declaration or one
check directive; ``#`` starts a comment.  Declarations are order
sensitive: a name must be declared before it is used, which makes every
reference acyclic by construction.  ``parse_spec`` builds the syntax tree
and, in the same pass, constructs the declared algebras, automorphisms and
rings, so every semantic rule (nonzero rho, primitive roots, relation
preservation) is enforced eagerly and errors point at a line and column.

The statement forms:

    context(characteristic = 5, cyclotomic_order = 4, parameters = [q])
    base A = cyclic_group(n = 4, epsilon = zeta)
    base L = laurent(t)
    auto alpha on A { s -> zeta*s }
    ring R = ambiskew(A, alpha, v = s + 2*s^3, rho = zeta, y = y1, x = x1)
    ring T = gwa(L, alpha, u = t)
    ring T2 = quotient_by_casimir(R)
    assume independent(q, r)
    check simple(R)
    check torus(matrix.csv)

Scalar and element expressions use integers, fractions written ``a/b``,
``zeta`` for the root of unity of the declared cyclotomic order, parameter
names, generator names, ``+ - * /``, ``^`` with integer exponents, and
parentheses.

>>> text = '''
... # a first Weyl algebra presented over the scalars
... base F = field()
... auto a on F { }
... ring R = ambiskew(F, a, v = 1, rho = 1)
... check simple(R)
... '''
>>> doc = parse_spec(text)
>>> [kind for kind, _name in doc.names]
['base', 'auto', 'ring']
>>> doc.checks[0].kind
'simple'
>>> parse_spec(print_spec(doc)) == doc
True
>>> parse_spec(text.replace("rho = 1", "rho = 0"))
Traceback (most recent call last):
    ...
ambiskew.dsl.DslError: 5:38: semantic error: rho must be nonzero
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .algebras import (CyclicGroupAlgebra, FieldAlgebra, LaurentAlgebra,
                       PolyAlgebra, QuadraticAlgebra)
from .gwa import GwaRing, gwa_from_ambiskew
from .rings import AmbiskewRing
from .scalars import Scalar, ScalarContext

__all__ = [
    "CheckDecl", "DslError", "SourceLocation", "SpecDocument",
    "eval_element", "parse_spec", "print_spec",
]


@dataclass(frozen=True)
class SourceLocation:
    """A 1-based line and column position in the document text."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class DslError(ValueError):
    """A lexical, syntactic or semantic error with its source position.

    >>> raise DslError("semantic", SourceLocation(3, 7), "rho must be nonzero")
    Traceback (most recent call last):
        ...
    ambiskew.dsl.DslError: 3:7: semantic error: rho must be nonzero
    """

    def __init__(self, kind: str, loc: SourceLocation, message: str):
        super().__init__(f"{loc}: {kind} error: {message}")
        self.kind = kind
        self.loc = loc
        self.message = message


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME INT PATH STRING PUNCT END
    text: str
    loc: SourceLocation


_TOKEN_RE = re.compile(r"""
    (?P<PATH>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)+)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<INT>[0-9]+)
  | (?P<STRING>"[^"\n]*")
  | (?P<PUNCT>->|[(){}\[\],=+\-*/^])
  | (?P<SPACE>[ \t]+)
""", re.VERBOSE)


def _tokenize_line(text: str, line: int) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    cut = text.find("#")
    if cut >= 0:
        text = text[:cut]
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError("lexical", SourceLocation(line, pos + 1),
                           f"unexpected character {text[pos]!r}")
        kind = m.lastgroup or ""
        if kind != "SPACE":
            out.append(_Token(kind if kind != "PUNCT" else m.group(),
                              m.group(), SourceLocation(line, pos + 1)))
        pos = m.end()
    out.append(_Token("END", "", SourceLocation(line, len(text) + 1)))
    return out


class _Cursor:
    """A token stream for one statement line, with expectation helpers."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "END":
            self.i += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def take(self, kind: str) -> _Token | None:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "END" else "end of line"
            raise DslError("syntactic", tok.loc,
                           f"expected {what}, found {found}")
        return self.next()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "END":
            raise DslError("syntactic", tok.loc,
                           f"expected end of line, found {tok.text!r}")


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class Name:
    ident: str
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class Unary:
    operand: "Expr"
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


Expr = Num | Name | Unary | BinOp


def _parse_expr(cur: _Cursor) -> Expr:
    node = _parse_term(cur)
    while cur.peek().kind in ("+", "-"):
        op = cur.next()
        node = BinOp(op.text, node, _parse_term(cur), loc=op.loc)
    return node


def _parse_term(cur: _Cursor) -> Expr:
    node = _parse_unary(cur)
    while cur.peek().kind in ("*", "/"):
        op = cur.next()
        node = BinOp(op.text, node, _parse_unary(cur), loc=op.loc)
    return node


def _parse_unary(cur: _Cursor) -> Expr:
    tok = cur.take("-")
    if tok is None:
        return _parse_power(cur)
    if cur.at("INT"):
        lit = cur.next()
        node: Expr = Num(-int(lit.text), loc=tok.loc)
        return _parse_power_tail(cur, node)
    return Unary(_parse_unary(cur), loc=tok.loc)


def _parse_power(cur: _Cursor) -> Expr:
    return _parse_power_tail(cur, _parse_atom(cur))


def _parse_power_tail(cur: _Cursor, node: Expr) -> Expr:
    while cur.at("^"):
        op = cur.next()
        sign = -1 if cur.take("-") else 1
        lit = cur.expect("INT", "an integer exponent after '^'")
        node = BinOp("^", node, Num(sign * int(lit.text), loc=lit.loc),
                     loc=op.loc)
    return node


def _parse_atom(cur: _Cursor) -> Expr:
    tok = cur.peek()
    if tok.kind == "INT":
        cur.next()
        return Num(int(tok.text), loc=tok.loc)
    if tok.kind == "NAME":
        cur.next()
        return Name(tok.text, loc=tok.loc)
    if tok.kind == "(":
        cur.next()
        inner = _parse_expr(cur)
        cur.expect(")", "a closing ')'")
        return inner
    found = repr(tok.text) if tok.kind != "END" else "end of line"
    raise DslError("syntactic", tok.loc,
                   f"expected a number, a name or '(', found {found}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "unary": 3, "^": 4, "atom": 5}


def format_expr(expr: Expr, minimum: int = 0) -> str:
    """The canonical text of an expression, reparsing to the same tree.

    >>> cur = _Cursor(_tokenize_line("s + 2*s^3 - (1 - q)^-1*t", 1))
    >>> tree = _parse_expr(cur)
    >>> format_expr(tree)
    's + 2*s^3 - (1 - q)^-1*t'
    """
    if isinstance(expr, Num):
        text, prec = str(expr.value), _PREC["atom"]
    elif isinstance(expr, Name):
        text, prec = expr.ident, _PREC["atom"]
    elif isinstance(expr, Unary):
        prec = _PREC["unary"]
        text = "-" + format_expr(expr.operand, prec)
    else:
        prec = _PREC[expr.op]
        if expr.op in ("+", "-"):
            text = (f"{format_expr(expr.left, prec)} {expr.op} "
                    f"{format_expr(expr.right, prec + 1)}")
        elif expr.op == "^":
            text = f"{format_expr(expr.left, prec + 1)}^{format_expr(expr.right)}"
        else:
            text = (f"{format_expr(expr.left, prec)}{expr.op}"
                    f"{format_expr(expr.right, prec + 1)}")
    if prec < minimum:
        return f"({text})"
    return text


def _scope_names(algebra) -> dict[str, dict]:
    ctx = algebra.ctx
    out: dict[str, dict] = {}
    for p in ctx.parameters:
        out[p] = algebra.from_scalar(ctx.param(p))
    if ctx.characteristic == 0 and ctx.cyclotomic_order > 1:
        out["zeta"] = algebra.from_scalar(ctx.zeta())
    for g in algebra.gens():
        out[g] = algebra.gen_elem(g)
    return out


def eval_element(expr: Expr, algebra, names: dict[str, dict] | None = None) -> dict:
    """Evaluate an expression to an element of ``algebra``.

    Names resolve to parameters, ``zeta`` and the generators of the
    algebra (including embedded coefficient generators).  Division is by
    scalars only; ``^`` takes integer exponents and negative powers need
    an invertible operand.

    >>> ctx = ScalarContext(parameters=("q",))
    >>> alg = LaurentAlgebra(ctx)
    >>> cur = _Cursor(_tokenize_line("q*t + t^-1", 1))
    >>> alg.render(eval_element(_parse_expr(cur), alg))
    'q*t + t^-1'
    """
    if names is None:
        names = _scope_names(algebra)
    ctx = algebra.ctx
    if isinstance(expr, Num):
        return algebra.from_scalar(ctx.int_(expr.value))
    if isinstance(expr, Name):
        try:
            return dict(names[expr.ident])
        except KeyError:
            raise DslError("semantic", expr.loc,
                           f"unknown name {expr.ident!r}") from None
    if isinstance(expr, Unary):
        return algebra.neg(eval_element(expr.operand, algebra, names))
    left = eval_element(expr.left, algebra, names)
    if expr.op == "^":
        assert isinstance(expr.right, Num)
        try:
            return algebra.power(left, expr.right.value)
        except ValueError as exc:
            raise DslError("semantic", expr.loc, str(exc)) from None
    right = eval_element(expr.right, algebra, names)
    if expr.op == "+":
        return algebra.add(left, right)
    if expr.op == "-":
        return algebra.sub(left, right)
    if expr.op == "*":
        return algebra.mul(left, right)
    s = algebra.scalar_of(right)
    if s is None:
        raise DslError("semantic", expr.loc, "the divisor must be a scalar")
    if s.is_zero():
        raise DslError("semantic", expr.loc, "division by zero")
    return algebra.smul(s.inv(), left)


def eval_scalar(expr: Expr, ctx: ScalarContext) -> Scalar:
    """Evaluate an expression that must denote a scalar."""
    probe = FieldAlgebra(ctx)
    s = probe.scalar_of(eval_element(expr, probe))
    assert s is not None
    return s


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContextDecl:
    characteristic: int
    cyclotomic_order: int
    parameters: tuple[str, ...]
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class BaseDecl:
    name: str
    family: str  # field poly laurent cyclic_group quadratic
    gen: str | None
    order: int | None = None
    epsilon: Expr | None = None
    defect: Expr | None = None
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class AutoRule:
    gen: str
    image: Expr
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class AutoDecl:
    name: str
    carrier: str
    rules: tuple[AutoRule, ...]
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class RingDecl:
    name: str
    flavor: str  # ambiskew gwa quotient
    base: str
    auto: str | None = None
    v: Expr | None = None
    rho: Expr | None = None
    u: Expr | None = None
    gamma: str | None = None
    y: str | None = None
    x: str | None = None
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class AssumeDecl:
    names: tuple[str, ...]
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class CheckDecl:
    kind: str  # simple singular conformal iterated localized_simple torus
    target: str
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))

    def echo(self) -> str:
        return f"{self.kind}({self.target})"


Statement = ContextDecl | BaseDecl | AutoDecl | RingDecl | AssumeDecl | CheckDecl

CHECK_KINDS = ("simple", "singular", "conformal", "iterated",
               "localized_simple", "torus")


@dataclass(frozen=True)
class SpecDocument:
    """A parsed document plus the objects its declarations denote.

    Equality compares the statement list only, so a printed and reparsed
    document equals the original even though the bound ring objects are
    rebuilt.
    """

    statements: tuple[Statement, ...]
    context: ScalarContext = field(compare=False, default=None)  # type: ignore[assignment]
    bases: dict = field(compare=False, default_factory=dict)
    autos: dict = field(compare=False, default_factory=dict)
    rings: dict = field(compare=False, default_factory=dict)
    checks: tuple[CheckDecl, ...] = field(compare=False, default=())
    assumptions: tuple[str, ...] = field(compare=False, default=())

    @property
    def names(self) -> list[tuple[str, str]]:
        """The declared names in order, as (kind, name) pairs."""
        out = []
        for stmt in self.statements:
            if isinstance(stmt, BaseDecl):
                out.append(("base", stmt.name))
            elif isinstance(stmt, AutoDecl):
                out.append(("auto", stmt.name))
            elif isinstance(stmt, RingDecl):
                out.append(("ring", stmt.name))
        return out

    def algebra(self, name: str):
        """The base algebra or ring declared under ``name``."""
        if name in self.bases:
            return self.bases[name]
        return self.rings[name]


# ---------------------------------------------------------------------------
# statement parsers
# ---------------------------------------------------------------------------


def _parse_kwargs(cur: _Cursor) -> dict[str, _Token | Expr | list[_Token]]:
    """name = value pairs inside parentheses, values left uninterpreted."""
    out: dict = {}
    cur.expect("(", "'('")
    while not cur.at(")"):
        key = cur.expect("NAME", "an argument name")
        cur.expect("=", "'=' after the argument name")
        if cur.at("["):
            cur.next()
            items = []
            while not cur.at("]"):
                items.append(cur.expect("NAME", "a name in the list"))
                if not cur.take(","):
                    break
            cur.expect("]", "a closing ']'")
            value: _Token | Expr | list[_Token] = items
        else:
            value = _parse_expr(cur)
        if key.text in out:
            raise DslError("syntactic", key.loc,
                           f"duplicate argument {key.text!r}")
        out[key.text] = value
        if not cur.take(","):
            break
    cur.expect(")", "a closing ')'")
    return out


def _require_int(value, key: str, loc: SourceLocation) -> int:
    if isinstance(value, Num) and value.value >= 1:
        return value.value
    raise DslError("semantic", loc, f"{key} must be a positive integer")


def _require_name(value, key: str, loc: SourceLocation) -> str:
    if isinstance(value, Name):
        return value.ident
    raise DslError("semantic", loc, f"{key} must be a plain name")


def _parse_context(cur: _Cursor, loc: SourceLocation) -> ContextDecl:
    kwargs = _parse_kwargs(cur)
    characteristic = 0
    order = 1
    params: tuple[str, ...] = ()
    for key, value in kwargs.items():
        if key == "characteristic":
            if not isinstance(value, Num) or value.value < 0:
                raise DslError("semantic", loc,
                               "characteristic must be 0 or a prime")
            characteristic = value.value
        elif key == "cyclotomic_order":
            order = _require_int(value, key, loc)
        elif key == "parameters":
            if not isinstance(value, list):
                raise DslError("semantic", loc,
                               "parameters takes a list like [q, r]")
            params = tuple(tok.text for tok in value)
        else:
            raise DslError("semantic", loc, f"unknown context argument {key!r}")
    cur.expect_end()
    return ContextDecl(characteristic, order, params, loc=loc)


_BASE_FAMILIES = ("field", "poly", "laurent", "cyclic_group", "quadratic")


def _parse_base(cur: _Cursor, loc: SourceLocation) -> BaseDecl:
    name = cur.expect("NAME", "a base name").text
    cur.expect("=", "'=' after the base name")
    fam = cur.expect("NAME", "a base family")
    if fam.text not in _BASE_FAMILIES:
        raise DslError("semantic", fam.loc,
                       f"unknown base family {fam.text!r}; expected one of "
                       + ", ".join(_BASE_FAMILIES))
    gen = order = epsilon = defect = None
    if fam.text in ("poly", "laurent"):
        cur.expect("(", "'('")
        gen = cur.expect("NAME", "a generator name").text
        cur.expect(")", "a closing ')'")
    elif fam.text == "field":
        cur.expect("(", "'('")
        cur.expect(")", "a closing ')'")
    else:
        kwargs = _parse_kwargs(cur)
        for key, value in kwargs.items():
            if key == "gen":
                gen = _require_name(value, key, loc)
            elif key == "n" and fam.text == "cyclic_group":
                order = _require_int(value, key, loc)
            elif key == "epsilon" and fam.text == "cyclic_group":
                epsilon = value
            elif key == "d" and fam.text == "quadratic":
                defect = value
            else:
                raise DslError("semantic", loc,
                               f"unknown {fam.text} argument {key!r}")
        if fam.text == "cyclic_group" and (order is None or epsilon is None):
            raise DslError("semantic", loc,
                           "cyclic_group needs n = ... and epsilon = ...")
        if fam.text == "quadratic" and defect is None:
            raise DslError("semantic", loc, "quadratic needs d = ...")
    cur.expect_end()
    return BaseDecl(name, fam.text, gen, order, epsilon, defect, loc=loc)


def _parse_auto(cur: _Cursor, loc: SourceLocation) -> AutoDecl:
    name = cur.expect("NAME", "an automorphism name").text
    on = cur.expect("NAME", "'on'")
    if on.text != "on":
        raise DslError("syntactic", on.loc, f"expected 'on', found {on.text!r}")
    carrier = cur.expect("NAME", "a carrier name").text
    cur.expect("{", "'{'")
    rules = []
    while not cur.at("}"):
        gen = cur.expect("NAME", "a generator name")
        cur.expect("->", "'->' after the generator name")
        rules.append(AutoRule(gen.text, _parse_expr(cur), loc=gen.loc))
        if not cur.take(","):
            break
    cur.expect("}", "a closing '}'")
    cur.expect_end()
    return AutoDecl(name, carrier, tuple(rules), loc=loc)


def _parse_ring(cur: _Cursor, loc: SourceLocation) -> RingDecl:
    name = cur.expect("NAME", "a ring name").text
    cur.expect("=", "'=' after the ring name")
    ctor = cur.expect("NAME", "a ring constructor")
    if ctor.text == "quotient_by_casimir":
        cur.expect("(", "'('")
        source = cur.expect("NAME", "a ring name").text
        cur.expect(")", "a closing ')'")
        cur.expect_end()
        return RingDecl(name, "quotient", source, loc=loc)
    if ctor.text not in ("ambiskew", "gwa"):
        raise DslError("semantic", ctor.loc,
                       f"unknown ring constructor {ctor.text!r}; expected "
                       "ambiskew, gwa or quotient_by_casimir")
    cur.expect("(", "'('")
    base = cur.expect("NAME", "a coefficient algebra name").text
    cur.expect(",", "','")
    auto = cur.expect("NAME", "an automorphism name").text
    cur.expect(",", "','")
    kwargs: dict = {}
    while True:
        key = cur.expect("NAME", "an argument name")
        cur.expect("=", "'=' after the argument name")
        kwargs[key.text] = (_parse_expr(cur), key.loc)
        if not cur.take(","):
            break
    cur.expect(")", "a closing ')'")
    cur.expect_end()
    fields: dict = {"v": None, "rho": None, "u": None,
                    "gamma": None, "y": None, "x": None}
    wanted = ("v", "rho", "y", "x") if ctor.text == "ambiskew" else \
        ("u", "gamma", "y", "x")
    for key, (value, kloc) in kwargs.items():
        if key not in wanted:
            raise DslError("semantic", kloc,
                           f"unknown {ctor.text} argument {key!r}")
        if key in ("y", "x", "gamma"):
            fields[key] = _require_name(value, key, kloc)
        else:
            fields[key] = value
    if ctor.text == "ambiskew" and (fields["v"] is None or fields["rho"] is None):
        raise DslError("semantic", loc, "ambiskew needs v = ... and rho = ...")
    if ctor.text == "gwa" and fields["u"] is None:
        raise DslError("semantic", loc, "gwa needs u = ...")
    return RingDecl(name, ctor.text, base, auto, fields["v"], fields["rho"],
                    fields["u"], fields["gamma"], fields["y"], fields["x"],
                    loc=loc)


def _parse_assume(cur: _Cursor, loc: SourceLocation) -> AssumeDecl:
    word = cur.expect("NAME", "'independent'")
    if word.text != "independent":
        raise DslError("syntactic", word.loc,
                       f"expected 'independent', found {word.text!r}")
    cur.expect("(", "'('")
    names = [cur.expect("NAME", "a parameter name").text]
    while cur.take(","):
        names.append(cur.expect("NAME", "a parameter name").text)
    cur.expect(")", "a closing ')'")
    cur.expect_end()
    return AssumeDecl(tuple(names), loc=loc)


def _parse_check(cur: _Cursor, loc: SourceLocation) -> CheckDecl:
    kind = cur.expect("NAME", "a check kind")
    if kind.text not in CHECK_KINDS:
        raise DslError("semantic", kind.loc,
                       f"unknown check {kind.text!r}; expected one of "
                       + ", ".join(CHECK_KINDS))
    cur.expect("(", "'('")
    tok = cur.peek()
    if kind.text == "torus":
        if tok.kind == "STRING":
            target = tok.text[1:-1]
            cur.next()
        elif tok.kind in ("PATH", "NAME"):
            target = tok.text
            cur.next()
        else:
            raise DslError("syntactic", tok.loc,
                           "expected a table file name, found "
                           + (repr(tok.text) if tok.kind != "END"
                             else "end of line"))
    else:
        target = cur.expect("NAME", "a ring name").text
    cur.expect(")", "a closing ')'")
    cur.expect_end()
    return CheckDecl(kind.text, target, loc=loc)


# ---------------------------------------------------------------------------
# semantic binding
# ---------------------------------------------------------------------------


def _semantic(loc: SourceLocation, message: str) -> DslError:
    return DslError("semantic", loc, message)


class _Binder:
    """Builds algebras, automorphisms and rings as statements arrive."""

    def __init__(self) -> None:
        self.ctx: ScalarContext | None = None
        self.context_stmt: ContextDecl | None = None
        self.bases: dict[str, object] = {}
        self.autos: dict[str, tuple[str, object]] = {}
        self.rings: dict[str, object] = {}
        self.checks: list[CheckDecl] = []
        self.assumptions: list[str] = []

    def require_ctx(self, loc: SourceLocation) -> ScalarContext:
        if self.ctx is None:
            self.ctx = ScalarContext()
        return self.ctx

    def fresh_name(self, name: str, loc: SourceLocation) -> None:
        if name in self.bases or name in self.autos or name in self.rings:
            raise _semantic(loc, f"the name {name!r} is already declared")

    def carrier(self, name: str, loc: SourceLocation):
        if name in self.bases:
            return self.bases[name]
        if name in self.rings:
            return self.rings[name]
        raise _semantic(loc, f"unknown base or ring {name!r}")

    def bind(self, stmt: Statement) -> None:
        if isinstance(stmt, ContextDecl):
            self.bind_context(stmt)
        elif isinstance(stmt, BaseDecl):
            self.bind_base(stmt)
        elif isinstance(stmt, AutoDecl):
            self.bind_auto(stmt)
        elif isinstance(stmt, RingDecl):
            self.bind_ring(stmt)
        elif isinstance(stmt, AssumeDecl):
            self.bind_assume(stmt)
        else:
            self.bind_check(stmt)

    def bind_context(self, stmt: ContextDecl) -> None:
        if self.context_stmt is not None:
            raise _semantic(stmt.loc, "the context was already declared")
        if self.ctx is not None:
            raise _semantic(stmt.loc,
                            "the context must come before any declaration")
        try:
            self.ctx = ScalarContext(characteristic=stmt.characteristic,
                                     cyclotomic_order=stmt.cyclotomic_order,
                                     parameters=stmt.parameters)
        except ValueError as exc:
            raise _semantic(stmt.loc, str(exc)) from None
        self.context_stmt = stmt

    def bind_base(self, stmt: BaseDecl) -> None:
        self.fresh_name(stmt.name, stmt.loc)
        ctx = self.require_ctx(stmt.loc)
        try:
            if stmt.family == "field":
                alg = FieldAlgebra(ctx)
            elif stmt.family == "poly":
                alg = PolyAlgebra(ctx, gen=stmt.gen or "t")
            elif stmt.family == "laurent":
                alg = LaurentAlgebra(ctx, gen=stmt.gen or "t")
            elif stmt.family == "cyclic_group":
                assert stmt.order is not None and stmt.epsilon is not None
                eps = eval_scalar(stmt.epsilon, ctx)
                alg = CyclicGroupAlgebra(ctx, stmt.order, eps,
                                         gen=stmt.gen or "s")
            else:
                assert stmt.defect is not None
                d = eval_scalar(stmt.defect, ctx)
                alg = QuadraticAlgebra(ctx, d, gen=stmt.gen or "s")
        except ValueError as exc:
            raise _semantic(stmt.loc, str(exc)) from None
        self.bases[stmt.name] = alg

    def bind_auto(self, stmt: AutoDecl) -> None:
        self.fresh_name(stmt.name, stmt.loc)
        algebra = self.carrier(stmt.carrier, stmt.loc)
        gens = algebra.gens()
        images: dict[str, dict] = {}
        scope = _scope_names(algebra)
        for rule in stmt.rules:
            if rule.gen not in gens:
                raise _semantic(rule.loc,
                                f"{stmt.carrier} has no generator {rule.gen!r}")
            if rule.gen in images:
                raise _semantic(rule.loc,
                                f"duplicate rule for generator {rule.gen!r}")
            images[rule.gen] = eval_element(rule.image, algebra, scope)
        try:
            auto = algebra.auto_from_images(images)
            algebra.validate_auto(auto)
        except ValueError as exc:
            raise _semantic(stmt.loc, str(exc)) from None
        self.autos[stmt.name] = (stmt.carrier, auto)

    def named_auto(self, name: str, base_name: str, loc: SourceLocation):
        if name not in self.autos:
            raise _semantic(loc, f"unknown automorphism {name!r}")
        carrier, auto = self.autos[name]
        if carrier != base_name:
            raise _semantic(loc, f"the automorphism {name!r} is declared on "
                                 f"{carrier!r}, not {base_name!r}")
        return auto

    def bind_ring(self, stmt: RingDecl) -> None:
        self.fresh_name(stmt.name, stmt.loc)
        if stmt.flavor == "quotient":
            source = self.rings.get(stmt.base)
            if not isinstance(source, AmbiskewRing):
                raise _semantic(stmt.loc,
                                f"quotient_by_casimir needs a declared "
                                f"ambiskew ring, and {stmt.base!r} is not one")
            try:
                self.rings[stmt.name] = gwa_from_ambiskew(source)
            except ValueError as exc:
                raise _semantic(stmt.loc, str(exc)) from None
            return
        algebra = self.carrier(stmt.base, stmt.loc)
        if isinstance(algebra, GwaRing):
            raise _semantic(stmt.loc, f"a ring over the generalized Weyl "
                            f"algebra {stmt.base!r} is not supported")
        auto = self.named_auto(stmt.auto or "", stmt.base, stmt.loc)
        scope = _scope_names(algebra)
        if stmt.flavor == "ambiskew":
            assert stmt.v is not None and stmt.rho is not None
            v = eval_element(stmt.v, algebra, scope)
            rho = eval_scalar(stmt.rho, self.require_ctx(stmt.loc))
            if rho.is_zero():
                raise _semantic(stmt.rho.loc, "rho must be nonzero")
            try:
                ring = AmbiskewRing(algebra, auto, v, rho,
                                    y_name=stmt.y or "y", x_name=stmt.x or "x")
            except ValueError as exc:
                raise _semantic(stmt.loc, str(exc)) from None
        else:
            assert stmt.u is not None
            u = eval_element(stmt.u, algebra, scope)
            gamma = None
            if stmt.gamma is not None:
                gamma = self.named_auto(stmt.gamma, stmt.base, stmt.loc)
            try:
                ring = GwaRing(algebra, auto, u, gamma=gamma,
                               y_name=stmt.y or "Y", x_name=stmt.x or "X")
            except ValueError as exc:
                raise _semantic(stmt.loc, str(exc)) from None
        self.rings[stmt.name] = ring

    def bind_assume(self, stmt: AssumeDecl) -> None:
        ctx = self.require_ctx(stmt.loc)
        for name in stmt.names:
            if name not in ctx.parameters:
                raise _semantic(stmt.loc,
                                f"{name!r} is not a declared parameter")
        joined = ", ".join(stmt.names)
        self.assumptions.append(
            f"the parameters {joined} are algebraically independent")

    def bind_check(self, stmt: CheckDecl) -> None:
        if stmt.kind == "torus":
            self.checks.append(stmt)
            return
        ring = self.rings.get(stmt.target)
        if ring is None:
            raise _semantic(stmt.loc, f"unknown ring {stmt.target!r}")
        ambiskew_only = ("singular", "conformal", "iterated",
                         "localized_simple")
        if stmt.kind in ambiskew_only and not isinstance(ring, AmbiskewRing):
            raise _semantic(stmt.loc,
                            f"check {stmt.kind} needs an ambiskew ring")
        self.checks.append(stmt)


# ---------------------------------------------------------------------------
# the document
# ---------------------------------------------------------------------------


_STATEMENT_PARSERS = {
    "context": _parse_context,
    "base": _parse_base,
    "auto": _parse_auto,
    "ring": _parse_ring,
    "assume": _parse_assume,
    "check": _parse_check,
}


def parse_spec(text: str) -> SpecDocument:
    """Parse and validate a document, building every declared object.

    Raises DslError with a line:column position on the first lexical,
    syntactic or semantic problem.
    """
    statements: list[Statement] = []
    binder = _Binder()
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(line, lineno)
        if tokens[0].kind == "END":
            continue
        head = tokens[0]
        parser = _STATEMENT_PARSERS.get(head.text)
        if head.kind != "NAME" or parser is None:
            raise DslError(
                "syntactic", head.loc,
                f"expected a statement keyword (one of "
                f"{', '.join(_STATEMENT_PARSERS)}), found {head.text!r}")
        cur = _Cursor(tokens)
        cur.next()
        stmt = parser(cur, head.loc)
        binder.bind(stmt)
        statements.append(stmt)
    return SpecDocument(
        statements=tuple(statements),
        context=binder.ctx if binder.ctx is not None else ScalarContext(),
        bases=binder.bases,
        autos=binder.autos,
        rings=binder.rings,
        checks=tuple(binder.checks),
        assumptions=tuple(binder.assumptions),
    )


def print_spec(doc: SpecDocument) -> str:
    """The canonical text of a document; parsing it back gives an equal
    document."""
    lines = [_format_statement(stmt) for stmt in doc.statements]
    return "\n".join(lines) + ("\n" if lines else "")


def _format_statement(stmt: Statement) -> str:
    if isinstance(stmt, ContextDecl):
        parts = []
        if stmt.characteristic:
            parts.append(f"characteristic = {stmt.characteristic}")
        if stmt.cyclotomic_order != 1:
            parts.append(f"cyclotomic_order = {stmt.cyclotomic_order}")
        if stmt.parameters:
            parts.append(f"parameters = [{', '.join(stmt.parameters)}]")
        return f"context({', '.join(parts)})"
    if isinstance(stmt, BaseDecl):
        if stmt.family == "field":
            args = ""
        elif stmt.family in ("poly", "laurent"):
            args = stmt.gen or "t"
        else:
            parts = []
            if stmt.family == "cyclic_group":
                parts.append(f"n = {stmt.order}")
                parts.append(f"epsilon = {format_expr(stmt.epsilon)}")
            else:
                parts.append(f"d = {format_expr(stmt.defect)}")
            if stmt.gen is not None:
                parts.append(f"gen = {stmt.gen}")
            args = ", ".join(parts)
        return f"base {stmt.name} = {stmt.family}({args})"
    if isinstance(stmt, AutoDecl):
        rules = ", ".join(f"{r.gen} -> {format_expr(r.image)}"
                          for r in stmt.rules)
        body = f"{{ {rules} }}" if rules else "{ }"
        return f"auto {stmt.name} on {stmt.carrier} {body}"
    if isinstance(stmt, RingDecl):
        if stmt.flavor == "quotient":
            return f"ring {stmt.name} = quotient_by_casimir({stmt.base})"
        parts = [stmt.base, stmt.auto or ""]
        if stmt.flavor == "ambiskew":
            parts.append(f"v = {format_expr(stmt.v)}")
            parts.append(f"rho = {format_expr(stmt.rho)}")
        else:
            parts.append(f"u = {format_expr(stmt.u)}")
            if stmt.gamma is not None:
                parts.append(f"gamma = {stmt.gamma}")
        if stmt.y is not None:
            parts.append(f"y = {stmt.y}")
        if stmt.x is not None:
            parts.append(f"x = {stmt.x}")
        return f"ring {stmt.name} = {stmt.flavor}({', '.join(parts)})"
    if isinstance(stmt, AssumeDecl):
        return f"assume independent({', '.join(stmt.names)})"
    return f"check {stmt.kind}({stmt.target})"


# ---------------------------------------------------------------------------
# standalone expressions and scalar tables
# ---------------------------------------------------------------------------


def parse_expression(text: str) -> Expr:
    """Parse a bare expression, as used by the CLI evaluator."""
    cur = _Cursor(_tokenize_line(text, 1))
    expr = _parse_expr(cur)
    cur.expect_end()
    return expr


def parse_scalar_table(text: str, ctx: ScalarContext) -> list[list[Scalar]]:
    """A CSV-like table of scalar literals: one row per line, entries
    separated by commas, ``#`` comments allowed.

    >>> ctx = ScalarContext()
    >>> [[str(s) for s in row] for row in parse_scalar_table("1, 2\\n1/2, 1", ctx)]
    [['1', '2'], ['1/2', '1']]
    """
    rows: list[list[Scalar]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        cut = line.find("#")
        if cut >= 0:
            line = line[:cut]
        if not line.strip():
            continue
        row = []
        for offset, cell in _split_cells(line):
            if not cell.strip():
                raise DslError("syntactic", SourceLocation(lineno, offset + 1),
                               "empty table entry")
            cur = _Cursor(_tokenize_line(cell, lineno))
            expr = _parse_expr(cur)
            cur.expect_end()
            row.append(eval_scalar(_shift_columns(expr, offset), ctx))
        rows.append(row)
    return rows


def _split_cells(line: str) -> list[tuple[int, str]]:
    out = []
    start = 0
    for i, ch in enumerate(line):
        if ch == ",":
            out.append((start, line[start:i]))
            start = i + 1
    out.append((start, line[start:]))
    return out


def _shift_columns(expr: Expr, offset: int) -> Expr:
    """Re-anchor the source columns of a cell expression to the full line."""
    if offset == 0:
        return expr
    loc = SourceLocation(expr.loc.line, expr.loc.column + offset)
    if isinstance(expr, Num):
        return Num(expr.value, loc=loc)
    if isinstance(expr, Name):
        return Name(expr.ident, loc=loc)
    if isinstance(expr, Unary):
        return Unary(_shift_columns(expr.operand, offset), loc=loc)
    return BinOp(expr.op, _shift_columns(expr.left, offset),
                 _shift_columns(expr.right, offset), loc=loc)
