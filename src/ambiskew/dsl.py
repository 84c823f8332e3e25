"""A small text language for declaring rings and the checks to run on them.

A document is a sequence of lines.  Each line is one declaration or one
check directive; ``#`` outside a quoted string starts a comment, to the end
of the line.  Declarations are order sensitive: a name must be declared
before it is used, which makes every reference acyclic by construction.
``parse_spec`` reads a document in one pass, a line at a time: one
regular-expression scan cuts the line into ``(kind, text, line, column)``
tuples, and its statement reads them, its syntax first and then its
arguments, before it builds the algebra, automorphism or ring it declares
into the ``SpecDocument``.  So every semantic rule (nonzero rho, primitive
roots, relation preservation) is enforced eagerly; errors point at a line
and column.  One reader (``_read``), indexing the tokens, serves both steps:
it reads each expression once, building nothing, to check syntax, and again
for its value, which stays a scalar until a generator enters it.

The statement forms follow; the families and ring constructors, with
their keyword arguments and which of them are required, come from the
tables ``_BASES`` and ``_RINGS``, and one reader (``_parse_args``) checks
the keywords of every context, base and ring statement:

    context(characteristic = 5, cyclotomic_order = 4, parameters = [q])
    base A = cyclic_group(n = 4, epsilon = zeta)
    base L = laurent(t)
    auto alpha on A { s -> zeta*s }
    ring R = ambiskew(A, alpha, v = s + 2*s^3, rho = zeta, y = y1, x = x1)
    ring T = gwa(L, alpha, u = t)
    ring T2 = quotient_by_casimir(R)
    check simple(R)
    check torus(matrix.csv)

Scalar and element expressions use integers, fractions written ``a/b``,
``zeta`` for the root of unity of the declared cyclotomic order, parameter
names, generator names, ``+ - * /``, ``^`` with integer exponents, and
parentheses.  ``^`` binds tighter than a unary minus, so ``-2^2`` is -4.

>>> text = '''
... # a first Weyl algebra presented over the scalars
... base F = field()
... auto a on F { }
... ring R = ambiskew(F, a, v = 1, rho = 1)
... check simple(R)
... '''
>>> doc = parse_spec(text)
>>> R = doc.rings["R"]
>>> R.base is doc.algebra("F"), R.render(R.mul(R.gen_elem("y"), R.gen_elem("x")))
(True, '-1 + x*y')
>>> [(check.kind, check.target) for check in doc.checks]
[('simple', 'R')]
>>> parse_spec(text.replace("rho = 1", "rho = 0"))
Traceback (most recent call last):
    ...
ambiskew.dsl.DslError: 5:38: semantic error: rho must be nonzero
"""

from __future__ import annotations

import operator
import re
import string

from .algebras import (CyclicGroupAlgebra, FieldAlgebra, LaurentAlgebra,
                       PolyAlgebra, QuadraticAlgebra)
from .gwa import GwaRing, gwa_from_ambiskew
from .rings import AmbiskewRing
from .scalars import Scalar, ScalarContext, _power_size

__all__ = [
    "CheckDecl", "DslError", "SourceLocation", "SpecDocument",
    "eval_element", "parse_expression", "parse_scalar_table", "parse_spec",
]


class SourceLocation:
    """A 1-based line and column position in the document text."""

    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int):
        self.line = line
        self.column = column

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


# a token is a (kind, text, line, column) tuple; its kind is NAME, INT,
# PATH, STRING, END or the punctuation itself.  Each match is the blank run
# before a token and the token; a '#' outside a string comments out the
# rest, and any other character is stray.
_TOKEN_RE = re.compile(r"""
    ([ \t]*)
    ( [A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*
    | [0-9]+
    | "[^"\n]*"
    | ->
    | \#.*
    | [^ \t]
    )
""", re.VERBOSE | re.DOTALL)

# NAME and INT by a token's first character; punctuation is its own kind
_FIRST = {**dict.fromkeys(string.ascii_letters + "_", "NAME"),
          **dict.fromkeys(string.digits, "INT")}
_PUNCT = frozenset(["->", *"(){}[],=+-*/^"])


def _tokenize_line(text: str, line: int) -> list[tuple]:
    out = []
    column = 1
    for blank, word in _TOKEN_RE.findall(text):
        column += len(blank)
        kind = _FIRST.get(word[0])
        if kind is None:
            if word in _PUNCT:
                kind = word
            elif word[0] == "#":
                break
            elif len(word) == 1:  # a stray character, or an unclosed '"'
                raise DslError("lexical", SourceLocation(line, column),
                               f"unexpected character {word!r}")
            else:
                kind = "STRING"
        elif kind == "NAME" and "." in word:
            kind = "PATH"
        out.append((kind, word, line, column))
        column += len(word)
    else:
        column = len(text) + 1
    out.append(("END", "", line, column))
    return out


def _loc(tok: tuple) -> SourceLocation:
    return SourceLocation(tok[2], tok[3])


def _expected(tok: tuple, what: str) -> DslError:
    found = repr(tok[1]) if tok[0] != "END" else "end of line"
    return DslError("syntactic", _loc(tok), f"expected {what}, found {found}")


class _Cursor:
    """A token stream for one statement line, with expectation helpers."""

    __slots__ = ("tokens", "i")

    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.i = 0

    def next(self) -> tuple:
        tok = self.tokens[self.i]
        if tok[0] != "END":
            self.i += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.i][0] == kind

    def take(self, kind: str) -> tuple | None:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            return None
        self.i += 1  # no caller takes the END token
        return tok

    def expect(self, kind: str, what: str) -> tuple:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise _expected(tok, what)
        self.i += 1
        return tok

    def expect_end(self) -> None:
        self.expect("END", "end of line")  # the last read of a line


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


# an expression is the slice of its line's tokens, closed by an END token
Expr = list[tuple]

# the binding power of each infix operator; any other token ends a chain
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}


def _read(tokens: Expr, i: int, atom, apply) -> tuple:
    """The value of the expression at ``tokens[i]``, read by precedence
    climbing, and the index of the token after it.  ``atom(token)`` values
    a number or a name, ``apply(operator, left, right)`` an operation: left
    is None for a unary minus, and right is an integer after ``^``.  Only
    parentheses recurse; the END token closing the list stops every read."""
    pending: list[tuple] = []  # (binding power, left value, operator), rising
    while True:
        signs = []
        while tokens[i][0] == "-":
            signs.append(tokens[i])
            i += 1
        tok = tokens[i]
        if tok[0] == "NAME" or tok[0] == "INT":
            value = atom(tok)
        elif tok[0] == "(":
            value, i = _read(tokens, i + 1, atom, apply)
            if tokens[i][0] != ")":
                raise _expected(tokens[i], "a closing ')'")
        else:
            raise _expected(tok, "a number, a name or '('")
        i += 1
        while tokens[i][0] == "^":
            op, neg = tokens[i], tokens[i + 1][0] == "-"
            lit = tokens[i + 1 + neg]
            if lit[0] != "INT":
                raise _expected(lit, "an integer exponent after '^'")
            value = apply(op, value, -int(lit[1]) if neg else int(lit[1]))
            i += 2 + neg
        for sign in reversed(signs):
            value = apply(sign, None, value)
        binding = _BINDING.get(tokens[i][0], 0)
        while pending and pending[-1][0] >= binding:
            _, left, op = pending.pop()
            value = apply(op, left, value)
        if not binding:
            return value, i
        pending.append((binding, value, tokens[i]))
        i += 1


def _nothing(*_):
    return None


def _nested_too_deeply(start: tuple) -> DslError:
    return DslError("syntactic", _loc(start), "the expression is nested too deeply")


def _expression(cur: _Cursor) -> Expr:
    """An expression standing on its own in a line, its syntax checked;
    nesting too deep for the stack is reported on its line."""
    start = cur.i
    try:
        cur.i = _read(cur.tokens, start, _nothing, _nothing)[1]
    except RecursionError:
        raise _nested_too_deeply(cur.tokens[start]) from None
    return cur.tokens[start:cur.i] + cur.tokens[-1:]


_MAX_POWER = (1 << 20, 1 << 10)  # bits of a coordinate, terms (eval_element)


# each infix operator of a ring: on two scalars, and the algebra's method
_INFIX = {"+": (operator.add, "add"), "-": (operator.sub, "sub"),
          "*": (operator.mul, "mul")}


def _evaluate(expr: Expr, ctx: ScalarContext, algebra=None):
    """The value of a syntax-checked expression: a Scalar until a
    generator of ``algebra`` enters it, then an element, which meets a
    scalar through ``smul`` in a product and ``from_scalar`` in a sum.
    Generators shadow parameters and ``zeta``."""
    gens = () if algebra is None else algebra.gens()

    def atom(tok: tuple):
        word = tok[1]
        if tok[0] == "INT":
            return ctx.int_(int(word))
        if word in gens:
            return algebra.gen_elem(word)
        if word in ctx.parameters:
            return ctx.param(word)
        if word == "zeta" and ctx.characteristic == 0 and ctx.cyclotomic_order > 1:
            return ctx.zeta()
        raise DslError("semantic", _loc(tok), f"unknown name {word!r}")

    def apply(op: tuple, left, right):
        kind = op[0]
        if left is None:  # a unary minus
            return -right if type(right) is Scalar else algebra.neg(right)
        if kind == "^":
            try:
                if type(left) is not Scalar:
                    return algebra.power(left, right)
                if right < 0 and not left:
                    raise ValueError("a negative power needs an invertible element")
                if any(map(operator.gt, _power_size(left, right), _MAX_POWER)):
                    raise ValueError("the power is too large to compute")
                return left ** right
            except ValueError as exc:
                raise DslError("semantic", _loc(op), str(exc)) from None
        if kind == "/":
            s = right if type(right) is Scalar else algebra.scalar_of(right)
            if s is None:
                raise DslError("semantic", _loc(op), "the divisor must be a scalar")
            if not s:
                raise DslError("semantic", _loc(op), "division by zero")
            kind, right = "*", s.inv()
        if type(left) is Scalar and type(right) is Scalar:
            return _INFIX[kind][0](left, right)
        if kind == "*" and Scalar in (type(left), type(right)):
            s, elem = (left, right) if type(left) is Scalar else (right, left)
            return algebra.smul(s, elem)  # a scalar is central
        left, right = [algebra.from_scalar(v) if type(v) is Scalar else v
                       for v in (left, right)]
        return getattr(algebra, _INFIX[kind][1])(left, right)

    try:
        return _read(expr, 0, atom, apply)[0]
    except RecursionError:
        raise _nested_too_deeply(expr[0]) from None


def eval_element(expr: Expr, algebra) -> dict:
    """Evaluate an expression to an element of ``algebra``, read as a
    scalar until a generator (embedded coefficient generators included)
    enters it, and a scalar value lifted at the end.  Division is by
    scalars only; ``^`` takes integer exponents and negative powers need
    an invertible operand.  A scalar power is refused past 2^20 bits in a
    coordinate or 1024 terms in num or den, as ``_power_size`` estimates.

    >>> ctx = ScalarContext(parameters=("q",))
    >>> alg = LaurentAlgebra(ctx)
    >>> alg.render(eval_element(parse_expression("q*t + t^-1"), alg))
    'q*t + t^-1'
    """
    value = _evaluate(expr, algebra.ctx, algebra)
    return algebra.from_scalar(value) if type(value) is Scalar else value


def eval_scalar(expr: Expr, ctx: ScalarContext) -> Scalar:
    """Evaluate an expression of numbers, parameters and ``zeta``."""
    return _evaluate(expr, ctx)


# ---------------------------------------------------------------------------
# the document
# ---------------------------------------------------------------------------


class CheckDecl:
    __slots__ = ("kind", "target")  # kind is one of CHECK_KINDS

    def __init__(self, kind: str, target: str):
        self.kind = kind
        self.target = target

    def echo(self) -> str:
        return f"{self.kind}({self.target})"


CHECK_KINDS = ("simple", "singular", "conformal", "iterated",
               "localized_simple", "torus")


class SpecDocument:
    """The objects a document declares, filled in by ``parse_spec`` as it
    reads each line.

    ``autos`` maps a name to ``(carrier name, automorphism)``.  ``context``
    is made with the defaults when the first declaration needs it and no
    ``context`` line came before; ``context_declared`` records such a line.
    """

    def __init__(self):
        self.context: ScalarContext | None = None
        self.bases: dict = {}
        self.autos: dict = {}
        self.rings: dict = {}
        self.checks: list[CheckDecl] = []
        self.context_declared = False

    def algebra(self, name: str):
        """The base algebra or ring declared under ``name``."""
        if name in self.bases:
            return self.bases[name]
        return self.rings[name]


def _semantic(loc: SourceLocation, message: str) -> DslError:
    return DslError("semantic", loc, message)


def _context(doc: SpecDocument) -> ScalarContext:
    if doc.context is None:
        doc.context = ScalarContext()
    return doc.context


def _fresh(doc: SpecDocument, name: str, loc: SourceLocation) -> None:
    if name in doc.bases or name in doc.autos or name in doc.rings:
        raise _semantic(loc, f"the name {name!r} is already declared")


def _carrier(doc: SpecDocument, name: str, loc: SourceLocation):
    try:
        return doc.algebra(name)
    except KeyError:
        raise _semantic(loc, f"unknown base or ring {name!r}") from None


def _named_auto(doc: SpecDocument, name: str, base_name: str,
                loc: SourceLocation):
    if name not in doc.autos:
        raise _semantic(loc, f"unknown automorphism {name!r}")
    carrier, auto = doc.autos[name]
    if carrier != base_name:
        raise _semantic(loc, f"the automorphism {name!r} is declared on "
                             f"{carrier!r}, not {base_name!r}")
    return auto


# ---------------------------------------------------------------------------
# statements: each parser reads its whole line, then builds its object
# ---------------------------------------------------------------------------


def _lone(value, kind: str) -> str | None:
    """The text of ``value`` when it is an expression of one ``kind`` token."""
    if isinstance(value, list) and len(value) == 2 and value[0][0] == kind:
        return value[0][1]
    return None


# kind of a keyword -> (the value a statement builds from the written one,
# None when that does not fit, and the message the error then gives); a
# written value is an expression or a tuple of the names in a list
_KINDS = {
    "count": (lambda v: int(t) if (t := _lone(v, "INT")) and int(t) >= 1
              else None, "must be a positive integer"),
    "characteristic": (lambda v: int(t) if (t := _lone(v, "INT")) else None,
                       "must be 0 or a prime"),
    "name": (lambda v: _lone(v, "NAME"), "must be a plain name"),
    "expr": (lambda v: None if isinstance(v, tuple) else v,
             "takes an expression, not a list"),
    "list": (lambda v: tuple(t[1] for t in v) if isinstance(v, tuple)
             else None, "takes a list like [q, r]"),
}


def _parse_args(cur: _Cursor, what: str, schema: dict, required: tuple,
                loc: SourceLocation) -> dict:
    """The ``name = value`` list that ends the line, after its '(', checked
    against ``schema`` (name -> a kind of ``_KINDS``) and ``required``.  A
    value is an expression or a list of names written ``[q, r]``; with an
    empty schema the list must be empty."""
    raw: dict = {}
    while schema and not cur.at(")"):
        key = cur.expect("NAME", "an argument name")
        cur.expect("=", "'=' after the argument name")
        if cur.take("["):
            items = []
            while not cur.at("]"):
                items.append(cur.expect("NAME", "a name in the list"))
                if not cur.take(","):
                    break
            cur.expect("]", "a closing ']'")
            value: Expr | tuple = tuple(items)
        else:
            value = _expression(cur)
        if key[1] in raw:
            raise DslError("syntactic", _loc(key),
                           f"duplicate argument {key[1]!r}")
        raw[key[1]] = (value, key)
        if not cur.take(","):
            break
    cur.expect(")", "a closing ')'")
    cur.expect_end()
    args = {}
    for key, (value, tok) in raw.items():
        if key not in schema:
            raise _semantic(_loc(tok), f"unknown {what} argument {key!r}")
        convert, message = _KINDS[schema[key]]
        args[key] = convert(value)
        if args[key] is None:
            raise _semantic(_loc(tok), f"{key} {message}")
    if any(key not in args for key in required):
        raise _semantic(loc, f"{what} needs " +
                        " and ".join(f"{key} = ..." for key in required))
    return args


def _parse_context(cur: _Cursor, loc: SourceLocation, doc: SpecDocument) -> None:
    cur.expect("(", "'('")
    args = _parse_args(cur, "context", {"characteristic": "characteristic",
                                        "cyclotomic_order": "count",
                                        "parameters": "list"}, (), loc)
    if doc.context_declared:
        raise _semantic(loc, "the context was already declared")
    if doc.context is not None:
        raise _semantic(loc, "the context must come before any declaration")
    try:
        doc.context = ScalarContext(**args)
    except ValueError as exc:
        raise _semantic(loc, str(exc)) from None
    doc.context_declared = True


# family -> (class, keyword schema or the name of its one positional
# generator argument, required keywords); the keywords are the class's
# parameters, expressions evaluated as scalars
_BASES = {
    "field": (FieldAlgebra, {}, ()),
    "poly": (PolyAlgebra, "gen", ()),
    "laurent": (LaurentAlgebra, "gen", ()),
    "cyclic_group": (CyclicGroupAlgebra, {"n": "count", "epsilon": "expr",
                                          "gen": "name"}, ("n", "epsilon")),
    "quadratic": (QuadraticAlgebra, {"d": "expr", "gen": "name"}, ("d",)),
}


def _parse_base(cur: _Cursor, loc: SourceLocation, doc: SpecDocument) -> None:
    name = cur.expect("NAME", "a base name")[1]
    cur.expect("=", "'=' after the base name")
    fam = cur.expect("NAME", "a base family")
    if fam[1] not in _BASES:
        raise _semantic(_loc(fam), f"unknown base family {fam[1]!r}; "
                        "expected one of " + ", ".join(_BASES))
    cls, schema, required = _BASES[fam[1]]
    cur.expect("(", "'('")
    if isinstance(schema, str):
        args = {schema: cur.expect("NAME", "a generator name")[1]}
        cur.expect(")", "a closing ')'")
        cur.expect_end()
    else:
        args = _parse_args(cur, fam[1], schema, required, loc)
    _fresh(doc, name, loc)
    ctx = _context(doc)
    # evaluated outside the try: its errors already carry their own location
    args = {key: eval_scalar(value, ctx) if isinstance(value, list) else value
            for key, value in args.items()}
    try:
        doc.bases[name] = cls(ctx, **args)
    except ValueError as exc:
        raise _semantic(loc, str(exc)) from None


def _parse_auto(cur: _Cursor, loc: SourceLocation, doc: SpecDocument) -> None:
    name = cur.expect("NAME", "an automorphism name")[1]
    on = cur.expect("NAME", "'on'")
    if on[1] != "on":
        raise _expected(on, "'on'")
    carrier = cur.expect("NAME", "a carrier name")[1]
    cur.expect("{", "'{'")
    rules = []
    while not cur.at("}"):
        gen = cur.expect("NAME", "a generator name")
        cur.expect("->", "'->' after the generator name")
        rules.append((gen, _expression(cur)))
        if not cur.take(","):
            break
    cur.expect("}", "a closing '}'")
    cur.expect_end()
    _fresh(doc, name, loc)
    algebra = _carrier(doc, carrier, loc)
    gens = algebra.gens()
    images: dict[str, dict] = {}
    for gen, image in rules:
        if gen[1] not in gens:
            raise _semantic(_loc(gen), f"{carrier} has no generator {gen[1]!r}")
        if gen[1] in images:
            raise _semantic(_loc(gen),
                            f"duplicate rule for generator {gen[1]!r}")
        images[gen[1]] = eval_element(image, algebra)
    try:
        auto = algebra.auto_from_images(images)
        algebra.validate_auto(auto)
    except ValueError as exc:
        raise _semantic(loc, str(exc)) from None
    doc.autos[name] = (carrier, auto)


def _ambiskew_args(doc: SpecDocument, args: dict, algebra, base: str,
                   loc: SourceLocation) -> dict:
    v = eval_element(args["v"], algebra)
    rho = eval_scalar(args["rho"], _context(doc))
    if rho.is_zero():
        raise _semantic(_loc(args["rho"][0]), "rho must be nonzero")
    return {"v": v, "rho": rho}


def _gwa_args(doc: SpecDocument, args: dict, algebra, base: str,
              loc: SourceLocation) -> dict:
    u = eval_element(args["u"], algebra)
    gamma = args.get("gamma")
    if gamma is not None:
        gamma = _named_auto(doc, gamma, base, loc)
    return {"u": u, "gamma": gamma}


# constructor -> (class, keyword schema, required keywords, the reader of
# the class's own arguments); y and x rename the generators
_RINGS = {
    "ambiskew": (AmbiskewRing, {"v": "expr", "rho": "expr", "y": "name",
                                "x": "name"}, ("v", "rho"), _ambiskew_args),
    "gwa": (GwaRing, {"u": "expr", "gamma": "name", "y": "name", "x": "name"},
            ("u",), _gwa_args),
}


def _parse_ring(cur: _Cursor, loc: SourceLocation, doc: SpecDocument) -> None:
    name = cur.expect("NAME", "a ring name")[1]
    cur.expect("=", "'=' after the ring name")
    ctor = cur.expect("NAME", "a ring constructor")
    if ctor[1] == "quotient_by_casimir":
        cur.expect("(", "'('")
        source_name = cur.expect("NAME", "a ring name")[1]
        cur.expect(")", "a closing ')'")
        cur.expect_end()
        _fresh(doc, name, loc)
        source = doc.rings.get(source_name)
        if not isinstance(source, AmbiskewRing):
            raise _semantic(loc, f"quotient_by_casimir needs a declared "
                            f"ambiskew ring, and {source_name!r} is not one")
        try:
            doc.rings[name] = gwa_from_ambiskew(source)
        except ValueError as exc:
            raise _semantic(loc, str(exc)) from None
        return
    if ctor[1] not in _RINGS:
        raise _semantic(_loc(ctor), f"unknown ring constructor {ctor[1]!r}; "
                        f"expected {', '.join(_RINGS)} or quotient_by_casimir")
    cls, schema, required, read = _RINGS[ctor[1]]
    cur.expect("(", "'('")
    base = cur.expect("NAME", "a coefficient algebra name")[1]
    cur.expect(",", "','")
    auto_name = cur.expect("NAME", "an automorphism name")[1]
    cur.expect(",", "','")
    args = _parse_args(cur, ctor[1], schema, required, loc)
    _fresh(doc, name, loc)
    algebra = _carrier(doc, base, loc)
    if isinstance(algebra, GwaRing):
        raise _semantic(loc, f"a ring over the generalized Weyl "
                        f"algebra {base!r} is not supported")
    auto = _named_auto(doc, auto_name, base, loc)
    own = read(doc, args, algebra, base, loc)
    names = {f"{key}_name": args[key] for key in ("y", "x") if key in args}
    try:
        doc.rings[name] = cls(algebra, auto, **own, **names)
    except ValueError as exc:
        raise _semantic(loc, str(exc)) from None


def _parse_check(cur: _Cursor, loc: SourceLocation, doc: SpecDocument) -> None:
    head = cur.expect("NAME", "a check kind")
    kind = head[1]
    if kind not in CHECK_KINDS:
        raise _semantic(_loc(head), f"unknown check {kind!r}; expected "
                        "one of " + ", ".join(CHECK_KINDS))
    cur.expect("(", "'('")
    if kind == "torus":
        tok = cur.next()
        if tok[0] not in ("STRING", "PATH", "NAME"):
            raise _expected(tok, "a table file name")
        target = tok[1][1:-1] if tok[0] == "STRING" else tok[1]
    else:
        target = cur.expect("NAME", "a ring name")[1]
    cur.expect(")", "a closing ')'")
    cur.expect_end()
    if kind != "torus":
        ring = doc.rings.get(target)
        if ring is None:
            raise _semantic(loc, f"unknown ring {target!r}")
        ambiskew_only = ("singular", "conformal", "iterated",
                         "localized_simple")
        if kind in ambiskew_only and not isinstance(ring, AmbiskewRing):
            raise _semantic(loc, f"check {kind} needs an ambiskew ring")
    doc.checks.append(CheckDecl(kind, target))


_STATEMENT_PARSERS = {
    "context": _parse_context,
    "base": _parse_base,
    "auto": _parse_auto,
    "ring": _parse_ring,
    "check": _parse_check,
}


def parse_spec(text: str) -> SpecDocument:
    """Parse and validate a document, building every declared object.

    Raises DslError with a line:column position on the first lexical,
    syntactic or semantic problem.
    """
    doc = SpecDocument()
    for lineno, line in enumerate(text.splitlines(), start=1):
        cur = _Cursor(_tokenize_line(line, lineno))
        kind, word, _, column = cur.next()
        if kind == "END":
            continue
        parser = _STATEMENT_PARSERS.get(word)
        if kind != "NAME" or parser is None:
            raise DslError("syntactic", SourceLocation(lineno, column),
                           "expected a statement keyword (one of "
                           f"{', '.join(_STATEMENT_PARSERS)}), found {word!r}")
        parser(cur, SourceLocation(lineno, column), doc)
    _context(doc)
    return doc


# ---------------------------------------------------------------------------
# standalone expressions and scalar tables
# ---------------------------------------------------------------------------


def parse_expression(text: str) -> Expr:
    """Parse a bare expression, as used by the CLI evaluator."""
    cur = _Cursor(_tokenize_line(text, 1))
    expr = _expression(cur)
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
        cur = _Cursor(_tokenize_line(line, lineno))
        if cur.at("END"):
            continue
        cells = []
        column = 1  # where the entry starts: after the previous comma
        while True:
            if cur.at(",") or cur.at("END"):
                raise DslError("syntactic", SourceLocation(lineno, column),
                               "empty table entry")
            cells.append(_expression(cur))
            comma = cur.take(",")
            if comma is None:
                break
            column = comma[3] + 1
        cur.expect_end()
        rows.append([eval_scalar(cell, ctx) for cell in cells])
    return rows
