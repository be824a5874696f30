"""Session files: a tiny declaration language for the command line.

A session is line oriented::

    vars: x1 x2          # coordinates, always x1..xn in order
    field: r where r^2 - 2 = 0
    xi: x2*d1 - x1*d2    # d<i> is d/dx_i in operator context
    w:  d3 - x2*d1       # ... and dx_i in form context
    J:  ideal(x2, y1)    # ideals live on the doubled space
    f:  (1/2)*x1^2

Expressions use rationals, + - * / ^ and parentheses.  The same ``d<i>``
token is read per declaration: any ``dx<i>``/``dy<i>`` atom forces form
context, a bare ``d<i>`` otherwise means the Weyl generator; ``^`` is the
wedge when a form is involved and the power otherwise.  An operator of pure
first order with no constant term doubles as a polynomial vector field.
Every declared object is canonicalized, and printing then re-parsing any
declaration reproduces it exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import MixedContext, ParseError, UnknownVariable
from .foliations import PolyVectorField
from .forms import PolyForm, wedge
from .ideals import Ideal
from .polynomials import MultiPoly, VarSpace
from .scalars import NFElement, make_number_field, scalar_inverse, upoly_trim
from .weyl import WeylOperator, order_one_field

_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")
_YVAR_RE = re.compile(r"^y([1-9][0-9]*)$")
_D_RE = re.compile(r"^d([1-9][0-9]*)$")
_DX_RE = re.compile(r"^dx([1-9][0-9]*)$")
_DY_RE = re.compile(r"^dy([1-9][0-9]*)$")
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),=])"
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text, line, offset=0):
    # columns are 0-based offsets into the raw session line
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line,
                             pos + offset)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append(Token(m.lastgroup, m.group(), line, m.start() + offset))
    return tokens


# ---------------------------------------------------------------------------
# expression grammar (precedence climbing)
# ---------------------------------------------------------------------------
#   expr  := term (("+"|"-") term)*
#   term  := unary (("*"|"/") unary)*
#   unary := "-" unary | power
#   power := atom ("^" atom)*          left associative; wedge or power
#   atom  := number | name | name "(" expr ("," expr)* ")" | "(" expr ")"
#
# Every recursive cycle of the grammar passes through unary, so its nesting
# depth bounds the recursion; _MAX_DEPTH keeps it well inside Python's
# recursion limit.

_MAX_DEPTH = 100


class _ExprParser:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.line = line
        self.pos = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line,
                             self.tokens[-1].column + len(self.tokens[-1].text)
                             if self.tokens else 0)
        self.pos += 1
        return tok

    def _expect_op(self, text):
        tok = self._next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}",
                             tok.line, tok.column)
        return tok

    def parse(self):
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return node

    def expr(self):
        node = self.term()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return node
            self._next()
            node = ("bin", tok.text, node, self.term(), (tok.line, tok.column))

    def term(self):
        node = self.unary()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text not in "*/":
                return node
            self._next()
            node = ("bin", tok.text, node, self.unary(), (tok.line, tok.column))

    def unary(self):
        tok = self._peek()
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"expression nested more than {_MAX_DEPTH} deep",
                             self.line, tok.column if tok else None)
        self.depth += 1
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self._next()
            node = ("neg", self.unary(), (tok.line, tok.column))
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        node = self.atom()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text != "^":
                return node
            self._next()
            node = ("bin", "^", node, self.atom(), (tok.line, tok.column))

    def atom(self):
        tok = self._next()
        if tok.kind == "num":
            return ("num", Fraction(int(tok.text)), (tok.line, tok.column))
        if tok.kind == "name":
            nxt = self._peek()
            if nxt is not None and nxt.kind == "op" and nxt.text == "(":
                self._next()
                args = [self.expr()]
                while True:
                    sep = self._next()
                    if sep.kind == "op" and sep.text == ",":
                        args.append(self.expr())
                        continue
                    if sep.kind == "op" and sep.text == ")":
                        break
                    raise ParseError(f"expected ',' or ')', found {sep.text!r}",
                                     sep.line, sep.column)
                return ("call", tok.text, args, (tok.line, tok.column))
            return ("name", tok.text, (tok.line, tok.column))
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self._expect_op(")")
            return node
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)


def parse_expression(text, line=1, offset=0):
    tokens = _tokenize(text, line, offset)
    if not tokens:
        raise ParseError("empty expression", line, offset)
    return _ExprParser(tokens, line).parse()


def _ast_names(ast):
    kind = ast[0]
    if kind == "name":
        yield ast[1], ast[2]
    elif kind == "call":
        yield ast[1], ast[3]
        for a in ast[2]:
            yield from _ast_names(a)
    elif kind == "neg":
        yield from _ast_names(ast[1])
    elif kind == "bin":
        yield from _ast_names(ast[2])
        yield from _ast_names(ast[3])


# ---------------------------------------------------------------------------
# typed evaluation
# ---------------------------------------------------------------------------

@dataclass
class Declaration:
    name: str
    ast: object
    source: str
    kind: str     # poly | form | op | field | ideal | binform
    value: object


def _constant_scalar(value, pos):
    """Extract a plain scalar from a constant poly/0-form/order-0 operator."""
    if isinstance(value, (int, Fraction, NFElement)):
        return value
    if isinstance(value, MultiPoly):
        if value.is_constant():
            return value.constant_value()
    elif isinstance(value, PolyForm):
        if value.degree == 0:
            p = value.coeffs.get((), None)
            if p is None:
                return Fraction(0)
            if p.is_constant():
                return p.constant_value()
    elif isinstance(value, WeylOperator):
        if value.is_zero():
            return Fraction(0)
        if value.total_degree() == 0:
            return next(iter(value.terms.values()))
    raise ParseError("expected a constant here", *pos)


class Session:
    """Parsed session: one shared coordinate space plus named declarations.

    Polynomials and ideals live on the doubled space (x- and y-blocks);
    forms live on the base space, or the doubled one when a ``dy<i>`` atom
    appears; operators know only the x-block.
    """

    def __init__(self, space, field=None):
        self.space = space
        self.dspace = space.doubled()
        self.field = field
        self.decls = {}

    # -- variable atoms --------------------------------------------------------

    @property
    def n(self):
        return len(self.space.x_vars)

    def _gen_scalar(self, name):
        if self.field is not None and name == self.field.name:
            return self.field.gen()
        return None

    # -- evaluation ------------------------------------------------------------

    def eval_poly(self, ast, space=None):
        space = space or self.dspace
        kind = ast[0]
        if kind == "num":
            return MultiPoly.constant(space, ast[1])
        if kind == "name":
            name, pos = ast[1], ast[2]
            if name in space.all_vars:
                return MultiPoly.variable(space, name)
            if _D_RE.match(name) or _DX_RE.match(name) or _DY_RE.match(name):
                raise MixedContext(
                    f"differential {name} cannot appear in a polynomial",
                    *pos,
                )
            gen = self._gen_scalar(name)
            if gen is not None:
                return MultiPoly.constant(space, gen)
            if name in self.decls:
                inner = self.get(name, "poly")
                return inner.lift_to(space) if inner.space != space else inner
            raise UnknownVariable(f"unknown name {name!r}", *pos)
        if kind == "call":
            raise MixedContext(
                f"{ast[1]}(...) is only allowed as a whole declaration",
                *ast[3],
            )
        if kind == "neg":
            return -self.eval_poly(ast[1], space)
        _, op, lhs, rhs, pos = ast
        a = self.eval_poly(lhs, space)
        b = self.eval_poly(rhs, space)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            c = _constant_scalar(b, pos)
            if not c:
                raise ParseError("division by zero", *pos)
            return a / c
        # power
        e = _constant_scalar(b, pos)
        if not (isinstance(e, Fraction) and e.denominator == 1 and e >= 0):
            raise ParseError("exponent must be a nonnegative integer", *pos)
        return a ** int(e)

    def eval_operator(self, ast):
        n = self.n
        kind = ast[0]
        if kind == "num":
            return WeylOperator.constant(n, ast[1])
        if kind == "name":
            name, pos = ast[1], ast[2]
            m = _VAR_RE.match(name)
            if m and int(m.group(1)) <= n:
                return WeylOperator.x_var(n, int(m.group(1)) - 1)
            m = _D_RE.match(name)
            if m and int(m.group(1)) <= n:
                return WeylOperator.d_var(n, int(m.group(1)) - 1)
            if _DX_RE.match(name) or _DY_RE.match(name) or _YVAR_RE.match(name):
                raise MixedContext(f"{name} cannot appear in an operator", *pos)
            gen = self._gen_scalar(name)
            if gen is not None:
                return WeylOperator.constant(n, gen)
            if name in self.decls:
                return self.get(name, "op")
            raise UnknownVariable(f"unknown name {name!r}", *pos)
        if kind == "call":
            raise MixedContext(
                f"{ast[1]}(...) is only allowed as a whole declaration",
                *ast[3],
            )
        if kind == "neg":
            return -self.eval_operator(ast[1])
        _, op, lhs, rhs, pos = ast
        a = self.eval_operator(lhs)
        b = self.eval_operator(rhs)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            c = _constant_scalar(b, pos)
            if not c:
                raise ParseError("division by zero", *pos)
            return a * scalar_inverse(c)
        e = _constant_scalar(b, pos)
        if not (isinstance(e, Fraction) and e.denominator == 1 and e >= 0):
            raise ParseError("exponent must be a nonnegative integer", *pos)
        return a ** int(e)

    def _form_space(self, ast):
        uses_dy = any(
            _DY_RE.match(nm) or _YVAR_RE.match(nm) for nm, _ in _ast_names(ast)
        )
        return self.dspace if uses_dy else self.space

    def eval_form(self, ast, space):
        """Form-context evaluation: values are PolyForm or MultiPoly."""
        kind = ast[0]
        if kind == "num":
            return MultiPoly.constant(space, ast[1])
        if kind == "name":
            name, pos = ast[1], ast[2]
            for rx, block in ((_D_RE, "x"), (_DX_RE, "x"), (_DY_RE, "y")):
                m = rx.match(name)
                if not m:
                    continue
                i = int(m.group(1)) - 1
                if i >= self.n:
                    raise UnknownVariable(f"no coordinate for {name}", *pos)
                idx = i if block == "x" else self.n + i
                return PolyForm.basis_form(space, idx)
            if name in space.all_vars:
                return MultiPoly.variable(space, name)
            gen = self._gen_scalar(name)
            if gen is not None:
                return MultiPoly.constant(space, gen)
            if name in self.decls:
                got = self.get(name, "form")
                if isinstance(got, PolyForm) and got.space != space:
                    raise MixedContext(
                        f"form {name} lives on {got.space}, not {space}"
                    )
                return got
            raise UnknownVariable(f"unknown name {name!r}", *pos)
        if kind == "call":
            raise MixedContext(
                f"{ast[1]}(...) is only allowed as a whole declaration",
                *ast[3],
            )
        if kind == "neg":
            return -self.eval_form(ast[1], space)
        _, op, lhs, rhs, pos = ast
        a = self.eval_form(lhs, space)
        b = self.eval_form(rhs, space)
        a_form = isinstance(a, PolyForm)
        b_form = isinstance(b, PolyForm)
        if op in "+-":
            if a_form != b_form:
                other = b if a_form else a
                if other.is_constant() and not other.constant_value():
                    return a if a_form else b
                raise MixedContext("cannot add a polynomial and a form", *pos)
            if a_form and a.degree != b.degree:
                raise MixedContext(
                    f"cannot add forms of degree {a.degree} and {b.degree}",
                    *pos,
                )
            return a + b if op == "+" else a - b
        if op == "*":
            if a_form and b_form:
                raise MixedContext("use ^ to multiply forms", *pos)
            return a * b
        if op == "/":
            c = _constant_scalar(b, pos)
            if not c:
                raise ParseError("division by zero", *pos)
            if a_form:
                return a * scalar_inverse(c)
            return a / c
        # ^ : wedge whenever a form is involved, power otherwise
        if a_form or b_form:
            wa = a if a_form else PolyForm.from_poly(a)
            wb = b if b_form else PolyForm.from_poly(b)
            return wedge(wa, wb)
        e = _constant_scalar(b, pos)
        if not (isinstance(e, Fraction) and e.denominator == 1 and e >= 0):
            raise ParseError("exponent must be a nonnegative integer", *pos)
        return a ** int(e)

    # -- declaration handling ----------------------------------------------------

    def _infer_kind(self, ast):
        if ast[0] == "call":
            if ast[1] in ("ideal", "binform"):
                return ast[1]
            raise ParseError(f"unknown function {ast[1]!r}", *ast[3])
        best = "poly"
        for name, _ in _ast_names(ast):
            if _DX_RE.match(name) or _DY_RE.match(name):
                return "form"
            if _D_RE.match(name):
                best = "op"
            elif name in self.decls and best == "poly":
                k = self.decls[name].kind
                if k in ("form", "op", "field"):
                    best = "form" if k == "form" else "op"
        return best

    def declare(self, name, source, line, offset=0):
        if name in self.decls or name in self.dspace.all_vars:
            raise ParseError(f"name {name!r} already in use", line, 0)
        if self.field is not None and name == self.field.name:
            raise ParseError(f"name {name!r} is the field generator", line, 0)
        ast = parse_expression(source, line, offset)
        kind = self._infer_kind(ast)
        if kind == "ideal":
            gens = [self.eval_poly(a) for a in ast[2]]
            value = Ideal(self.dspace, gens)
        elif kind == "binform":
            if len(ast[2]) != 1:
                raise ParseError("binform takes one argument", *ast[3])
            value = self._check_binform(self.eval_poly(ast[2][0], self.space),
                                        ast[3])
        elif kind == "form":
            value = self.eval_form(ast, self._form_space(ast))
            if not isinstance(value, PolyForm):
                value = PolyForm.from_poly(value)
        elif kind == "op":
            value = self.eval_operator(ast)
            if _is_field_shaped(value):
                kind = "field"
                value = order_one_field(value, self.dspace)
        else:
            value = self.eval_poly(ast)
        self.decls[name] = Declaration(name, ast, source, kind, value)
        return self.decls[name]

    def _check_binform(self, p, pos):
        if p.is_zero():
            raise ParseError("binform must be nonzero", *pos)
        support = p.support_indices()
        if not support <= {0, 1}:
            raise ParseError("binform uses only x1 and x2", *pos)
        degs = {sum(e) for e in p.terms}
        if len(degs) != 1:
            raise ParseError("binform must be homogeneous", *pos)
        return p

    # -- retrieval with coercions -------------------------------------------------

    def get(self, name, kind):
        if name not in self.decls:
            raise UnknownVariable(f"no declaration named {name!r}")
        decl = self.decls[name]
        if decl.kind == kind:
            return decl.value
        if kind == "field":
            if decl.kind == "op" and _is_field_shaped(decl.value):
                return order_one_field(decl.value, self.dspace)
            raise MixedContext(f"{name} is not a polynomial vector field")
        if kind == "op":
            if decl.kind == "field":
                return WeylOperator.from_vector_field(decl.value)
            if decl.kind == "poly":
                if decl.value.involves(self.dspace.y_indices):
                    raise MixedContext(f"{name} involves y-variables")
                return WeylOperator.from_poly(
                    decl.value.restrict_to(self.space))
            return self.eval_operator(decl.ast)
        if kind == "form":
            if decl.kind == "poly":
                if decl.value.involves(self.dspace.y_indices):
                    raise MixedContext(f"{name} involves y-variables")
                return PolyForm.from_poly(decl.value.restrict_to(self.space))
            if decl.kind in ("op", "field"):
                value = self.eval_form(decl.ast, self._form_space(decl.ast))
                if not isinstance(value, PolyForm):
                    value = PolyForm.from_poly(value)
                return value
            raise MixedContext(f"{name} is not a form")
        if kind == "poly":
            if decl.kind == "op" and decl.value.order() == 0:
                base = MultiPoly.zero(self.space)
                for (xe, _), c in decl.value.terms.items():
                    base = base + MultiPoly.monomial(self.space, xe, c)
                return base.lift_to(self.dspace)
            raise MixedContext(f"{name} is not a polynomial")
        if kind == "ideal":
            if decl.kind == "poly":
                return Ideal(self.dspace, [decl.value])
            raise MixedContext(f"{name} is not an ideal")
        if kind == "binform":
            if decl.kind == "poly":
                return self._check_binform(
                    decl.value.restrict_to(self.space), (0, 0))
            raise MixedContext(f"{name} is not a binary form")
        raise MixedContext(f"{name} has kind {decl.kind}, wanted {kind}")

    def vector_field(self, name=None):
        """The session's vector field: named, or unique, or the one called xi."""
        if name is not None:
            return self.get(name, "field")
        fields = [d.name for d in self.decls.values() if d.kind == "field"]
        if len(fields) == 1:
            return self.decls[fields[0]].value
        if "xi" in self.decls:
            return self.get("xi", "field")
        if not fields:
            raise UnknownVariable("the session declares no vector field")
        raise UnknownVariable(
            f"several vector fields declared ({', '.join(fields)}); pick one"
        )

    # -- canonical printing --------------------------------------------------------

    def value_str(self, name):
        decl = self.decls[name]
        return print_value(decl.value)

    # -- scalars and points ----------------------------------------------------------

    def parse_scalar(self, text):
        ast = parse_expression(text)
        return _constant_scalar(self.eval_poly(ast, self.space), (1, 1))

    def parse_point(self, text):
        parts = _split_commas(text)
        if len(parts) != self.n:
            raise ParseError(
                f"point needs {self.n} coordinates, got {len(parts)}", 1, 1
            )
        return tuple(self.parse_scalar(p) for p in parts)


def _split_commas(text):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        # strip only a matching outer pair
        depth = 0
        for i, ch in enumerate(text):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0 and i < len(text) - 1:
                break
        else:
            text = text[1:-1]
    depth = 0
    parts, cur = [], []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p for p in (s.strip() for s in parts) if p]


def _is_field_shaped(op):
    """Pure first order with no order-zero part: readable as a vector field."""
    return bool(op.terms) and all(sum(de) == 1 for _, de in op.terms)


def print_value(value):
    """Canonical, re-parseable text for any declarable value."""
    if isinstance(value, PolyVectorField):
        return str(WeylOperator.from_vector_field(value))
    if isinstance(value, Ideal):
        return "ideal(" + ", ".join(str(g) for g in value.generators) + ")"
    return str(value)


# ---------------------------------------------------------------------------
# session files
# ---------------------------------------------------------------------------

def _parse_header_vars(rest, line):
    names = rest.split()
    if not names:
        raise ParseError("vars: needs at least one variable", line, 1)
    for i, nm in enumerate(names):
        if nm != f"x{i + 1}":
            raise ParseError(
                f"variables must be x1..xn in order, found {nm!r}", line, 1
            )
    return tuple(names)


def _parse_field_clause(session, rest, line, assume_irreducible):
    m = re.match(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s+where\s+(.*?)\s*$", rest)
    if m is None:
        raise ParseError("expected 'field: NAME where POLY = 0'", line, 1)
    gen, body = m.group(1), m.group(2)
    if gen in session.space.all_vars or gen in session.dspace.all_vars:
        raise ParseError(f"generator {gen!r} collides with a coordinate", line, 1)
    mm = re.match(r"^(.*?)=\s*0$", body)
    if mm is None:
        raise ParseError("the minimal polynomial must be set = 0", line, 1)
    ast = parse_expression(mm.group(1), line)
    gspace = VarSpace((gen,))
    helper = Session(gspace)
    poly = helper.eval_poly(ast, gspace)
    deg = poly.degree()
    if deg < 1:
        raise ParseError("the minimal polynomial must have degree >= 1", line, 1)
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in poly.terms.items():
        coeffs[e[0]] = c
    lead = coeffs[-1]
    if lead != 1:
        coeffs = [c / lead for c in coeffs]
    return make_number_field(gen, upoly_trim(coeffs),
                             assume_irreducible=assume_irreducible)


def parse_input(text, assume_irreducible=False):
    """Parse a whole session file into a :class:`Session`."""
    session = None
    pending_field = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected 'name: expression'", lineno,
                             len(line) - len(line.lstrip()) + 1)
        head, rest = line.split(":", 1)
        head = head.strip()
        if session is None:
            if head != "vars":
                raise ParseError("the first declaration must be vars:", lineno, 1)
            names = _parse_header_vars(rest, lineno)
            session = Session(VarSpace(names))
            continue
        if head == "vars":
            raise ParseError("vars: may appear only once", lineno, 1)
        if head == "field":
            if session.field is not None:
                raise ParseError("field: may appear only once", lineno, 1)
            if session.decls:
                raise ParseError("field: must precede declarations", lineno, 1)
            pending_field = _parse_field_clause(
                session, rest, lineno, assume_irreducible
            )
            session.field = pending_field
            continue
        if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", head):
            raise ParseError(f"bad declaration name {head!r}", lineno, 0)
        expr_off = line.index(":") + 1 + (len(rest) - len(rest.lstrip()))
        session.declare(head, rest.strip(), lineno, expr_off)
    if session is None:
        raise ParseError("empty session: missing vars:", 1, 1)
    return session
