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

Evaluation is iterative (one post-order fold with an explicit stack for
every context), so a flat sum or product may have any number of terms; only
nesting through parentheses or unary minus is capped, at 100 levels.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import partial

from .errors import MixedContext, ParseError, UnknownVariable
from .ideals import Ideal, _univariate_in
from .polynomials import MultiPoly, VarSpace
from .scalars import make_number_field, scalar_inverse, upoly_monic

_YVAR_RE = re.compile(r"^y([1-9][0-9]*)$")
_D_RE = re.compile(r"^d([1-9][0-9]*)$")
_DX_RE = re.compile(r"^dx([1-9][0-9]*)$")
_DY_RE = re.compile(r"^dy([1-9][0-9]*)$")
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),=])"
)


Token = namedtuple("Token", "kind text line column")


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
    """(name, position) of every name and call in ``ast``, left to right."""
    stack = [ast]
    while stack:
        node = stack.pop()
        kind = node[0]
        if kind == "name":
            yield node[1], node[2]
        elif kind == "call":
            yield node[1], node[3]
            stack.extend(reversed(node[2]))
        elif kind == "neg":
            stack.append(node[1])
        elif kind == "bin":
            stack += (node[3], node[2])


# ---------------------------------------------------------------------------
# typed evaluation
# ---------------------------------------------------------------------------

# kind is one of poly | form | op | field | ideal | binform
Declaration = namedtuple("Declaration", "name ast kind value")


def _constant_scalar(value, pos):
    """Extract a plain scalar from a constant polynomial or order-0 operator."""
    if isinstance(value, MultiPoly) and value.is_constant():
        return value.constant_value()
    raise ParseError("expected a constant here", *pos)


def _arith(op, a, b, pos):
    """``a op b`` for + - * / ^ on polynomials, operators or forms."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    c = _constant_scalar(b, pos)
    if op == "/":
        if not c:
            raise ParseError("division by zero", *pos)
        return a * scalar_inverse(c)
    if not (isinstance(c, Fraction) and c.denominator == 1 and c >= 0):
        raise ParseError("exponent must be a nonnegative integer", *pos)
    return a ** int(c)


def _form_arith(op, a, b, pos):
    """Form context: sums need equal degrees, ``^`` is the wedge on forms;
    ``*`` scales by a function, so it rejects two forms of degree >= 1;
    a divisor that is a 0-form divides as its function."""
    from .forms import PolyForm, wedge
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
                f"cannot add forms of degree {a.degree} and {b.degree}", *pos
            )
    elif op == "*" and a_form and b_form and a.degree and b.degree:
        raise MixedContext("use ^ to multiply forms", *pos)
    elif op == "^" and (a_form or b_form):
        wa = a if a_form else PolyForm.from_poly(a)
        wb = b if b_form else PolyForm.from_poly(b)
        return wedge(wa, wb)
    elif op == "/" and b_form and b.degree == 0:
        b = b.terms.get((), MultiPoly.zero(b.space))
    return _arith(op, a, b, pos)


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
        self._reevaluated = {}  # (name, kind) -> (value, error)

    # -- variable atoms --------------------------------------------------------

    @property
    def n(self):
        return len(self.space.x_vars)

    def _named(self, name, pos, const, kind):
        """The field generator as ``const(gen)``, else the declared ``name``."""
        if self.field is not None and name == self.field.name:
            return const(self.field.gen())
        if name not in self.decls:
            raise UnknownVariable(f"unknown name {name!r}", *pos)
        return self.get(name, kind)

    # -- evaluation ------------------------------------------------------------

    def _evaluate(self, ast, leaf, combine):
        """Post-order fold of ``ast`` with an explicit stack.

        ``leaf(kind, atom, pos)`` resolves ``num`` and ``name`` atoms and
        ``combine(op, a, b, pos)`` applies a binary operator.  Operands are
        evaluated left to right, so the first error is the one a recursive
        walk would raise, and a flat chain of any length takes no Python
        recursion.
        """
        values = []
        stack = [(ast, False)]
        while stack:
            node, ready = stack.pop()
            kind = node[0]
            if kind == "bin":
                if ready:
                    b = values.pop()
                    values.append(combine(node[1], values.pop(), b, node[4]))
                else:
                    stack += ((node, True), (node[3], False), (node[2], False))
            elif kind == "neg":
                if ready:
                    values.append(-values.pop())
                else:
                    stack += ((node, True), (node[1], False))
            elif kind == "call":
                raise MixedContext(
                    f"{node[1]}(...) is only allowed as a whole declaration",
                    *node[3],
                )
            else:
                values.append(leaf(*node))
        return values[0]

    def eval_poly(self, ast, space=None):
        space = space or self.dspace
        const = partial(MultiPoly.constant, space)

        def leaf(kind, name, pos):
            if kind == "num":
                return const(name)
            if name in space.all_vars:
                return MultiPoly.variable(space, name)
            if _D_RE.match(name) or _DX_RE.match(name) or _DY_RE.match(name):
                raise MixedContext(
                    f"differential {name} cannot appear in a polynomial",
                    *pos,
                )
            # declared polynomials live on dspace: SpaceMismatch if y is used
            return self._named(name, pos, const, "poly").restrict_to(space)

        return self._evaluate(ast, leaf, _arith)

    def eval_operator(self, ast):
        from .weyl import WeylOperator
        const = partial(WeylOperator.constant, self.n)
        ops = const(0).space

        def leaf(kind, name, pos):
            if kind == "num":
                return const(name)
            if name in ops.all_vars:
                return WeylOperator.variable(ops, name)
            if _DX_RE.match(name) or _DY_RE.match(name) or _YVAR_RE.match(name):
                raise MixedContext(f"{name} cannot appear in an operator", *pos)
            return self._named(name, pos, const, "op")

        return self._evaluate(ast, leaf, _arith)

    def eval_form(self, ast, space):
        """Form-context evaluation: values are PolyForm or MultiPoly."""
        from .forms import PolyForm
        const = partial(MultiPoly.constant, space)

        def leaf(kind, name, pos):
            if kind == "num":
                return const(name)
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
            got = self._named(name, pos, const, "form")
            if isinstance(got, PolyForm) and got.space != space:
                raise MixedContext(f"form {name} lives on {got.space}, not {space}")
            return got

        return self._evaluate(ast, leaf, _form_arith)

    def evaluate(self, ast, kind, pos=(1, 1)):
        """Evaluate ``ast`` as a value of ``kind``: poly, op, form, ideal, binform.

        An ``ideal(...)`` call gives its arguments as generators, any other
        expression a principal ideal; ``pos`` is where a failed binform check
        is reported.  Operators are not promoted to vector fields here.
        """
        if kind == "ideal":
            gens = ast[2] if ast[0] == "call" and ast[1] == "ideal" else [ast]
            return Ideal(self.dspace, [self.eval_poly(g) for g in gens])
        if kind == "binform":
            return self._check_binform(self.eval_poly(ast, self.space), pos)
        if kind == "form":
            from .forms import PolyForm
            # a dy<i> or y<i> atom puts the form on the doubled space
            uses_dy = any(_DY_RE.match(nm) or _YVAR_RE.match(nm)
                          for nm, _ in _ast_names(ast))
            value = self.eval_form(ast, self.dspace if uses_dy else self.space)
            return value if isinstance(value, PolyForm) else PolyForm.from_poly(value)
        if kind == "op":
            return self.eval_operator(ast)
        if kind == "poly":
            return self.eval_poly(ast)
        raise ValueError(f"cannot resolve inline value of kind {kind}")

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
        if kind == "binform":
            if len(ast[2]) != 1:
                raise ParseError("binform takes one argument", *ast[3])
            value = self.evaluate(ast[2][0], kind, ast[3])
        else:
            value = self.evaluate(ast, kind)
        if kind == "op":
            from .weyl import _is_field_shaped, order_one_field
            if _is_field_shaped(value):
                kind = "field"
                value = order_one_field(value, self.dspace)
        self.decls[name] = Declaration(name, ast, kind, value)
        return self.decls[name]

    def _check_binform(self, p, pos):
        if p.is_zero():
            raise ParseError("binform must be nonzero", *pos)
        if p.involves(range(2, p.space.nvars)):
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
            raise MixedContext(f"{name} is not a polynomial vector field")
        if kind in ("op", "form") and decl.kind == "poly":
            if decl.value.involves(self.dspace.y_indices):
                raise MixedContext(f"{name} involves y-variables")
            base = decl.value.restrict_to(self.space)
            if kind == "op":
                from .weyl import WeylOperator
                return WeylOperator.from_poly(base)
            from .forms import PolyForm
            return PolyForm.from_poly(base)
        if _reevaluates(kind, decl.kind):
            return self._reevaluate(name, kind)
        if kind == "form":
            raise MixedContext(f"{name} is not a form")
        if kind == "poly":
            if decl.kind == "op" and decl.value.order() == 0:
                from .weyl import principal_symbol
                # an order-0 operator is its own principal symbol
                return principal_symbol(decl.value, self.dspace)[1]
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

    def _reevaluate(self, name, kind):
        """``name``'s AST evaluated as ``kind``, memoized with its outcome.

        The declarations it names, transitively, that also need evaluating as
        ``kind`` go first, oldest first (a declaration names only older
        ones), so every nested ``get`` hits the memo and a chain of any
        length takes no recursion per declaration.  A stored error is raised
        again unchanged.
        """
        memo = self._reevaluated
        if (name, kind) not in memo:
            needed, todo = {name}, [name]
            while todo:
                for dep, _ in _ast_names(self.decls[todo.pop()].ast):
                    if (dep not in needed and dep in self.decls
                            and (dep, kind) not in memo
                            and _reevaluates(kind, self.decls[dep].kind)):
                        needed.add(dep)
                        todo.append(dep)
            for dep in [d for d in self.decls if d in needed]:
                try:
                    memo[dep, kind] = (self.evaluate(self.decls[dep].ast, kind), None)
                except Exception as exc:
                    memo[dep, kind] = (None, exc)
        value, error = memo[name, kind]
        if error is not None:
            raise error
        return value

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
        return str(self.decls[name].value)

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
    parts = [s.strip() for s in parts]
    if not all(parts):
        raise ParseError("point has an empty coordinate", 1, 1)
    return parts


def _reevaluates(kind, decl_kind):
    """Does ``Session.get`` read a ``decl_kind`` declaration as ``kind`` by
    evaluating its AST again (the other coercions convert its value)?"""
    return (kind == "op" and decl_kind not in ("op", "poly")
            or kind == "form" and decl_kind in ("op", "field"))


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
    if poly.degree() < 1:
        raise ParseError("the minimal polynomial must have degree >= 1", line, 1)
    return make_number_field(gen, upoly_monic(_univariate_in(poly, 0)),
                             assume_irreducible=assume_irreducible)


def parse_input(text, assume_irreducible=False):
    """Parse a whole session file into a :class:`Session`."""
    session = None
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
            session.field = _parse_field_clause(session, rest, lineno, assume_irreducible)
            continue
        if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", head):
            raise ParseError(f"bad declaration name {head!r}", lineno, 0)
        expr_off = line.index(":") + 1 + (len(rest) - len(rest.lstrip()))
        session.declare(head, rest.strip(), lineno, expr_off)
    if session is None:
        raise ParseError("empty session: missing vars:", 1, 1)
    return session
