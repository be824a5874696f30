"""Session files: a tiny declaration language for the command line.

A session is line oriented::

    vars: x1 x2          # coordinates, always x1..xn in order
    field: r where r^2 - 2 = 0
    xi: x2*d1 - x1*d2    # d<i> is d/dx_i in operator context
    w:  d3 - x2*d1       # ... and dx_i in form context
    J:  ideal(x2, y1)    # ideals live on the doubled space
    f:  (1/2)*x1^2

Expressions use rationals, + - * / ^ and parentheses.  Each declaration is
evaluated once, in the kind its own text picks: a ``dx<i>``/``dy<i>`` atom
or a declared form makes a form (``d<i>`` is then ``dx<i>``); else a
``d<i>`` atom or a declared operator or field makes an operator (``d<i>``
the Weyl generator); else a polynomial.  ``^`` is the wedge when a form is
involved and the power otherwise.  An operator of pure first order with no
constant term is stored as a polynomial vector field.  A name read in
another kind converts its stored value: a field sum a_i*d<i> reads as that
operator and as the 1-form sum a_i*dx<i>, a polynomial as an ideal, binary
form, operator or 0-form, an order-0 operator as its polynomial; any other
read raises ``NAME is not KIND`` where it is read.  Every declared object
is canonicalized, and printing then re-parsing any declaration reproduces
it exactly.

Evaluation is iterative (one post-order fold with an explicit stack for
every context), so a flat sum or product may have any number of terms; only
nesting through parentheses or unary minus is capped, at 100 levels.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import accumulate

from .errors import MixedContext, ParseError, UnknownVariable
from .ideals import Ideal, _univariate_in
from .polynomials import MultiPoly, VarSpace
from .scalars import make_number_field, scalar_inverse, upoly_monic

# the atoms d<i>, dx<i>, dy<i> and y<i>: group 1 is the prefix, group 2 i
_ATOM_RE = re.compile(r"(d|dx|dy|y)([1-9][0-9]*)")
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),=:])|(?P<bad>.)"
)


Token = namedtuple("Token", "kind text line column")


def _tokenize(text, line):
    """The tokens of one session line or command-line value ``text``; a
    column is the 1-based position of a token's first character in it."""
    tokens = [Token(m.lastgroup, m[0], line, m.start() + 1)
              for m in _TOKEN_RE.finditer(text) if m.lastgroup != "ws"]
    for tok in tokens:
        if tok.kind == "bad":
            raise ParseError(f"unexpected character {tok.text!r}", line, tok.column)
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
        self.end = tokens[-1].column + len(tokens[-1].text)  # just past the last token
        self.pos = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line, self.end)
        self.pos += 1
        return tok

    def _op(self, ops):
        """Consume and return the next token if it is an operator in ``ops``."""
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def _chain(self, ops, operand):
        """``operand (op operand)*`` for op in ``ops``, left associative."""
        node = operand()
        while tok := self._op(ops):
            node = ("bin", tok.text, node, operand(), (tok.line, tok.column))
        return node

    def parse(self):
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return node

    def expr(self):
        return self._chain("+-", self.term)

    def term(self):
        return self._chain("*/", self.unary)

    def unary(self):
        tok = self._peek()
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"expression nested more than {_MAX_DEPTH} deep", self.line,
                             tok.column if tok else self.end)
        self.depth += 1
        if self._op("-"):
            node = ("neg", self.unary(), (tok.line, tok.column))
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        return self._chain("^", self.atom)

    def atom(self):
        tok = self._next()
        pos = (tok.line, tok.column)
        if tok.kind == "num":
            return ("num", Fraction(int(tok.text)), pos)
        if tok.kind == "name" and self._op("("):
            args = [self.expr()]
            while self._op(","):
                args.append(self.expr())
            node, wanted = ("call", tok.text, args, pos), "',' or ')'"
        elif tok.kind == "name":
            return ("name", tok.text, pos)
        elif tok.text == "(":
            node, wanted = self.expr(), "')'"
        else:
            raise ParseError(f"unexpected {tok.text!r}", *pos)
        if not self._op(")"):
            tok = self._next()
            raise ParseError(f"expected {wanted}, found {tok.text!r}", tok.line, tok.column)
        return node


def _parse_tokens(tokens, line, column):
    """The AST of an expression's tokens, reported empty at ``column``."""
    if not tokens:
        raise ParseError("empty expression", line, column)
    return _ExprParser(tokens, line).parse()


def parse_expression(text):
    return _parse_tokens(_tokenize(text, 1), 1, 1)


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
Declaration = namedtuple("Declaration", "name kind value")


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
    forms live on the base space, or the doubled one when a ``dy<i>`` or
    ``y<i>`` atom or a form declared there appears; operators know only the
    x-block.
    """

    def __init__(self, space, field=None):
        self.space = space
        self.dspace = space.doubled()
        self.field = field
        self.decls = {}

    # -- variable atoms --------------------------------------------------------

    def _named(self, name, pos, const, kind):
        """The field generator as ``const(gen)``, else the declared ``name``."""
        if self.field is not None and name == self.field.name:
            return const(self.field.gen())
        if name not in self.decls:
            raise UnknownVariable(f"unknown name {name!r}", *pos)
        return self.get(name, kind, pos)

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
            if _prefix(name) in ("d", "dx", "dy"):
                raise MixedContext(f"differential {name} cannot appear in a polynomial", *pos)
            # declared polynomials live on dspace: SpaceMismatch if y is used
            return self._named(name, pos, const, "poly").restrict_to(space)

        return self._evaluate(ast, leaf, _arith)

    def eval_operator(self, ast):
        from .weyl import WeylOperator
        const = partial(WeylOperator.constant, self.space.n)
        ops = const(0).space

        def leaf(kind, name, pos):
            if kind == "num":
                return const(name)
            if name in ops.all_vars:
                return WeylOperator.variable(ops, name)
            if _prefix(name) in ("dx", "dy", "y"):
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
            m = _ATOM_RE.fullmatch(name)
            if m and m[1] != "y":
                i = int(m[2]) - 1
                if i >= self.space.n:
                    raise UnknownVariable(f"no coordinate for {name}", *pos)
                return PolyForm.basis_form(space, i + self.space.n * (m[1] == "dy"))
            if name in space.all_vars:
                return MultiPoly.variable(space, name)
            got = self._named(name, pos, const, "form")
            if isinstance(got, PolyForm) and got.space != space:
                # a base-space form lifts to the doubled space, x-directions kept
                return PolyForm(space, got.degree,
                                {k: c.lift_to(space) for k, c in got.terms.items()})
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
            doubled = any(_prefix(nm) in ("dy", "y") or nm in self.decls
                          and self.decls[nm].kind == "form"
                          and self.decls[nm].value.space == self.dspace
                          for nm, _ in _ast_names(ast))
            value = self.eval_form(ast, self.dspace if doubled else self.space)
            return value if isinstance(value, PolyForm) else PolyForm.from_poly(value)
        if kind == "op":
            return self.eval_operator(ast)
        return self.eval_poly(ast)

    # -- declaration handling ----------------------------------------------------

    def _infer_kind(self, ast):
        if ast[0] == "call":
            if ast[1] in ("ideal", "binform"):
                return ast[1]
            raise ParseError(f"unknown function {ast[1]!r}", *ast[3])
        # an atom's prefix, else a declaration's kind; atoms shadow names
        marks = {_prefix(nm) or nm in self.decls and self.decls[nm].kind
                 for nm, _ in _ast_names(ast)}
        if marks & {"dx", "dy", "form"}:
            return "form"
        return "op" if marks & {"d", "op", "field"} else "poly"

    def declare(self, tokens):
        """Declare ``NAME: EXPR``, given as the tokens of its line."""
        head, colon, *body = tokens
        name, pos = head.text, (head.line, head.column)
        if name in self.decls or name in self.dspace.all_vars:
            raise ParseError(f"name {name!r} already in use", *pos)
        if self.field is not None and name == self.field.name:
            raise ParseError(f"name {name!r} is the field generator", *pos)
        ast = _parse_tokens(body, head.line, colon.column + 1)
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
        self.decls[name] = Declaration(name, kind, value)
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

    def get(self, name, kind, pos=()):
        """``name`` read as ``kind``: its own value, a field as its operator
        or 1-form, a polynomial converted, or an order-0 operator as its
        symbol.  ``pos`` is where the name is read, none for a CLI argument."""
        if name not in self.decls:
            raise UnknownVariable(f"no declaration named {name!r}")
        decl = self.decls[name]
        value = decl.value
        if decl.kind == kind:
            return value
        if decl.kind == "field" and kind == "op":
            from .weyl import WeylOperator
            ops = WeylOperator.zero(self.space.n).space
            return sum(WeylOperator.from_poly(a) * WeylOperator.variable(ops, f"d{i + 1}")
                       for i, a in enumerate(value.components))
        if decl.kind == "field" and kind == "form":
            from .forms import PolyForm
            return PolyForm(value.space, 1, {(i,): a for i, a in enumerate(value.components)})
        if decl.kind == "poly" and kind == "ideal":
            return Ideal(self.dspace, [value])
        if decl.kind == "poly" and kind == "binform":
            return self._check_binform(value.restrict_to(self.space), pos)
        if decl.kind == "poly" and kind in ("op", "form"):
            if value.involves(self.dspace.y_indices):
                raise MixedContext(f"{name} involves y-variables", *pos)
            if kind == "op":
                from .weyl import WeylOperator
                return WeylOperator.from_poly(value.restrict_to(self.space))
            from .forms import PolyForm
            return PolyForm.from_poly(value.restrict_to(self.space))
        if decl.kind == "op" and kind == "poly" and value.order() == 0:
            from .weyl import principal_symbol
            # an order-0 operator is its own principal symbol
            return principal_symbol(value, self.dspace)[1]
        raise MixedContext(f"{name} is not {_NOUNS[kind]}", *pos)

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

    # -- points ----------------------------------------------------------

    def parse_point(self, text):
        """Constant coordinates split at the commas outside parentheses, after
        stripping one pair that encloses them all."""
        tokens = _tokenize(text, 1)
        depths = list(accumulate((t.text == "(") - (t.text == ")") for t in tokens))
        if tokens and tokens[0].text == "(" and depths[-1] == 0 and 0 not in depths[:-1]:
            tokens, depths = tokens[1:-1], [d - 1 for d in depths[1:-1]]
        parts = [[]]
        for tok, depth in zip(tokens, depths):
            if tok.text == "," and depth == 0:
                parts.append([])
            else:
                parts[-1].append(tok)
        if not all(parts):
            raise ParseError("point has an empty coordinate", 1, 1)
        if len(parts) != self.space.n:
            raise ParseError(f"point needs {self.space.n} coordinates, got {len(parts)}", 1, 1)
        return tuple(_constant_scalar(self.eval_poly(_ExprParser(p, 1).parse(), self.space),
                                      (1, p[0].column)) for p in parts)


_NOUNS = {"poly": "a polynomial", "form": "a form", "ideal": "an ideal", "op": "an operator",
          "binform": "a binary form", "field": "a polynomial vector field"}


def _prefix(name):
    """The prefix of a d<i>, dx<i>, dy<i> or y<i> atom, else None."""
    m = _ATOM_RE.fullmatch(name)
    return m and m[1]


# ---------------------------------------------------------------------------
# session files
# ---------------------------------------------------------------------------

def _parse_header_vars(tokens):
    """x1..xn from the tokens of the line ``vars: x1 ... xn``."""
    head, _, *names = tokens
    if not names:
        raise ParseError("vars: needs at least one variable", head.line, head.column)
    for i, tok in enumerate(names):
        if tok.text != f"x{i + 1}":
            raise ParseError(f"variables must be x1..xn in order, found {tok.text!r}",
                             tok.line, tok.column)
    return tuple(tok.text for tok in names)


def _parse_field_clause(session, tokens, assume_irreducible):
    """Q(NAME) from the tokens of the line ``field: NAME where POLY = 0``."""
    head, line = tokens[0], tokens[0].line
    if len(tokens) < 5 or tokens[2].kind != "name" or tokens[3].text != "where":
        raise ParseError("expected 'field: NAME where POLY = 0'", line, head.column)
    gen = tokens[2]
    if gen.text in session.dspace.all_vars:
        raise ParseError(f"generator {gen.text!r} collides with a coordinate", line, gen.column)
    if [tok.text for tok in tokens[-2:]] != ["=", "0"]:
        raise ParseError("the minimal polynomial must be set = 0", line, head.column)
    body = tokens[4:-2]
    ast = _parse_tokens(body, line, tokens[3].column + len("where"))
    gspace = VarSpace((gen.text,))
    poly = Session(gspace).eval_poly(ast, gspace)
    if poly.degree() < 1:
        raise ParseError("the minimal polynomial must have degree >= 1", line, body[0].column)
    return make_number_field(gen.text, upoly_monic(_univariate_in(poly, 0)),
                             assume_irreducible=assume_irreducible)


def parse_input(text, assume_irreducible=False):
    """A :class:`Session` from a session file, each line tokenized once."""
    session = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw.split("#", 1)[0], lineno)
        if not tokens:
            continue
        first = tokens[0]
        colon = next((i for i, tok in enumerate(tokens) if tok.text == ":"), None)
        if colon is None:
            raise ParseError("expected 'name: expression'", lineno, first.column)
        head = first.text if colon == 1 and first.kind == "name" else None
        if session is None:
            if head != "vars":
                raise ParseError("the first declaration must be vars:", lineno, first.column)
            session = Session(VarSpace(_parse_header_vars(tokens)))
        elif head == "vars":
            raise ParseError("vars: may appear only once", lineno, first.column)
        elif head == "field":
            if session.field is not None:
                raise ParseError("field: may appear only once", lineno, first.column)
            if session.decls:
                raise ParseError("field: must precede declarations", lineno, first.column)
            session.field = _parse_field_clause(session, tokens, assume_irreducible)
        elif head is None:
            name = raw[first.column - 1:tokens[colon].column - 1].rstrip()
            raise ParseError(f"bad declaration name {name!r}", lineno, first.column)
        else:
            session.declare(tokens)
    if session is None:
        raise ParseError("empty session: missing vars:", 1, 1)
    return session
