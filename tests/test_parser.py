"""Session-file grammar: declarations, kind inference, canonical printing,
and position-carrying parse errors."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import char_parse_point

from folichar.errors import RationalRootFound
from folichar.parser import (
    MixedContext,
    ParseError,
    Session,
    UnknownVariable,
    parse_input,
)
from folichar.polynomials import MultiPoly


def test_vector_field_declaration():
    s = parse_input("vars: x1 x2\nxi: x2*d1 - x1*d2\n")
    xi = s.get("xi", "field")
    assert [str(c) for c in xi.components] == ["x2", "-x1"]


def test_rational_coefficient_polynomial():
    s = parse_input("vars: x1 x2\nf: (1/2)*x1^2\n")
    assert s.decls["f"].kind == "poly"
    assert str(s.decls["f"].value) == "1/2*x1^2"


def test_syntax_error_carries_position():
    # column is the 1-based position of the bad token in the raw line
    with pytest.raises(ParseError) as exc:
        parse_input("vars: x1 x2\ng: x1 + * 2\n")
    assert exc.value.line == 2 and exc.value.column == 9


def test_comments_and_blank_lines_ignored():
    s = parse_input(
        "vars: x1 x2\n"
        "# a full-line comment\n"
        "\n"
        "f: x1 + 1   # trailing comment\n"
    )
    assert str(s.decls["f"].value) == "x1 + 1"


def test_kind_inference():
    s = parse_input(
        "vars: x1 x2\n"
        "f: x1^2 - 1/2*x2 + 1\n"
        "w: x1*dx2 ^ dx1 + dy1 ^ dy2\n"
        "op: x1*d1 + 2*x2*d2 + 7\n"
        "J: ideal(x2, y1)\n"
        "q: binform(x1^2 - 2*x2^2)\n"
    )
    kinds = {name: decl.kind for name, decl in s.decls.items()}
    assert kinds == {"f": "poly", "w": "form", "op": "op", "J": "ideal", "q": "binform"}
    assert [str(g) for g in s.decls["J"].value.generators] == ["x2", "y1"]


def test_printer_round_trips():
    source = (
        "vars: x1 x2\n"
        "f: x1^2 - 1/2*x2 + 1\n"
        "w: x1*dx2 ^ dx1 + dy1 ^ dy2\n"
        "op: x1*d1 + 2*x2*d2 + 7\n"
        "J: ideal(x1*y1 - 1, x2^2)\n"
    )
    s = parse_input(source)
    assert str(s.decls["J"].value) == "ideal(x1*y1 - 1, x2^2)"
    for name in ("f", "w", "op", "J"):
        printed = str(s.decls[name].value)
        reparsed = parse_input(f"vars: x1 x2\n{name}: {printed}\n")
        assert reparsed.decls[name].value == s.decls[name].value


def test_field_clause_declares_number_field():
    s = parse_input("vars: x1 x2\nfield: r where r^2 - 2 = 0\nh: (r)*x1\n")
    assert s.field is not None and s.field.name == "r"
    assert str(s.decls["h"].value) == "(r)*x1"
    # generator coefficients round-trip through the printer
    reparsed = parse_input(
        "vars: x1 x2\nfield: r where r^2 - 2 = 0\nh: " + str(s.decls["h"].value) + "\n"
    )
    assert reparsed.decls["h"].value == s.decls["h"].value


@pytest.mark.parametrize("header, text", [
    ("vars: x1 x2\n", "-1/2*x1^2*d2 + x2*d1"),
    ("vars: x1 x2\nfield: r where r^2 - 2 = 0\n", "(r)*x1*d1 + x2*d2"),
])
def test_field_prints_as_its_operator(header, text):
    s = parse_input(f"{header}xi: {text}\n")
    xi = s.get("xi", "field")
    assert str(xi) == text
    again = parse_input(f"{header}xi: {str(xi)}\n")
    assert again.get("xi", "field") == xi


def test_field_clause_screens_minimal_polynomial():
    with pytest.raises(RationalRootFound):
        parse_input("vars: x1\nfield: r where r^2 - 1 = 0\n")


def test_field_clause_degree_five_needs_attestation():
    src = "vars: x1\nfield: a where a^5 - a - 1 = 0\nf: a*x1\n"
    from folichar.errors import IrreducibilityUnattested

    with pytest.raises(IrreducibilityUnattested):
        parse_input(src)
    s = parse_input(src, assume_irreducible=True)
    assert s.field.degree == 5


def test_unknown_variable_has_position():
    with pytest.raises(UnknownVariable) as exc:
        parse_input("vars: x1 x2\nbad: x3 + 1\n")
    assert (exc.value.line, exc.value.column) == (2, 6)


def test_context_resolution_of_differentials():
    # d1 is a derivation in operator context and dx1 in form context,
    # but never a polynomial atom
    s = parse_input("vars: x1 x2\nw: dx1 ^ d2\n")
    assert s.decls["w"].kind == "form"
    assert str(s.decls["w"].value) == "dx1^dx2"
    with pytest.raises(MixedContext):
        parse_input("vars: x1 x2\nJ: ideal(d1, x1)\n")


def test_mixed_context_errors():
    with pytest.raises(MixedContext):
        parse_input("vars: x1 x2\nbad: x1 + dx2\n")
    with pytest.raises(MixedContext) as exc:
        parse_input("vars: x1 x2\nbad: dx1 * dx2\n")
    assert "use ^" in str(exc.value)


def test_header_and_declaration_errors():
    cases = [
        ("vars: x2 x1\n", "in order"),
        ("f: x1\n", "must be vars"),
        ("vars: x1\nvars: x1\n", "only once"),
        ("vars: x1\nf: x1\nf: x1\n", "already in use"),
        ("vars: x1\nx1: 3\n", "already in use"),
        ("vars: x1\nfield: r where r^2 - 2 = 0\nr: 3\n", "field generator"),
        ("vars: x1\nf: \n", "empty expression"),
        ("vars: x1\nf x1\n", "name: expression"),
        ("vars: x1 x2\nq: binform(x1^2 + x2)\n", "homogeneous"),
        ("", "missing vars"),
    ]
    for src, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_input(src)
        assert fragment in str(exc.value), src


@pytest.mark.parametrize("src, message", [
    ("vars: x1\nf: x1 $ 2\n", "unexpected character '$' at line 2, column 7"),
    ("vars: x1 x2 x3\nq: binform(x3^2)\n", "binform uses only x1 and x2 at line 2, column 4"),
    ("vars:\n", "vars: needs at least one variable at line 1, column 1"),
    ("vars: x1\nfield: r r^2 - 2 = 0\n",
     "expected 'field: NAME where POLY = 0' at line 2, column 1"),
    ("vars: x1\nfield: x1 where x1^2 - 2 = 0\n",
     "generator 'x1' collides with a coordinate at line 2, column 8"),
    ("vars: x1\nfield: r where r^2 - 2\n",
     "the minimal polynomial must be set = 0 at line 2, column 1"),
    ("vars: x1\nfield: r where 3 = 0\n",
     "the minimal polynomial must have degree >= 1 at line 2, column 16"),
    ("vars: x1\nfield: r where r^2 - 2 = 0\nfield: s where s^2 - 3 = 0\n",
     "field: may appear only once at line 3, column 1"),
    ("vars: x1\nf: x1\nfield: r where r^2 - 2 = 0\n",
     "field: must precede declarations at line 3, column 1"),
    ("vars: x1\n2f: x1\n", "bad declaration name '2f' at line 2, column 1"),
    ("vars: x1\nfield: r where r^2 - $ = 0\n", "unexpected character '$' at line 2, column 22"),
    ("vars: x1 x3\n", "variables must be x1..xn in order, found 'x3' at line 1, column 10"),
])
def test_session_file_errors_name_the_declaring_line(src, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_input(src)


@pytest.mark.parametrize("src, at", [
    ("vars: x1\nfield: r where r^2 - $ = 0\n", "$"),
    ("vars: x1 x3\n", "x3"),
    ("vars: x1, x2\n", ","),
    ("  f: x1\n", "f"),
    ("vars: x1\n vars: x1\n", "vars"),
    ("vars: x1\nf: x1\n\tfield: r where r^2 - 2 = 0\n", "field"),
    ("vars: x1\nfield: x1 where x1^2 - 2 = 0\n", "x1"),
    ("vars: x1\nfield: r where 3 = 0\n", "3"),
    ("vars: x1\nfield: r where r^2 = 2 = 0\n", "="),
    ("vars: x1\n  2f: x1\n", "2f"),
    ("vars: x1\nf: x1\n   f: x1 + 1\n", "f"),
    ("vars: x1\nfield: r where r^2 - 2 = 0\nr: 3\n", "r"),
    ("vars: x1 x2\ng: x1 + * 2   # a comment\n", "*"),
    ("vars: x1\n\tf: x1 + y3\n", "y3"),
    ("vars: x1\nw: dx1 * dx1\n", "*"),
    ("vars: x1\nf: x1 : 2\n", ": 2"),
    ("vars: x1 x2\nq: binform(x1 + x2^2)\n", "binform"),
])
def test_error_columns_index_the_offending_token_in_the_raw_line(src, at):
    """A column is the 1-based position, in the raw line, of the first
    character of the token at fault; ``at`` is the text that starts there,
    as its first occurrence in the line."""
    with pytest.raises(ParseError) as exc:
        parse_input(src)
    raw = src.splitlines()[exc.value.line - 1]
    assert exc.value.column == raw.index(at) + 1


def test_point_and_scalar_parsing():
    s = parse_input("vars: x1 x2\nfield: r where r^2 - 2 = 0\nf: x1\n")
    assert s.parse_point("1/2, -3") == (F(1, 2), F(-3))
    assert [str(c) for c in s.parse_point("r, 3/4")] == ["r", "3/4"]
    # an outer "(" that closes early is no outer pair; inner ones stay
    for text, point in [("(1/2), (3)", "(1/2, 3)"), ("((1/2)*r, 0)", "(1/2*r, 0)"),
                        ("(1/2)*r, (0)", "(1/2*r, 0)"), ("(0, (1))", "(0, 1)")]:
        assert f"({', '.join(map(str, s.parse_point(text)))})" == point, text


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the error class is the answer
        return type(exc)


@pytest.mark.parametrize("text", [
    "0,0", "(0, 0)", " 1/2 , -3 ", "((1), 2)", "(0), (1)", "r, 0", "0,,0", "0,0,", "()",
    "(0, 0", "((0, 0))", "(0, 0))", "0, 0, 0", "x1, 0", "0, 1 2", "0, $", "0, y1", "",
])
def test_point_split_matches_the_character_split(text):
    """Splitting the lexer's tokens gives the coordinates, or the error class,
    of the retired character-level split; the enclosing pair and the empty
    coordinate check come first, and errors stay at line 1, column 1."""
    s = parse_input("vars: x1 x2\nfield: r where r^2 - 2 = 0\nf: x1\n")
    got = _outcome(s.parse_point, text)
    assert got == _outcome(lambda t: char_parse_point(s, t), text)
    if text in ("0,,0", "0,0,", "()", "(0, 0"):
        with pytest.raises(ParseError, match="line 1, column 1$"):
            s.parse_point(text)


def test_point_syntax_errors_report_columns_in_the_whole_argument():
    s = parse_input("vars: x1 x2\n")
    for text, message in [("0, 1+", "unexpected end of expression at line 1, column 6"),
                          ("(0, 1 2)", "unexpected '2' at line 1, column 7"),
                          ("0, $", "unexpected character '$' at line 1, column 4")]:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            s.parse_point(text)


@pytest.mark.parametrize("text, message", [
    ("(x1", "unexpected end of expression at line 2, column 7"),
    ("(x1 x2", "expected ')', found 'x2' at line 2, column 8"),
    ("ideal(x1", "unexpected end of expression at line 2, column 12"),
    ("ideal(x1 x2)", "expected ',' or ')', found 'x2' at line 2, column 13"),
    ("ideal(x1, x2 3)", "expected ',' or ')', found '3' at line 2, column 17"),
    ("(" * 100, "expression nested more than 100 deep at line 2, column 104"),
    ("-" * 100, "expression nested more than 100 deep at line 2, column 104"),
])
def test_unclosed_parenthesis_is_reported_where_it_ends(text, message):
    with pytest.raises(ParseError) as exc:
        parse_input(f"vars: x1 x2\nf: {text}\n")
    assert str(exc.value) == message


def test_session_vector_field_lookup():
    s = parse_input("vars: x1 x2\nxi: x1*d1 + 2*x2*d2\n")
    assert s.vector_field() is s.decls["xi"].value or s.vector_field() == s.decls["xi"].value
    with pytest.raises(UnknownVariable):
        parse_input("vars: x1\nf: x1\n").vector_field()


def test_operator_coerces_to_field_and_back():
    s = parse_input("vars: x1 x2\nxi: x2*d1 - x1*d2\n")
    op = s.get("xi", "op")
    assert op.order() == 1
    back = s.get("xi", "field")
    assert [str(c) for c in back.components] == ["x2", "-x1"]



def test_declared_values_convert_between_kinds():
    """An order-0 operator is read as its polynomial; a polynomial in the
    y-variables is neither an operator nor a form; an ideal is not a form."""
    s = parse_input("vars: x1 x2\no: x1^2 + d1 - d1\nc: d1*x1 - x1*d1\n"
                    "p: y1*x1\nJ: ideal(x1)\n")
    assert s.decls["o"].kind == s.decls["c"].kind == "op"
    assert s.get("o", "poly") == MultiPoly.variable(s.dspace, "x1") ** 2
    assert s.get("c", "poly") == MultiPoly.constant(s.dspace, 1)
    for kind in ("op", "form"):
        with pytest.raises(MixedContext, match="^p involves y-variables$"):
            s.get("p", kind)
    with pytest.raises(MixedContext, match="^p involves y-variables at line 3, column 4$"):
        parse_input("vars: x1 x2\np: y1*x1\nL: p*d1\n")
    with pytest.raises(MixedContext, match="^J is not a form$"):
        s.get("J", "form")


@pytest.mark.parametrize("decls, read, message", [
    # a field reads as its operator and as its 1-form, whatever order the
    # names come in; an operator of order 2 is neither
    ("a: d1\nw: dx2\n", "w + a", None),
    ("a: d1\nw: dx2\n", "a + w", None),
    ("o: d1*d2\nw: dx1\n", "w + o", "o is not a form at line 4, column 8"),
    ("o: d1*d2\nw: dx1\n", "o + w", "o is not a form at line 4, column 4"),
])
def test_kind_does_not_depend_on_the_order_of_names(decls, read, message):
    src = f"vars: x1 x2\n{decls}b: {read}\n"
    if message is None:
        s = parse_input(src)
        assert s.decls["b"].kind == "form"
        assert str(s.decls["b"].value) == "dx1 + dx2"
    else:
        with pytest.raises(MixedContext, match=f"^{message}$"):
            parse_input(src)


def test_each_declaration_is_read_in_its_own_kind():
    """``d1^3`` is a third-order operator, not the form 3*dx1; the field
    ``d1*x1 - 1`` is x1*d1, so it wedges as x1*dx1."""
    s = parse_input("vars: x1 x2\no: d1^3\nxi: d1*x1 - 1\nv: xi ^ dx2\n")
    assert (s.decls["o"].kind, str(s.decls["o"].value)) == ("op", "d1^3")
    with pytest.raises(MixedContext, match="^o is not a form$"):
        s.get("o", "form")
    with pytest.raises(MixedContext, match="^o is not a form at line 3, column 4$"):
        parse_input("vars: x1 x2\no: d1^3\nw: o ^ dx1\n")
    assert (s.decls["xi"].kind, str(s.decls["xi"].value)) == ("field", "x1*d1")
    assert str(s.get("xi", "op")) == "x1*d1"
    assert str(s.decls["v"].value) == "x1*dx1^dx2"


def test_declared_polynomial_in_operator_and_form_context():
    """A declared x-polynomial multiplies as an operator and is a 0-form in
    form context, where it divides as its function; a literal 0 adds to a
    form as nothing."""
    s = parse_input("vars: x1 x2\nf: x1^2\nc: 2\nL: f*d1\nw: x1*dx1 / c\nv: 0 + dx2\n")
    assert str(s.get("f", "op")) == "x1^2"
    assert [str(a) for a in s.get("L", "field").components] == ["x1^2", "0"]
    assert s.get("w", "form") == parse_input("vars: x1 x2\nw: (1/2)*x1*dx1\n").get("w", "form")
    assert str(s.get("v", "form")) == "dx2"


@pytest.mark.parametrize("decls, text", [
    ("w: dy1\nv: w + dx1\n", "dx1 + dy1"),
    ("w: dx1\nv: w ^ dy1\n", "dx1^dy1"),
    ("w: dy1\nv: w + dy1 - dy1 + dx1\n", "dx1 + dy1"),
    ("p: x1\nv: p*dy1\n", "x1*dy1"),
], ids=["declared-dy", "wedge-dy", "literal-dy", "poly-times-dy"])
def test_form_takes_the_doubled_space_from_declared_forms(decls, text):
    """A form on the doubled space, declared or literal, puts the expression
    there; a base-space form is lifted with its x-directions kept."""
    s = parse_input("vars: x1 x2\n" + decls)
    v = s.get("v", "form")
    assert str(v) == text and v.space == s.dspace


def test_leftmost_error_of_a_long_chain_is_reported():
    # operands are evaluated left to right, however long the chain
    prefix = "x1 + " * 2000
    with pytest.raises(UnknownVariable) as exc:
        parse_input(f"vars: x1 x2\nbad: {prefix}x3 * dx1 + x4\n")
    assert (exc.value.line, exc.value.column) == (2, 6 + len(prefix))

_HEADERS = ("vars: x1 x2\n", "vars: x1 x2\nfield: r where r^2 - 2 = 0\n", "vars: x1\n",
            "vars: x1 x2 x3\n")
_ATOMS = ("0", "1", "2", "3", "x1", "x2", "y1", "y2", "d1", "d2", "dx1", "dx2",
          "dy1", "dy2", "r", "x3", "d3", "dx3", "z")


@st.composite
def _expression_text(draw, depth=3):
    """Text from the expression grammar, exponents kept small."""
    shape = draw(st.sampled_from(("atom", "atom", "bin", "bin", "neg", "paren",
                                  "pow", "call")))
    if depth == 0 or shape == "atom":
        return draw(st.sampled_from(_ATOMS))
    sub = _expression_text(depth - 1)
    if shape == "bin":
        op = draw(st.sampled_from(" + | - |*|/| * ".split("|")))
        return draw(sub) + op + draw(sub)
    if shape == "neg":
        return "-" + draw(sub)
    if shape == "paren":
        return "(" + draw(sub) + ")"
    if shape == "pow":
        exponent = draw(st.sampled_from(("0", "1", "2", "x1", "dx1", "(1/2)")))
        return "(" + draw(sub) + ")^" + exponent
    name = draw(st.sampled_from(("ideal", "binform", "f")))
    args = draw(st.lists(sub, min_size=1, max_size=2))
    return name + "(" + ", ".join(args) + ")"


@settings(max_examples=300, deadline=None)
@given(text=_expression_text(), header=st.sampled_from(_HEADERS),
       tail=st.sampled_from(("", "", "", " +", ")", ",", "(", " x1")))
def test_expression_text_evaluates_or_raises_parse_error(text, header, tail):
    try:
        session = parse_input(f"{header}e: {text}{tail}\n")
    except ParseError:
        return
    decl = session.decls["e"]
    printed = str(decl.value)
    if decl.kind == "binform":
        printed = f"binform({printed})"
    again = parse_input(f"{header}e: {printed}\n")
    assert str(again.decls["e"].value) == str(decl.value)
