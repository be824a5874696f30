"""Session-file grammar: declarations, kind inference, canonical printing,
and position-carrying parse errors."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # column is the 0-based offset of the bad token in the raw line
    with pytest.raises(ParseError) as exc:
        parse_input("vars: x1 x2\ng: x1 + * 2\n")
    assert exc.value.line == 2 and exc.value.column == 8


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
        printed = s.value_str(name)
        reparsed = parse_input(f"vars: x1 x2\n{name}: {printed}\n")
        assert reparsed.decls[name].value == s.decls[name].value


def test_field_clause_declares_number_field():
    s = parse_input("vars: x1 x2\nfield: r where r^2 - 2 = 0\nh: (r)*x1\n")
    assert s.field is not None and s.field.name == "r"
    assert s.value_str("h") == "(r)*x1"
    # generator coefficients round-trip through the printer
    reparsed = parse_input(
        "vars: x1 x2\nfield: r where r^2 - 2 = 0\nh: " + s.value_str("h") + "\n"
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
    assert (exc.value.line, exc.value.column) == (2, 5)


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


def test_point_and_scalar_parsing():
    s = parse_input("vars: x1 x2\nfield: r where r^2 - 2 = 0\nf: x1\n")
    assert s.parse_point("1/2, -3") == (F(1, 2), F(-3))
    assert str(s.parse_scalar("r")) == "r"
    assert s.parse_scalar("3/4") == F(3, 4)


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
    with pytest.raises(MixedContext, match="^J is not a form$"):
        s.get("J", "form")


def test_declared_polynomial_in_operator_and_form_context():
    """A declared x-polynomial multiplies as an operator and is a 0-form in
    form context, where it divides as its function; a literal 0 adds to a
    form as nothing."""
    s = parse_input("vars: x1 x2\nf: x1^2\nc: 2\nL: f*d1\nw: x1*dx1 / c\nv: 0 + dx2\n")
    assert str(s.get("f", "op")) == "x1^2"
    assert [str(a) for a in s.get("L", "field").components] == ["x1^2", "0"]
    assert s.get("w", "form") == parse_input("vars: x1 x2\nw: (1/2)*x1*dx1\n").get("w", "form")
    assert str(s.get("v", "form")) == "dx2"


def test_leftmost_error_of_a_long_chain_is_reported():
    # operands are evaluated left to right, however long the chain
    prefix = "x1 + " * 2000
    with pytest.raises(UnknownVariable) as exc:
        parse_input(f"vars: x1 x2\nbad: {prefix}x3 * dx1 + x4\n")
    assert (exc.value.line, exc.value.column) == (2, 5 + len(prefix))

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
