"""Sparse multivariate arithmetic, variable spaces, monomial orders."""

import ast
import re
from fractions import Fraction as F
from functools import partial
from operator import add
from pathlib import Path

import pytest
from conftest import SQRT2, rand_coeff, rand_poly, rng_for
from oracles import termwise_product, two_path_substitute

import folichar
from folichar import parser
from folichar.errors import SpaceMismatch
from folichar.ideals import StepBudget, _Overflow, _packing, reduce_poly
from folichar.polynomials import (
    GREVLEX,
    LEX,
    MultiPoly,
    VarSpace,
    block_order_xy,
    elimination_order,
    multigrade_decompose,
)

S2 = VarSpace(("x1", "x2"))
S3 = VarSpace(("x1", "x2", "x3"))
X1, X2 = (MultiPoly.variable(S2, v) for v in S2.all_vars)


def test_spaces():
    d = S2.doubled()
    assert d.all_vars == ("x1", "x2", "y1", "y2")
    assert d.x_indices == (0, 1) and d.y_indices == (2, 3)
    assert d.x_only() == S2
    with pytest.raises(ValueError):
        VarSpace(("x1", "x1"))


def test_var_space_construction():
    listed = VarSpace(["x1", "x2"], ["y1", "y2"], ["t"])
    tupled = VarSpace(("x1", "x2"), ("y1", "y2"), ("t",))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert all(type(b) is tuple for b in (listed.x_vars, listed.y_vars, listed.aux_vars))
    assert VarSpace(["x1"]) == VarSpace(("x1",), (), ())
    with pytest.raises(ValueError, match="distinct"):
        VarSpace(("x1", "x2"), ("y1", "x1"))
    with pytest.raises(ValueError, match="distinct"):
        VarSpace(("x1",), (), ("x1",))
    with pytest.raises(ValueError, match="y-block"):
        VarSpace(("x1", "x2"), ("y1",))
    with pytest.raises(ValueError, match="y-block"):
        VarSpace(("x1",), ("y1", "y2"))


def test_arith_examples():
    # d/dx1 (x1^2 x2) = 2 x1 x2
    assert (X1 * X1 * X2).partial(0) == 2 * X1 * X2
    assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2
    f = X1 * X2 + 3
    assert f + MultiPoly.zero(S2) == f


def test_ring_axioms_random():
    rng = rng_for("ring")
    for _ in range(40):
        f, g, h = (rand_poly(rng, S3, 3) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f


@pytest.mark.parametrize("field", [None, SQRT2], ids=["Q", "sqrt2"])
def test_product_matches_the_termwise_reference(field):
    """Over Q the product multiplies integer numerators and divides once per
    term; with Q(sqrt 2) coefficients it multiplies scalars.  Both agree with
    one scalar product at a time in value, coefficient type and term order,
    and keep no zero term.  (p + q)*(p - q) cancels every cross term."""
    rng = rng_for(f"product-termwise:{field}")

    def draw():
        p = MultiPoly(S3, {tuple(rng.randint(0, 2) for _ in range(3)):
                           rng.choice([F(rng.randint(-6, 6), rng.randint(1, 7)),
                                       rng.randint(-3, 3)])
                           for _ in range(rng.randint(0, 6))})
        return p * rand_coeff(rng, field) if field is not None else p

    cancelled = 0
    for _ in range(60):
        p, q = draw(), draw()
        for f, g in ((p, q), (p + q, p - q)):
            got, ref = f * g, termwise_product(f, g)
            assert got == ref and list(got.terms) == list(ref.terms)
            assert _typed(got) == _typed(ref) and all(got.terms.values())
            cancelled += len(got.terms) < len({tuple(map(add, a, b))
                                                for a in f.terms for b in g.terms})
    assert cancelled


def test_product_rule_random():
    rng = rng_for("leibniz-partial")
    for _ in range(25):
        f, g = (rand_poly(rng, S3, 3) for _ in range(2))
        for i in range(3):
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_partial_by_name():
    assert (X1 * X2).partial("x2") == X1


def test_space_mismatch():
    with pytest.raises(SpaceMismatch):
        X1 + MultiPoly.variable(S3, "x1")


def test_substitute_evaluate():
    f = X1 * X1 + 2 * X2
    assert f.evaluate({0: F(3), 1: F(1, 2)}) == 10
    g = f.substitute({"x2": X1})
    assert g == X1 * X1 + 2 * X1
    # substitution then evaluation equals evaluation of the composite
    rng = rng_for("subst")
    for _ in range(20):
        p = rand_poly(rng, S2, 3)
        q = rand_poly(rng, S2, 2)
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        at = {0: a, 1: b}
        assert p.substitute({"x1": q}).evaluate(at) == p.evaluate(
            {0: q.evaluate(at), 1: b}
        )


def _typed(p):
    return {e: (type(c), getattr(c, "coords", c)) for e, c in p.terms.items()}


@pytest.mark.parametrize("field", [None, SQRT2], ids=["Q", "sqrt2"])
def test_substitute_scalars_matches_the_polynomial_path(field):
    """Scalar values take the one-dict path; the same values given as
    constant polynomials take the general one.  Values, coefficient types
    and the order of the terms agree, cancellations included."""
    rng = rng_for(f"subst-scalars:{field}")
    for _ in range(40):
        p = rand_poly(rng, S3, 4, 6)
        if field is not None:
            p = p * rand_coeff(rng, field)
        picks = rng.sample(range(3), rng.randint(1, 3))
        values = {i: rand_coeff(rng, field) * rng.choice([0, 1, 1, 1]) for i in picks}
        values = {S3.all_vars[i] if rng.random() < 0.5 else i: v for i, v in values.items()}
        as_polys = {k: MultiPoly.constant(S3, v) for k, v in values.items()}
        fast, general = p.substitute(values), p.substitute(as_polys)
        assert fast == general
        assert list(fast.terms) == list(general.terms) and _typed(fast) == _typed(general)
    # terms that cancel after the substitution leave the result
    x1, x2 = (MultiPoly.variable(S3, v) for v in ("x1", "x2"))
    assert (x1 * x2 - 2 * x2).substitute({"x1": 2}).is_zero()


@pytest.mark.parametrize("field", [None, SQRT2], ids=["Q", "sqrt2"])
def test_substitute_matches_the_two_path_reference(field):
    """One substitution loop for every value against the retired pair of
    loops (tests/oracles.py): polynomial, scalar and mixed values agree in
    value, coefficient type and term order, and both reject a value over
    another space or one that is not a polynomial."""
    rng = rng_for(f"subst-two-path:{field}")
    for kind in ("polynomial", "scalar", "mixed") * 30:
        p = rand_poly(rng, S3, 4, 6)
        if field is not None:
            p = p * rand_coeff(rng, field)
        values = {}
        for i in rng.sample(range(3), rng.randint(1, 3)):
            poly = kind == "polynomial" or (kind == "mixed" and rng.random() < 0.5)
            v = rand_poly(rng, S3, 2, 3) if poly else rand_coeff(rng, field) * rng.choice([0, 1, 1])
            values[S3.all_vars[i] if rng.random() < 0.5 else i] = v
        got, ref = p.substitute(values), two_path_substitute(p, values)
        assert got == ref
        assert list(got.terms) == list(ref.terms) and _typed(got) == _typed(ref)
    # a term that cancels and comes back goes to the end, as in addition
    f = MultiPoly(S3, {(1, 1, 0): F(1), (0, 0, 1): F(1), (0, 1, 0): F(-2), (2, 1, 0): F(1, 4)})
    for value in (F(2), MultiPoly.constant(S3, 2)):
        got, ref = f.substitute({"x1": value}), two_path_substitute(f, {"x1": value})
        assert list(got.terms) == list(ref.terms) == [(0, 0, 1), (0, 1, 0)]
    x1 = MultiPoly.variable(S3, "x1")
    f = x1 * x1 + 2
    for bad, error in ((X1, SpaceMismatch), ("x2", TypeError), (1.5, TypeError)):
        for substitute in (f.substitute, partial(two_path_substitute, f)):
            with pytest.raises(error):
                substitute({"x1": bad})
            with pytest.raises(error):
                substitute({"x1": bad, "x2": MultiPoly.variable(S3, "x3")})
    # a value for a variable that does not occur is never looked at
    assert f.substitute({"x2": X1}) == two_path_substitute(f, {"x2": X1}) == f


def test_degree_and_homogeneous_parts():
    f = X1 * X1 * X2 + X1 + 5
    assert f.degree() == 3
    parts = f.homogeneous_parts()
    assert sum(parts.values(), MultiPoly.zero(S2)) == f
    assert parts[3] == X1 * X1 * X2
    # y-degree on the doubled space
    d = S2.doubled()
    y1 = MultiPoly.variable(d, "y1")
    x1 = MultiPoly.variable(d, "x1")
    g = x1 * y1 + y1 * y1
    assert g.degree(d.y_indices) == 2
    assert g.homogeneous_part(1, d.y_indices) == x1 * y1


def test_monomial_orders():
    f = X1 + X2 * X2
    assert f.leading(LEX)[0] == (1, 0)        # x1 beats x2^2 under lex
    assert f.leading(GREVLEX)[0] == (0, 2)    # total degree wins
    # block_order_xy ranks the x-block first: any x beats any pure-y monomial
    d = S2.doubled()
    blk = block_order_xy(d)
    x1 = MultiPoly.variable(d, "x1")
    y2 = MultiPoly.variable(d, "y2")
    assert (x1 + y2 * y2 * y2).leading(blk)[0] == (1, 0, 0, 0)


S4 = VarSpace(("x1", "x2", "x3", "x4"))
ORDERS = [GREVLEX, LEX, elimination_order(S4, [0, 2])]


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex", "block"])
def test_packed_order_is_the_key_order(order):
    """Packed monomials sort as order.key sorts their exponent tuples, decode
    back to them, and give products, divisibility and lcms by int arithmetic."""
    rng = rng_for("rkey")
    exps = sorted({tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(300)})
    pack = _packing(S4, order, 8)
    codes = {e: pack.code(e) for e in exps}
    assert sorted(exps, key=codes.get) == sorted(exps, key=order.key)
    assert all(pack.exponents(m) == e for e, m in codes.items())
    for _ in range(500):
        a, b = rng.choice(exps), rng.choice(exps)
        assert codes[a] + codes[b] == pack.code(tuple(map(add, a, b)))
        assert (not (codes[b] - codes[a]) & pack.guard) == all(map(int.__le__, a, b))
        assert pack.lcm(codes[a], codes[b]) == pack.code(tuple(map(max, a, b)))


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex", "block"])
def test_packed_overflow_sets_a_guard_bit(order):
    """With 2-bit fields a product or lcm that leaves its fields sets a guard
    bit (lcm raises), and an exponent tuple that does not fit is refused."""
    rng = rng_for("packed-overflow")
    pack, wide = _packing(S4, order, 2), _packing(S4, order, 8)

    def fits(e):
        try:
            pack.code(e)
        except _Overflow:
            return False
        return True

    exps = {tuple(rng.choice((0, 0, 0, 1, 1, 2, 3, 5)) for _ in range(4)) for _ in range(400)}
    assert not all(map(fits, exps))
    small = sorted(filter(fits, exps))
    assert len(small) > 10
    for _ in range(500):
        a, b = rng.choice(small), rng.choice(small)
        m, p = tuple(map(max, a, b)), tuple(map(add, a, b))
        assert (not (pack.code(a) + pack.code(b)) & pack.guard) == fits(p)
        if fits(m):
            assert pack.exponents(pack.lcm(pack.code(a), pack.code(b))) == m
        else:
            with pytest.raises(_Overflow):
                pack.lcm(pack.code(a), pack.code(b))
        assert wide.exponents(wide.code(p)) == p


def _reduce_by_max_scan(f, basis, order, budget):
    """Reference normal form: rescan for the largest live term on every step."""
    p, tail = dict(f.terms), {}
    while p:
        e = max(p, key=order.key)
        c = p.pop(e)
        hit = next(((le, lc, g) for le, lc, g in basis
                    if all(a <= b for a, b in zip(le, e))), None)
        if hit is None:
            tail[e] = c
            continue
        budget.charge()
        le, lc, g = hit
        shift = tuple(a - b for a, b in zip(e, le))
        p = (MultiPoly(f.space, p) - (c / lc) * MultiPoly.monomial(f.space, shift)
             * (g - MultiPoly.monomial(f.space, le, lc))).terms
    return MultiPoly(f.space, tail)


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex", "block"])
def test_reduce_poly_matches_max_scan(order):
    rng = rng_for("reduce-ref")
    for _ in range(40):
        polys = [rand_poly(rng, S4, 3, 4, nonzero=True) for _ in range(3)]
        # monic, like the cached bases that reduce_poly reduces by without a rule
        basis = [(*g.leading(order), g) for g in (h.monic(order) for h in polys[1:])]
        fast, slow = StepBudget(10 ** 5), StepBudget(10 ** 5)
        f = polys[0] * polys[0]
        pack = _packing(S4, order, 8)
        data = [(pack.code(le), lc, pack.encode(g)) for le, lc, g in basis]
        assert pack.decode(reduce_poly(pack.encode(f), data, pack, fast).terms) == _reduce_by_max_scan(
            f, basis, order, slow)
        assert fast.used == slow.used


def test_multigrade_decompose():
    d = S2.doubled()
    y1, y2 = (MultiPoly.variable(d, v) for v in ("y1", "y2"))
    x1, x2 = (MultiPoly.variable(d, v) for v in ("x1", "x2"))
    assert set(map(str, multigrade_decompose(y1 + y2))) == {"y1", "y2"}
    assert [str(p) for p in multigrade_decompose(3 * x1 * x1 * y2)] == ["3*x1^2*y2"]
    assert set(map(str, multigrade_decompose(x1 * y1 + x2 * y2))) == {
        "x1*y1", "x2*y2",
    }
    parts = multigrade_decompose(x1 * y1 + x2 * y2 - 7)
    assert sum(parts, MultiPoly.zero(d)) == x1 * y1 + x2 * y2 - 7
    assert all(len(p.terms) == 1 for p in parts)


def test_lift_restrict_round_trip():
    rng = rng_for("lift")
    d = S2.doubled()
    for _ in range(20):
        p = rand_poly(rng, S2, 3)
        assert p.lift_to(d).restrict_to(S2) == p
    y1 = MultiPoly.variable(d, "y1")
    with pytest.raises(SpaceMismatch):
        y1.restrict_to(S2)


def test_lift_matches_variables_by_name():
    """lift_to moves each used variable by name: a target that lacks only
    unused variables is fine, one that lacks a used variable is a mismatch."""
    d = S2.doubled()
    p = MultiPoly.variable(d, "x2") * MultiPoly.variable(d, "y1") + 3
    target = VarSpace(("x2",), (), ("w", "y1"))
    lifted = p.lift_to(target)
    assert str(lifted) == "x2*y1 + 3" and lifted.space == target
    with pytest.raises(SpaceMismatch, match="variable y1 is used but absent"):
        p.lift_to(VarSpace(("x1", "x2"), (), ("w",)))


def test_str_round_trip_shape():
    f = X1 * X1 - F(1, 2) * X2 + 1
    assert str(f) == "x1^2 - 1/2*x2 + 1"
    assert str(MultiPoly.zero(S2)) == "0"


@pytest.mark.parametrize("field", [None, SQRT2], ids=["Q", "Q(sqrt2)"])
def test_sparse_sum_properties(field):
    rng = rng_for(f"poly-sparse-sum-{field is not None}")
    for _ in range(40):
        a, b = (MultiPoly(S3, {e: rand_coeff(rng, field) for e in rand_poly(rng, S3, 2).terms})
                for _ in range(2))
        c = rand_coeff(rng, field)
        assert (a + b) - b == a
        assert not (a - a) and str(a - a) == "0"
        assert c * a == a * c
        assert a ** 3 == a * a * a
        assert (c - a) + a == c and (a + c) - c == a
    other = MultiPoly.variable(S3, "x1")
    for op in (lambda: X1 + other, lambda: X1 - other, lambda: X1 * other):
        with pytest.raises(SpaceMismatch, match=r"^\(x1,x2\) vs \(x1,x2,x3\)$"):
            op()
    with pytest.raises(ValueError, match="^polynomial powers take nonnegative"):
        X1 ** F(1, 2)


def _package_modules():
    for path in sorted(Path(folichar.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_shared_base_defines_sparse_arithmetic():
    """Sums, negation, powers and zero tests of sparse objects live in one
    class; a new sparse type reuses SparseSum instead of copying them."""
    names = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__pow__", "__bool__", "is_zero"}
    owners = {"SparseSum", "NFElement"}
    # the same names with other meanings: an ideal's zero test, verdicts
    other_meanings = {("Ideal", "is_zero"), ("ResonanceReport", "__bool__"),
                      ("DualityReport", "__bool__"), ("TorusFiberReport", "__bool__")}
    found = set()
    for _, tree in _package_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name in owners:
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defined = [item.name]
                elif isinstance(item, ast.Assign):
                    defined = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    defined = []
                found.update((node.name, d) for d in defined if d in names)
    assert sorted(found - other_meanings) == []


def _block(node):
    """The attribute that ``s.attr`` or ``len(s.attr)`` reads, else None."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len" \
            and len(node.args) == 1:
        node = node.args[0]
    return node.attr if isinstance(node, ast.Attribute) else None


def test_one_vector_field_type_and_one_direction_layout():
    """Only PolyVectorField is a derivation, and the direction layout (the
    x-block then the y-block) is spelled out in VarSpace alone."""
    derivations = set()
    layouts = set()
    for name, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "apply"
                    for item in node.body):
                derivations.add(node.name)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) \
                    and {_block(node.left), _block(node.right)} == {"x_vars", "y_vars"}:
                layouts.add(name)
    assert derivations == {"PolyVectorField"}
    assert layouts == {"polynomials.py"}


def test_groebner_engine_leaves_coordinates_to_scalars():
    """The Z[alpha] Groebner path reaches coordinates only through the
    helpers of scalars.py: ideals.py reads no .coords and builds no NFElement."""
    tree = dict(_package_modules())["ideals.py"]
    reads = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "coords"]
    builds = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
              and "NFElement" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]
    assert reads == [] and builds == []


def test_number_field_internals_stay_in_scalars():
    """How Q(alpha) is stored (the reduction table, the integral model) is
    read only in scalars.py, and NFElement is named only where values are
    built, embedded as polynomial constants or exported (the export table
    names it as a string)."""
    internals = {"_red", "integral", "scale", "model"}
    readers, namers = set(), set()
    for name, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in internals:
                readers.add(name)
            if "NFElement" in (getattr(node, "id", None), getattr(node, "name", None),
                               getattr(node, "value", None)):
                namers.add(name)
    assert readers <= {"scalars.py"}
    assert namers == {"scalars.py", "polynomials.py", "__init__.py"}


def test_one_determinant_kernel():
    """poly_det is the only determinant; the singular scheme and the
    characteristic singular locus read the point count off I + (det D(xi))
    instead of eliminating variable by variable or testing radicals."""
    modules = dict(_package_modules())
    defined = {}
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, set()).add(name)
    assert defined["poly_det"] == {"ideals.py"}
    assert not {"_poly_det", "_from_univariate", "_shear_to_nonzero_lead"} & set(defined)
    for node in ast.walk(modules["foliations.py"]):
        if isinstance(node, ast.FunctionDef) and node.name in {"singular_scheme",
                                                               "ch_singular_locus"}:
            called = {getattr(n.func, "id", None) for n in ast.walk(node)
                      if isinstance(n, ast.Call)}
            assert not called & {"eliminate", "radical_membership"}, node.name


def test_one_divisor_search():
    """reduce_poly finds divisors only through _divisors, which owns the
    divisor memo: it never scans the leads with _divides itself."""
    tree = dict(_package_modules())["ideals.py"]
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    called = {getattr(n.func, "id", None) for n in ast.walk(functions["reduce_poly"])
              if isinstance(n, ast.Call)}
    assert "_divisors" in called and "_divides" not in called


def test_the_groebner_kernel_packs_its_monomials():
    """The Groebner kernel of ideals.py works on packed monomials: outside
    _Packing it builds no tuple, zips or maps nothing and reads no order key
    or lead, and the exponent-tuple helpers and the reverse key are gone."""
    modules = dict(_package_modules())
    functions = {n.name: n for n in modules["ideals.py"].body if isinstance(n, ast.FunctionDef)}
    kernel = {"_sub_multiple", "_divisors", "reduce_poly", "_interreduce", "buchberger",
              "normal_form", "_standard_monomials", "exact_divide"}
    assert kernel <= set(functions)
    for name in kernel:
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                assert getattr(node.func, "id", None) not in {"tuple", "zip", "map"}, name
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"key", "rkey", "leading"}, name
    defined = {n.name for tree in modules.values() for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef)}
    assert not {"_divides", "_exp_sub", "_exp_lcm", "rkey", "_grevlex_rkey"} & defined


def test_one_coefficient_rule():
    """The Groebner kernel reads coefficients only through a rule of
    scalars.py, chosen once per call: no function of ideals.py tests a
    coefficient's type, only exact_divide inverts a scalar, the per-step
    helpers and the conversions the rule replaced are gone, and no module
    but scalars.py defines a rule."""
    modules = dict(_package_modules())

    def called(node):
        return {getattr(n.func, "id", None) for n in ast.walk(node) if isinstance(n, ast.Call)}

    # the module's functions and methods, each with the functions nested in it
    body = modules["ideals.py"].body
    functions = [n for n in body if isinstance(n, ast.FunctionDef)] + [
        m for c in body if isinstance(c, ast.ClassDef) for m in c.body
        if isinstance(m, ast.FunctionDef)]
    assert [f.name for f in functions if "type" in called(f)] == []
    assert [f.name for f in functions if "scalar_inverse" in called(f)] == ["exact_divide"]
    defined = {n.name for tree in modules.values() for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef)}
    assert not {"_step", "_normalized", "integral_multiple", "from_integral", "norm_cofactor",
                "rational_integer"} & defined
    rules = {(name, n.name) for name, tree in modules.items() for n in ast.walk(tree)
             if isinstance(n, ast.ClassDef) and {"clear", "restore", "step", "primitive"}
             & {m.name for m in n.body if isinstance(m, ast.FunctionDef)}}
    assert rules == {("scalars.py", "IntegerRule"), ("scalars.py", "ZBetaRule")}


def test_one_implementation_per_primitive():
    """Substitution, prolongation, monomial enumeration, the rational root
    search and the derivation each have one implementation: the scalar-only
    substitution loop, the recursive exponent generator and the term-by-term
    Darboux expansion are gone, prolong is the Hamiltonian field of P, the
    number-field screen reuses upoly_rational_roots, and darboux_search reads
    its equations off xi.apply(g) - c*g.  Powers of scalars and of sparse sums
    share one square-and-multiply loop, NFElement prints by the polynomial
    coefficient rule, and lift_to is restrict_to.  The exterior derivative
    sums wedges, ideals.py has one gcd, and points are split from the
    session lexer's tokens."""
    modules = dict(_package_modules())
    defined = {n.name for tree in modules.values() for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef)}
    assert not {"_substitute_scalars", "_exps_of_degree", "_darboux_equations"} & defined

    def calls(module, function):
        node = next(n for n in ast.walk(modules[module])
                    if isinstance(n, ast.FunctionDef) and n.name == function)
        return {getattr(n.func, "id", None) for n in ast.walk(node) if isinstance(n, ast.Call)}

    assert {"hamiltonian", "characteristic_polynomial"} <= calls("foliations.py", "prolong")
    # one powering loop (scalars.power), one printer, one space transport
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in Path(folichar.__file__).parent.glob("*.py")}
    assert sum(text.count("k >>= 1") for text in sources.values()) == 1
    power = next(n for n in ast.walk(modules["scalars.py"])
                 if isinstance(n, ast.FunctionDef) and n.name == "power")
    assert "k >>= 1" in ast.get_source_segment(sources["scalars.py"], power)
    assert "power" in calls("scalars.py", "__pow__") & calls("polynomials.py", "__pow__")
    assert "sum_str" in calls("scalars.py", "__str__")
    assert MultiPoly.lift_to is MultiPoly.restrict_to
    assert "support_indices" not in defined
    assert "upoly_rational_roots" in calls("scalars.py", "make_number_field")
    darboux = next(n for n in ast.walk(modules["foliations.py"])
                   if isinstance(n, ast.FunctionDef) and n.name == "darboux_search")
    assert [n for n in ast.walk(darboux) if isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Sub) and isinstance(n.left, ast.Call)
            and getattr(n.left.func, "attr", None) == "apply"]
    assert "wedge" in calls("forms.py", "exterior_derivative")
    assert "_merge_signed" not in calls("forms.py", "exterior_derivative")
    # one module-level gcd in ideals.py (the packed-monomial lcm is a method)
    in_ideals = {n.name for n in modules["ideals.py"].body if isinstance(n, ast.FunctionDef)}
    assert {n for n in in_ideals if "gcd" in n or "lcm" in n} == {"poly_gcd"}
    assert not {"poly_lcm", "poly_gcd_list", "_split_commas"} & defined
    assert "_tokenize" in calls("parser.py", "parse_point")


def test_no_second_decision_of_a_constructed_identity():
    """Torus invariance is read off the products c_I * x_I, with no pullback
    into a space of fresh t's; lognf has no second verdict; prolong and the
    Weyl principal ideal trust what their construction gives."""
    modules = dict(_package_modules())
    defined = {n.name for tree in modules.values() for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert not {"NotLogarithmic", "is_prolongation_shaped", "_torus_pullback"} & defined

    def called(module):
        return {getattr(n.func, "attr", getattr(n.func, "id", None))
                for n in ast.walk(modules[module]) if isinstance(n, ast.Call)}

    assert not {"with_aux", "fresh_aux", "substitute"} & called("forms.py")
    assert "characteristic_polynomial" not in called("weyl.py")


def test_inverse_grammar_and_atoms_are_folded():
    """A number-field inverse is an rref solve, the extended Euclid and its
    coefficient helpers are gone, the grammar's binary levels share one
    left-associative loop, and one regex names the d, dx, dy and y atoms."""
    modules = dict(_package_modules())
    defined = {n.name for tree in modules.values() for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef)}
    assert not {"upoly_egcd", "upoly_add", "upoly_sub", "upoly_scale", "upoly_mul"} & defined

    def methods(module, cls):
        node = next(n for n in ast.walk(modules[module])
                    if isinstance(n, ast.ClassDef) and n.name == cls)
        return {m.name: m for m in node.body if isinstance(m, ast.FunctionDef)}

    def calls(node):
        return {getattr(n.func, "id", getattr(n.func, "attr", None))
                for n in ast.walk(node) if isinstance(n, ast.Call)}

    assert "rref" in calls(methods("scalars.py", "NFElement")["inverse"])
    grammar = methods("parser.py", "_ExprParser")
    for name in ("expr", "term", "power"):
        assert "_chain" in calls(grammar[name]), name
        assert not [n for n in ast.walk(grammar[name]) if isinstance(n, (ast.For, ast.While))]
    # a regex names an atom when it matches it but not the same shape in q
    patterns = {n.args[0].value for n in ast.walk(modules["parser.py"])
                if isinstance(n, ast.Call) and getattr(n.func, "value", None)
                and getattr(n.func.value, "id", None) == "re"
                and n.args and isinstance(n.args[0], ast.Constant)}
    naming = {p for p in patterns for atom in ("d1", "dx1", "dy1", "y1")
              if re.fullmatch(p, atom) and not re.fullmatch(p, re.sub("[a-z]", "q", atom))}
    assert naming == {parser._ATOM_RE.pattern}


def test_one_lexer_reads_every_session_line():
    """parser.py compiles two regexes, the lexer's and the atoms'; the line
    reader, the header and the field clause call no re function and match
    no regex; cli.py does not import re."""
    modules = dict(_package_modules())

    def regex_calls(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute) and isinstance(n.func.value, ast.Name)
                and (n.func.value.id == "re" or n.func.value.id.endswith("_RE"))]

    tree = modules["parser.py"]
    compiled = {t.id for n in tree.body if isinstance(n, ast.Assign)
                for t in n.targets if regex_calls(n.value)}
    assert compiled == {"_TOKEN_RE", "_ATOM_RE"}
    assert [n.func.attr for n in regex_calls(tree) if n.func.value.id == "re"] == ["compile"] * 2
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in ("parse_input", "_parse_header_vars", "_parse_field_clause"):
        assert not regex_calls(functions[name]), name
    assert "_tokenize" in {getattr(n.func, "id", None) for n in ast.walk(functions["parse_input"])
                           if isinstance(n, ast.Call)}
    imported = {a.name for n in ast.walk(modules["cli.py"])
                if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    assert "re" not in imported and not regex_calls(modules["cli.py"])


def test_each_declaration_is_evaluated_once():
    """A declaration stores its value, not its AST, and a read in another
    kind converts that value: ``Session.get`` evaluates nothing."""
    assert parser.Declaration._fields == ("name", "kind", "value")
    modules = dict(_package_modules())
    session = next(n for n in ast.walk(modules["parser.py"])
                   if isinstance(n, ast.ClassDef) and n.name == "Session")
    get = next(m for m in session.body if isinstance(m, ast.FunctionDef) and m.name == "get")
    called = {getattr(n.func, "id", getattr(n.func, "attr", None))
              for n in ast.walk(get) if isinstance(n, ast.Call)}
    assert not {c for c in called
                if c and (c in ("evaluate", "_evaluate") or c.startswith("eval_"))}
    defined = {n.name for tree in modules.values() for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef)}
    assert not {"_reevaluate", "_reevaluates"} & defined


def _splits_a_key(loop):
    """Does a for-loop or comprehension unpack the keys of some ``.terms``?"""
    it, target = loop.iter, loop.target
    if isinstance(it, ast.Attribute) and it.attr == "terms":
        return isinstance(target, ast.Tuple)
    if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute) \
            and it.func.attr == "items" and getattr(it.func.value, "attr", None) == "terms":
        return isinstance(target, ast.Tuple) and isinstance(target.elts[0], ast.Tuple)
    return False


def test_operators_are_polynomials():
    """A Weyl operator is a MultiPoly over (x1..xn | d1..dn): it keeps no
    store, equality or printer of its own, no module converts its terms to
    polynomials, and the parser never splits an exponent into x- and d-parts."""
    modules = dict(_package_modules())
    cls = next(n for n in ast.walk(modules["weyl.py"])
               if isinstance(n, ast.ClassDef) and n.name == "WeylOperator")
    assert [getattr(b, "id", None) for b in cls.bases] == ["MultiPoly"]
    own = set()
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            own.add(item.name)
        elif isinstance(item, ast.Assign):
            own.update(t.id for t in item.targets if isinstance(t, ast.Name))
    assert not own & {"__init__", "__eq__", "__hash__", "__str__", "__repr__", "to_str"}
    defined = {n.name for tree in modules.values() for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef)}
    assert not {"_symbol_poly", "_term_product"} & defined
    loops = [n for n in ast.walk(modules["parser.py"])
             if isinstance(n, (ast.For, ast.comprehension))]
    assert loops and not [n for n in loops if _splits_a_key(n)]


def test_one_lex_basis_per_walk_and_one_equation_set_per_search():
    """rational_points calls buchberger in two places, at the root and again
    where a specialized basis is not known to be one (a dropped element
    does not vanish), and _specialize calls it nowhere; darboux_search
    takes xi.apply(g) - c*g once, outside every loop, and each branch reads
    its rows off it."""
    modules = dict(_package_modules())

    def function(module, name):
        return next(n for n in ast.walk(modules[module])
                    if isinstance(n, ast.FunctionDef) and n.name == name)

    def calls(node, name):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) == name]

    assert len(calls(function("ideals.py", "rational_points"), "buchberger")) == 2
    assert calls(function("ideals.py", "_specialize"), "buchberger") == []
    darboux = function("foliations.py", "darboux_search")
    equations = [n for n in ast.walk(darboux) if isinstance(n, ast.BinOp)
                 and isinstance(n.op, ast.Sub) and isinstance(n.left, ast.Call)
                 and getattr(n.left.func, "attr", None) == "apply"]
    looped = {id(m) for n in ast.walk(darboux)
              if isinstance(n, (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
                                ast.GeneratorExp))
              for m in ast.walk(n)}
    assert len(equations) == 1 and id(equations[0]) not in looped
