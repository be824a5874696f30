"""Acceptance gate: twelve criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every check is exact (rational or number-field arithmetic); the two
timed criteria assert their stated wall-clock budgets.
"""

import time
from fractions import Fraction as F

from folichar.errors import NotADistribution
from folichar.foliations import (
    PolyVectorField,
    characteristic_polynomial,
    classify_ch_subvariety,
    darboux_search,
    hamiltonian,
    hyperplane_at_infinity,
    is_invariant,
    prolong,
    singular_scheme,
)
from folichar.forms import (
    PolyForm,
    contract_field,
    exterior_derivative,
    is_distribution,
    is_integrable,
    lie_derivative,
    logarithmic_normal_form,
    wedge,
)
from folichar.ideals import Ideal, eliminate, normal_form, radical_membership
from folichar.parser import parse_input
from folichar.polynomials import MultiPoly, VarSpace
from folichar.scalars import make_number_field
from folichar.singularities import (
    bott_connection,
    coordinate_subspace_decomposition,
    holonomy_spectrum,
    is_nonresonant,
    jacobian_eigendata,
    verify_prolongation_duality,
)
from folichar.weyl import (
    WeylOperator,
    bernstein_symbol,
    principal_symbol,
    weyl_mul,
)

from conftest import axis_invariant_field, rand_field, rand_poly, rng_for
from oracles import membership_oracle

S2 = VarSpace(("x1", "x2"))
X1, X2 = (MultiPoly.variable(S2, v) for v in S2.all_vars)
DIAG = PolyVectorField(S2, [X1, 2 * X2])
ROT = PolyVectorField(S2, [X2, -X1])


def _criterion(num, label, body):
    try:
        body()
    except BaseException:
        print(f"criterion {num:2d} ({label}): FAIL")
        raise
    print(f"criterion {num:2d} ({label}): PASS")


# ---------------------------------------------------------------------------


def test_criterion_01_tangency():
    def body():
        rng = rng_for("acceptance-tangency")
        for i in range(200):
            n = (2, 3, 4)[i % 3]
            xi = rand_field(rng, n, 3)
            P = characteristic_polynomial(xi)
            pr = prolong(xi)
            assert pr.apply(P).is_zero()
            assert pr == hamiltonian(P)

    _criterion(1, "tangency", body)


def test_criterion_02_symplectic():
    def body():
        rng = rng_for("acceptance-symplectic")
        for i in range(100):
            n = (2, 3)[i % 2]
            xi = rand_field(rng, n, 2)
            pr = prolong(xi)
            dspace = pr.space
            omega = None
            for j in range(n):
                term = wedge(
                    PolyForm.basis_form(dspace, j),
                    PolyForm.basis_form(dspace, n + j),
                )
                omega = term if omega is None else omega + term
            assert lie_derivative(pr, omega).is_zero()
            # i_pr(omega) = dP: the prolongation is the Hamiltonian field of P
            P = PolyForm.from_poly(characteristic_polynomial(xi))
            assert contract_field(omega, pr) == exterior_derivative(P)

            # Leibniz rule for Hamiltonian fields
            u = rand_poly(rng, dspace, 2, max_terms=3, nonzero=True)
            f = rand_poly(rng, dspace, 2, max_terms=3, nonzero=True)
            if u.degree() == 0 or f.degree() == 0:
                continue
            lhs = hamiltonian(u * f)
            hu, hf = hamiltonian(u), hamiltonian(f)
            for L, a, b in zip(
                lhs.x_components + lhs.y_components,
                hu.x_components + hu.y_components,
                hf.x_components + hf.y_components,
            ):
                assert L == f * a + u * b

    _criterion(2, "symplectic + Leibniz", body)


def test_criterion_03_duality():
    def body():
        worked = PolyVectorField(S2, [X1, 2 * X2 + X1 * X2])
        A = bott_connection(worked)
        assert [[str(e) for e in row] for row in A.entries] == [["x1 + 2"]]
        rep = verify_prolongation_duality(worked)
        assert rep and str(rep.restricted.entries[0][0]) == "-x1 - 2"

        rng = rng_for("acceptance-duality")
        for i in range(50):
            n = 2 + (i % 2)
            xi = axis_invariant_field(rng, n, 3)
            rep = verify_prolongation_duality(xi)
            assert rep
            A = bott_connection(xi).entries
            R = rep.restricted.entries
            for r in range(len(A)):
                for c in range(len(A)):
                    assert R[r][c] == -A[c][r]

    _criterion(3, "prolongation duality", body)


def test_criterion_04_classifier():
    def body():
        D2 = S2.doubled()
        DX1, DX2, DY1, DY2 = (MultiPoly.variable(D2, v) for v in D2.all_vars)
        P = characteristic_polynomial(DIAG)
        pr = prolong(DIAG)
        table = [
            (Ideal(D2, [DY1, DY2]), "ZeroSection"),
            (Ideal(D2, [DX1, DX2]), "FiberOverSingularPoint"),
            (Ideal(D2, [P]), "WholeCharVariety"),
            (Ideal(D2, [DX2, DY1]), "QuasiMinimalityViolation"),
        ]
        for J, tag in table:
            c = classify_ch_subvariety(DIAG, J)
            assert c.tag == tag
            # certificates re-verify through the library
            assert radical_membership(P, J)
            assert is_invariant(pr, J).invariant
        fiber = classify_ch_subvariety(DIAG, Ideal(D2, [DX1, DX2]))
        assert fiber.point == (F(0), F(0))
        for comp in DIAG.components:
            assert comp.evaluate({0: F(0), 1: F(0)}) == 0
        viol = Ideal(D2, [DX2, DY1])
        assert not radical_membership(DY2, viol)  # not the zero section
        assert not radical_membership(DX1, viol)  # not a fiber over (0,0)
        assert not radical_membership(DX2, Ideal(D2, [P]))  # not everything

    _criterion(4, "quasi-minimality classifier", body)


def test_criterion_05_projection():
    def body():
        D2 = S2.doubled()
        DX1, DX2, DY1, DY2 = (MultiPoly.variable(D2, v) for v in D2.all_vars)
        corpus = [
            (DIAG, Ideal(D2, [DY1, DY2])),
            (DIAG, Ideal(D2, [DX1, DX2])),
            (DIAG, Ideal(D2, [DX2, DY1])),
            (DIAG, Ideal(D2, [DX1, DY2])),
            (DIAG, Ideal(D2, [characteristic_polynomial(DIAG)])),
            (ROT, Ideal(D2, [characteristic_polynomial(ROT)])),
            (ROT, Ideal(D2, [DX1 * DX1 + DX2 * DX2, DY1 * DY1 + DY2 * DY2])),
        ]
        xnames = [D2.all_vars[i] for i in D2.x_indices]
        for xi, J in corpus:
            assert is_invariant(prolong(xi), J).invariant
            projected = eliminate(J, xnames)
            restricted = Ideal(
                S2, [g.restrict_to(S2) for g in projected.generators]
            )
            if restricted.generators:
                assert is_invariant(xi, restricted).invariant

    _criterion(5, "projection lemma", body)


def test_criterion_06_resonance():
    def body():
        rep = is_nonresonant(DIAG, (0, 0))
        assert not rep and rep.rank == 1

        K = make_number_field("r", [-2, 0, 1])
        sqrt2_field = PolyVectorField(S2, [X1, X2 * K.gen()])
        rep2 = is_nonresonant(sqrt2_field, (0, 0))
        assert rep2 and rep2.rank == 2

        Ki = make_number_field("i", [1, 0, 1])
        rep3 = is_nonresonant(ROT, (0, 0), field=Ki)
        assert not rep3 and rep3.rank == 1

        h = holonomy_spectrum(sqrt2_field, (0, 0), 1)
        entry = h.entries[0]
        assert entry.symbol == "exp(2*pi*i*r)"
        assert not entry.root_of_unity
        assert h.maximal_torus

    _criterion(6, "resonance + holonomy", body)


def test_criterion_07_integrability():
    def body():
        S3 = VarSpace(("x1", "x2", "x3"))
        U = [MultiPoly.variable(S3, v) for v in S3.all_vars]
        contact = PolyForm.basis_form(S3, 2) - PolyForm.basis_form(S3, 0) * U[1]
        assert is_distribution(contact)
        assert not is_integrable(contact)

        # closed forms are always integrable
        rng = rng_for("acceptance-closed")
        accepted = 0
        while accepted < 30:
            n = rng.choice([2, 3, 4])
            space = VarSpace(tuple(f"x{i + 1}" for i in range(n)))
            g = rand_poly(rng, space, 3, max_terms=4, nonzero=True)
            if g.degree() == 0:
                continue
            w = exterior_derivative(PolyForm.from_poly(g))
            if w.is_zero():
                continue
            if accepted % 3 == 2 and n == 4:
                h = rand_poly(rng, space, 2, max_terms=3, nonzero=True)
                dh = exterior_derivative(PolyForm.from_poly(h))
                w2 = wedge(w, dh)
                if not w2.is_zero():
                    w = w2
            assert is_integrable(w)
            accepted += 1

        # torus-invariant forms with few hyperplanes are integrable
        S4 = VarSpace(("x1", "x2", "x3", "x4"))
        V = [MultiPoly.variable(S4, v) for v in S4.all_vars]
        dx4 = lambda i: PolyForm.basis_form(S4, i)
        lognf_corpus = [
            dx4(0) * (2 * V[1] * V[2] * V[3])
            + dx4(1) * (3 * V[0] * V[2] * V[3])
            + dx4(2) * (V[0] * V[1] * V[3]),
            wedge(dx4(0), dx4(1)) * V[2]
            + wedge(dx4(0), dx4(2)) * (2 * V[1])
            + wedge(dx4(1), dx4(2)) * (5 * V[0]),
            PolyForm.basis_form(S3, 0) * (2 * U[1]) + PolyForm.basis_form(S3, 1) * (3 * U[0]),
        ]
        for w in lognf_corpus:
            nf, rep = logarithmic_normal_form(w)
            n = len(w.space.all_vars)
            if rep.q <= n - 2:
                assert is_integrable(w)

        # worked example: singular subspace of positive dimension
        worked = (
            PolyForm.basis_form(S3, 0) * (U[1] * U[2])
            + PolyForm.basis_form(S3, 1) * (U[0] * U[2])
        )
        nf, rep = logarithmic_normal_form(worked)
        assert rep.witness_subspace == (0, 1)
        assert rep.witness_dimension == 1
        assert is_integrable(worked)

    _criterion(7, "integrability", body)


def test_criterion_08_torus_fiber():
    def body():
        Y3 = VarSpace(("y1", "y2", "y3"))
        y1, y2, y3 = (MultiPoly.variable(Y3, v) for v in Y3.all_vars)
        rep = coordinate_subspace_decomposition(
            Ideal(Y3, [y1 * y2, y1 * y3, y2 * y3])
        )
        assert rep.torus_invariant
        assert rep.components == (("y1", "y2"), ("y1", "y3"), ("y2", "y3"))
        assert rep.same_dimension

        Y2 = VarSpace(("y1", "y2"))
        w1, w2 = (MultiPoly.variable(Y2, v) for v in Y2.all_vars)
        bad = coordinate_subspace_decomposition(Ideal(Y2, [w1 + w2]))
        assert not bad.torus_invariant

    _criterion(8, "torus fiber decomposition", body)


def test_criterion_09_weyl_bridge():
    def body():
        rng = rng_for("acceptance-weyl")
        for i in range(100):
            n = (1, 2, 3)[i % 3]
            space = VarSpace(tuple(f"x{j + 1}" for j in range(n)))
            comps = [rand_poly(rng, space, 2, max_terms=3) for _ in range(n)]
            if all(c.is_zero() for c in comps):
                comps[0] = MultiPoly.variable(space, "x1")
            xi = PolyVectorField(space, comps)
            f = rand_poly(rng, space, 2, max_terms=3)
            text = f"vars: {' '.join(space.x_vars)}\nxi: {xi}\n"
            op = parse_input(text).get("xi", "op") + WeylOperator.from_poly(f)
            m, sym = principal_symbol(op, space=space.doubled())
            assert m == 1 and sym == characteristic_polynomial(xi)

        x1, d1 = (WeylOperator.variable(VarSpace(("x1",), ("d1",)), v) for v in ("x1", "d1"))
        assert weyl_mul(d1, x1) == weyl_mul(x1, d1) + WeylOperator.constant(1, 1)

        k, s = bernstein_symbol(weyl_mul(x1, d1) + WeylOperator.constant(1, 1))
        assert (k, str(s)) == (2, "x1*y1")
        k, s = bernstein_symbol(
            weyl_mul(d1, d1) + weyl_mul(x1, weyl_mul(x1, x1))
        )
        assert (k, str(s)) == (3, "x1^3")
        k, s = bernstein_symbol(d1 + x1)
        assert (k, str(s)) == (1, "x1 + y1")

    _criterion(9, "Weyl bridge", body)


def test_criterion_10_degree():
    def body():
        radial = hyperplane_at_infinity(PolyVectorField(S2, [X1, X2]))
        assert (radial.invariant, radial.projective_degree) == (False, 0)
        rot = hyperplane_at_infinity(ROT)
        assert (rot.invariant, rot.projective_degree) == (True, 1)
        mixed = hyperplane_at_infinity(
            PolyVectorField(S2, [1 + X1 * X1, X1 * X2])
        )
        assert (mixed.invariant, mixed.projective_degree) == (False, 1)

    _criterion(10, "degree bookkeeping", body)


def test_criterion_11_groebner_oracle():
    def body():
        t0 = time.perf_counter()
        rng = rng_for("acceptance-oracle")
        cases = 0
        for nvars in (1, 2, 3):
            space = VarSpace(tuple(f"x{i + 1}" for i in range(nvars)))
            pool = []
            while len(pool) < 12:
                p = rand_poly(rng, space, 2, max_terms=3, nonzero=True)
                if not p.is_zero():
                    pool.append(p)
            for _ in range(60):
                gens = rng.sample(pool, rng.randint(1, 3))
                ideal = Ideal(space, list(gens))
                candidates = [
                    rand_poly(rng, space, 2, max_terms=3, nonzero=True),
                    rand_poly(rng, space, 2, max_terms=2, nonzero=True),
                ]
                # one certain member: a small combination of the generators
                combo = MultiPoly.zero(space)
                for g in gens:
                    combo = combo + g * rand_poly(rng, space, 1, max_terms=2)
                if not combo.is_zero():
                    candidates.append(combo)
                for f in candidates:
                    gb_verdict = normal_form(f, ideal).is_zero()
                    # slack 4: unit-ideal corner cases have membership
                    # witnesses of multiplier degree deg f + 3
                    oracle_verdict = membership_oracle(
                        f, list(gens), extra_degree=4
                    )
                    assert gb_verdict == oracle_verdict, (
                        f"disagreement: f={f}, gens={[str(g) for g in gens]}"
                    )
                    cases += 1
        elapsed = time.perf_counter() - t0
        assert cases >= 500, cases
        assert elapsed <= 60.0, elapsed

    _criterion(11, "Groebner vs oracle", body)


def test_criterion_12_darboux():
    def body():
        t0 = time.perf_counter()
        rep = darboux_search(DIAG, 1, 0)
        assert sorted(
            (str(p.polynomial), str(p.cofactor)) for p in rep.pairs
        ) == [("x1", "1"), ("x2", "2")]

        rep = darboux_search(ROT, 2, 1)
        assert sorted(
            (str(p.polynomial), str(p.cofactor)) for p in rep.pairs
        ) == [("x1^2 + x2^2", "0")]

        # a degree-2 field with no Darboux polynomial up to degree 3;
        # emptiness is certified by the exhaustive solve itself
        empty_field = PolyVectorField(
            S2, [X1 * X1 + X2 * X2 + 1, X1 * X2 - 1]
        )
        rep = darboux_search(empty_field, 3, 1)
        assert rep.pairs == []
        assert rep.complete
        elapsed = time.perf_counter() - t0
        assert elapsed <= 120.0, elapsed

    _criterion(12, "Darboux searches", body)
