"""Acceptance suite: the seven headline guarantees of the package.

Run ``pytest -v tests/test_acceptance.py`` for one PASSED/FAILED line
per criterion.

    1. Double-arrow quiver: canonical derivation basis of dimension 6
       with the exact labels, inner rank 3, HH1 of dimension 3, boundary
       matrix [[2,-2],[-2,2]] of rank 1, and the three expected HH1
       representatives modulo inner derivations and the face sign.
    2. Triangle with pendant arrows: the bounded face derivation is
       +-(-D11 + D22 - D33) with zero net on the pendants, HH1 has
       dimension 2 by three independent formulas, and the adjoint
       eigenvalue of the almost-oriented-cycle operator is -3 up to the
       global orientation flip.
    3. Rank theorems rank(C_va) = |V|-1 and rank(C_ca) = rank(B) =
       |F|-1 on all embedded fixtures.
    4. Differential Euler formula |E| - dim(D_V + D_F) = 2g: a direct
       sum in genus 0, a quotient of dimension 2 on the torus fixture.
    5. The brute-force Leibniz oracle matches the canonical basis span
       and both closed dimension formulas on every fixture.
    6. Property sweep: Leibniz for every constructed operator, zero
       face and vertex sums, dart conservation, bracket identities,
       nilpotency of the acyclic-path inners with its sharp
       non-extension witness, and coefficient-condition checker
       agreement with the direct Leibniz test on 100 randomized
       operators.
    7. Byte-identical CLI output across repeated runs of every command
       on every fixture.

All arithmetic is exact; each criterion also enforces a wall-clock
budget.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

from quiverdiff.cli import main as cli_main
from quiverdiff.cohomology import (
    combinatorial_report,
    happel_dimension,
    hh1_basis,
)
from quiverdiff.derivations import (
    LinearOperator,
    canonical_basis,
    check_coefficient_conditions,
    d_rs,
    derivation_space_oracle,
    inner_derivation,
    inner_subspace,
    is_derivation,
    verify_bracket_identities,
)
from quiverdiff.embedding import face_derivation, genus, trace_faces
from quiverdiff.linalg import EchelonBasis, RationalMatrix

from helpers import (
    EMBEDDED_FIXTURES,
    FIXTURE_DIR,
    adjoint_eigenvalue,
    dense_net,
    fixture_embedded,
    fixture_quiver,
    longest_path_length,
    operator_from_matrix,
    random_acyclic_quiver,
    random_derivation,
    seeded,
)


# -- Helpers ---------------------------------------------------------------

@contextmanager
def _budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"exceeded the {seconds}s budget: {elapsed:.2f}s"


def _operator_sum(q, ops):
    total = LinearOperator.zero(q)
    for op in ops:
        total = total + op
    return total


def _lower_central_depth(q):
    """Largest k with C_k nonzero, for C_1 = span of acyclic-path inners."""
    gens = [inner_derivation(q, s) for s in q.acyclic_paths()]
    if not gens:
        return 0
    n2 = len(q.paths()) ** 2
    current = gens
    depth = 1
    while True:
        ech = EchelonBasis(n2)
        nxt = []
        for g in gens:
            for c in current:
                b = g.bracket(c)
                if not b.is_zero and ech.insert(b.flatten()):
                    nxt.append(b)
        if not nxt:
            return depth
        current = nxt
        depth += 1
        assert depth <= 20, "runaway central series"


def _perturbed(rng, q, basis):
    """Sometimes a derivation, sometimes a corrupted one."""
    op = random_derivation(rng, q, basis)
    if rng.random() < 0.5:
        n = len(q.paths())
        i, j = rng.randrange(n), rng.randrange(n)
        bump = RationalMatrix(
            [[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)], n
        )
        op = op + operator_from_matrix(q, bump)
    return op


# -- Criteria ---------------------------------------------------------------

def test_double_arrow_quiver_reproduction():
    with _budget(1.0):
        q, rot = fixture_embedded("k2")
        basis = canonical_basis(q)
        assert len(basis) == 6
        assert basis.display_labels() == (
            "Inner(p1)",
            "Inner(p2)",
            "EdgePair(p1,p1)",
            "EdgePair(p1,p2)",
            "EdgePair(p2,p1)",
            "EdgePair(p2,p2)",
        )
        assert inner_subspace(q).rank() == 3

        rep = combinatorial_report(q, rot)
        assert [list(row) for row in rep.b_gamma.rows] == [[2, -2], [-2, 2]]
        assert rep.rank_b_gamma == 1

        hb = hh1_basis(q, rot)
        assert hb.dimension == 3

        d11 = d_rs(q, "p1", q.arrow_path("p1"))
        d22 = d_rs(q, "p2", q.arrow_path("p2"))
        d12 = d_rs(q, "p1", q.arrow_path("p2"))
        d21 = d_rs(q, "p2", q.arrow_path("p1"))
        assert hb.coset_coordinates(d12) == {0: 1}
        assert hb.coset_coordinates(d21) == {1: 1}
        # the face class carries D11 - D22 up to the global face sign
        face_coords = hb.coset_coordinates(d11 + Fraction(-1) * d22)
        assert face_coords in ({2: 1}, {2: -1})


def test_bounded_triangle_reproduction():
    with _budget(1.0):
        q, rot = fixture_embedded("triangle_tails")
        faces = trace_faces(rot)
        assert len(faces) == 2
        bounded = faces[1]
        net = dense_net(bounded, q.num_arrows)
        assert net[q.arrow_index("p4")] == 0
        assert net[q.arrow_index("p5")] == 0

        signed = (
            Fraction(-1) * d_rs(q, "p1", q.arrow_path("p1"))
            + d_rs(q, "p2", q.arrow_path("p2"))
            + Fraction(-1) * d_rs(q, "p3", q.arrow_path("p3"))
        )
        dface = face_derivation(q, bounded)
        assert dface == signed or dface == Fraction(-1) * signed

        # dimension 2 three ways: face count, arrow multiplicities, oracle
        assert hh1_basis(q, rot).dimension == 2
        formula = len(faces) + len(q.almost_oriented_cycles()) - 1 + 2 * genus(rot)
        assert formula == 2
        assert happel_dimension(q) == 2
        oracle = len(derivation_space_oracle(q))
        assert oracle - inner_subspace(q).rank() == 2

        p1p3 = q.concat(q.arrow_path("p1"), q.arrow_path("p3"))
        assert adjoint_eigenvalue(q, bounded, "p2", p1p3) == -3
        # the oppositely traced face flips the sign globally
        assert adjoint_eigenvalue(q, faces[0], "p2", p1p3) == 3


def test_rank_theorems():
    assert len(EMBEDDED_FIXTURES) >= 8
    with _budget(5.0):
        for name in EMBEDDED_FIXTURES:
            q, rot = fixture_embedded(name)
            rep = combinatorial_report(q, rot)
            assert rep.rank_c_va == q.num_vertices - 1, name
            assert rep.rank_c_ca == rep.num_faces - 1, name
            assert rep.rank_b_gamma == rep.num_faces - 1, name


def test_differential_euler_formula():
    with _budget(2.0):
        quotients = {}
        for name in EMBEDDED_FIXTURES:
            q, rot = fixture_embedded(name)
            rep = combinatorial_report(q, rot)
            assert rep.euler_holds, name
            assert q.num_arrows - rep.dim_sum == 2 * rep.genus, name
            if rep.genus == 0:
                assert rep.spaces_disjoint, name
                assert rep.dim_sum == rep.dim_dv + rep.dim_df, name
            quotients[name] = q.num_arrows - rep.dim_sum
        assert quotients["torus_k4"] == 2


def test_oracle_equivalence_and_dimension_formulas():
    with _budget(30.0):
        for name in EMBEDDED_FIXTURES + ("single_vertex",):
            q, rot = fixture_embedded(name)
            assert len(q.paths()) <= 60, name
            basis = canonical_basis(q)
            ops = derivation_space_oracle(q)
            assert len(ops) == len(basis), name
            ech = EchelonBasis(len(q.paths()) ** 2)
            for row in basis.flat_rows().rows:
                ech.insert(row)
            assert all(ech.contains(op.flatten()) for op in ops), name

            outer_dim = len(ops) - inner_subspace(q).rank()
            formula = (
                len(trace_faces(rot))
                + len(q.almost_oriented_cycles())
                - 1
                + 2 * genus(rot)
            )
            assert outer_dim == formula == happel_dimension(q), name


def test_property_sweep():
    with _budget(30.0):
        rng = seeded(20260817)
        fixtures = ("a3", "k2", "k3", "triangle_tails")

        for name in fixtures:
            q, rot = fixture_embedded(name)
            basis = canonical_basis(q)
            faces = trace_faces(rot)
            face_ops = [face_derivation(q, f) for f in faces]
            for op in list(basis.operators) + face_ops:
                assert is_derivation(op), name
            assert _operator_sum(q, face_ops).is_zero, name
            vertex_ops = [
                inner_derivation(q, q.trivial_path(v))
                for v in range(q.num_vertices)
            ]
            assert _operator_sum(q, vertex_ops).is_zero, name
            seen = sorted(d for f in faces for d in f.darts)
            assert seen == list(range(2 * q.num_arrows)), name

        for name in fixtures:
            res = verify_bracket_identities(canonical_basis(fixture_quiver(name)))
            assert res["inner_inner"] and res["edge_edge"], name
        checked = 0
        while checked < 5:
            q = random_acyclic_quiver(rng)
            if len(q.paths()) > 14:
                continue
            res = verify_bracket_identities(canonical_basis(q))
            assert res["inner_inner"] and res["edge_edge"]
            checked += 1

        for name in ("a3", "a4", "k2", "triangle_tails"):
            q = fixture_quiver(name)
            assert _lower_central_depth(q) <= longest_path_length(q), name
        q = fixture_quiver("a4")
        assert _lower_central_depth(q) == longest_path_length(q) == 3
        # adding the arrow-rescaling operators breaks nilpotency
        q = fixture_quiver("k2")
        for k in range(q.num_arrows):
            dp = inner_derivation(q, q.arrow_path(k))
            dpp = d_rs(q, k, q.arrow_path(k))
            assert dpp.bracket(dp) == dp

        pool = []
        for name in ("a3", "a4", "k2", "k3"):
            q = fixture_quiver(name)
            pool.append((q, canonical_basis(q)))
        saw_good = saw_bad = False
        for i in range(100):
            q, basis = pool[i % len(pool)]
            op = _perturbed(rng, q, basis)
            ok = is_derivation(op)
            assert (not check_coefficient_conditions(op)) == ok
            saw_good |= ok
            saw_bad |= not ok
        assert saw_good and saw_bad


def test_cli_determinism(capsys):
    with _budget(5.0):
        fixtures = sorted(p.stem for p in FIXTURE_DIR.glob("*.quiver"))
        assert len(fixtures) == 12
        for name in fixtures:
            path = str(FIXTURE_DIR / (name + ".quiver"))
            for command in ("check", "report", "hh1", "derivations"):
                runs = []
                for _ in range(2):
                    code = cli_main([command, path])
                    captured = capsys.readouterr()
                    runs.append((code, captured.out, captured.err))
                assert runs[0] == runs[1], (command, name)
                code, out, err = runs[0]
                if code == 0:
                    canonical = (
                        json.dumps(
                            json.loads(out), sort_keys=True, separators=(",", ":")
                        )
                        + "\n"
                    )
                    assert out == canonical, (command, name)
