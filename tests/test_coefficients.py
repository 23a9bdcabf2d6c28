"""Integral coefficients are ints; Fractions appear only off the integers.

Core claims:
    - integral data holds only ints: the canonical basis members and their
      matrices, inner_subspace, C_va, C_ca and B_gamma, the face
      derivations (with halves on every arrow, ints where integral), the HH1
      representatives, structure-table rows and face eigenvalues, and the
      oracle's operators, on the embedded fixtures, T_2..T_6 and K_1..K_6
    - no float ever appears: rref, kernel, the reference
      intersect_row_spaces, LinearSolver.solve and _row_kernel answer
      seeded int-entry inputs in
      exact entries only, an int when integral and a Fraction otherwise
    - int and Fraction inputs agree: the same seeded matrices given as
      equal integral Fractions give equal products, ranks, echelon forms,
      kernels and solutions, with the same str of every entry; the
      eliminations answer both in the same types
    - operator arithmetic on non-integral operands may store an integral
      Fraction: 2 * (1/2 * D_{r,s}) equals D_{r,s}, and each of its
      coefficients equals, hashes and prints like the int 1 of D_{r,s}
"""

from fractions import Fraction

import pytest

from quiverdiff.cohomology import (
    boundary_matrix,
    cycle_arrow_matrix,
    hh1_structure,
    vertex_arrow_matrix,
)
from quiverdiff.derivations import canonical_basis, d_rs, derivation_space_oracle, inner_subspace
from quiverdiff.embedding import face_derivation, trace_faces
from quiverdiff.linalg import LinearSolver, RationalMatrix, _row_kernel

from helpers import (
    EMBEDDED_FIXTURES,
    fixture_embedded,
    intersect_row_spaces,
    is_exact,
    kronecker,
    seeded,
    tournament,
)


INTEGRAL = [(name, fixture_embedded(name)) for name in EMBEDDED_FIXTURES]
INTEGRAL += [(f"t{n}", tournament(n)) for n in range(2, 7)]
INTEGRAL += [(f"k{m}", kronecker(m)) for m in range(1, 7)]


def _assert_ints(values, what):
    values = list(values)
    assert all(type(x) is int and x for x in values), (what, values)


def _matrix_entries(m):
    return (x for row in m._entries for x in row.values())


def _image_coefficients(op):
    return (c for row in op.images.values() for c in row.values())


# -- (a) integral data holds only ints ----------------------------------------

@pytest.mark.parametrize("embedded", [e for _, e in INTEGRAL], ids=[n for n, _ in INTEGRAL])
def test_integral_data_holds_only_ints(embedded):
    q, rot = embedded
    basis = canonical_basis(q)
    for op in basis.operators:
        _assert_ints(_image_coefficients(op), "member")
        _assert_ints(_matrix_entries(op.matrix), "member matrix")
    _assert_ints(_matrix_entries(inner_subspace(q)), "inner_subspace")
    faces = trace_faces(rot)
    for name, m in (
        ("C_va", vertex_arrow_matrix(q)),
        ("C_ca", cycle_arrow_matrix(q, faces)),
        ("B_gamma", boundary_matrix(faces)),
    ):
        _assert_ints(_matrix_entries(m), name)
    for face in faces:
        _assert_ints(_image_coefficients(face_derivation(q, face)), "face derivation")
    # halves on every arrow: an int on the paths of even length
    halves = face_derivation(q, [Fraction(1, 2)] * q.num_arrows)
    assert all(is_exact(c) for c in _image_coefficients(halves))
    st = hh1_structure(q, rot)
    _assert_ints((c for pairs in st.basis.edge_pairs for c in pairs.values()), "edge_pairs")
    _assert_ints((c for _, _, row in st.brackets for c in row.values()), "structure rows")
    assert all(type(lam) is int for _, _, lam in st.eigenvalues), st.eigenvalues
    oracle = derivation_space_oracle(q, max_paths=len(q.paths()))
    assert len(oracle) == len(basis)
    for op in oracle:
        _assert_ints(_image_coefficients(op), "oracle")


# -- (b) no float ever appears -------------------------------------------------

def _int_matrix(rng, rows, cols):
    """Sparse int entries of either sign up to 3, so that leading entries
    other than 1 and non-integral echelon entries both occur."""
    return RationalMatrix(
        [[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(cols)]
         for _ in range(rows)],
        cols,
    )


def _assert_exact_rows(rows):
    for row in rows:
        assert all(is_exact(x) and x for x in row.values()), row


def test_int_entries_give_no_float():
    rng = seeded(5301)
    fractions = 0
    for _ in range(150):
        cols = rng.randint(1, 7)
        m = _int_matrix(rng, rng.randint(1, 5), cols)
        other = _int_matrix(rng, rng.randint(1, 5), cols)
        reduced, _ = m.rref()
        _assert_exact_rows(reduced._entries)
        kernel = m.kernel()
        _assert_exact_rows(kernel._entries)
        _assert_exact_rows(intersect_row_spaces(m, other)._entries)
        solver = LinearSolver(other, m)
        for target in (*m._entries, *_int_matrix(rng, 2, cols)._entries):
            x = solver.solve(target)
            if x is not None:
                _assert_exact_rows([x])
        fractions += any(type(x) is Fraction for x in _matrix_entries(reduced))
        fractions += any(type(x) is Fraction for x in _matrix_entries(kernel))
    # the draws reach non-integral echelon and kernel entries
    assert fractions >= 20
    for _ in range(150):
        n = rng.randint(1, 10)
        rows = {
            tuple((u, rng.choice([1, -1, 2, -2, 3])) for u in sorted(rng.sample(range(n), k)))
            for k in (rng.randint(1, min(n, 4)) for _ in range(rng.randint(0, 8)))
        }
        _assert_exact_rows(_row_kernel(rows, n))


# -- (c) int and Fraction inputs agree -----------------------------------------

def _as_fractions(m):
    """m with every entry an equal Fraction, past the constructor's
    conversion to int."""
    rows = [{j: Fraction(x) for j, x in row.items()} for row in m._entries]
    return RationalMatrix._of(rows, m.num_cols)


def _strs(rows):
    return [{j: str(x) for j, x in row.items()} for row in rows]


def _assert_agree(by_int, by_fraction, same_types=True):
    """Equal sparse rows with the same str of every entry, and for an
    elimination's answer the same types too."""
    assert by_int == by_fraction
    assert _strs(by_int) == _strs(by_fraction)
    if same_types:
        assert [{j: type(x) for j, x in row.items()} for row in by_int] == [
            {j: type(x) for j, x in row.items()} for row in by_fraction
        ]


def test_int_and_fraction_inputs_agree():
    rng = seeded(5302)
    for _ in range(100):
        k, n = rng.randint(1, 5), rng.randint(1, 6)
        a, b = _int_matrix(rng, rng.randint(1, 5), k), _int_matrix(rng, k, n)
        fa, fb = _as_fractions(a), _as_fractions(b)
        assert all(type(x) is Fraction for x in _matrix_entries(fa))
        for product in (fa * fb, a * fb, fa * b):
            _assert_agree((a * b)._entries, product._entries, same_types=False)
        assert a.rank() == fa.rank()
        (reduced, pivots), (f_reduced, f_pivots) = a.rref(), fa.rref()
        assert pivots == f_pivots
        _assert_agree(reduced._entries, f_reduced._entries)
        _assert_agree(a.kernel()._entries, fa.kernel()._entries)
        s, m = _int_matrix(rng, rng.randint(0, 3), k), _int_matrix(rng, rng.randint(1, 4), k)
        solver, f_solver = LinearSolver(s, m), LinearSolver(_as_fractions(s), _as_fractions(m))
        for target in (*m._entries, *_int_matrix(rng, 2, k)._entries):
            x = solver.solve(target)
            y = f_solver.solve({j: Fraction(c) for j, c in target.items()})
            assert (x is None) == (y is None)
            if x is not None:
                _assert_agree([x], [y])


def test_an_integral_fraction_left_by_arithmetic_acts_as_the_int():
    # LinearOperator arithmetic does not normalize its sums and products:
    # this pins the weaker contract, not the type of the stored entry
    q = kronecker(2)[0]
    op = d_rs(q, 0, q.arrow_path(1))
    doubled = 2 * (Fraction(1, 2) * op)
    assert doubled == op and doubled.images.keys() == op.images.keys()
    for j, row in op.images.items():
        assert row.keys() == doubled.images[j].keys()
        for k, one in row.items():
            c = doubled.images[j][k]
            assert type(one) is int and one == 1
            assert (c == one, hash(c) == hash(one), str(c)) == (True, True, "1")
