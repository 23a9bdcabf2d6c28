"""Exact rational linear algebra.

Core claims:
    - rank, rref, and kernel are exact and reproducible
    - rank(m) = rank(transpose(m))
    - kernel vectors satisfy m v = 0 exactly and span cols - rank dimensions
    - subspace intersection obeys the Grassmann dimension identity
    - the unit vectors that LinearSolver(S, identity) does not list as
      dependent complete row(S): codim many, and S stacked with them has
      full rank
    - EchelonBasis insert/contains are mutually consistent
    - rref, kernel, intersection and LinearSolver agree with SymPy on
      matrices with dependent rows
    - LinearSolver solves modulo a subspace: its dependent rows are
      SymPy's caller-order dependent rows (prefix ranks), with and without
      a subspace; every x it returns has t - x M in the subspace, x is
      SymPy's unique solution when no row is dependent, and a target
      outside the subspace plus row(M) gives None
    - rref, rank, kernel and LinearSolver.solve agree with SymPy on rows
      with non-unit denominators and entries past 2**64
    - the intersection is in RREF and equals the RREF of SymPy's meet
    - the tagged intersection equals the doubled Zassenhaus block of
      helpers.zassenhaus_intersection and SymPy's meet on seeded int,
      Fraction and large-entry matrices with nonzero meets, and the
      doubled block on the relation matrices of the differential inputs,
      where C_va and C_ca meet in 0 and each meets C_gamma in itself
    - rank, which eliminates the sparse columns first, agrees with SymPy
      on sparse matrices with one dense column and dependent rows
    - EchelonBasis.spanning inserts latest leading column first, ties in
      caller order, and seeded row shuffles change none of rank, rref,
      kernel, the intersection or the length of that complement, on
      random matrices (against SymPy) and on the C_va, C_ca and B_gamma
      matrices of checkerboard grids
    - products, sums and differences agree with SymPy on sparse and dense
      matrices of every shape, empty ones included, and store only exact
      entries, ints where every operand is integral; each result equals, and hashes like, the matrix
      built from its dense rows, zeros written out or not; a matrix reused
      as an operand of many of them, and the results and negations built
      from it, give the same answers as fresh copies; a product equals the
      dense sum of entry products on matrices with empty rows, where a
      nonzero row of A with a zero product gives an empty row
    - kernel() answers with a RationalMatrix, and LinearSolver.solve
      takes and answers with sparse rows: exact entries, an int when
      integral and a Fraction otherwise, no stored zero, every index in
      range, on the seeded matrices of the SymPy checks;
      solve rejects a target column outside its matrix, a zero entry's
      too, and answers for a target that stores zeros as for one without
    - a matrix stores only its nonzero entries: the 2000 x 2000 identity,
      its rank and its square stay under 8 MiB; the helpers' matrix_entry()
      rejects a row or a column outside the matrix, and row() a row
    - _row_kernel, the oracle's signed union-find in front of kernel(),
      spans the kernel of 300 seeded sparse integer systems, puts a 1 at
      each solution's least unknown, answers in sparse rows, and zeroes a
      class whose signs disagree around a cycle; fed 200 seeded systems
      with repeated rows and repeated unknowns, as one-pass iterators in
      shuffled orders, it gives one solution list, and a repeated unknown
      that cancels or not, rows 2 d[u] = d[v], and a zero row before or
      after the union that reaches its unknown each give the kernel
    - the constructor stores an int for integral input, bool and float
      included, and a Fraction only otherwise
    - _certified_rank, the rank mod a prime below 2**30 proved by the
      left-kernel bound of its row groups, equals rank() on 300 seeded int
      matrices with multiples of the prime and zero-sum groups; it runs no
      exact elimination when the certificate closes, gives the exact rank
      of a matrix whose rank drops mod p (an entry a multiple of p, a
      determinant equal to p, or a pivot row that keeps a multiple of p),
      counts no vector for a group that does not sum to zero or is
      empty, and ranks Fraction entries exactly
"""

import math
import operator
import tracemalloc
from fractions import Fraction

import pytest

from quiverdiff import linalg
from quiverdiff.cohomology import boundary_matrix, cycle_arrow_matrix, vertex_arrow_matrix
from quiverdiff.embedding import trace_faces
from quiverdiff.errors import DimensionMismatchError
from quiverdiff.linalg import (
    EchelonBasis,
    LinearSolver,
    RationalMatrix,
    _row_kernel,
)

from helpers import (
    assert_sparse_row,
    checkerboard_grid,
    dense_row,
    differential_inputs,
    echelon_rref,
    intersect_row_spaces,
    is_exact,
    mat_vec,
    matrix_difference,
    matrix_entry,
    negated,
    rand_frac,
    seeded,
    sparse_kernel,
    sparse_row,
    transpose,
    zassenhaus_intersection,
)


# -- Helpers -----------------------------------------------------------------

def _random_matrix(rng, rows, cols, span=4):
    return RationalMatrix(
        [
            [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ],
        cols,
    )


def _dependent_matrix(rng, rows, cols, extra):
    """``rows`` sparse random rows with ``extra`` combinations of them
    inserted at random positions, so some rows depend on earlier ones."""
    base = [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else 0
         for _ in range(cols)]
        for _ in range(rows)
    ]
    for _ in range(extra):
        i, j = rng.randrange(len(base)), rng.randrange(len(base))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        combo = [x + c * y for x, y in zip(base[i], base[j])]
        base.insert(rng.randint(0, len(base)), combo)
    return RationalMatrix(base, cols)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sympy, m):
    return sympy.Matrix(
        m.num_rows,
        m.num_cols,
        [sympy.Rational(x.numerator, x.denominator) for row in m.rows for x in row],
    )


# -- Rank and rref -----------------------------------------------------------

def test_rank_examples():
    assert RationalMatrix.zeros(3, 3).rank() == 0
    assert RationalMatrix.identity(4).rank() == 4
    assert RationalMatrix([[2, -2], [-2, 2]], 2).rank() == 1
    assert RationalMatrix([[1], [-1]], 1).rank() == 1


def test_rank_equals_transpose_rank_randomized():
    # RationalMatrix.transpose is the dense reference's, on empty shapes too
    rng = seeded(3101)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert m.transpose() == transpose(m)
        assert m.rank() == transpose(m).rank()
    for shape in ((0, 0), (0, 3), (3, 0), (3, 2)):
        m = RationalMatrix.zeros(*shape)
        assert m.transpose() == transpose(m) == RationalMatrix.zeros(*shape[::-1])


def test_rref_idempotent_and_deterministic():
    rng = seeded(3102)
    for _ in range(10):
        m = _random_matrix(rng, 4, 5)
        r1, pivots1 = m.rref()
        r2, pivots2 = m.rref()
        assert r1 == r2 and pivots1 == pivots2
        again, pivots_again = r1.rref()
        assert again == r1 and pivots_again == pivots1


def test_rref_pivots_are_unit_columns():
    rng = seeded(3103)
    for _ in range(10):
        m = _random_matrix(rng, 4, 6)
        r, pivots = m.rref()
        for k, col in enumerate(pivots):
            assert matrix_entry(r, k, col) == 1
            for i in range(len(r.rows)):
                if i != k:
                    assert matrix_entry(r, i, col) == 0


# -- Kernel ------------------------------------------------------------------

def test_kernel_examples():
    assert RationalMatrix.identity(3).kernel() == RationalMatrix.zeros(0, 3)
    (v,) = RationalMatrix([[1, 1]], 2).kernel().rows
    assert v == (1, -1) or v == (Fraction(1), Fraction(-1))
    (w,) = RationalMatrix([[2, -2], [-2, 2]], 2).kernel().rows
    assert w[0] == w[1] != 0


def test_kernel_dimension_and_exactness_randomized():
    rng = seeded(3104)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        kern = m.kernel().rows
        assert len(kern) == m.num_cols - m.rank()
        for v in kern:
            assert all(x == 0 for x in mat_vec(m, v))
        if kern:
            assert RationalMatrix(list(kern), m.num_cols).rank() == len(kern)


# -- Row spaces, intersection, complement ------------------------------------

def test_intersection_examples():
    a = RationalMatrix([[1, 0]], 2)
    b = RationalMatrix([[0, 1]], 2)
    assert intersect_row_spaces(a, b).rank() == 0
    same = intersect_row_spaces(a, a)
    assert same.rank() == 1
    assert same.rows[0][1] == 0


def test_grassmann_identity_randomized():
    rng = seeded(3105)
    for _ in range(20):
        cols = rng.randint(2, 5)
        a = _random_matrix(rng, rng.randint(1, 4), cols)
        b = _random_matrix(rng, rng.randint(1, 4), cols)
        inter = intersect_row_spaces(a, b)
        total = RationalMatrix.stack(a, b)
        assert a.rank() + b.rank() == total.rank() + inter.rank()


def test_intersection_vectors_lie_in_both():
    rng = seeded(3106)
    for _ in range(10):
        cols = 4
        a = _random_matrix(rng, 2, cols)
        b = _random_matrix(rng, 3, cols)
        inter = intersect_row_spaces(a, b)
        for side in (a, b):
            basis = EchelonBasis(cols)
            for row in side.rows:
                basis.insert(row)
            for v in inter.rows:
                assert basis.contains(v)


def test_intersection_column_mismatch():
    with pytest.raises(DimensionMismatchError):
        intersect_row_spaces(RationalMatrix([[1]], 1), RationalMatrix([[1, 0]], 2))


def _complement_length(s):
    """How many unit vectors e_k are not dependent in LinearSolver(S,
    identity), that is not in row(S) plus the span of e_j for j < k; asserts
    that they complete row(S): codim many, and S stacked over them has full
    rank."""
    n = s.num_cols
    dependent = LinearSolver(s, RationalMatrix.identity(n)).dependent
    units = RationalMatrix._of([{k: Fraction(1)} for k in range(n) if k not in dependent], n)
    assert units.num_rows == n - s.rank()
    assert RationalMatrix.stack(s, units).rank() == n
    return units.num_rows


def test_quotient_complement_examples():
    assert _complement_length(RationalMatrix.identity(3)) == 0
    assert _complement_length(RationalMatrix.zeros(1, 2)) == 2
    assert _complement_length(RationalMatrix([[1, 1, 0]], 3)) == 2
    # e_1 = (1, 1, 0) - e_0 is the one unit vector left out
    solver = LinearSolver(RationalMatrix([[1, 1, 0]], 3), RationalMatrix.identity(3))
    assert solver.dependent == (1,)
    assert _complement_length(RationalMatrix([[0, 0, 5], [2, 0, 1]], 3)) == 1


def test_quotient_complement_length_is_codimension():
    rng = seeded(3107)
    for _ in range(10):
        cols = rng.randint(1, 5)
        sub = _random_matrix(rng, rng.randint(0, 3), cols)
        assert _complement_length(sub) == cols - sub.rank()


def _solver_case(rng, row, num_s, num_m, cols, coefficient):
    """S of ``num_s`` rows and M of ``num_m`` rows, each ``row(cols)``,
    plus up to three rows of M placed at random positions, each a
    combination of two rows drawn from S and the rows of M before it."""
    s = [row(cols) for _ in range(num_s)]
    m = [row(cols) for _ in range(num_m)]
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(m))
        pool = s + m[:at]
        if pool:
            a, b = rng.choice(pool), rng.choice(pool)
            c = coefficient(rng)
            m.insert(at, [x + c * y for x, y in zip(a, b)])
    return RationalMatrix(s, cols), RationalMatrix(m, cols)


def _solve(solver, target):
    """solver.solve on the dense vector ``target``, its sparse answer
    checked against the sparse-row contract and written out dense."""
    x = solver.solve(sparse_row(target))
    if x is None:
        return None
    assert_sparse_row(x, solver.num_rows)
    return dense_row(x, solver.num_rows)


def _assert_solves_modulo(sympy, s, m, target, x):
    """x is a solution: t - x M lies in the row space of s."""
    assert x is not None and len(x) == m.num_rows
    assert all(is_exact(c) for c in x)
    residual = [t - sum(x[i] * matrix_entry(m, i, j) for i in range(m.num_rows))
                for j, t in enumerate(target)]
    ss = _to_sympy(sympy, s)
    assert ss.col_join(_to_sympy(sympy, RationalMatrix([residual]))).rank() == ss.rank()


def _assert_solver_contract(sympy, rng, s, m, entry):
    """LinearSolver(s, m) against SymPy: ``dependent`` is the set of rows of
    M whose prefix of [S; M] does not grow in rank; a target in S + row(M)
    is solved, uniquely when no row is dependent; any other gives None."""
    stacked = _to_sympy(sympy, RationalMatrix.stack(s, m))
    ranks = [stacked[: s.num_rows + i, :].rank() for i in range(m.num_rows + 1)]
    solver = LinearSolver(s, m)
    assert solver.dependent == tuple(i for i in range(m.num_rows) if ranks[i + 1] == ranks[i])
    coeffs = [entry(rng) for _ in range(stacked.rows)]
    target = [sum(c * x for c, x in zip(coeffs, column)) for column in zip(*s.rows, *m.rows)]
    x = _solve(solver, target)
    _assert_solves_modulo(sympy, s, m, target, x)
    if not solver.dependent:
        # z S + x M = t has a unique x part; the free parameters, there
        # when S has dependent rows, only move z
        sol, params = stacked.T.gauss_jordan_solve(_to_sympy(sympy, RationalMatrix([target])).T)
        sol = sol.subs({p: 0 for p in params})
        assert list(x) == list(_from_sympy(sol[s.num_rows :, :].T).row(0))
    outside = [entry(rng) for _ in range(m.num_cols)]
    grows = stacked.col_join(_to_sympy(sympy, RationalMatrix([outside]))).rank() > ranks[-1]
    assert (_solve(solver, outside) is None) == grows


# -- EchelonBasis and LinearSolver -------------------------------------------

def test_echelon_basis_insert_and_contains():
    rng = seeded(3108)
    basis = EchelonBasis(4)
    inserted = []
    for _ in range(10):
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        if basis.insert(v):
            inserted.append(v)
    assert basis.rank == len(inserted)
    for v in inserted:
        assert basis.contains(v)
    assert echelon_rref(basis).rank() == basis.rank


def test_echelon_basis_rejects_dependent_vectors():
    basis = EchelonBasis(3)
    assert basis.insert((1, 2, 3))
    assert basis.insert((0, 1, 1))
    assert not basis.insert((2, 5, 7))
    assert not basis.insert((0, 0, 0))


def test_linear_solver_expresses_row_combinations():
    # solve(t) returns x with x * M = t, or None outside the row space
    m = RationalMatrix([[1, 1, 0], [0, 1, 1]], 3)
    solver = LinearSolver(RationalMatrix.zeros(0, m.num_cols), m)
    x = _solve(solver, (2, 5, 3))
    assert x is not None
    combo = [
        sum(x[i] * matrix_entry(m, i, j) for i in range(2)) for j in range(3)
    ]
    assert combo == [2, 5, 3]
    assert _solve(solver, (1, 0, 1)) is None


def test_linear_solver_solves_modulo_a_subspace(sympy):
    # row 0 of M lies in S and row 2 in S + row 1: some x with t - x M in
    # S, and the unique one once the dependent rows are gone
    s = RationalMatrix([[1, 1, 0]], 3)
    m = RationalMatrix([[2, 2, 0], [0, 1, 0], [1, 0, 0]], 3)
    solver = LinearSolver(s, m)
    assert solver.dependent == (0, 2)
    for target in ((0, 3, 0), (5, 5, 0), (1, 0, 0)):
        _assert_solves_modulo(sympy, s, m, target, _solve(solver, target))
    assert solver.solve({2: Fraction(1)}) is None
    solver = LinearSolver(s, RationalMatrix([[0, 1, 0]], 3))
    assert solver.dependent == ()
    assert solver.solve({1: Fraction(3)}) == {0: 3}
    assert solver.solve({0: Fraction(5), 1: Fraction(5)}) == {}
    assert solver.solve({0: Fraction(1)}) == {0: -1}
    assert solver.solve({2: Fraction(1)}) is None
    _assert_solver_contract(sympy, seeded(3112), s, m, rand_frac)


def test_linear_solver_randomized_roundtrip():
    rng = seeded(3109)
    for _ in range(10):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        solver = LinearSolver(RationalMatrix.zeros(0, m.num_cols), m)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(m.num_rows)]
        target = [
            sum(coeffs[i] * matrix_entry(m, i, j) for i in range(m.num_rows))
            for j in range(m.num_cols)
        ]
        x = _solve(solver, target)
        assert x is not None
        back = [
            sum(x[i] * matrix_entry(m, i, j) for i in range(m.num_rows))
            for j in range(m.num_cols)
        ]
        assert back == target


def test_linear_solver_rejects_a_target_outside_its_columns():
    solver = LinearSolver(RationalMatrix.zeros(0, 2), RationalMatrix.identity(2))
    assert solver.solve({}) == {}
    for target in ({2: Fraction(1)}, {-1: Fraction(1)}):
        with pytest.raises(DimensionMismatchError):
            solver.solve(target)


def test_linear_solver_ignores_stored_zeros_in_a_target():
    # a stored zero at a non-pivot column is not a leading entry: the
    # answer is the one for the target without it
    solver = LinearSolver(RationalMatrix.zeros(0, 3), RationalMatrix([[0, 1, 0]], 3))
    assert solver.solve({1: Fraction(3)}) == {0: 3}
    assert solver.solve({0: Fraction(0), 1: Fraction(3)}) == {0: 3}
    assert solver.solve({1: Fraction(3), 2: Fraction(0)}) == {0: 3}
    assert solver.solve({0: Fraction(0)}) == {}
    assert solver.solve({0: Fraction(0), 2: Fraction(1)}) is None
    # a zero entry still names its column, and a column outside 0..n-1 is
    # a dimension error whatever its value
    for target in ({3: Fraction(0)}, {-1: Fraction(0), 1: Fraction(3)}):
        with pytest.raises(DimensionMismatchError):
            solver.solve(target)


# -- Differential checks against SymPy ---------------------------------------

def test_rref_and_pivots_match_sympy(sympy):
    rng = seeded(3110)
    for _ in range(40):
        m = _dependent_matrix(rng, rng.randint(1, 5), rng.randint(1, 7), rng.randint(0, 3))
        reduced, pivots = m.rref()
        expected, expected_pivots = _to_sympy(sympy, m).rref()
        assert pivots == expected_pivots
        assert [list(row) for row in reduced.rows] == [
            [Fraction(int(x.p), int(x.q)) for x in expected.row(i)]
            for i in range(expected.rows)
        ]


def test_kernel_dimension_matches_sympy(sympy):
    rng = seeded(3111)
    for _ in range(40):
        m = _dependent_matrix(rng, rng.randint(1, 5), rng.randint(1, 7), rng.randint(0, 3))
        sm = _to_sympy(sympy, m)
        assert m.rank() == sm.rank()
        assert m.kernel().num_rows == len(sm.nullspace())


def test_intersection_grassmann_identity_against_sympy(sympy):
    rng = seeded(3112)
    for _ in range(30):
        cols = rng.randint(2, 7)
        a = _dependent_matrix(rng, rng.randint(1, 4), cols, rng.randint(0, 2))
        b = _dependent_matrix(rng, rng.randint(1, 4), cols, rng.randint(0, 2))
        sa, sb = _to_sympy(sympy, a), _to_sympy(sympy, b)
        inter = intersect_row_spaces(a, b)
        assert inter.num_rows == sa.rank() + sb.rank() - sa.col_join(sb).rank()
        for v in inter.rows:
            sv = _to_sympy(sympy, RationalMatrix([v], cols))
            assert sa.col_join(sv).rank() == sa.rank()
            assert sb.col_join(sv).rank() == sb.rank()


def test_linear_solver_flags_dependent_later_rows(sympy):
    rng = seeded(3113)

    def row(cols):
        return [rand_frac(rng) if rng.random() < 0.6 else 0 for _ in range(cols)]

    for _ in range(30):
        for num_s in (0, rng.randint(1, 3)):
            s, m = _solver_case(rng, row, num_s, rng.randint(1, 4), rng.randint(1, 6), rand_frac)
            _assert_solver_contract(sympy, rng, s, m, rand_frac)


def test_matrix_arithmetic_shapes():
    a = RationalMatrix([[1, 2]], 2)
    b = RationalMatrix([[1], [1]], 1)
    assert matrix_entry(a * b, 0, 0) == 3
    with pytest.raises(DimensionMismatchError):
        a + b
    with pytest.raises(DimensionMismatchError):
        RationalMatrix.stack(a, b)


def test_constructor_stores_ints_where_integral_and_fractions_elsewhere():
    m = RationalMatrix([[True, 2, "1/3", 0.5, Fraction(-3, 4), Fraction(6, 3), -2.0, "4/2", 0]])
    kinds = [int, int, Fraction, Fraction, Fraction, int, int, int, int]
    assert [type(x) for x in m.row(0)] == kinds
    assert m.row(0) == (1, 2, Fraction(1, 3), Fraction(1, 2), Fraction(-3, 4), 2, -2, 2, 0)
    assert m._entries == ({0: 1, 1: 2, 2: Fraction(1, 3), 3: Fraction(1, 2), 4: Fraction(-3, 4),
                           5: 2, 6: -2, 7: 2},)
    assert all(is_exact(x) and x for x in m._entries[0].values())


def test_entry_rejects_a_column_outside_the_matrix():
    m = RationalMatrix([[1, 0, 2], [0, 0, 0]], 3)
    assert [matrix_entry(m, 1, j) for j in range(3)] == [0, 0, 0]
    # rows too: -1 must not read the last row
    for i, j in ((0, -1), (0, 3), (0, 7), (-1, 0), (2, 0), (5, 1)):
        with pytest.raises(IndexError):
            matrix_entry(m, i, j)
    for i in (-1, 2, 5):
        with pytest.raises(IndexError):
            m.row(i)


def test_identity_2000_rank_and_square_stay_small():
    # nonzero entries only: a dense 2000 x 2000 grid of Fractions would
    # take tens of MiB before any arithmetic
    tracemalloc.start()
    try:
        m = RationalMatrix.identity(2000)
        assert m.rank() == 2000
        assert m * m == m
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


# -- Arithmetic against SymPy -------------------------------------------------

def _sparse_random(rng, rows, cols, density):
    """Random rational matrix with about ``density`` nonzero cells, one row
    and one column of it zeroed when the shape has room for them."""
    zero_row = rng.randrange(rows) if rows > 1 else None
    zero_col = rng.randrange(cols) if cols > 1 else None
    return RationalMatrix(
        [
            [rand_frac(rng) if i != zero_row and j != zero_col and rng.random() < density
             else 0 for j in range(cols)]
            for i in range(rows)
        ],
        cols,
    )


def _from_sympy(sm):
    return RationalMatrix(
        [[Fraction(int(x.p), int(x.q)) for x in sm.row(i)] for i in range(sm.rows)],
        sm.cols,
    )


def _assert_same_matrix(result, expected, integral=False):
    """result equals, and hashes like, expected and its own dense rebuilds;
    its entries are exact, and ints where every operand was ``integral``."""
    rebuilt = RationalMatrix([list(row) for row in result.rows], result.num_cols)
    # dense rows whose zeros are spelled out as fresh Fraction(0)s
    spelled_out = RationalMatrix(
        [[x if x else Fraction(0) for x in row] for row in result.rows], result.num_cols
    )
    for other in (expected, rebuilt, spelled_out):
        assert result == other
        assert hash(result) == hash(other)
    kinds = (int,) if integral else (int, Fraction)
    assert all(type(x) in kinds for row in result.rows for x in row)


def test_arithmetic_matches_sympy(sympy):
    rng = seeded(3114)
    for trial in range(120):
        density = (0.1, 0.5, 1.0)[trial % 3]
        m, k, n = (rng.randint(0, 5) for _ in range(3))
        a = _sparse_random(rng, m, k, density)
        a2 = _sparse_random(rng, m, k, density)
        b = _sparse_random(rng, k, n, density)
        sa, sa2, sb = (_to_sympy(sympy, x) for x in (a, a2, b))
        _assert_same_matrix(a * b, _from_sympy(sa * sb))
        _assert_same_matrix(a + a2, _from_sympy(sa + sa2))
        _assert_same_matrix(matrix_difference(a, a2), _from_sympy(sa - sa2))
        _assert_same_matrix(negated(a), _from_sympy(-sa))
        _assert_same_matrix(matrix_difference(a, a), RationalMatrix.zeros(m, k))


def _fresh(m):
    return RationalMatrix([list(row) for row in m.rows], m.num_cols)


def test_reused_operands_match_fresh_copies_and_sympy(sympy):
    # one matrix, its results and their negations stay operands of many
    # products, sums and differences: each answer is the one a fresh copy
    # of the operands gives, and the one SymPy gives
    rng = seeded(3116)
    # each operation on RationalMatrix values, and on SymPy's
    ops = ((operator.mul,) * 2, (operator.add,) * 2, (matrix_difference, operator.sub))
    for trial in range(6):
        n = rng.randint(1, 5)
        density = (0.1, 0.5, 1.0)[trial % 3]
        a = _sparse_random(rng, n, n, density)
        operands = [a, negated(a), a * a]
        for _ in range(4):
            b = _sparse_random(rng, n, n, density)
            for x in list(operands):
                for left, right in ((x, b), (b, x), (x, x)):
                    for op, sympy_op in ops:
                        result = op(left, right)
                        _assert_same_matrix(result, op(_fresh(left), _fresh(right)))
                        expected = sympy_op(_to_sympy(sympy, left), _to_sympy(sympy, right))
                        _assert_same_matrix(result, _from_sympy(expected))
            operands.append(matrix_difference(operands[-1] * b, b))
        _assert_same_matrix(matrix_difference(a * a, operands[2]), RationalMatrix.zeros(n, n))


def test_products_with_empty_operands():
    a = RationalMatrix([[1, 2], [3, 4], [5, 6]], 2)
    assert a * RationalMatrix([[], []], 0) == RationalMatrix([[], [], []], 0)
    assert RationalMatrix([], 3) * a == RationalMatrix([], 2)
    empty_inner = RationalMatrix([[], []], 0) * RationalMatrix([], 3)
    assert empty_inner == RationalMatrix.zeros(2, 3)


def _dense_product(a, b):
    return RationalMatrix(
        [
            [sum((matrix_entry(a, i, k) * matrix_entry(b, k, j) for k in range(a.num_cols)), Fraction(0))
             for j in range(b.num_cols)]
            for i in range(a.num_rows)
        ],
        b.num_cols,
    )


def test_products_with_empty_rows_match_a_dense_product():
    # rows 0 and 2 of a are empty; rows 1 and 3 are not, but their products are zero
    a = RationalMatrix([[0, 0, 0], [1, -1, 0], [0, 0, 0], [0, 0, 2], [2, 0, 1]], 3)
    b = RationalMatrix([[1, 2], [1, 2], [0, 0]], 2)
    product = a * b
    _assert_same_matrix(product, _dense_product(a, b), integral=True)
    assert product.rows == ((0, 0), (0, 0), (0, 0), (0, 0), (2, 4))
    assert all(product._entries[i] == {} for i in range(4))
    rng = seeded(3117)
    for trial in range(60):
        m, k, n = (rng.randint(1, 6) for _ in range(3))
        a = _sparse_random(rng, m, k, (0.1, 0.3, 0.6)[trial % 3])
        b = _sparse_random(rng, k, n, (0.1, 0.3, 0.6)[trial % 3])
        _assert_same_matrix(a * b, _dense_product(a, b))


def test_arithmetic_rejects_mismatched_shapes():
    rng = seeded(3115)
    a = _sparse_random(rng, 2, 3, 0.5)
    for other in (_sparse_random(rng, 3, 2, 0.5), _sparse_random(rng, 2, 4, 0.5)):
        for op in (operator.add, matrix_difference):
            with pytest.raises(DimensionMismatchError):
                op(a, other)
    with pytest.raises(DimensionMismatchError):
        a * a
    with pytest.raises(DimensionMismatchError):
        RationalMatrix([], 2) * RationalMatrix([], 3)


# -- Integer elimination on large and fractional entries ---------------------

_BIG = 2**64


def _big_entry(rng):
    """Zero, a small fraction, or a fraction whose numerator and denominator
    both pass 2**64."""
    roll = rng.random()
    if roll < 0.35:
        return Fraction(0)
    if roll < 0.6:
        return rand_frac(rng)
    return Fraction(rng.randint(-_BIG**2, _BIG**2), rng.randint(_BIG, 3 * _BIG))


def _big_dependent_matrix(rng, rows, cols, extra):
    """Like _dependent_matrix, on _big_entry rows and with large coefficients."""
    base = [[_big_entry(rng) for _ in range(cols)] for _ in range(rows)]
    for _ in range(extra):
        i, j = rng.randrange(len(base)), rng.randrange(len(base))
        c = Fraction(rng.randint(-_BIG, _BIG), rng.randint(1, _BIG))
        combo = [x + c * y for x, y in zip(base[i], base[j])]
        base.insert(rng.randint(0, len(base)), combo)
    return RationalMatrix(base, cols)


def test_rref_rank_kernel_match_sympy_on_large_fractions(sympy):
    rng = seeded(3116)
    for _ in range(40):
        m = _big_dependent_matrix(rng, rng.randint(1, 5), rng.randint(1, 7), rng.randint(0, 3))
        sm = _to_sympy(sympy, m)
        reduced, pivots = m.rref()
        expected, expected_pivots = sm.rref()
        assert pivots == expected_pivots
        assert reduced == _from_sympy(expected)
        assert m.rank() == sm.rank() == len(pivots)
        # SymPy's nullspace vectors, scaled to a leading 1 as kernel() does
        expected_kernel = []
        for v in sm.nullspace():
            lead = next(x for x in v if x != 0)
            expected_kernel.append(_from_sympy((v / lead).T).row(0))
        assert list(m.kernel().rows) == expected_kernel


def test_linear_solver_matches_sympy_on_large_fractions(sympy):
    rng = seeded(3117)

    def row(cols):
        return [_big_entry(rng) for _ in range(cols)]

    for _ in range(30):
        for num_s in (0, rng.randint(1, 3)):
            s, m = _solver_case(rng, row, num_s, rng.randint(1, 4), rng.randint(1, 6), _big_entry)
            _assert_solver_contract(sympy, rng, s, m, _big_entry)


def test_intersection_is_the_rref_of_the_sympy_meet(sympy):
    rng = seeded(3118)
    for _ in range(30):
        cols = rng.randint(2, 8)
        shared = [[_big_entry(rng) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
        shared[0][rng.randrange(cols)] = _BIG + 1  # the meet contains shared[0] != 0

        def with_shared():
            # random rows, a multiple of shared[0] and combinations of the shared rows
            rows = [[_big_entry(rng) for _ in range(cols)] for _ in range(rng.randint(0, 3))]
            rows.append([Fraction(-3, 7) * x for x in shared[0]])
            for _ in range(rng.randint(0, 2)):
                c = [rand_frac(rng) for _ in shared]
                rows.append([sum((ci * r[j] for ci, r in zip(c, shared)), Fraction(0))
                             for j in range(cols)])
            rng.shuffle(rows)
            return RationalMatrix(rows, cols)

        a, b = with_shared(), with_shared()
        inter = intersect_row_spaces(a, b)
        assert inter.num_rows > 0
        assert inter.rref()[0] == inter
        assert inter.rows == _sympy_meet(sympy, a, b)


def _sympy_meet(sympy, a, b):
    """The nonzero rows of the RREF of rowspace(a) and rowspace(b)
    intersected, by SymPy."""
    sa, sb = _to_sympy(sympy, a), _to_sympy(sympy, b)
    # u A = w B exactly when (u, w) is in the kernel of [A^T  -B^T]
    meet = [(v[: a.num_rows, :].T * sa) for v in sympy.Matrix.hstack(sa.T, -sb.T).nullspace()]
    expected = _from_sympy(sympy.Matrix.vstack(*meet).rref()[0]).rows if meet else ()
    return tuple(row for row in expected if any(row))


def _meeting_pair(rng, cols, entry):
    """Two matrices whose row spaces share the span of one to three shared
    rows: each holds a nonzero multiple of every shared row, rows of its
    own, combinations of its rows and maybe a zero row, shuffled."""
    shared = [[entry(rng) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
    shared[0][rng.randrange(cols)] = 1  # so the meet is not zero

    def side():
        scales = [rng.choice((1, -2, Fraction(3, 5))) for _ in shared]
        rows = [[c * x for x in r] for c, r in zip(scales, shared)]
        rows += [[entry(rng) for _ in range(cols)] for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 2)):
            c, r = rng.randint(-3, 3), rng.choice(rows)
            rows.append([x + c * y for x, y in zip(rng.choice(rows), r)])
        rows += [[0] * cols] * rng.randint(0, 1)
        rng.shuffle(rows)
        return RationalMatrix(rows, cols)

    return side(), side()


@pytest.mark.parametrize(
    "seed, entry",
    [(3130, lambda rng: rng.randint(-3, 3)), (3131, rand_frac), (3132, lambda rng: _big_entry(rng))],
    ids=["int", "fraction", "large"],
)
def test_intersection_matches_the_doubled_block_and_sympy_on_nonempty_meets(sympy, seed, entry):
    # the tagged block [A | 0; B | I] against the doubled one [[A A], [B 0]]
    rng = seeded(seed)
    for _ in range(40):
        a, b = _meeting_pair(rng, rng.randint(2, 8), entry)
        inter = intersect_row_spaces(a, b)
        assert inter.num_rows > 0
        assert inter == zassenhaus_intersection(a, b)
        assert inter.rows == _sympy_meet(sympy, a, b)


_DIFFERENTIAL = differential_inputs()


@pytest.mark.parametrize("embedded", [e for _, e in _DIFFERENTIAL], ids=[n for n, _ in _DIFFERENTIAL])
def test_intersection_matches_the_doubled_block_on_relation_matrices(embedded):
    # by Euler the vertex and face spaces meet in 0, and each meets
    # row(C_gamma) in itself, whose RREF the echelon basis gives
    q, rot = embedded
    c_va, c_ca = vertex_arrow_matrix(q), cycle_arrow_matrix(q, trace_faces(rot))
    c_gamma = RationalMatrix.stack(c_va, c_ca)
    for a, b in ((c_va, c_ca), (c_ca, c_va)):
        assert intersect_row_spaces(a, b) == zassenhaus_intersection(a, b)
        assert intersect_row_spaces(a, b).num_rows == 0
    for m in (c_va, c_ca):
        own = echelon_rref(EchelonBasis.spanning(m.num_cols, m._entries))
        for a, b in ((m, c_gamma), (c_gamma, m)):
            assert intersect_row_spaces(a, b) == zassenhaus_intersection(a, b) == own


def test_rank_with_a_dense_column_matches_sympy(sympy):
    # rank() eliminates the sparse columns first: a sparse matrix with one
    # dense column and dependent rows, against SymPy
    rng = seeded(3133)
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(2, 9)
        dense = rng.randrange(cols)
        base = [
            [rand_frac(rng) or 1 if j == dense else rand_frac(rng) if rng.random() < 0.3 else 0
             for j in range(cols)]
            for _ in range(rows)
        ]
        for _ in range(rng.randint(0, 2)):
            c = rng.randint(-2, 2)
            base.append([x + c * y for x, y in zip(rng.choice(base), rng.choice(base))])
        m = RationalMatrix(base, cols)
        assert m.rank() == _to_sympy(sympy, m).rank()


# -- The certified modular rank ---------------------------------------------------

P = linalg._PRIME


def _exact_runs(monkeypatch) -> list:
    """A list that gets one entry per EchelonBasis.spanning call from here on."""
    runs, spanning = [], EchelonBasis.spanning

    def counted(num_cols, rows):
        runs.append(num_cols)
        return spanning(num_cols, rows)

    monkeypatch.setattr(EchelonBasis, "spanning", counted)
    return runs


def test_certified_rank_equals_rank_on_seeded_integer_matrices():
    # small ints and multiples of the prime, some rows combinations of
    # others, in groups of which some sum to zero
    rng = seeded(4301)
    entries = (0, 0, 0, 1, -1, 2, -3, P, -P, 2 * P, P + 1)
    for _ in range(300):
        cols = rng.randint(1, 8)
        rows = [[rng.choice(entries) for _ in range(cols)] for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 2)):
            c = rng.choice((1, -1, P))
            rows.append([x + c * y for x, y in zip(rng.choice(rows), rng.choice(rows))])
        groups, start = [], 0
        while start < len(rows) and rng.random() < 0.7:
            size = rng.randint(1, min(3, len(rows) - start))
            group = list(range(start, start + size))
            if rng.random() < 0.5:  # the group's last row cancels the rest
                rows.insert(start + size, [-sum(c) for c in zip(*rows[start : start + size])])
                group.append(start + size)
            groups.append(range(group[0], group[-1] + 1))
            start = group[-1] + 1
        m = RationalMatrix(rows, cols)
        assert linalg._certified_rank(m, groups) == m.rank(), (rows, groups)


def test_certified_rank_closes_without_the_exact_kernel(monkeypatch):
    # the rows of each group sum to zero and the rank mod p reaches the bound
    runs = _exact_runs(monkeypatch)
    m = RationalMatrix([[1, P, 0], [-1, -P, 0], [0, 2, 3], [0, -2, -3]])
    assert linalg._certified_rank(m, [range(2), range(2, 4)]) == 2
    assert linalg._certified_rank(RationalMatrix([[2, 1], [1, 3]])) == 2
    assert runs == []


def test_certified_rank_falls_back_when_the_rank_drops_mod_p(monkeypatch):
    # 32768^2 - 35 is the prime: the first matrix has rank 2 over Q and 1
    # mod p, though no entry is a multiple of p
    runs = _exact_runs(monkeypatch)
    for m in (RationalMatrix([[32768, 1], [35, 32768]]), RationalMatrix([[P, 0], [0, 1]])):
        assert linalg._certified_rank(m) == 2
        # rows that do not sum to zero give no left-kernel vector
        assert linalg._certified_rank(m, [range(2)]) == 2
    # rows that sum to zero, bound 2, and rank 1 mod p: the pivot row of the
    # first keeps p where the second, which it reduces, has no entry
    assert linalg._certified_rank(RationalMatrix([[1, P], [-1, 0], [0, -P]]), [range(3)]) == 2
    # an empty group gives no left-kernel vector either
    assert linalg._certified_rank(RationalMatrix([[P]]), [range(0)]) == 1
    assert len(runs) == 6


def test_certified_rank_takes_the_exact_path_on_fractions(monkeypatch):
    runs = _exact_runs(monkeypatch)
    m = RationalMatrix([[Fraction(1, 2), 1], [1, 2], [Fraction(P, 3), 0]])
    assert linalg._certified_rank(m) == m.rank() == 2
    assert len(runs) == 2


# -- The sparse-row contract ---------------------------------------------------

@pytest.mark.parametrize("seed, build", [(3111, _dependent_matrix), (3116, _big_dependent_matrix)])
def test_kernel_and_solve_answer_in_sparse_rows(seed, build):
    # exact Fractions, no stored zero, every index in range, on the seeded
    # matrices of the SymPy kernel checks
    rng = seeded(seed)
    for _ in range(40):
        m = build(rng, rng.randint(1, 5), rng.randint(1, 7), rng.randint(0, 3))
        kern = m.kernel()
        assert isinstance(kern, RationalMatrix)
        assert (kern.num_rows, kern.num_cols) == (m.num_cols - m.rank(), m.num_cols)
        for row in kern._entries:
            assert_sparse_row(row, m.num_cols)
            assert row[min(row)] == 1
        solver = LinearSolver(RationalMatrix.zeros(0, m.num_cols), m)
        for i in range(m.num_rows):
            x = solver.solve(sparse_row(m.row(i)))
            assert x is not None
            assert_sparse_row(x, m.num_rows)
            assert mat_vec(transpose(m), dense_row(x, m.num_rows)) == m.row(i)


# -- Row order -----------------------------------------------------------------

def test_spanning_inserts_latest_leading_column_first(monkeypatch):
    seen = []
    insert = EchelonBasis._insert

    def recording(self, row):
        seen.append(row)
        return insert(self, row)

    monkeypatch.setattr(EchelonBasis, "_insert", recording)
    rows = [{0: 1}, {}, {1: 2, 2: 1}, {0: 1, 1: 1}, {2: 3}, {1: 1}]
    ech = EchelonBasis.spanning(3, rows)
    assert seen == [{2: 3}, {1: 2, 2: 1}, {1: 1}, {0: 1}, {0: 1, 1: 1}, {}]
    assert (ech.rank, ech.pivots) == (3, (0, 1, 2))


def _shuffled(rng, m):
    rows = list(m.rows)
    rng.shuffle(rows)
    return RationalMatrix(rows, m.num_cols)


def _assert_order_free(rng, m, other, shuffles=3):
    """rank, rref, kernel, the meet with ``other`` and the complement length
    of ``m`` are the same for every order of the rows of m and other."""
    reduced, pivots = m.rref()
    kernel = m.kernel()
    meet = intersect_row_spaces(m, other)
    complement = _complement_length(m)
    for _ in range(shuffles):
        s, t = _shuffled(rng, m), _shuffled(rng, other)
        assert s.rank() == m.rank()
        assert s.rref() == (reduced, pivots)
        assert s.kernel() == kernel
        assert intersect_row_spaces(s, t) == meet
        assert _complement_length(s) == complement
    return reduced, pivots, meet


def test_row_order_changes_nothing_against_sympy(sympy):
    rng = seeded(3119)
    for _ in range(30):
        cols = rng.randint(1, 7)
        a = _dependent_matrix(rng, rng.randint(1, 5), cols, rng.randint(0, 3))
        b = _dependent_matrix(rng, rng.randint(1, 5), cols, rng.randint(0, 3))
        reduced, pivots, meet = _assert_order_free(rng, a, b)
        expected, expected_pivots = _to_sympy(sympy, a).rref()
        assert pivots == expected_pivots
        assert reduced == _from_sympy(expected)
        sa, sb = _to_sympy(sympy, a), _to_sympy(sympy, b)
        assert meet.num_rows == sa.rank() + sb.rank() - sa.col_join(sb).rank()


@pytest.mark.parametrize("k", [3, 4, 6])
def test_row_order_changes_nothing_on_grid_matrices(sympy, k):
    rng = seeded(3120 + k)
    q, rot = checkerboard_grid(k)
    faces = trace_faces(rot)
    c_va, c_ca = vertex_arrow_matrix(q), cycle_arrow_matrix(q, faces)
    b_gamma = boundary_matrix(faces)
    for m, other in ((c_va, c_ca), (c_ca, c_va), (b_gamma, b_gamma)):
        reduced, pivots, _ = _assert_order_free(rng, m, other)
        expected, expected_pivots = _to_sympy(sympy, m).rref()
        assert pivots == expected_pivots
        assert reduced == _from_sympy(expected)


# -- the oracle's sparse integer kernel ---------------------------------------

def _primitive(entries):
    """Sorted (unknown, int) pairs over their gcd, the first one positive."""
    entries = sorted((u, c) for u, c in entries.items() if c)
    g = math.gcd(*(c for _, c in entries))
    return tuple((u, c // (g if entries[0][1] > 0 else -g)) for u, c in entries)


def test_row_kernel_zeroes_a_class_whose_signs_disagree():
    # d0 = -d1, d1 = -d2 and d0 = -d2 give d0 = -d0; d3 is in no row
    rows = [((0, 1), (1, 1)), ((1, 1), (2, 1)), ((0, 1), (2, 1))]
    assert list(_row_kernel(rows, 4)) == [{3: 1}]
    # with d0 = d2 instead the class {0, 1, 2} is free, 1 at d0
    rows[2] = ((0, 1), (2, -1))
    assert list(_row_kernel(rows, 4)) == [{0: 1, 1: -1, 2: 1}, {3: 1}]


def test_row_kernel_is_the_kernel_of_seeded_sparse_systems():
    # mostly d[u] = +-d[v], so that classes form cycles of either sign, with
    # rows of one unknown and of three or four, and coefficients of 2
    rng = seeded(4419)
    for _ in range(300):
        n = rng.randint(1, 12)
        rows = set()
        for _ in range(rng.randint(0, 14)):
            size = rng.choice([1, 2, 2, 2, 2, 3, 3, 4])
            unknowns = rng.sample(range(n), min(size, n))
            rows.add(_primitive({u: rng.choice([1, -1, 1, -1, 2, -2]) for u in unknowns}))
        solutions = list(_row_kernel(rows, n))
        for solution in solutions:
            assert_sparse_row(solution, n)
            assert solution[min(solution)] == 1
        found = RationalMatrix._of(solutions, n)
        kernel = sparse_kernel(rows, n)
        assert found.num_rows == kernel.num_rows
        assert found.rref() == kernel.rref()


def _assert_row_kernel(rows, n):
    """_row_kernel of ``rows`` fed once, as an iterator, checked against
    sparse_kernel of the rows with their repeated unknowns summed."""
    solutions = list(_row_kernel(iter(rows), n))
    summed = []
    for row in rows:
        acc = {}
        for u, c in row:
            acc[u] = acc.get(u, 0) + c
        summed.append(tuple(acc.items()))
    found, kernel = RationalMatrix._of(solutions, n), sparse_kernel(summed, n)
    assert found.num_rows == kernel.num_rows
    assert found.rref() == kernel.rref()
    return solutions


def test_row_kernel_gives_one_solution_list_in_any_row_order():
    # rows as the oracle streams them: repeated, not primitive, and with an
    # unknown more than once, so that some cancel and some sum to 2 d[u]
    rng = seeded(4423)
    for _ in range(200):
        n = rng.randint(1, 12)
        rows = [
            tuple((rng.randrange(n), rng.choice([1, -1, 1, -1, 2, -2])) for _ in range(size))
            for size in (rng.choice([1, 2, 2, 2, 2, 3, 3, 4]) for _ in range(rng.randint(0, 16)))
        ]
        rows += rng.sample(rows, len(rows) // 3)
        expected = _assert_row_kernel(rows, n)
        for _ in range(4):
            rng.shuffle(rows)
            assert _assert_row_kernel(rows, n) == expected


def test_row_kernel_sums_a_repeated_unknown_and_keeps_unequal_pairs():
    cases = [
        ([((0, 1), (0, -1))], 2, [{0: 1}, {1: 1}]),  # cancels: skipped
        ([((0, 1), (0, 1))], 2, [{1: 1}]),  # 2 d0 = 0
        ([((0, 1), (1, 1), (0, -1))], 2, [{0: 1}]),  # d1 = 0
        ([((0, 1), (1, 1), (0, 1))], 2, [{0: 1, 1: -2}]),  # 2 d0 + d1 = 0
        ([((0, 2), (1, -1))], 2, [{0: 1, 1: 2}]),  # 2 d0 = d1, kept for kernel()
        ([((0, 2), (1, -1)), ((1, 1), (2, -1))], 3, [{0: 1, 1: 2, 2: 2}]),
        ([((0, 2), (1, -1)), ((0, 1), (1, -1))], 2, []),  # d0 = d1 = 2 d0
        ([((0, 1), (1, -1)), ((0, 2), (1, -1))], 2, []),
    ]
    for rows, n, expected in cases:
        assert _assert_row_kernel(rows, n) == expected, rows


def test_row_kernel_zeroes_a_class_whatever_the_order_of_its_zero_row():
    # d2 = 0, d1 = d2 and d0 = -d1 make the class {0, 1, 2} zero: the zero
    # row before the unions reaches the class through them, and after them
    # it zeroes the class at its root 0, not at the unknown 2
    unions = [((1, 1), (2, -1)), ((0, 1), (1, 1))]
    for rows in ([((2, 1),), *unions], [*unions, ((2, 1),)], [unions[0], ((2, 1),), unions[1]]):
        assert _assert_row_kernel(rows, 4) == [{3: 1}], rows
    # a zero row that reaches a longer row's unknown through a union
    rows = [((0, 1), (1, 1), (3, 1)), ((2, 1),), ((1, 1), (2, -1))]
    for order in (rows, rows[::-1]):
        assert _assert_row_kernel(order, 4) == [{0: 1, 3: -1}], order
