"""Combinatorial subspaces, the Euler quotient, and the HH1 basis.

Core claims:
    - the relation matrices C_va, C_ca, C_gamma, B_gamma match the
      hand-computed fixtures and satisfy rank(C_va) = |V|-1,
      rank(C_ca) = rank(B_gamma) = |F|-1
    - the rows of C_ca are the nonzero entries of each face's dense net
      on the 3x3 and 5x5 grids, planar and rotated, and on seeded
      quivers of genus 1 and 2
    - |E| - rank(C_gamma) = 2g on every embedded fixture, torus included
    - the vertex and face subspaces are linearly disjoint; a report whose
      stacked rank disagrees with that raises, and so does one with a
      face net that is no closed walk (an entry with its sign flipped, a
      walk that skips a dart), naming the face and a vertex
    - spacesDisjoint and the circulation check agree with the tagged and
      the doubled-block Zassenhaus intersections and with C_va C_ca^T on
      the differential fixtures, seeded quivers of genus 1 to 3 and
      random rotations of the 3x3 to 6x6 grids; with a vector added to
      one face's net there, the report raises exactly when that product
      is not zero
    - the report reaches the planar 12x12 checkerboard grid with every
      verdict true, touching fewer than 300,000 entries in its
      elimination steps (caller row order touched about 1.2 million, the
      doubled Zassenhaus block and caller column order 511,723; four exact
      ranks touched 103,178, and its one modular elimination of C_gamma
      touches 60,865), counted in the modular kernel and the exact one
    - the report's three ranks and hh1_basis's face rank are certified mod
      p with no exact elimination, and equal rank() on the planar 4x4 to
      16x16 and torus 4x4 to 12x12 grids, seeded rotations of the 4x4 to
      8x8 grids and seeded quivers of genus 0 to 3; the report runs one
      modular elimination there, of C_gamma, and no rank()
    - the report's ranks from one rank of the stack mod p, bounded by the
      two blocks' row sums, equal three exact rank() calls on seeded
      two-block int stacks: rows that do and do not sum to zero, blocks
      whose row spaces meet, entries that are multiples of the prime, and
      a Fraction entry; with that rank one short, or no rank mod p at all,
      the report falls back to exact ranks and is unchanged
    - dim HH1 agrees between the face-count formula and path counting,
      and equals (derivation dimension - inner rank)
    - Happel's count reads one count of the paths leaving each arrow
      tail: on T_40 it enumerates no path and lists no edge pair, and it
      equals the formula read off the reference table of path counts, as
      does the face-count dimension, on the embedded fixtures, T_n (n <=
      8), K_m (m <= 8), the 2x2 to 8x8 grids, planar and rotated, and
      seeded quivers of genus 0 and >= 1
    - the HH1 basis carries the expected labels, its face representative
      on the double arrow is D_{p1,p1} - D_{p2,p2} up to sign mod inner,
      and the span does not depend on the dropped face
    - a representative that is dependent modulo the inner subspace (a
      face with a zero net or the net of a vertex derivation, or an
      almost oriented cycle listed twice) raises, naming it; with a face's
      net copied onto another on the planar 3x3 grid, the later of the
      two is named
    - face representatives act on almost-oriented-cycle representatives
      with the pinned integer eigenvalues; on the torus fixture one of
      those eigenvalues is 0
    - the structure table verdicts: faces commute, faces act diagonally,
      and on the double arrow the AL span is genuinely not closed
    - hh1_structure builds no LinearOperator and no AlgebraElement on the
      embedded fixtures, K_6 and T_5
    - the table computed on edge-pair labels (brackets, eigenvalues,
      verdicts, coset coordinates) equals the operator route of
      helpers.ReferenceHH1 on every embedded fixture, on seeded quivers of
      genus 0 and >= 1, on K_m for m <= 8, on T_n for n <= 5 and on the
      3x3 and 4x4 checkerboard grids, planar and with seeded rotations
    - every HH1 class is a sparse row of exact entries, an int when
      integral and a Fraction otherwise, with no stored zero
      and every slot in range: the bracket rows and class_coordinates of
      each representative, alone and with an AL class and an inner
      derivation added, on the differential inputs above
    - the Extra(k) labels are the first nonzero index of each vector of
      the greedy unit-vector complement of row(C_gamma)
      (helpers.quotient_complement) on torus_k4, T_4 to T_8, 120 seeded
      quivers of genus >= 1 and seeded rotations of the 3x3 and 4x4 grids
    - hh1_basis certifies its independence with no LinearSolver on the
      differential inputs, seeded quivers of genus 1 to 3, torus grids
      4x4 to 8x8 and seeded rotations of the 5x5 and 6x6 grids, where the
      solver lists no dependent row; with a face row copied, a face-net
      entry's sign flipped or an Extra unit put on a pivot column, it
      gives the message the solver's list gave before; it builds no
      solver on the planar 16x16 and torus 8x8 grids, and hh1_structure
      builds exactly one on K_4
    - the result records keep their field names, defaults, hashes and
      reprs, and refuse assignment
    - the inner subspace, the Inner(w) unit vectors and the rows of C_va
      on the EdgePair(k, k) block, equals the coordinates of the
      operators D_p exactly on the differential inputs above, the
      disconnected, single-vertex and empty quivers, T_6 and A_n
    - hh1_structure reaches T_7 and K_14 with the dimensions, verdicts and
      bracket coordinates of the operator route, and the planar 16x16 grid
      with dimension 225, every verdict true and every bracket zero
"""

from fractions import Fraction

import pytest

from quiverdiff import cohomology
from quiverdiff.algebra import AlgebraElement
from quiverdiff.cohomology import (
    CombinatorialReport,
    HH1Basis,
    HH1Label,
    StructureTable,
    boundary_matrix,
    combinatorial_report,
    cycle_arrow_matrix,
    happel_dimension,
    hh1_basis,
    hh1_dimension,
    hh1_structure,
    vertex_arrow_matrix,
)
from quiverdiff.derivations import (
    ConditionViolation,
    DerivationLabel,
    LinearOperator,
    canonical_basis,
    check_coefficient_conditions,
    d_rs,
    inner_derivation,
    inner_subspace,
)
from quiverdiff.embedding import HEAD, TAIL, FaceCycle, RotationSystem, dart, surface_genus
from quiverdiff.embedding import dart_arrow, dart_end, trace_faces
from quiverdiff.errors import (
    CyclicQuiverError,
    DisconnectedError,
    InternalCheckError,
)
from quiverdiff import linalg
from quiverdiff.linalg import RationalMatrix
from quiverdiff.quiver import Arrow, Path, Quiver
from quiverdiff.quiverfile import QuiverFile

from helpers import (
    DIFFERENTIAL_FIXTURES,
    EMBEDDED_FIXTURES,
    NotAlmostCycleError,
    ReferenceHH1,
    adjoint_eigenvalue,
    assert_sparse_row,
    chain,
    checkerboard_grid,
    connection_matrix,
    dense_brackets,
    dense_net,
    dense_row,
    differential_inputs,
    fixture_embedded,
    fixture_quiver,
    identity_operator,
    intersect_row_spaces,
    kronecker,
    load_fixture,
    matrix_entry,
    operator_inner_subspace,
    path_counts,
    quotient_complement,
    random_derivation,
    random_rotation,
    reference_boundary_matrix,
    reference_hh1_structure,
    representative_operators,
    seeded,
    seeded_embedded_quiver,
    sized_acyclic_quiver,
    sparse_net,
    tournament,
    transpose,
    zassenhaus_intersection,
)

HAPPEL_TABLE = {
    "a2": 0, "a3": 0, "a4": 0, "a5": 0,
    "k2": 3, "k3": 8, "triangle_tails": 2, "grid2x2": 1, "torus_k4": 8,
}


# -- Helpers -----------------------------------------------------------------

def _ints(matrix):
    return [[int(x) for x in row] for row in matrix.rows]


# -- Relation matrices -------------------------------------------------------

def test_vertex_arrow_matrix_pinned():
    assert _ints(vertex_arrow_matrix(fixture_quiver("a2"))) == [[1], [-1]]
    assert _ints(vertex_arrow_matrix(fixture_quiver("a3"))) == [
        [1, 0], [-1, 1], [0, -1],
    ]
    assert _ints(vertex_arrow_matrix(fixture_quiver("k2"))) == [[1, 1], [-1, -1]]


def test_vertex_arrow_matrix_columns_sum_to_zero():
    for name in EMBEDDED_FIXTURES:
        m = vertex_arrow_matrix(fixture_quiver(name))
        for k in range(m.num_cols):
            assert sum(matrix_entry(m, i, k) for i in range(m.num_rows)) == 0, name


def test_cycle_arrow_matrix_pinned():
    q, rot = fixture_embedded("k2")
    m = cycle_arrow_matrix(q, trace_faces(rot))
    assert _ints(m) in ([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])

    q3, rot3 = fixture_embedded("a3")
    assert _ints(cycle_arrow_matrix(q3, trace_faces(rot3))) == [[0, 0]]

    qf, rotf = fixture_embedded("triangle_tails")
    rows = _ints(cycle_arrow_matrix(qf, trace_faces(rotf)))
    assert rows[0] == [-x for x in rows[1]]
    assert rows[1] in ([-1, 1, -1, 0, 0], [1, -1, 1, 0, 0])


def _seeded_genus_quiver(seed, g):
    """The first seeded quiver with 5-6 vertices and 2g + 1 more arrows
    whose random rotation has genus g."""
    rng = seeded(seed)
    while True:
        nv = rng.randint(5, 6)
        q = sized_acyclic_quiver(rng, nv, nv + 2 * g + 1)
        rot = random_rotation(rng, q)
        if surface_genus(q, len(trace_faces(rot))) == g:
            return q, rot


def test_cycle_arrow_matrix_rows_are_the_nonzero_net_of_each_face():
    # the rows equal the nonzero entries of the dense nets
    inputs = []
    for k in (3, 5):
        q, rot = checkerboard_grid(k)
        inputs += [(f"grid{k}", q, rot), (f"grid{k}_rotated", q, random_rotation(seeded(k), q))]
    inputs += [(f"genus1_seed{s}", *seeded_embedded_quiver(s, 1)) for s in range(20)]
    inputs += [(f"genus2_seed{s}", *_seeded_genus_quiver(s, 2)) for s in range(20)]
    assert any(name.startswith("genus2") for name, _, _ in inputs)
    for name, q, rot in inputs:
        faces = trace_faces(rot)
        expected = [{k: x for k, x in enumerate(dense_net(f, q.num_arrows)) if x} for f in faces]
        assert list(cycle_arrow_matrix(q, faces)._entries) == expected, name


def test_boundary_matrix_pinned():
    q, rot = fixture_embedded("k2")
    assert _ints(boundary_matrix(trace_faces(rot))) == [[2, -2], [-2, 2]]

    q3, rot3 = fixture_embedded("a3")
    assert _ints(boundary_matrix(trace_faces(rot3))) == [[0]]

    qf, rotf = fixture_embedded("triangle_tails")
    assert _ints(boundary_matrix(trace_faces(rotf))) == [[3, -3], [-3, 3]]


def test_boundary_matrix_is_symmetric_with_zero_row_sums():
    for name in EMBEDDED_FIXTURES:
        _, rot = fixture_embedded(name)
        b = boundary_matrix(trace_faces(rot))
        assert b == transpose(b), name
        for i in range(b.num_rows):
            assert sum(b.row(i)) == 0, name


def test_connection_matrix_shape():
    q, rot = fixture_embedded("triangle_tails")
    faces = trace_faces(rot)
    c = connection_matrix(q, faces)
    assert c.num_rows == q.num_vertices + len(faces)
    assert c.num_cols == q.num_arrows


def test_rank_theorems_on_all_fixtures():
    for name in EMBEDDED_FIXTURES:
        q, rot = fixture_embedded(name)
        faces = trace_faces(rot)
        assert vertex_arrow_matrix(q).rank() == q.num_vertices - 1, name
        assert cycle_arrow_matrix(q, faces).rank() == len(faces) - 1, name
        assert boundary_matrix(faces).rank() == len(faces) - 1, name


def test_euler_quotient_on_all_fixtures():
    from quiverdiff.embedding import genus

    for name in EMBEDDED_FIXTURES:
        q, rot = fixture_embedded(name)
        c = connection_matrix(q, trace_faces(rot))
        assert q.num_arrows - c.rank() == 2 * genus(rot), name


# -- Report ------------------------------------------------------------------

def test_report_k2_pinned_values():
    q, rot = fixture_embedded("k2")
    rep = combinatorial_report(q, rot)
    assert (rep.num_vertices, rep.num_arrows, rep.num_faces, rep.genus) == (2, 2, 2, 0)
    assert (rep.dim_dv, rep.dim_de, rep.dim_df, rep.dim_sum) == (1, 2, 1, 2)
    assert _ints(rep.b_gamma) == [[2, -2], [-2, 2]]
    assert (rep.rank_c_va, rep.rank_c_ca, rep.rank_c_gamma, rep.rank_b_gamma) == (1, 1, 2, 1)


def test_report_verdicts_hold_everywhere():
    for name in EMBEDDED_FIXTURES:
        q, rot = fixture_embedded(name)
        rep = combinatorial_report(q, rot)
        assert rep.rank_theorems_hold, name
        assert rep.spaces_disjoint, name
        assert rep.euler_holds, name
        assert rep.faces_sum_to_zero, name


def test_report_cross_check_bites_on_a_nonempty_intersection(monkeypatch):
    # every face row is a circulation, so the spaces are disjoint; a stacked
    # rank short of rank C_va + rank C_ca says they meet, and must make the
    # report refuse rather than pick one answer
    stack = RationalMatrix.stack

    def c_va_twice(c_va, c_ca):  # the stack of C_va over itself: rank C_va
        return stack(c_va, c_va)

    monkeypatch.setattr(RationalMatrix, "stack", staticmethod(c_va_twice))
    for name in ("k2", "grid2x2", "torus_k4"):
        q, rot = fixture_embedded(name)
        with pytest.raises(InternalCheckError, match="intersection disagrees"):
            combinatorial_report(q, rot)


def _walk_net(q, darts):
    """The dense net of a walk along ``darts``: +1 for a tail dart, -1 for a head dart."""
    net = [0] * q.num_arrows
    for d in darts:
        net[dart_arrow(d)] += 1 if dart_end(d) == TAIL else -1
    return net


@pytest.mark.parametrize("name", ["k2", "grid2x2", "torus_k4", "grid3"])
def test_a_face_net_with_a_sign_flipped_is_refused(monkeypatch, name):
    q, rot = checkerboard_grid(3) if name == "grid3" else fixture_embedded(name)
    face = 1
    net = list(dense_net(trace_faces(rot)[face], q.num_arrows))
    k = next(k for k, x in enumerate(net) if x)
    net[k] = -net[k]
    _with_face_net(monkeypatch, rot, net, face=face)
    ends = "|".join(q.vertex_names[v] for v in (q.arrows[k].tail, q.arrows[k].head))
    with pytest.raises(InternalCheckError, match=rf"face {face} is not a closed walk.* ({ends})$"):
        combinatorial_report(q, rot)


@pytest.mark.parametrize("name", ["k2", "grid2x2", "torus_k4", "grid3"])
def test_a_face_walk_that_skips_a_dart_is_refused(monkeypatch, name):
    q, rot = checkerboard_grid(3) if name == "grid3" else fixture_embedded(name)
    face = 1
    darts = trace_faces(rot)[face].darts
    for skipped in range(len(darts)):
        walk = darts[:skipped] + darts[skipped + 1:]
        _with_face_net(monkeypatch, rot, _walk_net(q, walk), face=face)
        with pytest.raises(InternalCheckError, match=rf"face {face} is not a closed walk"):
            combinatorial_report(q, rot)


def _orthogonality_inputs():
    inputs = [(name, *fixture_embedded(name)) for name in DIFFERENTIAL_FIXTURES]
    inputs += [(f"genus1_seed{s}", *seeded_embedded_quiver(s, 1)) for s in range(4)]
    inputs += [(f"genus{g}_seed{s}", *_seeded_genus_quiver(s, g)) for g in (2, 3) for s in range(4)]
    for k in range(3, 7):
        q, _ = checkerboard_grid(k)
        inputs += [(f"grid{k}_rotated{i}", q, random_rotation(seeded(10 * k + i), q)) for i in range(2)]
    inputs += [(f"grid{k}", *checkerboard_grid(k)) for k in range(3, 9)]
    graphs = [(f"k{m}", kronecker(m)[0]) for m in (3, 5, 7)]
    graphs += [(f"t{n}", tournament(n)[0]) for n in (4, 5, 6)]
    for name, q in graphs:
        inputs += [(f"{name}_rotated{i}", q, random_rotation(seeded(700 + i), q)) for i in range(2)]
    return inputs


ORTHOGONALITY = _orthogonality_inputs()


def test_spaces_disjoint_matches_the_intersections_and_the_product():
    # the circulation check stands for C_va C_ca^T = 0, and spacesDisjoint
    # for an empty meet of the row spaces, which two eliminations compute;
    # B_gamma = C_ca C_ca^T is the dart-ownership matrix, and its rank is
    # the rank of C_ca that the report gives for it
    assert {surface_genus(q, len(trace_faces(rot))) for _, q, rot in ORTHOGONALITY} >= {0, 1, 2, 3}
    for name, q, rot in ORTHOGONALITY:
        rep = combinatorial_report(q, rot)
        assert not any((rep.c_va * transpose(rep.c_ca))._entries), name
        assert rep.b_gamma == reference_boundary_matrix(rep.faces), name
        assert rep.rank_b_gamma == rep.b_gamma.rank(), name
        meet = intersect_row_spaces(rep.c_va, rep.c_ca)
        assert meet == zassenhaus_intersection(rep.c_va, rep.c_ca), name
        assert meet.num_rows == 0, name
        assert rep.spaces_disjoint, name


@pytest.mark.parametrize("q, rot", [e[1:] for e in ORTHOGONALITY], ids=[e[0] for e in ORTHOGONALITY])
def test_the_circulation_check_refuses_exactly_a_nonzero_product(monkeypatch, q, rot):
    # face 0 keeps its walk but gets a net with a vector added: another
    # face's net (closed), a unit vector (open) or a difference of two
    # (closed exactly when the arrows are parallel); the report must raise
    # exactly when C_va C_ca^T is then nonzero
    faces = trace_faces(rot)
    n = q.num_arrows
    nets = [dense_net(f, n) for f in faces]
    units = [[int(j == k) for j in range(n)] for k in range(n)]
    few = min(n, 8)
    pairs = [[a - b for a, b in zip(units[k], units[m])] for k in range(few) for m in range(k + 1, few)]
    c_va = vertex_arrow_matrix(q)
    outcomes = set()
    for delta in nets + units + pairs:
        net = [a + b for a, b in zip(nets[0], delta)]
        changed = (FaceCycle(faces[0].darts, sparse_net(net)),) + faces[1:]
        monkeypatch.setattr(rot, "_faces", changed)
        closed = not any((c_va * transpose(cycle_arrow_matrix(q, changed)))._entries)
        outcomes.add(closed)
        if closed:
            assert combinatorial_report(q, rot).spaces_disjoint
        else:
            with pytest.raises(InternalCheckError, match="face 0 is not a closed walk"):
                combinatorial_report(q, rot)
    assert outcomes == {True, False}


def test_report_reaches_the_planar_12x12_grid():
    # 144 vertices, 264 arrows, 122 faces: about 60 s with a fully reduced
    # elimination, well under 2 s with the forward-only one
    q, rot = checkerboard_grid(12)
    rep = combinatorial_report(q, rot)
    assert (rep.num_vertices, rep.num_arrows, rep.num_faces, rep.genus) == (144, 264, 122, 0)
    assert (rep.rank_c_va, rep.rank_c_ca) == (143, 121)
    assert rep.rank_theorems_hold
    assert rep.spaces_disjoint
    assert rep.euler_holds
    assert rep.faces_sum_to_zero


def _entries_touched(monkeypatch, q, rot) -> int:
    """The entries the elimination steps of one report touch, in the
    modular kernel and in the exact one."""
    touched = 0

    def counting(eliminate):
        def step(v, row, col, *heap):
            nonlocal touched
            touched += len(v) + len(row)
            return eliminate(v, row, col, *heap)

        return step

    for name in ("_eliminate", "_eliminate_mod"):
        monkeypatch.setattr(linalg, name, counting(getattr(linalg, name)))
    combinatorial_report(q, rot)
    return touched


def test_report_on_the_planar_12x12_grid_does_not_fill_in(monkeypatch):
    # entries touched by the elimination steps of one report: 1,194,992 when
    # the rows went in caller order (row-major vertices and faces), 511,723
    # latest leading column first, 103,178 with its four ranks as its only
    # eliminations, and 67,560 with three, rank B_gamma being rank C_ca;
    # 67,560 still with the three ranks certified mod p, in the same order,
    # and 60,865 with C_gamma's rank mod p alone proving all three
    assert 0 < _entries_touched(monkeypatch, *checkerboard_grid(12)) < 600_000


def test_report_on_the_planar_12x12_grid_tags_rows_and_ranks_sparse_columns_first(monkeypatch):
    # 60,865 entries touched by the one modular elimination of C_gamma, on
    # rank()'s sparse-columns-first labels, with no intersection run (103,178
    # by four exact ranks); 269,337 with the rows of C_ca
    # tagged in an intersection as well, 435,909 with the doubled Zassenhaus
    # block there, and 345,151 in caller column order
    assert 0 < _entries_touched(monkeypatch, *checkerboard_grid(12)) < 300_000


def _certified_rank_inputs():
    inputs = [(f"grid{k}", *checkerboard_grid(k)) for k in (4, 8, 12, 16)]
    inputs += [(f"torus{k}", *checkerboard_grid(k, torus=True)) for k in (4, 6, 8, 10, 12)]
    for k in (4, 6, 8):
        q, _ = checkerboard_grid(k)
        inputs.append((f"grid{k}_rotated", q, random_rotation(seeded(43 * k), q)))
    inputs += [
        (f"genus{g}_seed{s}", *_seeded_genus_quiver(s, g)) for g in range(4) for s in range(3)
    ]
    return inputs


def _modular_calls(monkeypatch, kernel=None) -> list:
    """A list that gets the row count of each modular rank from here on,
    through cohomology's name for it and linalg's; ``kernel``, when given,
    answers in its place."""
    calls, kernel = [], kernel or linalg._modular_rank

    def counted(rows):
        calls.append(len(rows))
        return kernel(rows)

    for module in (cohomology, linalg):
        monkeypatch.setattr(module, "_modular_rank", counted)
    return calls


def _rank_calls(monkeypatch) -> list:
    """A list that gets the row count of each RationalMatrix.rank call from here on."""
    calls, rank = [], RationalMatrix.rank

    def counted(m):
        calls.append(m.num_rows)
        return rank(m)

    monkeypatch.setattr(RationalMatrix, "rank", counted)
    return calls


@pytest.mark.parametrize("name, q, rot", _certified_rank_inputs())
def test_certified_ranks_equal_the_exact_ranks(monkeypatch, name, q, rot):
    # the report's three ranks and hh1_basis's face rank, certified mod p
    # with no exact elimination, are the ranks rank() eliminates exactly
    def unreachable(*args):
        raise AssertionError("an exact elimination ran")

    with monkeypatch.context() as m:
        m.setattr(linalg.EchelonBasis, "spanning", unreachable)
        modular, exact = _modular_calls(m), _rank_calls(m)
        rep = combinatorial_report(q, rot)
        # C_gamma's rank mod p proves all three: one modular elimination, no rank()
        assert (modular, exact) == ([rep.c_gamma.num_rows], [])
        kept = RationalMatrix._of(rep.c_ca._entries[1:], q.num_arrows)
        face_rank = linalg._certified_rank(kept)
    assert (rep.rank_c_va, rep.rank_c_ca, rep.rank_c_gamma, face_rank) == (
        rep.c_va.rank(),
        rep.c_ca.rank(),
        rep.c_gamma.rank(),
        kept.rank(),
    )
    assert rep.genus == surface_genus(q, rep.num_faces) and rep.euler_holds


def _two_block_stacks():
    """Seeded pairs (top, bottom) of dense int blocks with one column count:
    blocks whose rows do and do not sum to zero, bottoms with a row in the
    top's row space, entries that are multiples of the prime, and by hand
    the cases where a bound one short, or a block's row sum left unread,
    would give a wrong rank."""
    P = linalg._PRIME
    rng = seeded(4401)
    entries = (0, 0, 0, 1, -1, 2, -3, P, -P, 2 * P)
    stacks = [
        # the top does not sum to zero and has full rank, the bottom does and
        # meets it in one dimension: rank mod p 3 against the bound 2 + 2
        ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1], [-1, 0, -1]]),
        # both sum to zero and meet in one dimension
        ([[1, -1, 0], [-1, 1, 0]], [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]),
        # rank 2 over Q, 1 mod p, though no entry is a multiple of p
        ([[32768, 1], [35, 32768]], [[1, 0], [-1, 0]]),
        ([[1, P], [-1, -P]], [[P, 0], [-P, 0]]),
        ([[Fraction(1, 2), 1], [1, 2]], [[Fraction(P, 3), 0], [-1, 5]]),
    ]
    for _ in range(300):
        cols = rng.randint(1, 7)
        top = [[rng.choice(entries) for _ in range(cols)] for _ in range(rng.randint(1, 4))]
        bottom = [[rng.choice(entries) for _ in range(cols)] for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:  # a row in the top's row space: the spaces meet
            c = rng.choice((1, -1, 2, P))
            bottom.append([x + c * y for x, y in zip(rng.choice(top), rng.choice(top))])
        for block in (top, bottom):
            if block and rng.random() < 0.6:  # a last row that cancels the rest
                block.append([-sum(c) for c in zip(*block)])
        stacks.append((top, bottom))
    return stacks


def test_report_ranks_equal_three_exact_ranks_on_two_block_stacks():
    # one rank of the stack mod p, bounded by the blocks' row sums, proves
    # all three ranks; where it cannot, the answer is still three exact ranks
    seen = set()
    for top, bottom in _two_block_stacks():
        cols = len(top[0])
        t, b = RationalMatrix(top, cols), RationalMatrix(bottom, cols)
        stack = RationalMatrix.stack(t, b)
        cancels = all(sum(c) == 0 for c in zip(*bottom))
        expected = (t.rank(), b.rank(), stack.rank(), cancels)
        assert cohomology._report_ranks(t, b, stack) == expected, (top, bottom)
        seen.add((all(sum(c) == 0 for c in zip(*top)), cancels, expected[2] < expected[0] + expected[1]))
    # every pairing of row sums, with the spaces meeting and not
    assert seen == {(a, b, meet) for a in (True, False) for b in (True, False) for meet in (True, False)}


@pytest.mark.parametrize("name", ["k2", "grid2x2", "torus_k4", "grid4", "torus4", "grid4_rotated"])
def test_a_forced_fallback_gives_an_equal_report(monkeypatch, name):
    if name.startswith(("grid4", "torus4")):
        q, rot = checkerboard_grid(4, torus=name == "torus4")
        if name.endswith("rotated"):
            rot = random_rotation(seeded(44), q)
    else:
        q, rot = fixture_embedded(name)
    expected = combinatorial_report(q, rot)
    modular = linalg._modular_rank
    with monkeypatch.context() as m:
        # the stack's rank mod p one short: the blocks are certified, the stack ranked exactly
        m.setattr(cohomology, "_modular_rank", lambda rows: modular(rows) - 1)
        exact = _rank_calls(m)
        assert combinatorial_report(q, rot) == expected
        assert exact == [expected.c_gamma.num_rows]
    with monkeypatch.context() as m:
        # no modular rank at all, as for a Fraction entry: three exact ranks
        calls, exact = _modular_calls(m, lambda rows: None), _rank_calls(m)
        assert combinatorial_report(q, rot) == expected
        assert (len(calls), len(exact)) == (3, 3)


def test_report_torus_dimensions():
    q, rot = fixture_embedded("torus_k4")
    rep = combinatorial_report(q, rot)
    assert rep.genus == 1
    assert rep.num_faces == 2
    assert rep.dim_de - rep.dim_sum == 2


def test_report_rejects_cyclic_and_disconnected():
    loop = load_fixture("loop")
    with pytest.raises(CyclicQuiverError):
        combinatorial_report(loop.quiver, loop.rotation)
    disc = fixture_quiver("disconnected")
    with pytest.raises(DisconnectedError):
        combinatorial_report(disc, RotationSystem.canonical(disc))


# -- Dimension formulas ------------------------------------------------------

def test_happel_dimension_table():
    for name, dim in HAPPEL_TABLE.items():
        assert happel_dimension(fixture_quiver(name)) == dim, name


def test_happel_dimension_enumerates_no_path(monkeypatch):
    def unreachable(*args):
        raise AssertionError("happel_dimension enumerated the paths")

    # T_40 has 2^40 - 1 paths; each of its 780 arrows a_ij has 2^(j-i-1) parallel paths
    monkeypatch.setattr(Quiver, "paths", unreachable)
    monkeypatch.setattr(Quiver, "edge_pairs", unreachable)
    assert happel_dimension(tournament(40)[0]) == 2**40 - 80


def test_happel_dimension_matches_the_path_count_table():
    # 1 - |V| + the sum over arrows of the reference table's entry at its
    # ends, and the face-count dimension, which reads the traced faces
    inputs = [fixture_embedded(name) for name in EMBEDDED_FIXTURES]
    inputs += [tournament(n) for n in range(2, 9)]
    inputs += [kronecker(m) for m in range(2, 9)]
    for k in range(2, 9):
        q, rot = checkerboard_grid(k)
        inputs += [(q, rot), (q, random_rotation(seeded(k), q))]
    inputs += [seeded_embedded_quiver(seed, g) for seed in range(20) for g in (0, 1)]
    for q, rot in inputs:
        table = path_counts(q)
        dim = 1 - q.num_vertices + sum(table[a.tail][a.head] for a in q.arrows)
        assert happel_dimension(q) == dim, q
        assert hh1_dimension(q, rot.faces()) == dim, q


def test_hh1_dimension_agrees_with_happel():
    for name in EMBEDDED_FIXTURES:
        q, rot = fixture_embedded(name)
        assert hh1_dimension(q, trace_faces(rot)) == HAPPEL_TABLE[name], name


def test_hh1_dimension_equals_derivations_modulo_inner():
    for name in EMBEDDED_FIXTURES:
        q, rot = fixture_embedded(name)
        outer_dim = len(canonical_basis(q)) - inner_subspace(q).rank()
        assert hh1_dimension(q, trace_faces(rot)) == outer_dim, name


# -- HH1 basis ---------------------------------------------------------------

def test_hh1_basis_labels_pinned():
    q, rot = fixture_embedded("triangle_tails")
    assert hh1_basis(q, rot).display_labels() == ("AL(p2,p1p3)", "Face(1)")

    qk, rotk = fixture_embedded("k2")
    assert hh1_basis(qk, rotk).display_labels() == (
        "AL(p1,p2)", "AL(p2,p1)", "Face(1)",
    )

    qa, rota = fixture_embedded("a3")
    assert hh1_basis(qa, rota).display_labels() == ()


def test_hh1_basis_torus_labels_pinned():
    q, rot = fixture_embedded("torus_k4")
    basis = hh1_basis(q, rot)
    assert basis.display_labels() == (
        "AL(a13,a12a23)",
        "AL(a14,a12a24)",
        "AL(a14,a13a34)",
        "AL(a14,a12a23a34)",
        "AL(a24,a23a34)",
        "Face(1)",
        "Extra(a12)",
        "Extra(a13)",
    )
    assert basis.genus == 1


def test_hh1_members_have_unit_cosets():
    for name in ("k2", "triangle_tails", "torus_k4"):
        q, rot = fixture_embedded(name)
        basis = hh1_basis(q, rot)
        for i, op in enumerate(representative_operators(q, basis)):
            coords = basis.coset_coordinates(op)
            assert coords is not None, name
            assert coords == {i: 1}, name


def test_inner_derivations_have_zero_coset():
    q, rot = fixture_embedded("k2")
    basis = hh1_basis(q, rot)
    for p in q.paths():
        coords = basis.coset_coordinates(inner_derivation(q, p))
        assert coords == {}


def test_non_derivation_has_no_coset():
    q, rot = fixture_embedded("k2")
    basis = hh1_basis(q, rot)
    assert basis.coset_coordinates(identity_operator(q)) is None


def _with_face_net(monkeypatch, rot, net, face=1):
    """Make the faces ``rot`` keeps give ``face`` the dense net coefficients
    ``net``, walked as |net[k]| darts of arrow k: tail darts where
    net[k] > 0, head darts where it is negative."""
    ends = [(k, TAIL if x > 0 else HEAD) for k, x in enumerate(net) for _ in range(abs(x))]
    darts = tuple(dart(k, end) for k, end in ends)
    faces = list(trace_faces(rot))
    faces[face] = FaceCycle(darts, sparse_net(net))
    monkeypatch.setattr(rot, "_faces", tuple(faces))


@pytest.mark.parametrize("injected", ["zero", "inner", "al_copy"])
def test_dependent_representative_raises(monkeypatch, injected):
    q, rot = fixture_embedded("triangle_tails")
    basis = hh1_basis(q, rot)
    assert basis.display_labels() == ("AL(p2,p1p3)", "Face(1)")
    if injected == "zero":
        _with_face_net(monkeypatch, rot, [0] * q.num_arrows)
    elif injected == "inner":
        # the vertex derivation of v1, a signed sum of edge derivations
        _with_face_net(monkeypatch, rot, [int(x) for x in vertex_arrow_matrix(q).rows[0]])
    else:
        pairs = q.almost_oriented_cycles()
        monkeypatch.setattr(q, "almost_oriented_cycles", lambda: pairs + pairs)
    label = r"AL\(p2,p1p3\)" if injected == "al_copy" else r"Face\(1\)"
    with pytest.raises(InternalCheckError, match=label + " is dependent"):
        hh1_basis(q, rot)


@pytest.mark.parametrize("copied, onto, named", [(2, 3, 3), (1, 4, 4), (3, 2, 3)])
def test_a_copied_face_net_names_the_later_face(monkeypatch, copied, onto, named):
    q, rot = checkerboard_grid(3)
    labels = hh1_basis(q, rot).display_labels()
    assert labels == ("Face(1)", "Face(2)", "Face(3)", "Face(4)")
    _with_face_net(monkeypatch, rot, dense_net(trace_faces(rot)[copied], q.num_arrows), face=onto)
    with pytest.raises(InternalCheckError, match=rf"Face\({named}\) is dependent"):
        hh1_basis(q, rot)


def test_dependent_al_representative_raises(monkeypatch):
    q, rot = fixture_embedded("k2")
    # AL(p1,p2) listed in place of AL(p2,p1)
    first, _ = q.almost_oriented_cycles()
    monkeypatch.setattr(q, "almost_oriented_cycles", lambda: (first, first))
    with pytest.raises(InternalCheckError, match=r"AL\(p1,p2\) is dependent"):
        hh1_basis(q, rot)


def test_k2_face_class_is_the_rescaling_difference():
    q, rot = fixture_embedded("k2")
    basis = hh1_basis(q, rot)
    diff = d_rs(q, "p1", q.arrow_path("p1")) + -d_rs(q, "p2", q.arrow_path("p2"))
    coords = basis.coset_coordinates(diff)
    assert coords in ({2: 1}, {2: -1})


def test_outer_face_override_and_range_check():
    q, rot = fixture_embedded("triangle_tails")
    other = hh1_basis(q, rot, outer=1)
    assert other.display_labels() == ("AL(p2,p1p3)", "Face(0)")
    assert other.dropped_face == 1
    with pytest.raises(ValueError):
        hh1_basis(q, rot, outer=2)


def test_span_is_independent_of_dropped_face():
    for name in ("k2", "triangle_tails", "grid2x2"):
        q, rot = fixture_embedded(name)
        base = hh1_basis(q, rot, outer=0)
        other = hh1_basis(q, rot, outer=1)
        coords = [base.coset_coordinates(op) for op in representative_operators(q, other)]
        assert all(c is not None for c in coords), name
        m = RationalMatrix([dense_row(c, len(base)) for c in coords], len(base))
        assert m.rank() == len(base), name


# -- Adjoint eigenvalues -----------------------------------------------------

def test_triangle_tails_eigenvalue_is_minus_three():
    q, rot = fixture_embedded("triangle_tails")
    faces = trace_faces(rot)
    ((r, s),) = q.almost_oriented_cycles()
    lam_bounded = adjoint_eigenvalue(q, faces[1], r, s)
    lam_outer = adjoint_eigenvalue(q, faces[0], r, s)
    assert lam_bounded == -3
    assert lam_outer == 3


def test_k2_eigenvalues_are_plus_minus_two():
    q, rot = fixture_embedded("k2")
    face = trace_faces(rot)[1]
    p1, p2 = q.arrow_path("p1"), q.arrow_path("p2")
    lams = {adjoint_eigenvalue(q, face, "p1", p2), adjoint_eigenvalue(q, face, "p2", p1)}
    assert lams == {2, -2}


def test_face_disjoint_from_the_pair_gives_zero():
    # chain of two bigons: the far bigon's face avoids p1 and p2 entirely
    q = Quiver(
        ["v1", "v2", "v3", "v4"],
        [("p1", "v1", "v2"), ("p2", "v1", "v2"), ("b", "v2", "v3"),
         ("q1", "v3", "v4"), ("q2", "v3", "v4")],
    )
    rot = RotationSystem.canonical(q)
    faces = trace_faces(rot)
    nets = [dense_net(f, q.num_arrows) for f in faces]
    far = next(f for f, net in zip(faces, nets) if net[0] == 0 and net[1] == 0 and any(net))
    assert adjoint_eigenvalue(q, far, "p1", q.arrow_path("p2")) == 0


def test_adjoint_eigenvalue_rejects_improper_pairs():
    q, rot = fixture_embedded("k2")
    face = trace_faces(rot)[0]
    with pytest.raises(NotAlmostCycleError):
        adjoint_eigenvalue(q, face, "p1", q.arrow_path("p1"))

    qf, rotf = fixture_embedded("triangle_tails")
    facef = trace_faces(rotf)[0]
    with pytest.raises(NotAlmostCycleError):
        adjoint_eigenvalue(qf, facef, "p1", qf.arrow_path("p2"))


# -- Structure table ----------------------------------------------------------

def test_structure_k2():
    q, rot = fixture_embedded("k2")
    st = hh1_structure(q, rot)
    assert st.enforced
    assert st.faces_commute
    assert st.face_acts_diagonally
    assert not st.al_brackets_in_al_span  # the AL bracket lands on the face class
    table = {(i, j): coords for i, j, coords in st.brackets}
    assert table[(0, 1)] == {2: 1}
    assert {(i, j, int(lam)) for i, j, lam in st.eigenvalues} == {
        (0, 2, 2), (1, 2, -2),
    }


def test_structure_triangle_tails():
    q, rot = fixture_embedded("triangle_tails")
    st = hh1_structure(q, rot)
    assert st.enforced
    assert st.eigenvalues == ((0, 1, Fraction(-3)),)
    table = {(i, j): coords for i, j, coords in st.brackets}
    assert table[(0, 1)] == {0: 3}
    assert st.faces_commute and st.face_acts_diagonally and st.al_brackets_in_al_span


def test_structure_empty_for_chains():
    q, rot = fixture_embedded("a3")
    st = hh1_structure(q, rot)
    assert st.brackets == () and st.eigenvalues == ()
    assert st.faces_commute and st.face_acts_diagonally and st.al_brackets_in_al_span


def test_structure_torus_is_reported_not_enforced():
    q, rot = fixture_embedded("torus_k4")
    st = hh1_structure(q, rot)
    assert not st.enforced
    assert len(st.basis) == 8
    for _, _, coords in dense_brackets(st):
        assert coords is not None
    assert isinstance(st.al_brackets_in_al_span, bool)


def test_structure_closed_under_bracket_everywhere():
    for name in EMBEDDED_FIXTURES:
        q, rot = fixture_embedded(name)
        st = hh1_structure(q, rot)
        for _, _, coords in dense_brackets(st):
            assert coords is not None, name


def test_hh1_structure_builds_no_operator_or_element(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an operator or an algebra element was built on the hh1 path")

    for name in ("__init__", "_of", "from_images"):
        monkeypatch.setattr(LinearOperator, name, refuse)
    # brackets are spliced on single paths, so not even an element is built
    for name in ("__init__", "_of"):
        monkeypatch.setattr(AlgebraElement, name, refuse)
    inputs = [fixture_embedded(name) for name in EMBEDDED_FIXTURES]
    for q, rot in inputs + [kronecker(6), tournament(5)]:
        assert len(hh1_structure(q, rot).basis) == hh1_dimension(q, trace_faces(rot))


def test_hh1_is_stable_under_arrow_relabeling():
    # declare the double arrow with the opposite arrow order
    q = Quiver(["v1", "v2"], [("p2", "v1", "v2"), ("p1", "v1", "v2")])
    st = hh1_structure(q, RotationSystem.canonical(q))
    assert len(st.basis) == 3
    assert {int(lam) for _, _, lam in st.eigenvalues} == {2, -2}
    assert not st.al_brackets_in_al_span


# -- Edge-pair labels against the operator route ------------------------------

DIFFERENTIAL = differential_inputs()


@pytest.mark.parametrize("embedded", [e for _, e in DIFFERENTIAL], ids=[n for n, _ in DIFFERENTIAL])
def test_structure_table_matches_the_operator_route(embedded):
    q, rot = embedded
    st = hh1_structure(q, rot)
    ref = ReferenceHH1(q, rot)
    assert ref.independent
    assert len(ref.derivations) - ref.inner.rank() == len(st.basis)
    assert dense_brackets(st) == ref.brackets
    assert st.eigenvalues == ref.eigenvalues
    assert (st.faces_commute, st.face_acts_diagonally, st.al_brackets_in_al_span) == (
        ref.faces_commute, ref.face_acts_diagonally, ref.al_brackets_in_al_span,
    )
    # representatives are the label combinations AL {(r,s): 1},
    # Face {(k,k): a_k} and Extra {(k,k): 1}
    hb = st.basis
    for label, pairs in zip(hb.labels, hb.edge_pairs):
        if label.kind == "al":
            assert pairs == {(label.arrow, label.path.arrows): 1}
        elif label.kind == "face":
            net = dense_net(hb.faces[label.face], q.num_arrows)
            assert pairs == {(k, (k,)): a for k, a in enumerate(net) if a}
        else:
            assert pairs == {(label.arrow, (label.arrow,)): 1}


def _all_pairs_inputs():
    """The DIFFERENTIAL inputs, K_m (m <= 12), T_n (n <= 8), seeded quivers
    of genus 0 to 3 and the torus grids 4x4 to 8x8, each once by name."""
    inputs = dict(DIFFERENTIAL)
    inputs.update((f"k{m}", kronecker(m)) for m in range(1, 13))
    inputs.update((f"t{n}", tournament(n)) for n in range(1, 9))
    inputs.update(
        (f"genus{g}_seed{s}", _seeded_genus_quiver(s, g)) for g in range(4) for s in range(4)
    )
    inputs.update((f"torus{k}", checkerboard_grid(k, torus=True)) for k in (4, 6, 8))
    return list(inputs.items())


ALL_PAIRS = _all_pairs_inputs()


@pytest.mark.parametrize("embedded", [e for _, e in ALL_PAIRS], ids=[n for n, _ in ALL_PAIRS])
def test_structure_table_matches_the_all_pairs_loop(embedded):
    # the pairs the arrow index leaves out are zero: densified, the table
    # is the one the all-pairs loop on Path-keyed labels writes
    q, rot = embedded
    st, ref = hh1_structure(q, rot), reference_hh1_structure(q, rot)
    assert dense_brackets(st) == ref.brackets
    assert st.brackets == tuple(entry for entry in ref.brackets if entry[2])
    assert st.eigenvalues == ref.eigenvalues
    verdicts = (st.enforced, st.faces_commute, st.face_acts_diagonally, st.al_brackets_in_al_span)
    assert verdicts == (
        ref.enforced, ref.faces_commute, ref.face_acts_diagonally, ref.al_brackets_in_al_span
    )


def test_all_pairs_inputs_cover_each_genus_and_nonzero_brackets():
    genera = {hh1_basis(q, rot).genus for _, (q, rot) in ALL_PAIRS}
    assert genera >= {0, 1, 2, 3}
    q, rot = tournament(8)
    st = hh1_structure(q, rot)
    assert 0 < len(st.brackets) < len(dense_brackets(st))


@pytest.mark.parametrize("embedded", [e for _, e in DIFFERENTIAL], ids=[n for n, _ in DIFFERENTIAL])
def test_classes_are_sparse_rows(embedded):
    # exact entries, ints where integral, no stored zero, every slot in range
    q, rot = embedded
    st = hh1_structure(q, rot)
    hb = st.basis
    for _, _, coords in st.brackets:
        assert_sparse_row(coords, len(hb))
    assert hb.class_coordinates({}) == {}
    for i, pairs in enumerate(hb.edge_pairs):
        coords = hb.class_coordinates(pairs)
        assert_sparse_row(coords, len(hb))
        assert coords == {i: 1}
    # a Face or Extra class with an AL class and the vertex derivation of
    # vertex 0, an inner one, added
    al = [pairs for label, pairs in zip(hb.labels, hb.edge_pairs) if label.kind == "al"]
    inner = {(k, (k,)): x for k, x in enumerate(vertex_arrow_matrix(q).row(0)) if x}
    for i in range(len(al), len(hb)):
        pairs = {**hb.edge_pairs[i], **(al[0] if al else {})}
        for key, x in inner.items():
            pairs[key] = pairs.get(key, 0) + x
        coords = hb.class_coordinates({key: x for key, x in pairs.items() if x})
        assert_sparse_row(coords, len(hb))
        assert coords == ({0: 1, i: 1} if al else {i: 1})


@pytest.mark.parametrize("name", ["k2", "k3", "triangle_tails", "grid2x2", "torus_k4"])
def test_coset_coordinates_match_the_operator_route(name):
    q, rot = fixture_embedded(name)
    ref = ReferenceHH1(q, rot)
    rng = seeded(7)
    for _ in range(3):
        op = random_derivation(rng, q, ref.derivations)
        assert ref.basis.coset_coordinates(op) == ref.coset(op), name
    broken = op + identity_operator(q)
    assert ref.basis.coset_coordinates(broken) is None
    assert ref.coset(broken) is None


def test_extra_labels_are_the_greedy_unit_complement():
    inputs = [("torus_k4", fixture_embedded("torus_k4"))]
    inputs += [(f"t{n}", tournament(n)) for n in range(4, 9)]
    inputs += [(f"seed{seed}", seeded_embedded_quiver(seed, 1)) for seed in range(120)]
    for k in (3, 4):
        q, _ = checkerboard_grid(k)
        inputs += [(f"grid{k}_{i}", (q, random_rotation(seeded(100 * k + i), q))) for i in range(3)]
    for k in (8, 12):
        q, _ = checkerboard_grid(k)
        inputs += [(f"grid{k}_{i}", (q, random_rotation(seeded(100 * k + i), q))) for i in range(2)]
    for name, (q, _) in (("k6", kronecker(6)), ("t6", tournament(6))):
        inputs += [(f"{name}_{i}", (q, random_rotation(seeded(600 + i), q))) for i in range(3)]
    for name, (q, rot) in inputs:
        hb = hh1_basis(q, rot)
        extra = [label.arrow for label in hb.labels if label.kind == "extra"]
        complement = quotient_complement(connection_matrix(q, hb.faces))
        assert extra == [next(k for k, x in enumerate(v) if x) for v in complement], name
        assert len(extra) == 2 * hb.genus, name


# -- Independence without the quotient solver ---------------------------------

def _count_solver_builds(monkeypatch):
    """A list that gains one entry per LinearSolver built from here on."""
    built = []
    init = linalg.LinearSolver.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(linalg.LinearSolver, "__init__", counted)
    return built


def _solver_verdict(q, hb):
    """The message hh1_basis gave before it certified independence itself,
    with no AL pair listed twice: the first Face or Extra row of ``hb``
    that LinearSolver lists as dependent modulo row(C_va), then a count
    that differs from the dimension, or None."""
    rows = [
        {r: c for (r, _), c in pairs.items()}
        for label, pairs in zip(hb.labels, hb.edge_pairs)
        if label.kind != "al"
    ]
    solver = linalg.LinearSolver(vertex_arrow_matrix(q), RationalMatrix._of(rows, q.num_arrows))
    if not solver.dependent:
        dim = hh1_dimension(q, hb.faces)
        return None if len(hb) == dim else f"{len(hb)} representatives for HH1 of dimension {dim}"
    label = hb.labels[len(hb.labels) - len(rows) + solver.dependent[0]]
    return f"representative {label.display(q)} is dependent modulo the inner subspace"


def _hh1_basis_outcome(monkeypatch, q, rot):
    """(hh1_basis's error message, or None when it returns; the basis it
    built before its checks, either way)."""
    made = []

    def recorded(*args):
        made.append(HH1Basis(*args))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(cohomology, "HH1Basis", recorded)
        try:
            hh1_basis(q, rot)
            message = None
        except InternalCheckError as exc:
            message = str(exc)
    (hb,) = made
    return message, hb


def _independence_inputs():
    inputs = DIFFERENTIAL + [
        (f"genus{g}_seed{s}", _seeded_genus_quiver(s, g)) for g in (1, 2, 3) for s in range(4)
    ]
    inputs += [(f"torus{k}", checkerboard_grid(k, torus=True)) for k in (4, 6, 8)]
    for k in (5, 6):
        q, _ = checkerboard_grid(k)
        inputs.append((f"grid{k}_rotated", (q, random_rotation(seeded(k), q))))
    return inputs


INDEPENDENCE = _independence_inputs()


@pytest.mark.parametrize("embedded", [e for _, e in INDEPENDENCE], ids=[n for n, _ in INDEPENDENCE])
def test_independence_is_certified_where_the_solver_lists_no_dependent_row(monkeypatch, embedded):
    # every face closed, the kept face rows of rank |F| - 1 and 2g Extra
    # units certify the basis with no solver; the solver agrees
    q, rot = embedded
    built = _count_solver_builds(monkeypatch)
    hb = hh1_basis(q, rot)
    assert built == []
    assert _solver_verdict(q, hb) is None


INJECTED = [
    (name, embedded) for name, embedded in INDEPENDENCE
    if name in ("k2", "k4", "k6", "torus_k4", "grid3", "grid4_rotated")
    or name.startswith(("seed1_", "seed2_", "genus2_", "torus4"))
]


@pytest.mark.parametrize("embedded", [e for _, e in INJECTED], ids=[n for n, _ in INJECTED])
def test_injected_dependence_names_the_solver_s_row(monkeypatch, embedded):
    # a face row copied onto the next face, one face-net entry with its sign
    # flipped, and one Extra unit on a pivot column (a pivot left out of the
    # reading): hh1_basis names the row the solver lists first, as before
    q, rot = embedded
    nets = [dense_net(face, q.num_arrows) for face in trace_faces(rot)]
    injections = []
    if len(nets) > 2:
        injections.append((2, nets[1]))
    for f in range(1, len(nets)):
        for k in (k for k, x in enumerate(nets[f]) if x):
            injections.append((f, [-x if j == k else x for j, x in enumerate(nets[f])]))
    named = 0
    for f, net in injections:
        with monkeypatch.context() as m:
            _with_face_net(m, rot, net, face=f)
            message, hb = _hh1_basis_outcome(m, q, rot)
            assert message == _solver_verdict(q, hb), (f, net)
            named += "is dependent" in (message or "")

    class OnePivotShort(linalg.EchelonBasis):
        @property
        def pivots(self):
            return super().pivots[1:]

    if surface_genus(q, len(nets)):
        with monkeypatch.context() as m:
            m.setattr(cohomology, "EchelonBasis", OnePivotShort)
            message, hb = _hh1_basis_outcome(m, q, rot)
            assert "is dependent" in message and message == _solver_verdict(q, hb)
            named += 1
    assert named


def test_hh1_basis_builds_no_solver_on_grids(monkeypatch):
    built = _count_solver_builds(monkeypatch)
    assert len(hh1_basis(*checkerboard_grid(16))) == 225
    assert len(hh1_basis(*checkerboard_grid(8, torus=True))) == 65
    assert built == []


def test_hh1_structure_builds_the_quotient_solver_once(monkeypatch):
    # K_4's AL brackets have diagonal parts: the first one builds the solver
    built = _count_solver_builds(monkeypatch)
    table = hh1_structure(*kronecker(4))
    assert len(table.basis) == 15
    assert len(built) == 1


INNER_INPUTS =[(name, q) for name, (q, _) in DIFFERENTIAL]
INNER_INPUTS += [(name, fixture_quiver(name)) for name in ("disconnected", "single_vertex")]
INNER_INPUTS += [("empty", Quiver([], [])), ("t6", tournament(6)[0])]
INNER_INPUTS += [(f"a{n}", chain(n)) for n in (1, 6, 9, 12)]


@pytest.mark.parametrize("q", [q for _, q in INNER_INPUTS], ids=[n for n, _ in INNER_INPUTS])
def test_inner_subspace_is_inner_units_plus_vertex_rows(q):
    # the closed form equals, entry for entry, the coordinates of the
    # operators D_p: a sign flip of the vertex rows keeps every rank
    assert inner_subspace(q) == operator_inner_subspace(q, canonical_basis(q))


REACH = {
    # name: (dim, verdicts, {(i, j): {slot: coordinate}}), coordinates
    # taken from the operator route
    "t7": (114, (False, True, True, True), {
        (11, 67): {25: -1}, (72, 101): {72: 1}, (0, 102): {0: -1}, (97, 113): {97: -1},
    }),
    "k14": (195, (True, True, True, False), {
        (18, 79): {k: 1 for k in range(183, 188)},
        (8, 117): {k: 1 for k in range(182, 191)},
        (39, 184): {39: 1},
        (17, 170): {174: 1},
    }),
    # faces only, and faces commute
    "grid16": (225, (True, True, True, True), {}),
}


def _reach(name, q, rot):
    """hh1_structure on ``name``, checked against its REACH entry."""
    dim, verdicts, pinned = REACH[name]
    st = hh1_structure(q, rot)
    assert len(st.basis) == dim, name
    dense = dense_brackets(st)
    assert len(dense) == dim * (dim - 1) // 2, name
    # the table stores the nonzero brackets alone, in (i, j) order
    assert st.brackets == tuple(entry for entry in dense if entry[2]), name
    assert (
        st.enforced, st.faces_commute, st.face_acts_diagonally, st.al_brackets_in_al_span
    ) == verdicts, name
    table = {(i, j): coords for i, j, coords in dense}
    for key, nonzero in pinned.items():
        assert table[key] == nonzero, (name, key)
    return st


def test_hh1_structure_reaches_t7_and_k14():
    _reach("t7", *tournament(7))
    st = _reach("k14", *kronecker(14))
    labels = st.basis.display_labels()
    assert (labels[18], labels[79], labels[183]) == ("AL(p2,p7)", "AL(p7,p2)", "Face(2)")


def test_hh1_structure_reaches_the_planar_16x16_grid():
    # about 0.2 s; inserting the face rows of the class solver in caller
    # order took 2.2 s
    st = _reach("grid16", *checkerboard_grid(16))
    assert all(not any(coords) for _, _, coords in dense_brackets(st))
    assert st.brackets == ()


# -- Result records ----------------------------------------------------------

def _records():
    """One record of each kind, as the package builds them on k2."""
    qf = load_fixture("k2")
    q, rot = qf.quiver, qf.rotation
    not_a_derivation = identity_operator(q)
    return {
        Arrow: q.arrows[0],
        CombinatorialReport: combinatorial_report(q, rot),
        HH1Label: hh1_basis(q, rot).labels[0],
        StructureTable: hh1_structure(q, rot),
        ConditionViolation: check_coefficient_conditions(not_a_derivation)[0],
        DerivationLabel: canonical_basis(q).labels[-1],
        FaceCycle: trace_faces(rot)[0],
        QuiverFile: qf,
    }


RECORD_FIELDS = {
    Arrow: ("name", "tail", "head"),
    CombinatorialReport: (
        "num_vertices", "num_arrows", "num_faces", "genus",
        "dim_dv", "dim_de", "dim_df", "dim_sum",
        "c_va", "c_ca", "c_gamma", "b_gamma",
        "rank_c_va", "rank_c_ca", "rank_c_gamma", "rank_b_gamma",
        "rank_theorems_hold", "spaces_disjoint", "euler_holds", "faces_sum_to_zero",
        "faces",
    ),
    HH1Label: ("kind", "arrow", "path", "face"),
    StructureTable: (
        "basis", "brackets", "eigenvalues", "enforced",
        "faces_commute", "face_acts_diagonally", "al_brackets_in_al_span",
    ),
    ConditionViolation: ("rule", "message"),
    DerivationLabel: ("kind", "arrow", "path"),
    FaceCycle: ("darts", "net"),
    QuiverFile: ("name", "quiver", "rotation", "outer"),
}


def test_records_keep_fields_repr_and_refuse_assignment():
    records = _records()
    assert set(records) == set(RECORD_FIELDS)
    for cls, rec in records.items():
        fields = RECORD_FIELDS[cls]
        assert type(rec) is cls and cls._fields == fields, cls
        values = tuple(getattr(rec, f) for f in fields)
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(rec) == f"{cls.__name__}({shown})", cls
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(rec, f, None)
        with pytest.raises(AttributeError):
            rec.unknown_field = None


def test_label_records_hash_as_their_field_tuples():
    records = _records()
    for cls in (Arrow, HH1Label, ConditionViolation, DerivationLabel, FaceCycle):
        rec = records[cls]
        assert hash(rec) == hash(tuple(getattr(rec, f) for f in cls._fields)), cls
        assert rec == cls(*rec) and {rec: 1}[cls(*rec)] == 1, cls


def test_record_defaults_and_keyword_construction():
    assert HH1Label("face", face=2) == HH1Label("face", None, None, 2)
    assert HH1Label("extra", 1).path is None and HH1Label("extra", 1).face is None
    al = HH1Label("al", 0, Path(0, (1,)))
    assert (al.kind, al.arrow, al.path, al.face) == ("al", 0, Path(0, (1,)), None)
    q, rot = fixture_embedded("k2")
    report = combinatorial_report(q, rot)
    fields = RECORD_FIELDS[CombinatorialReport]
    rebuilt = CombinatorialReport(**{f: getattr(report, f) for f in reversed(fields)})
    assert rebuilt == report and rebuilt.genus == 0 and rebuilt.num_faces == 2
    with pytest.raises(TypeError):
        CombinatorialReport(num_vertices=2)
