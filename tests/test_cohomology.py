"""Combinatorial subspaces, the Euler quotient, and the HH1 basis.

Core claims:
    - the relation matrices C_va, C_ca, C_gamma, B_gamma match the
      hand-computed fixtures and satisfy rank(C_va) = |V|-1,
      rank(C_ca) = rank(B_gamma) = |F|-1
    - |E| - rank(C_gamma) = 2g on every embedded fixture, torus included
    - the vertex and face subspaces are linearly disjoint, and a report
      whose intersection disagrees with the rank count raises
    - the report reaches the planar 12x12 checkerboard grid with every
      verdict true, touching fewer than 600,000 entries in its
      elimination steps (caller row order touched about 1.2 million)
    - dim HH1 agrees between the face-count formula and path counting,
      and equals (derivation dimension - inner rank)
    - Happel's count reads the path counts: on T_40 it enumerates no path
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
    - every HH1 class is a sparse row, exact Fractions with no stored zero
      and every slot in range: the bracket rows and class_coordinates of
      each representative, alone and with an AL class and an inner
      derivation added, on the differential inputs above
    - the Extra(k) labels are the first nonzero index of each vector of
      the greedy unit-vector complement of row(C_gamma)
      (helpers.quotient_complement) on torus_k4, T_4 to T_8, 120 seeded
      quivers of genus >= 1 and seeded rotations of the 3x3 and 4x4 grids
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
from quiverdiff.embedding import FaceCycle, RotationSystem, trace_faces
from quiverdiff.errors import (
    CyclicQuiverError,
    DisconnectedError,
    InternalCheckError,
    NotAlmostCycleError,
)
from quiverdiff import linalg
from quiverdiff.linalg import RationalMatrix
from quiverdiff.quiver import Arrow, Path, Quiver
from quiverdiff.quiverfile import QuiverFile

from helpers import (
    EMBEDDED_FIXTURES,
    ReferenceHH1,
    adjoint_eigenvalue,
    assert_sparse_row,
    chain,
    checkerboard_grid,
    connection_matrix,
    dense_row,
    fixture_embedded,
    fixture_quiver,
    kronecker,
    load_fixture,
    operator_inner_subspace,
    quotient_complement,
    random_derivation,
    random_rotation,
    representative_operators,
    seeded,
    seeded_embedded_quiver,
    tournament,
    transpose,
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
            assert sum(m.entry(i, k) for i in range(m.num_rows)) == 0, name


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
    # the rank count says the spaces are disjoint; a meet that is not
    # empty must make the report refuse rather than pick one answer
    def nonempty(a, b):
        return RationalMatrix([[1] + [0] * (a.num_cols - 1)], a.num_cols)

    monkeypatch.setattr(cohomology, "intersect_row_spaces", nonempty)
    for name in ("k2", "grid2x2", "torus_k4"):
        q, rot = fixture_embedded(name)
        with pytest.raises(InternalCheckError, match="intersection disagrees"):
            combinatorial_report(q, rot)


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


def test_report_on_the_planar_12x12_grid_does_not_fill_in(monkeypatch):
    # entries touched by the elimination steps of one report: 1,194,992 when
    # the rows went in caller order (row-major vertices and faces), 511,723
    # latest leading column first
    touched = 0
    eliminate = linalg._eliminate

    def counting(v, row, col):
        nonlocal touched
        touched += len(v) + len(row)
        return eliminate(v, row, col)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    combinatorial_report(*checkerboard_grid(12))
    assert 0 < touched < 600_000


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
    assert happel_dimension(tournament(40)[0]) == 2**40 - 80


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
    assert basis.coset_coordinates(LinearOperator.identity(q)) is None


def _with_face_net(monkeypatch, net, face=1):
    """Make trace_faces give ``face`` the net coefficients ``net``."""
    true_trace_faces = cohomology.trace_faces

    def traced(rot):
        faces = list(true_trace_faces(rot))
        faces[face] = faces[face]._replace(net=tuple(net))
        return tuple(faces)

    monkeypatch.setattr(cohomology, "trace_faces", traced)


@pytest.mark.parametrize("injected", ["zero", "inner", "al_copy"])
def test_dependent_representative_raises(monkeypatch, injected):
    q, rot = fixture_embedded("triangle_tails")
    basis = hh1_basis(q, rot)
    assert basis.display_labels() == ("AL(p2,p1p3)", "Face(1)")
    if injected == "zero":
        _with_face_net(monkeypatch, [0] * q.num_arrows)
    elif injected == "inner":
        # the vertex derivation of v1, a signed sum of edge derivations
        _with_face_net(monkeypatch, [int(x) for x in vertex_arrow_matrix(q).rows[0]])
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
    _with_face_net(monkeypatch, trace_faces(rot)[copied].net, face=onto)
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
    diff = d_rs(q, "p1", q.arrow_path("p1")) - d_rs(q, "p2", q.arrow_path("p2"))
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
    far = next(f for f in faces if f.net[0] == 0 and f.net[1] == 0 and any(f.net))
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
    for _, _, coords in st.brackets:
        assert coords is not None
    assert isinstance(st.al_brackets_in_al_span, bool)


def test_structure_closed_under_bracket_everywhere():
    for name in EMBEDDED_FIXTURES:
        q, rot = fixture_embedded(name)
        st = hh1_structure(q, rot)
        for _, _, coords in st.brackets:
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

def _differential_inputs():
    inputs = [(name, fixture_embedded(name)) for name in EMBEDDED_FIXTURES]
    inputs += [
        (f"seed{seed}_genus{g}", seeded_embedded_quiver(seed, g))
        for seed in range(10)
        for g in (0, 1)
    ]
    inputs += [(f"k{m}", kronecker(m)) for m in range(2, 9)]
    inputs += [(f"t{n}", tournament(n)) for n in range(2, 6)]
    for k in (3, 4):
        q, rot = checkerboard_grid(k)
        inputs.append((f"grid{k}", (q, rot)))
        inputs.append((f"grid{k}_rotated", (q, random_rotation(seeded(k), q))))
    return inputs


DIFFERENTIAL = _differential_inputs()


@pytest.mark.parametrize("embedded", [e for _, e in DIFFERENTIAL], ids=[n for n, _ in DIFFERENTIAL])
def test_structure_table_matches_the_operator_route(embedded):
    q, rot = embedded
    st = hh1_structure(q, rot)
    ref = ReferenceHH1(q, rot)
    assert ref.independent
    assert len(ref.derivations) - ref.inner.rank() == len(st.basis)
    assert st.brackets == ref.brackets
    assert st.eigenvalues == ref.eigenvalues
    assert (st.faces_commute, st.face_acts_diagonally, st.al_brackets_in_al_span) == (
        ref.faces_commute, ref.face_acts_diagonally, ref.al_brackets_in_al_span,
    )
    # representatives are the label combinations AL {(r,s): 1},
    # Face {(k,k): a_k} and Extra {(k,k): 1}
    hb = st.basis
    for label, pairs in zip(hb.labels, hb.edge_pairs):
        if label.kind == "al":
            assert pairs == {(label.arrow, label.path): 1}
        elif label.kind == "face":
            net = hb.faces[label.face].net
            assert pairs == {(k, q.arrow_path(k)): a for k, a in enumerate(net) if a}
        else:
            assert pairs == {(label.arrow, q.arrow_path(label.arrow)): 1}


@pytest.mark.parametrize("embedded", [e for _, e in DIFFERENTIAL], ids=[n for n, _ in DIFFERENTIAL])
def test_classes_are_sparse_rows(embedded):
    # exact Fractions, no stored zero, every slot in range
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
    inner = {(k, q.arrow_path(k)): x for k, x in enumerate(vertex_arrow_matrix(q).row(0)) if x}
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
    broken = op + LinearOperator.identity(q)
    assert ref.basis.coset_coordinates(broken) is None
    assert ref.coset(broken) is None


def test_extra_labels_are_the_greedy_unit_complement():
    inputs = [("torus_k4", fixture_embedded("torus_k4"))]
    inputs += [(f"t{n}", tournament(n)) for n in range(4, 9)]
    inputs += [(f"seed{seed}", seeded_embedded_quiver(seed, 1)) for seed in range(120)]
    for k in (3, 4):
        q, _ = checkerboard_grid(k)
        inputs += [(f"grid{k}_{i}", (q, random_rotation(seeded(100 * k + i), q))) for i in range(3)]
    for name, (q, rot) in inputs:
        hb = hh1_basis(q, rot)
        extra = [label.arrow for label in hb.labels if label.kind == "extra"]
        complement = quotient_complement(connection_matrix(q, hb.faces))
        assert extra == [next(k for k, x in enumerate(v) if x) for v in complement], name
        assert len(extra) == 2 * hb.genus, name


INNER_INPUTS = [(name, q) for name, (q, _) in DIFFERENTIAL]
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
    assert len(st.brackets) == dim * (dim - 1) // 2, name
    assert (
        st.enforced, st.faces_commute, st.face_acts_diagonally, st.al_brackets_in_al_span
    ) == verdicts, name
    table = {(i, j): coords for i, j, coords in st.brackets}
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
    assert all(not any(coords) for _, _, coords in st.brackets)


# -- Result records ----------------------------------------------------------

def _records():
    """One record of each kind, as the package builds them on k2."""
    qf = load_fixture("k2")
    q, rot = qf.quiver, qf.rotation
    not_a_derivation = LinearOperator.identity(q)
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
