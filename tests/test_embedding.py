"""Rotation systems, face tracing, genus, and face derivations.

Core claims:
    - dart encoding/decoding and the opposite involution are consistent
    - face tracing consumes every dart exactly once, each face's net is
      the sparse (arrow, nonzero count) pairs of its darts in increasing
      arrow order, and the per-arrow signed occurrences over all faces
      cancel
    - the fixture embeddings have the hand-traced face counts and nets
    - a rotation traces its faces once and keeps them: genus and the
      combinatorial report read the same tuple
    - genus is 0 for trees and planar fixtures, 1 for the K4 torus
      rotation, and invariant under mirroring; a disconnected quiver and
      the quiver with no vertices have no genus
    - face derivations match the pinned signed sums, kill vertices, sum
      to zero over all faces, and pass the Leibniz test; on every face and
      on seeded coefficient vectors they equal the sum of a_k * D_{k,k}
"""

from fractions import Fraction

import pytest

from quiverdiff import embedding
from quiverdiff.cohomology import combinatorial_report
from quiverdiff.derivations import LinearOperator, d_rs, is_derivation
from quiverdiff.embedding import (
    HEAD,
    TAIL,
    RotationSystem,
    dart,
    dart_arrow,
    dart_display,
    dart_end,
    dart_from_text,
    dart_opposite,
    dart_vertex,
    face_derivation,
    genus,
    trace_faces,
)
from quiverdiff.errors import DisconnectedError, InvalidRotationError
from quiverdiff.quiver import Quiver

from helpers import (
    EMBEDDED_FIXTURES,
    dense_net,
    fixture_embedded,
    fixture_quiver,
    matrix_entry,
    mirror,
    rand_frac,
    random_acyclic_quiver,
    random_rotation,
    seeded,
)


# -- Helpers -----------------------------------------------------------------

def _assert_valid_tracing(q, faces):
    seen = []
    for f in faces:
        seen.extend(f.darts)
    assert sorted(seen) == list(range(2 * q.num_arrows))
    for f in faces:
        counts = [0] * q.num_arrows
        for d in f.darts:
            counts[dart_arrow(d)] += 1 if dart_end(d) == TAIL else -1
        assert f.net == tuple((k, c) for k, c in enumerate(counts) if c)
    nets = [dense_net(f, q.num_arrows) for f in faces]
    for k in range(q.num_arrows):
        assert sum(net[k] for net in nets) == 0


# -- Darts -------------------------------------------------------------------

def test_dart_encoding_roundtrip():
    for a in range(5):
        for end in (TAIL, HEAD):
            d = dart(a, end)
            assert dart_arrow(d) == a
            assert dart_end(d) == end
            assert dart_opposite(dart_opposite(d)) == d
            assert dart_opposite(d) != d


def test_dart_vertex_and_display():
    q = fixture_quiver("a2")
    t = dart(0, TAIL)
    h = dart(0, HEAD)
    assert dart_vertex(q, t) == q.vertex_index("v1")
    assert dart_vertex(q, h) == q.vertex_index("v2")
    assert dart_display(q, t) == "p1+"
    assert dart_display(q, h) == "p1-"


def test_dart_from_text_roundtrip():
    q = fixture_quiver("triangle_tails")
    for a in range(q.num_arrows):
        for end in (TAIL, HEAD):
            d = dart(a, end)
            assert dart_from_text(q, dart_display(q, d)) == d
    with pytest.raises(ValueError):
        dart_from_text(q, "p1")
    with pytest.raises(ValueError):
        dart_from_text(q, "nope+")


# -- Rotation systems --------------------------------------------------------

def test_rotation_rejects_duplicate_dart():
    q = fixture_quiver("k2")
    with pytest.raises(InvalidRotationError):
        RotationSystem(q, [[dart(0, TAIL), dart(0, TAIL)], [dart(0, HEAD), dart(1, HEAD)]])


def test_rotation_rejects_missing_dart():
    q = fixture_quiver("k2")
    with pytest.raises(InvalidRotationError):
        RotationSystem(q, [[dart(0, TAIL)], [dart(0, HEAD), dart(1, HEAD)]])


def test_rotation_rejects_dart_at_wrong_vertex():
    q = fixture_quiver("a2")
    with pytest.raises(InvalidRotationError):
        RotationSystem(q, [[dart(0, HEAD)], [dart(0, TAIL)]])


def test_canonical_rotation_is_valid_and_deterministic():
    for name in EMBEDDED_FIXTURES:
        q = fixture_quiver(name)
        rot = RotationSystem.canonical(q)
        assert rot == RotationSystem.canonical(q), name
        _assert_valid_tracing(q, trace_faces(rot))


def test_successor_cycles_through_vertex_order():
    q, rot = fixture_embedded("triangle_tails")
    darts = [dart_from_text(q, t) for t in ("p1+", "p4+", "p2+")]
    assert rot.successor(darts[0]) == darts[1]
    assert rot.successor(darts[1]) == darts[2]
    assert rot.successor(darts[2]) == darts[0]


def test_mirror_reverses_but_stays_valid():
    q, rot = fixture_embedded("triangle_tails")
    mirrored = mirror(rot)
    assert mirrored != rot
    assert mirror(mirrored) == rot
    _assert_valid_tracing(q, trace_faces(mirrored))


# -- Face tracing ------------------------------------------------------------

def test_k2_faces():
    q, rot = fixture_embedded("k2")
    faces = trace_faces(rot)
    assert len(faces) == 2
    assert {dense_net(f, q.num_arrows) for f in faces} == {(1, -1), (-1, 1)}
    _assert_valid_tracing(q, faces)


def test_tree_has_one_face_with_zero_net():
    q, rot = fixture_embedded("a3")
    faces = trace_faces(rot)
    assert len(faces) == 1
    assert dense_net(faces[0], q.num_arrows) == (0, 0)
    assert len(faces[0].darts) == 2 * q.num_arrows


def test_triangle_tails_faces():
    q, rot = fixture_embedded("triangle_tails")
    faces = trace_faces(rot)
    assert len(faces) == 2
    bounded = faces[1]  # face 0 is designated outer in the fixture
    assert dense_net(bounded, q.num_arrows) in {(-1, 1, -1, 0, 0), (1, -1, 1, 0, 0)}
    assert dense_net(faces[0], q.num_arrows) == tuple(
        -c for c in dense_net(bounded, q.num_arrows)
    )
    _assert_valid_tracing(q, faces)


def test_fixture_face_counts():
    expected = {"a2": 1, "a3": 1, "a4": 1, "a5": 1, "k2": 2, "k3": 3,
                "triangle_tails": 2, "grid2x2": 2, "torus_k4": 2}
    for name, count in expected.items():
        q, rot = fixture_embedded(name)
        assert len(trace_faces(rot)) == count, name


def test_faces_ordered_by_smallest_dart():
    for name in EMBEDDED_FIXTURES:
        _, rot = fixture_embedded(name)
        faces = trace_faces(rot)
        starts = [min(f.darts) for f in faces if f.darts]
        assert starts == sorted(starts), name


def test_dart_conservation_on_fixtures_and_random_rotations():
    rng = seeded(5101)
    for name in EMBEDDED_FIXTURES:
        q, rot = fixture_embedded(name)
        _assert_valid_tracing(q, trace_faces(rot))
    for _ in range(15):
        q = random_acyclic_quiver(rng)
        rot = random_rotation(rng, q)
        _assert_valid_tracing(q, trace_faces(rot))


def test_isolated_vertex_bounds_one_empty_face():
    q = fixture_quiver("single_vertex")
    rot = RotationSystem.canonical(q)
    faces = trace_faces(rot)
    assert len(faces) == 1
    assert faces[0].darts == ()
    assert genus(rot) == 0


def test_a_rotation_traces_its_faces_once(monkeypatch):
    traced = []

    def counted(rot):
        traced.append(rot)
        return trace_faces(rot)

    monkeypatch.setattr(embedding, "trace_faces", counted)
    q, rot = fixture_embedded("torus_k4")
    faces = rot.faces()
    assert faces == trace_faces(rot)
    assert genus(rot) == 1
    assert combinatorial_report(q, rot).faces is faces and rot.faces() is faces
    assert traced == [rot]


# -- Genus -------------------------------------------------------------------

def test_fixture_genera():
    expected = {"a2": 0, "a3": 0, "a4": 0, "a5": 0, "k2": 0, "k3": 0,
                "triangle_tails": 0, "grid2x2": 0, "torus_k4": 1}
    for name, g in expected.items():
        _, rot = fixture_embedded(name)
        assert genus(rot) == g, name


def test_every_tree_rotation_is_planar():
    rng = seeded(5102)
    for name in ("a3", "a4", "a5"):
        q = fixture_quiver(name)
        for _ in range(6):
            assert genus(random_rotation(rng, q)) == 0, name


def test_random_rotation_genus_is_consistent_with_faces():
    rng = seeded(5103)
    for _ in range(15):
        q = random_acyclic_quiver(rng)
        rot = random_rotation(rng, q)
        faces = trace_faces(rot)
        chi = q.num_vertices - q.num_arrows + len(faces)
        g = genus(rot)
        assert g >= 0
        assert chi == 2 - 2 * g


def test_mirror_preserves_face_count_and_genus():
    for name in EMBEDDED_FIXTURES:
        q, rot = fixture_embedded(name)
        faces = trace_faces(rot)
        mirrored_faces = trace_faces(mirror(rot))
        assert len(faces) == len(mirrored_faces), name
        assert genus(rot) == genus(mirror(rot)), name
        assert sorted(dense_net(f, q.num_arrows) for f in mirrored_faces) == sorted(
            tuple(-c for c in dense_net(f, q.num_arrows)) for f in faces
        ), name


def test_genus_requires_connected():
    q = fixture_quiver("disconnected")
    with pytest.raises(DisconnectedError):
        genus(RotationSystem.canonical(q))


def test_genus_rejects_the_empty_quiver():
    q = Quiver([], [])
    with pytest.raises(DisconnectedError, match="at least one vertex"):
        genus(RotationSystem.canonical(q))


# -- Face derivations --------------------------------------------------------

def test_triangle_tails_bounded_face_derivation():
    q, rot = fixture_embedded("triangle_tails")
    bounded = trace_faces(rot)[1]
    op = face_derivation(q, bounded)
    d = [d_rs(q, k, q.arrow_path(k)) for k in range(3)]
    expected = -d[0] + d[1] + -d[2]
    assert op == expected or op == -expected


def test_tree_face_derivation_is_zero():
    q, rot = fixture_embedded("a3")
    (face,) = trace_faces(rot)
    assert face_derivation(q, face).is_zero


def test_face_derivations_sum_to_zero():
    for name in EMBEDDED_FIXTURES:
        q, rot = fixture_embedded(name)
        total = LinearOperator.zero(q)
        for f in trace_faces(rot):
            total = total + face_derivation(q, f)
        assert total.is_zero, name


def test_face_derivations_kill_vertices_and_pass_leibniz():
    for name in ("k2", "k3", "triangle_tails", "torus_k4"):
        q, rot = fixture_embedded(name)
        for f in trace_faces(rot):
            op = face_derivation(q, f)
            assert is_derivation(op), name
            for v in range(q.num_vertices):
                assert matrix_entry(op.matrix, v, v) == 0
                img = op.apply(q.trivial_path(v))
                assert img.is_zero, name


def test_face_derivation_accepts_bare_coefficients():
    q = fixture_quiver("k2")
    op = face_derivation(q, (1, -1))
    assert op == d_rs(q, "p1", q.arrow_path("p1")) + -d_rs(q, "p2", q.arrow_path("p2"))
    with pytest.raises(ValueError):
        face_derivation(q, (1, -1, 0))


def test_face_derivation_is_the_sum_of_edge_derivations():
    rng = seeded(4110)
    for name in EMBEDDED_FIXTURES:
        q, rot = fixture_embedded(name)
        faces = trace_faces(rot)
        vectors = [tuple(rand_frac(rng) for _ in range(q.num_arrows)) for _ in range(3)]
        nets = [(f, dense_net(f, q.num_arrows)) for f in faces]
        for face, coeffs in nets + [(v, v) for v in vectors]:
            expected = LinearOperator.zero(q)
            for k, a in enumerate(coeffs):
                expected = expected + Fraction(a) * d_rs(q, k, q.arrow_path(k))
            assert face_derivation(q, face) == expected, name
