"""Quiver structure and path enumeration.

Core claims:
    - path counts agree with an independent adjacency-power walk count,
      and the reference table's per-pair counts with the enumerated
      paths, on every acyclic fixture and on seeded quivers; num_paths
      and parallel_path_counts give what that table gives, with no path
      enumerated, on the fixtures, T_n (n <= 8), K_m, grids and seeded
      quivers
    - the canonical path order is (length, base vertex, arrow sequence)
    - concat implements the delta rule with None as the absorbing zero
    - acyclic paths partition the basis together with the trivial paths
    - parallelism is reflexive and symmetric, and the grouped lookup
      equals a full scan of the path list
    - Path is an immutable value: equality, hash, repr and order are
      those of (base, arrows); the empty quiver is not connected
    - a quiver finds its topological order and its connectedness once,
      however often is_acyclic, num_paths, parallel_path_counts and
      is_connected ask
    - almost oriented cycle counts match the hand-checked fixtures
    - edge_pairs() is every arrow with every path parallel to it, in
      (arrow, path) order, built once, and the almost oriented cycles
      are its pairs off the diagonal, in the same order, on the
      fixtures, T_1..T_6, K_1..K_5 and seeded quivers
    - paths_at(v) lists the indices of the paths with tail v and with
      head v, increasing, on the same quivers
"""

import copy
import pickle
from collections import Counter

import pytest

from quiverdiff.errors import CyclicQuiverError
from quiverdiff.quiver import Path, Quiver

from helpers import (
    EMBEDDED_FIXTURES,
    FIXTURE_DIR,
    chain,
    checkerboard_grid,
    fixture_quiver,
    is_valid_path,
    kronecker,
    longest_path_length,
    path_counts,
    random_acyclic_quiver,
    reference_edge_pairs,
    seeded,
    tournament,
)


# -- Helpers -----------------------------------------------------------------

def _walk_count(q):
    """Total number of paths counted via powers of the adjacency matrix."""
    n = q.num_vertices
    adj = [[0] * n for _ in range(n)]
    for a in q.arrows:
        adj[a.tail][a.head] += 1
    total = n
    power = [row[:] for row in adj]
    while any(any(row) for row in power):
        total += sum(sum(row) for row in power)
        power = [
            [sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return total


# -- Construction ------------------------------------------------------------

def test_path_is_a_value():
    p = Path(0, (1, 2))
    assert p == Path(0, (1, 2))
    assert p != Path(0, (1,)) and p != Path(1, (1, 2))
    assert hash(p) == hash((p.base, p.arrows))
    assert {p: "x"}[Path(0, (1, 2))] == "x"
    assert repr(Path(0, (1,))) == "Path(base=0, arrows=(1,))"
    assert repr(Path(3)) == "Path(base=3, arrows=())"
    assert Path(0, ()) != (0, ())
    assert Path(0) == Path(0, ())
    assert copy.copy(p) == p and copy.deepcopy(p) == p
    assert pickle.loads(pickle.dumps(p)) == p


def test_path_fields_cannot_be_assigned():
    p = Path(0, (1,))
    for name, value in (("base", 1), ("arrows", ()), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    with pytest.raises(AttributeError):
        del p.base
    assert p == Path(0, (1,))


def test_sorted_paths_follow_the_key():
    paths = [Path(1, (2,)), Path(0), Path(0, (3, 1)), Path(2), Path(0, (1,)), Path(1)]
    assert sorted(paths) == sorted(paths, key=lambda p: p.key)
    assert sorted(paths) == [
        Path(0), Path(1), Path(2), Path(0, (1,)), Path(1, (2,)), Path(0, (3, 1)),
    ]


def test_duplicate_vertex_names_rejected():
    with pytest.raises(ValueError):
        Quiver(["v", "v"], [])


def test_duplicate_arrow_names_rejected():
    with pytest.raises(ValueError):
        Quiver(["u", "v"], [("a", "u", "v"), ("a", "u", "v")])


def test_unknown_endpoint_rejected():
    with pytest.raises(ValueError):
        Quiver(["u"], [("a", "u", "w")])


def test_indices_roundtrip():
    q = fixture_quiver("triangle_tails")
    for i, name in enumerate(q.vertex_names):
        assert q.vertex_index(name) == i
    for i, a in enumerate(q.arrows):
        assert q.arrow_index(a.name) == i


def test_out_and_in_arrows():
    q = fixture_quiver("a3")
    assert q.out_arrows(0) == (0,)
    assert q.in_arrows(1) == (0,)
    assert q.out_arrows(1) == (1,)
    assert q.out_arrows(2) == ()


# -- Path enumeration --------------------------------------------------------

def test_path_counts_match_fixture_table():
    expected = {
        "a2": 3, "a3": 6, "a4": 10, "a5": 15,
        "k2": 4, "k3": 5, "triangle_tails": 11, "grid2x2": 10, "torus_k4": 15,
    }
    for name, count in expected.items():
        q = fixture_quiver(name)
        assert len(q.paths()) == count, name


def test_path_count_matches_walk_oracle_on_fixtures():
    for name in EMBEDDED_FIXTURES:
        q = fixture_quiver(name)
        assert len(q.paths()) == _walk_count(q), name


def test_path_count_matches_walk_oracle_randomized():
    rng = seeded(1301)
    for _ in range(25):
        q = random_acyclic_quiver(rng)
        assert len(q.paths()) == _walk_count(q)


def test_canonical_order_on_a3():
    q = fixture_quiver("a3")
    assert tuple(q.path_display(p) for p in q.paths()) == (
        "v1", "v2", "v3", "p1", "p2", "p1p2",
    )


def test_path_order_is_sorted_by_key():
    # paths() lists the paths as it enumerates them, with no sort
    inputs = [(name, fixture_quiver(name)) for name in EMBEDDED_FIXTURES]
    rng = seeded(1650)
    inputs += [(f"random{i}", random_acyclic_quiver(rng, 7, 6)) for i in range(60)]
    inputs += [(f"t{n}", tournament(n)[0]) for n in range(2, 8)]
    inputs += [(f"k{m}", kronecker(m)[0]) for m in range(1, 7)]
    inputs += [(f"grid{k}", checkerboard_grid(k)[0]) for k in range(2, 7)]
    for name, q in inputs:
        keys = [p.key for p in q.paths()]
        assert keys == sorted(keys), name


def test_path_index_roundtrip():
    q = fixture_quiver("triangle_tails")
    for i, p in enumerate(q.paths()):
        assert q.path_index(p) == i


def test_paths_requires_acyclic():
    from quiverdiff.errors import CyclicQuiverError

    q = fixture_quiver("loop")
    with pytest.raises(CyclicQuiverError):
        q.paths()
    for count in (q.num_paths, q.parallel_path_counts):
        with pytest.raises(CyclicQuiverError, match="path enumeration requires an acyclic quiver"):
            count()


def test_path_counts_equal_enumeration():
    # counts[u][v] against the enumerated paths grouped by their ends
    rng = seeded(1409)
    names = EMBEDDED_FIXTURES + ("single_vertex", "disconnected")
    quivers = [fixture_quiver(name) for name in names] + [chain(12)]
    quivers += [random_acyclic_quiver(rng) for _ in range(25)]
    for q in quivers:
        counts = path_counts(q)
        assert sum(map(sum, counts)) == len(q.paths())
        ends = Counter((p.base, q.path_head(p)) for p in q.paths())
        n = q.num_vertices
        assert {(u, v): counts[u][v] for u in range(n) for v in range(n) if counts[u][v]} == ends


def test_path_counts_without_the_table_match_it(monkeypatch):
    # the 1-D counts against the dense reference table, with no path enumerated
    rng = seeded(4040)
    names = EMBEDDED_FIXTURES + ("single_vertex", "disconnected")
    quivers = [fixture_quiver(name) for name in names]
    quivers += [tournament(n)[0] for n in range(1, 9)]
    quivers += [kronecker(m)[0] for m in range(1, 9)]
    quivers += [checkerboard_grid(k)[0] for k in range(2, 9)]
    quivers += [random_acyclic_quiver(rng, 9, 12) for _ in range(40)]
    tables = [path_counts(q) for q in quivers]

    def unreachable(*args):
        raise AssertionError("a path was enumerated")

    monkeypatch.setattr(Quiver, "paths", unreachable)
    for q, table in zip(quivers, tables):
        assert q.num_paths() == sum(map(sum, table)), q
        assert q.parallel_path_counts() == [table[a.tail][a.head] for a in q.arrows], q


# -- Concatenation -----------------------------------------------------------

def test_concat_delta_rule():
    q = fixture_quiver("a3")
    p1 = q.arrow_path("p1")
    p2 = q.arrow_path("p2")
    assert q.concat(p1, p2) == Path(0, (0, 1))
    assert q.concat(p2, p1) is None
    assert q.concat(q.trivial_path("v1"), p1) == p1
    assert q.concat(p1, q.trivial_path("v2")) == p1
    assert q.concat(p1, q.trivial_path("v1")) is None


def test_concat_absorbs_none():
    q = fixture_quiver("a3")
    p1 = q.arrow_path("p1")
    assert q.concat(None, p1) is None
    assert q.concat(p1, None) is None


def test_concat_associative_randomized():
    rng = seeded(1302)
    for _ in range(10):
        q = random_acyclic_quiver(rng)
        paths = q.paths()
        for _ in range(40):
            p, r, s = (paths[rng.randrange(len(paths))] for _ in range(3))
            assert q.concat(p, q.concat(r, s)) == q.concat(q.concat(p, r), s)


def test_is_valid_path():
    q = fixture_quiver("a3")
    assert is_valid_path(q, Path(0, (0, 1)))
    assert not is_valid_path(q, Path(0, (1,)))
    assert not is_valid_path(q, Path(5))


# -- Global structure --------------------------------------------------------

def test_acyclic_and_connected_flags():
    assert fixture_quiver("a3").is_acyclic()
    assert fixture_quiver("a3").is_connected()
    assert not fixture_quiver("loop").is_acyclic()
    assert not fixture_quiver("disconnected").is_connected()
    assert fixture_quiver("single_vertex").is_connected()
    assert not Quiver([], []).is_connected()


def test_acyclicity_and_connectedness_are_found_once(monkeypatch):
    # the quiver is immutable: one topological sort and one component search
    # answer every later is_acyclic, num_paths, parallel_path_counts and is_connected
    calls = []
    for name in ("_topological_order", "_connected"):
        found = Quiver.__dict__[name]
        monkeypatch.setattr(found, "func", lambda q, _f=found.func, _n=name: calls.append(_n) or _f(q))
    for name, acyclic, connected in (("torus_k4", True, True), ("loop", False, True),
                                     ("disconnected", True, False)):
        q = fixture_quiver(name)
        for _ in range(3):
            assert (q.is_acyclic(), q.is_connected()) == (acyclic, connected)
            if acyclic:
                assert q.num_paths() == len(q.paths())
                assert len(q.parallel_path_counts()) == q.num_arrows
        assert sorted(calls) == ["_connected", "_topological_order"], name
        calls.clear()


def test_acyclic_paths_partition():
    for name in EMBEDDED_FIXTURES:
        q = fixture_quiver(name)
        trivial = {q.trivial_path(v) for v in range(q.num_vertices)}
        acyclic = set(q.acyclic_paths())
        assert acyclic.isdisjoint(trivial), name
        assert acyclic | trivial == set(q.paths()), name
        for p in acyclic:
            assert q.path_tail(p) != q.path_head(p), name


def test_parallel_paths_reflexive_and_symmetric():
    q = fixture_quiver("triangle_tails")
    for p in q.paths():
        cls = q.parallel_paths(p)
        assert p in cls
        for r in cls:
            assert p in q.parallel_paths(r)


def _scanned_parallel_paths(q, path):
    t, h = q.path_tail(path), q.path_head(path)
    return tuple(p for p in q.paths() if p.base == t and q.path_head(p) == h)


def test_parallel_paths_equal_a_full_scan():
    quivers = [
        fixture_quiver(f.stem) for f in sorted(FIXTURE_DIR.glob("*.quiver"))
        if fixture_quiver(f.stem).is_acyclic()
    ]
    assert len(quivers) == 11
    rng = seeded(1303)
    quivers += [random_acyclic_quiver(rng, max_vertices=7, max_extra=6) for _ in range(25)]
    for q in quivers:
        for p in q.paths():
            assert q.parallel_paths(p) == _scanned_parallel_paths(q, p), (q, p)


def test_parallel_paths_on_k2():
    q = fixture_quiver("k2")
    p1 = q.arrow_path("p1")
    p2 = q.arrow_path("p2")
    assert q.parallel_paths(p1) == (p1, p2)


def test_almost_oriented_cycle_counts():
    expected = {"a2": 0, "a3": 0, "a4": 0, "a5": 0,
                "k2": 2, "k3": 6, "triangle_tails": 1, "grid2x2": 0, "torus_k4": 5}
    for name, count in expected.items():
        q = fixture_quiver(name)
        assert len(q.almost_oriented_cycles()) == count, name


def test_almost_oriented_cycles_are_proper():
    for name in EMBEDDED_FIXTURES:
        q = fixture_quiver(name)
        for r, s in q.almost_oriented_cycles():
            arrow = q.arrow_path(r)
            assert s != arrow, name
            assert q.path_tail(s) == q.arrows[r].tail, name
            assert q.path_head(s) == q.arrows[r].head, name


def test_triangle_tails_almost_oriented_cycle_is_the_known_pair():
    q = fixture_quiver("triangle_tails")
    ((r, s),) = q.almost_oriented_cycles()
    assert q.arrows[r].name == "p2"
    assert q.path_display(s) == "p1p3"


def _edge_pair_inputs():
    inputs = [(f.stem, fixture_quiver(f.stem)) for f in sorted(FIXTURE_DIR.glob("*.quiver"))]
    inputs += [(f"t{n}", tournament(n)[0]) for n in range(1, 7)]
    inputs += [(f"k{m}", kronecker(m)[0]) for m in range(1, 6)]
    rng = seeded(2311)
    for i in range(20):
        inputs.append((f"seed{i}", random_acyclic_quiver(rng, max_vertices=7, max_extra=6)))
    return inputs


EDGE_PAIR_INPUTS = _edge_pair_inputs()


@pytest.mark.parametrize(
    "q", [q for _, q in EDGE_PAIR_INPUTS], ids=[name for name, _ in EDGE_PAIR_INPUTS]
)
def test_edge_pairs_are_every_arrow_with_every_parallel_path(q):
    if not q.is_acyclic():
        for listing in (q.edge_pairs, q.almost_oriented_cycles, lambda: reference_edge_pairs(q)):
            with pytest.raises(CyclicQuiverError):
                listing()
        return
    pairs = q.edge_pairs()
    assert pairs == tuple(reference_edge_pairs(q))
    assert q.edge_pairs() is pairs
    off_diagonal = tuple((r, s) for r, s in pairs if s != q.arrow_path(r))
    assert q.almost_oriented_cycles() == off_diagonal
    assert len(pairs) - len(off_diagonal) == q.num_arrows


@pytest.mark.parametrize(
    "q", [q for _, q in EDGE_PAIR_INPUTS], ids=[name for name, _ in EDGE_PAIR_INPUTS]
)
def test_paths_at_lists_the_paths_by_tail_and_by_head(q):
    if not q.is_acyclic():
        with pytest.raises(CyclicQuiverError):
            q.paths_at(0)
        return
    paths = q.paths()
    for v in range(q.num_vertices):
        by_tail, by_head = q.paths_at(v)
        assert by_tail == [j for j, p in enumerate(paths) if p.base == v]
        assert by_head == [j for j, p in enumerate(paths) if q.path_head(p) == v]


def test_longest_path_length():
    assert longest_path_length(fixture_quiver("a5")) == 4
    assert longest_path_length(fixture_quiver("k2")) == 1
    assert longest_path_length(fixture_quiver("triangle_tails")) == 2
    assert longest_path_length(fixture_quiver("single_vertex")) == 0


def test_chain_path_count_formula():
    # chain on n vertices has n + (n choose 2) paths
    for n in range(2, 7):
        q = chain(n)
        assert len(q.paths()) == n + n * (n - 1) // 2
