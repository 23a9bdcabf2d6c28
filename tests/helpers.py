"""Shared test utilities: fixture loading, seeded random generators, the
planar checkerboard grid, small operations only tests need (sparse rows
among them), the library functions that only tests call (quiver file
text, the dense operator constructor, the checked adjoint eigenvalue,
the stacked connection matrix, the greedy quotient complement, the
edge-pair expansion of an inner derivation on a cyclic quiver, the
identity operator, a matrix entry, negation and difference, the RREF
of an echelon basis, the tagged and the doubled-block Zassenhaus
intersections, the dense and sparse views of a face net, the boundary
matrix from dart ownership), the
HH1 representatives as operators, the operator routes to the inner
subspace and to the HH1 structure table, the oracle's route through one
set of primitive integer rows, the per-pair Leibniz and coefficient
checks, the all-pairs bracket checks, the per-path operators and their
constructors, the list of edge pairs and the dense table of path counts,
all as independent references."""

import itertools
import operator
import random
from collections.abc import Iterator
from fractions import Fraction
from math import gcd
from numbers import Rational
from pathlib import Path as FsPath

from quiverdiff.quiver import Path, Quiver
from quiverdiff.algebra import AlgebraElement
from quiverdiff.cohomology import (
    _eigenvalue,
    cycle_arrow_matrix,
    hh1_basis,
    vertex_arrow_matrix,
)
from quiverdiff.derivations import (
    RULE_FACTOR,
    RULE_PATH_FORCED,
    RULE_VERTEX_PAIR,
    RULE_VERTEX_SUPPORT,
    ConditionViolation,
    DerivationLabel,
    LinearOperator,
    _check_path,
    canonical_basis,
    canonical_coordinates,
    d_rs,
    d_rs_apply,
    inner_derivation,
)
from quiverdiff.errors import (
    CyclicQuiverError,
    DimensionMismatchError,
    InternalCheckError,
    QuiverError,
    QuiverMismatchError,
)
from quiverdiff.linalg import (
    _ONE,
    _ZERO,
    EchelonBasis,
    LinearSolver,
    RationalMatrix,
    Row,
    Vector,
    as_vector,
)
from quiverdiff.embedding import (
    TAIL,
    HEAD,
    FaceCycle,
    RotationSystem,
    dart,
    dart_display,
    face_derivation,
    genus,
)
from quiverdiff import quiverfile
from quiverdiff.quiverfile import QuiverFile

FIXTURE_DIR = FsPath(__file__).resolve().parent.parent / "quivers"

# small fixtures on which the sparse routes are compared with dense references
DIFFERENTIAL_FIXTURES = ("a3", "k2", "triangle_tails", "grid2x2", "torus_k4")

# fixtures with a rotation system and an acyclic connected quiver
EMBEDDED_FIXTURES = (
    "a2", "a3", "a4", "a5", "k2", "k3", "triangle_tails", "grid2x2", "torus_k4",
)


def load_fixture(name):
    return quiverfile.load(FIXTURE_DIR / (name + ".quiver"))


def fixture_quiver(name):
    return load_fixture(name).quiver


def fixture_embedded(name):
    qf = load_fixture(name)
    assert qf.rotation is not None, name
    return qf.quiver, qf.rotation


def rand_frac(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def random_acyclic_quiver(rng, max_vertices=5, max_extra=3):
    """Connected acyclic quiver: a backbone tree plus forward chords.

    Every arrow points from a lower vertex index to a higher one, so
    the result is acyclic by construction; attaching each vertex to an
    earlier one keeps the underlying graph connected.  Parallel arrows
    are possible (and wanted: they create almost oriented cycles).
    """
    nv = rng.randint(2, max_vertices)
    vertices = ["v%d" % i for i in range(nv)]
    arrows = []
    for i in range(1, nv):
        j = rng.randrange(i)
        arrows.append(("a%d" % len(arrows), vertices[j], vertices[i]))
    for _ in range(rng.randint(0, max_extra)):
        i = rng.randrange(nv - 1)
        j = rng.randrange(i + 1, nv)
        arrows.append(("a%d" % len(arrows), vertices[i], vertices[j]))
    return Quiver(vertices, arrows, name="random")


def sized_acyclic_quiver(rng, num_vertices, num_arrows):
    """Connected acyclic quiver with exactly the given sizes.

    A backbone tree as in random_acyclic_quiver, then forward chords
    until there are ``num_arrows`` arrows.
    """
    vertices = ["v%d" % i for i in range(num_vertices)]
    arrows = []
    for i in range(1, num_vertices):
        arrows.append(("a%d" % len(arrows), vertices[rng.randrange(i)], vertices[i]))
    while len(arrows) < num_arrows:
        i = rng.randrange(num_vertices - 1)
        j = rng.randrange(i + 1, num_vertices)
        arrows.append(("a%d" % len(arrows), vertices[i], vertices[j]))
    return Quiver(vertices, arrows, name="random")


def seeded_embedded_quiver(seed, want_genus):
    """The first quiver with 4-6 vertices and 6-8 arrows (the sizes of the
    benchmark's hh1 inputs) whose random rotation has genus ``want_genus``
    (0, or >= 1 for any positive value), drawn from ``seed``."""
    rng = random.Random(seed)
    while True:
        nv = rng.randint(4, 6)
        q = sized_acyclic_quiver(rng, nv, nv + 2)
        rot = random_rotation(rng, q)
        g = genus(rot)
        if (g == 0) == (want_genus == 0):
            return q, rot


def chain(n):
    """A_n: the arrows p1..p(n-1) from v_i to v_(i+1)."""
    vertices = ["v%d" % i for i in range(1, n + 1)]
    arrows = [("p%d" % i, vertices[i - 1], vertices[i]) for i in range(1, n)]
    return Quiver(vertices, arrows, name="a%d" % n)


def kronecker(m):
    """K_m: m parallel arrows p1..pm from v1 to v2, embedded in the plane."""
    q = Quiver(["v1", "v2"], [("p%d" % i, "v1", "v2") for i in range(1, m + 1)], name="k%d" % m)
    rot = RotationSystem(
        q, [[dart(a, TAIL) for a in range(m)], [dart(a, HEAD) for a in reversed(range(m))]]
    )
    return q, rot


def tournament(n):
    """T_n: an arrow from v_i to v_j for every i < j, with the canonical rotation."""
    vertices = ["v%d" % i for i in range(1, n + 1)]
    arrows = [
        ("a%d_%d" % (i, j), vertices[i - 1], vertices[j - 1])
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    q = Quiver(vertices, arrows, name="t%d" % n)
    return q, RotationSystem.canonical(q)


def checkerboard_grid(k, torus=False):
    """k x k grid, every arrow from a vertex with i + j even to one with
    i + j odd, darts in counter-clockwise order: a planar embedding.  With
    ``torus`` (k even and at least 4) the last row and column also step
    around to the first, which keeps the parity rule: a genus-1 embedding."""
    name = "v{}_{}".format
    vertices = [name(i, j) for i in range(k) for j in range(k)]
    arrows, around = [], {v: [] for v in vertices}
    for i in range(k):
        for j in range(k):
            # (step, position of the dart at each end in east, north, west, south)
            for di, dj, pos in ((0, 1, 0), (1, 0, 1)):
                if not torus and (i + di == k or j + dj == k):
                    continue
                u, w, u_pos, w_pos = name(i, j), name((i + di) % k, (j + dj) % k), pos, pos + 2
                if (i + j) % 2:
                    u, w, u_pos, w_pos = w, u, w_pos, u_pos
                a = len(arrows)
                arrows.append((f"a{a}", u, w))
                around[u].append((u_pos, dart(a, TAIL)))
                around[w].append((w_pos, dart(a, HEAD)))
    q = Quiver(vertices, arrows, name=f"torus{k}" if torus else f"grid{k}")
    return q, RotationSystem(q, [[d for _, d in sorted(around[v])] for v in vertices])


def random_rotation(rng, q):
    orders = []
    for v in range(q.num_vertices):
        darts = [dart(a, TAIL) for a in q.out_arrows(v)]
        darts += [dart(a, HEAD) for a in q.in_arrows(v)]
        rng.shuffle(darts)
        orders.append(darts)
    return RotationSystem(q, orders)


def random_element(rng, q, size=3):
    paths = q.paths()
    elem = AlgebraElement.zero(q)
    for _ in range(size):
        p = paths[rng.randrange(len(paths))]
        elem = elem + AlgebraElement.from_path(q, p, rand_frac(rng))
    return elem


def random_derivation(rng, q, basis=None):
    """A random rational combination of the canonical basis operators."""
    if basis is None:
        basis = canonical_basis(q)
    op = LinearOperator.zero(q)
    for member in basis.operators:
        c = rand_frac(rng, span=2)
        if c:
            op = op + c * member
    return op


def seeded(seed):
    return random.Random(seed)


# -- library functions that only tests call --------------------------------

def differential_inputs():
    """(name, (quiver, rotation)) pairs for the differential tests: the
    embedded fixtures, seeded quivers of genus 0 and 1, K_2..K_8, T_2..T_5
    and the 3x3 and 4x4 grids, planar and with a seeded rotation."""
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


def serialize(qf: QuiverFile) -> str:
    """Canonical text for a QuiverFile; parse(serialize(x)) == x."""
    q = qf.quiver
    lines = []
    if qf.name:
        lines.append(f"quiver {qf.name}")
    if q.num_vertices:
        lines.append("vertex " + " ".join(q.vertex_names))
    for a in q.arrows:
        lines.append(f"arrow {a.name} {q.vertex_names[a.tail]} {q.vertex_names[a.head]}")
    if qf.rotation is not None:
        for v, order in enumerate(qf.rotation.orders):
            parts = ["rotation", q.vertex_names[v]]
            parts += [dart_display(q, d) for d in order]
            lines.append(" ".join(parts))
    if qf.outer is not None:
        lines.append(f"outer {qf.outer}")
    return "\n".join(lines) + "\n"


def operator_from_matrix(quiver, matrix):
    """The operator whose matrix is ``matrix``: column j is the image of
    the j-th basis path, read from its nonzero entries."""
    n = len(quiver.paths())
    if matrix.num_rows != n or matrix.num_cols != n:
        raise ValueError(f"operator matrix must be {n}x{n}")
    images = {}
    for w, row in enumerate(matrix._entries):
        for j, c in row.items():
            images.setdefault(j, {})[w] = c
    return LinearOperator._of(quiver, images)


class NotAlmostCycleError(QuiverError):
    """The given (arrow, path) pair is not an almost oriented cycle."""


def adjoint_eigenvalue(q: Quiver, face, r: int | str, s: Path) -> Fraction:
    """Eigenvalue of the face's adjoint action on the operator of (r, s).

    With a the face's net coefficients, bracketing the face derivation
    against D_{r,s} rescales it by -a_r + sum of a_x over the arrows x
    of s (with multiplicity).  Before the value is returned the identity
    is checked exactly on the sparse operators: the bracket of the face
    derivation with D_{r,s} must equal lam * D_{r,s}.
    """
    if isinstance(r, str):
        r = q.arrow_index(r)
    arrow = q.arrows[r]
    if (
        s == q.arrow_path(r)
        or q.path_tail(s) != arrow.tail
        or q.path_head(s) != arrow.head
    ):
        raise NotAlmostCycleError(
            f"({arrow.name}, {q.path_display(s)}) is not an almost oriented cycle"
        )
    lam = _eigenvalue(face.net if isinstance(face, FaceCycle) else sparse_net(face), r, s)
    op = d_rs(q, r, s)
    if face_derivation(q, face).bracket(op) != lam * op:
        raise InternalCheckError("adjoint eigenvalue identity failed on operators")
    return lam


def connection_matrix(q: Quiver, faces) -> RationalMatrix:
    """Vertex rows stacked over face rows."""
    return RationalMatrix.stack(vertex_arrow_matrix(q), cycle_arrow_matrix(q, faces))


def quotient_complement(subspace: RationalMatrix) -> list[Vector]:
    """Representatives completing ``subspace`` to its full ambient space.

    Scans the standard unit vectors in order, keeping each one that
    increases the rank of the subspace and the vectors kept so far; the
    result has length (ambient dimension - rank of subspace) and the
    choice is deterministic.
    """
    n = subspace.num_cols
    ech = EchelonBasis.spanning(n, subspace._entries)
    chosen: list[Vector] = []
    for i in range(n):
        if ech.rank == n:
            break
        v = tuple(_ONE if j == i else _ZERO for j in range(n))
        if ech.insert(v):
            chosen.append(v)
    return chosen


def verify_inner_expansion(q: Quiver, c: Path) -> bool:
    """Check D_c against its edge-pair expansion on the generators.

    For an oriented cycle c based at v0 the inner derivation D_c equals
    sum of D_{p, cp} over arrows p leaving v0 minus sum of D_{r, rc}
    over arrows r entering v0.  Both sides are evaluated lazily on
    V union E only, which determines a derivation by the product rule,
    so this works on cyclic quivers where no matrix form exists.  Raises
    ValueError for a path not of q and for one that is no nontrivial
    oriented cycle.
    """
    _check_path(q, c)
    if c.is_trivial or q.path_head(c) != q.path_tail(c):
        raise ValueError("the expansion is defined for nontrivial oriented cycles")
    v0 = q.path_tail(c)
    c_elem = AlgebraElement.from_path(q, c)
    generators = [q.trivial_path(v) for v in range(q.num_vertices)]
    generators += [q.arrow_path(a) for a in range(q.num_arrows)]
    for g in generators:
        g_elem = AlgebraElement.from_path(q, g)
        lhs = c_elem * g_elem - g_elem * c_elem
        rhs = AlgebraElement.zero(q)
        for p in q.out_arrows(v0):
            s = q.concat(c, q.arrow_path(p))
            rhs = rhs + d_rs_apply(q, p, s, g)
        for r in q.in_arrows(v0):
            s = q.concat(q.arrow_path(r), c)
            rhs = rhs - d_rs_apply(q, r, s, g)
        if lhs != rhs:
            return False
    return True


def identity_operator(q: Quiver) -> LinearOperator:
    """The identity map of kGamma."""
    return LinearOperator._of(q, {j: {j: _ONE} for j in range(len(q.paths()))})


def matrix_entry(m: RationalMatrix, i: int, j: int):
    """Entry (i, j) of ``m``; IndexError outside its shape."""
    if not 0 <= i < m.num_rows:
        raise IndexError(f"row {i} outside 0..{m.num_rows - 1}")
    if not 0 <= j < m.num_cols:
        raise IndexError(f"column {j} outside 0..{m.num_cols - 1}")
    return m._entries[i].get(j, _ZERO)


def negated(m: RationalMatrix) -> RationalMatrix:
    return RationalMatrix._of([{j: -x for j, x in r.items()} for r in m._entries], m.num_cols)


def matrix_difference(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return a + negated(b)


def echelon_rref(ech: EchelonBasis) -> RationalMatrix:
    """The unique reduced row echelon form of the span of ``ech``."""
    return RationalMatrix._of(ech._reduced(ech.pivots), ech.num_cols)


def intersect_row_spaces(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Reduced row echelon basis of rowspace(a) and rowspace(b) intersected.

    Row reduce [A | 0; B | I], row i of B tagged by a 1 in column n + i.
    A basis row whose pivot lies in the tags has a vanishing left half,
    x A + y B = 0, so it carries a y with y B in row(A), and those y span
    every such y.  The intersection is the span of their y B, returned
    in RREF.  Tagging B halves the elimination of Zassenhaus's doubled
    block [[A A], [B 0]] (zassenhaus_intersection): 25,502 entries
    touched instead of 50,365 on C_va and C_ca of the 8 x 8 grid.  It is
    the reference for the report's spacesDisjoint, which the package
    decides by checking that every face row is a circulation.
    """
    if a.num_cols != b.num_cols:
        raise DimensionMismatchError("row spaces live in different dimensions")
    n = a.num_cols
    tagged = [{**row, n + i: _ONE} for i, row in enumerate(b._entries)]
    ech = EchelonBasis.spanning(n + b.num_rows, list(a._entries) + tagged)
    # a stored row starts at its pivot, so one pivoted in the tags is [0 | y]
    ys = [{i - n: y for i, y in ech._pivot_rows[p].items()} for p in ech.pivots if p >= n]
    found = EchelonBasis.spanning(n, (RationalMatrix._of(ys, b.num_rows) * b)._entries)
    return RationalMatrix._of(found._reduced(found.pivots), n)


def zassenhaus_intersection(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """The RREF of rowspace(a) and rowspace(b) intersected, by the doubled
    block [[A A], [B 0]]: the rows whose pivot lies in the right half have
    a vanishing left half, and their right halves are the RREF of the
    intersection (Zassenhaus).  The route before intersect_row_spaces
    tagged the rows of B instead."""
    n = a.num_cols
    # the right half of [A A] is each row of A shifted n columns on
    doubled = [{**row, **{j + n: x for j, x in row.items()}} for row in a._entries]
    ech = EchelonBasis.spanning(2 * n, doubled + list(b._entries))
    found = ech._reduced([p for p in ech.pivots if p >= n])
    return RationalMatrix._of([{j - n: x for j, x in row.items()} for row in found], n)


# -- operations only tests need --------------------------------------------

def mat_vec(m, vec):
    """The product M v of a RationalMatrix and a column vector."""
    v = as_vector(vec)
    assert len(v) == m.num_cols
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m.rows)


def transpose(m):
    return RationalMatrix([[row[j] for row in m.rows] for j in range(m.num_cols)], m.num_rows)


def reference_boundary_matrix(faces) -> RationalMatrix:
    """B_gamma from dart ownership, the reference for boundary_matrix's
    N N^T: every arrow has one dart in exactly two face walks (possibly the
    same walk twice), and an arrow on two distinct faces adds 1 to both
    diagonal entries and -1 to both cross entries."""
    faces = tuple(faces)
    owner: dict[int, int] = {}
    for j, f in enumerate(faces):
        for d in f.darts:
            owner[d] = j
    rows: list[Row] = [{} for _ in faces]
    for k in range(len(owner) // 2):  # the darts of arrow k are 2k and 2k + 1
        j1, j2 = owner[2 * k], owner[2 * k + 1]
        if j1 != j2:
            # no entry cancels: diagonal ones only grow, cross ones only shrink
            for i, j in ((j1, j2), (j2, j1)):
                rows[i][i] = rows[i].get(i, 0) + _ONE
                rows[i][j] = rows[i].get(j, 0) - _ONE
    return RationalMatrix._of(rows, len(faces))


def sparse_row(vec):
    """The nonzero entries of a dense vector, as a sparse row {index: Fraction}."""
    return {j: Fraction(x) for j, x in enumerate(vec) if x}


def dense_row(row, n):
    """The sparse row {index: value} as a dense tuple of n entries, the
    values as they are and 0 elsewhere."""
    out = [0] * n
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def dense_net(face, num_arrows):
    """The net of ``face`` as a dense tuple of its ``num_arrows`` arrows'
    counts: FaceCycle.net holds only the (arrow, count) pairs of the
    arrows whose count is not zero."""
    return dense_row(dict(face.net), num_arrows)


def sparse_net(coeffs):
    """A dense coefficient vector over the arrows as a sparse net, the
    form FaceCycle.net takes: (arrow, nonzero exact coefficient) pairs in
    increasing arrow order."""
    return tuple((k, x) for k, x in enumerate(as_vector(coeffs)) if x)


def is_exact(x):
    """The coefficient contract: an int when integral, never a bool, and a
    Fraction only when it is not integral; never a float."""
    return type(x) is int or type(x) is Fraction and x.denominator != 1


def assert_sparse_row(row, n):
    """The sparse-row contract: exact nonzero entries, each an int when
    integral and a Fraction otherwise, and every index in 0..n-1."""
    assert all(is_exact(x) and x for x in row.values()), row
    assert all(type(j) is int and 0 <= j < n for j in row), (row, n)


def operator_from_coordinates(basis, coords):
    """The combination of the canonical basis operators with the given coefficients."""
    out = LinearOperator.zero(basis.quiver)
    for c, op in zip(coords, basis.operators):
        if c:
            out = out + Fraction(c) * op
    return out


def is_valid_path(q, path):
    """Whether ``path`` is a walk along the arrows of ``q`` from its base."""
    if not 0 <= path.base < q.num_vertices:
        return False
    at = path.base
    for i in path.arrows:
        if not 0 <= i < q.num_arrows or q.arrows[i].tail != at:
            return False
        at = q.arrows[i].head
    return True


def path_counts(q: Quiver) -> list[list[int]]:
    """counts[u][v] is the number of paths from u to v, the trivial path
    included when u == v, found without enumerating any path: a DP in
    reverse topological order over dense |V|-entry rows, O(|V| |E|)."""
    order = q._topological_order
    if len(order) != q.num_vertices:
        raise CyclicQuiverError("path enumeration requires an acyclic quiver")
    counts = [[0] * q.num_vertices for _ in q.vertex_names]
    for u in reversed(order):
        row = counts[u]
        row[u] = 1
        for i in q.out_arrows(u):
            for v, c in enumerate(counts[q.arrows[i].head]):
                row[v] += c
    return counts


def reference_edge_pairs(q: Quiver) -> list[tuple[int, Path]]:
    """Every arrow r with every path s parallel to it, in (arrow, path) order."""
    return [(r, s) for r in range(q.num_arrows) for s in q.parallel_paths(q.arrow_path(r))]


def longest_path_length(q):
    return max(len(p) for p in q.paths())


def mirror(rot):
    """The same embedding with reversed handedness."""
    return RotationSystem(rot.quiver, [tuple(reversed(o)) for o in rot.orders])


def fraction_leibniz_rows(q):
    """The oracle's Leibniz equations, built the way the oracle built
    them before it kept integer rows: one row per line, scaled by
    Fractions to a leading coefficient of 1, with a concat call for
    every product."""
    paths = q.paths()
    n = len(paths)
    idx = q.path_index
    rows = set()
    for jx, x in enumerate(paths):
        for jy, y in enumerate(paths):
            per_w = {}
            for ju, u in enumerate(paths):
                w = q.concat(u, y)
                if w is not None:
                    d = per_w.setdefault(idx(w), {})
                    key = ju * n + jx
                    d[key] = d.get(key, 0) + 1
                w = q.concat(x, u)
                if w is not None:
                    d = per_w.setdefault(idx(w), {})
                    key = ju * n + jy
                    d[key] = d.get(key, 0) + 1
            z = q.concat(x, y)
            if z is not None:
                jz = idx(z)
                for wi in range(n):
                    d = per_w.setdefault(wi, {})
                    key = wi * n + jz
                    d[key] = d.get(key, 0) - 1
            for d in per_w.values():
                entries = sorted((u, c) for u, c in d.items() if c)
                if entries:
                    lead = Fraction(entries[0][1])
                    rows.add(tuple((u, Fraction(c) / lead) for u, c in entries))
    return rows


def sparse_kernel(rows, num_cols):
    """A kernel basis of sparse rows [(column, value), ...], one vector
    per free column, as the rows of a matrix.

    Plain Gauss-Jordan on dicts of Fractions, sharing no code with
    linalg's elimination: every stored row has a 1 at its pivot and a
    0 at every other pivot.  The vector of a free column f has a 1 at f
    and minus the pivot rows' entries at f on the pivots.
    """
    pivots = {}
    for row in rows:
        v = {u: Fraction(c) for u, c in row if c}
        for p in [u for u in v if u in pivots]:
            c = v[p]
            for u, x in pivots[p].items():
                y = v.get(u, 0) - c * x
                if y:
                    v[u] = y
                else:
                    v.pop(u, None)
        if not v:
            continue
        p = min(v)
        lead = v[p]
        v = {u: x / lead for u, x in v.items()}
        for other in pivots.values():
            c = other.get(p)
            if c:
                for u, x in v.items():
                    y = other.get(u, 0) - c * x
                    if y:
                        other[u] = y
                    else:
                        other.pop(u, None)
        pivots[p] = v
    kernel = []
    for f in range(num_cols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * num_cols
        vec[f] = Fraction(1)
        for p, prow in pivots.items():
            if f in prow:
                vec[p] = -prow[f]
        kernel.append(vec)
    return RationalMatrix(kernel, num_cols)


# -- the oracle's route before it streamed its equations ------------------------
# leibniz_row_set and row_set_kernel are the oracle's _leibniz_rows and
# _row_kernel as they were when every equation went through a dict, a sort,
# a gcd and a set, kept unchanged (itertools.chain spelt out, as chain here
# builds a quiver) as the reference the streamed route is compared with.

def leibniz_row_set(q: Quiver) -> set[tuple[tuple[int, int], ...]]:
    """The oracle's equations, as sparse primitive integer rows: sorted
    (unknown, coefficient) pairs over their gcd, the first one positive,
    so that equations that are multiples of one another are one row.

    Unknown u n + j is d[u, j].  The equation of (x, y, w) sums d[u, x]
    over u p_y = w (by_head[y]) and d[v, y] over p_x v = w (by_tail[x]),
    less d[w, xy] when p_x p_y is not zero.  A single-unknown equation
    only adds its unknown to a set of zeros, written as rows at the end.
    Where neither sum has a term the equation is d[w, xy] = 0; such a w
    misses the w-set of some equation with product p_x p_y = p_z, so
    those zeros are added once per z, off the intersection of its w-sets.
    When p_x p_y = 0 the equations are read off the factorizations of w,
    and only those with two unknowns, each with coefficient 1, are
    written: d[u, x] = 0 alone is also the equation of (x, e_h(x), u),
    and d[v, y] = 0 alone that of (e_t(y), y, v).  Their two unknowns
    differ, as p_x u = u p_x would be a cycle.
    """
    product = q.products()
    n = len(product)
    by_tail = [{w: u for u, w in row.items()} for row in product]
    by_head: list[dict[int, int]] = [{} for _ in range(n)]
    factors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, row in enumerate(product):
        for y, w in row.items():
            by_head[y][w] = u
            factors[w].append((u, y))
    zeros: set[int] = set()
    # for each product path z, the w in the equations of every p_x p_y = p_z
    touched: dict[int, set[int]] = {}
    rows: set[tuple[tuple[int, int], ...]] = set()
    for jx, row in enumerate(product):
        for jy, jz in row.items():
            per_w = {w: {u * n + jx: 1} for w, u in by_head[jy].items()}
            for w, v in by_tail[jx].items():
                d = per_w.setdefault(w, {})
                d[v * n + jy] = d.get(v * n + jy, 0) + 1
            if jz in touched:
                touched[jz].intersection_update(per_w)
            else:
                touched[jz] = set(per_w)
            for w, d in per_w.items():
                d[w * n + jz] = d.get(w * n + jz, 0) - 1
                entries = sorted((u, c) for u, c in d.items() if c)
                if len(entries) == 1:
                    zeros.add(entries[0][0])
                elif entries:
                    g = gcd(*(c for _, c in entries))
                    if entries[0][1] < 0:
                        g = -g
                    rows.add(tuple((u, c // g) for u, c in entries))
    for pairs in factors:  # w = p_x v = u p_y with p_x p_y = 0
        for x, v in pairs:
            for u, y in pairs:
                if y not in product[x]:
                    k, m = u * n + x, v * n + y
                    rows.add(((k, 1), (m, 1)) if k < m else ((m, 1), (k, 1)))
    # d[w, z] = 0 alone is the equation of any p_x p_y = p_z whose w-set misses w
    for jz, ws in touched.items():
        zeros.update(w * n + jz for w in range(n) if w not in ws)
    rows.update(((u, 1),) for u in zeros)
    return rows



def row_set_kernel(rows, num_unknowns: int) -> Iterator[Row]:
    """Yield a basis of the solutions of ``rows``, each a row of (unknown,
    nonzero int) pairs over the unknowns 0 .. num_unknowns - 1; a solution
    is a Row {unknown: coefficient}, 1 at its least unknown.  A signed union-find
    (Tarjan, J. ACM 22, 1975) takes the rows d[u] = 0 and d[u] = +-d[v],
    rewriting every row on the class roots until none shrinks to one of
    those; a class whose signs disagree around a cycle then has a row
    2 d[root] = 0.  Only the rows left go through RationalMatrix.kernel,
    and each solution is read back through the classes."""
    # d[u] = sign[u] d[parent[u]]; a root is the least unknown of its class
    parent, sign, zero = list(range(num_unknowns)), [1] * num_unknowns, set()

    def find(u: int) -> tuple[int, int]:
        s = 1
        while parent[u] != u:  # halving the path: each u on it skips a level
            p = parent[u]
            parent[u], sign[u] = parent[p], sign[u] * sign[p]
            s *= sign[u]
            u = parent[u]
        return u, s

    longer, shrunk = rows, True
    while shrunk:
        shrunk, left, longer = False, longer, []
        for row in left:
            if len(row) == 1:  # d[u] = 0 as written
                u = row[0][0]
                zero.add(u if parent[u] == u else find(u)[0])
                shrunk = True
                continue
            acc: dict[int, int] = {}
            for u, c in row:
                if parent[u] != u:
                    u, s = find(u)
                    c *= s
                if u not in zero:
                    acc[u] = acc.get(u, 0) + c
            entries = [(r, c) for r, c in acc.items() if c]
            if len(entries) > 2 or len(entries) == 2 and abs(entries[0][1]) != abs(entries[1][1]):
                longer.append(entries)
            elif len(entries) == 2:
                (v, a), (u, b) = sorted(entries)  # a d[v] + b d[u] = 0 with v < u
                parent[u], sign[u], shrunk = v, -a // b, True
            elif entries:
                zero.add(entries[0][0])
                shrunk = True
    roots = sorted({r for row in longer for r, _ in row})
    column = {r: k for k, r in enumerate(roots)}
    solutions = []
    if longer:
        matrix = [{column[r]: c for r, c in row} for row in longer]
        kernel = RationalMatrix._of(matrix, len(roots)).kernel()._entries
        solutions = [{roots[k]: x for k, x in row.items()} for row in kernel]
    free, members = [], {}  # the roots in no row left, and the rest of each class
    for u in range(num_unknowns):  # parent[u] < u points at its root already
        r = parent[u]
        if r == u:
            if u not in zero and u not in column:
                free.append(u)
        else:
            parent[u], sign[u] = parent[r], sign[u] * sign[r]
            members.setdefault(parent[u], []).append((u, sign[u]))
    for solution in itertools.chain(solutions, ({r: _ONE} for r in free)):
        for r in [r for r in solution if r in members]:
            x = solution[r]
            solution.update((u, x if s == 1 else -x) for u, s in members[r])
        yield solution



def row_set_oracle(q: Quiver) -> list[LinearOperator]:
    """derivation_space_oracle(q) by the row-set route, cap lifted."""
    n = len(q.paths())
    operators = []
    for solution in row_set_kernel(leibniz_row_set(q), n * n):
        images: dict[int, Row] = {}
        for u, x in solution.items():
            images.setdefault(u % n, {})[u // n] = x
        operators.append(LinearOperator._of(q, images))
    return operators


def operator_inner_subspace(q, basis):
    """The inner subspace by the operator route: the coordinates in
    ``basis``, the canonical basis of q, of the operator D_p of every
    basis path p, read by DerivationBasis.coordinates_of."""
    rows = []
    for p in q.paths():
        coords = basis.coordinates_of(inner_derivation(q, p))
        if coords is None:
            raise AssertionError(
                f"inner derivation of {q.path_display(p)} falls outside the canonical span"
            )
        rows.append(coords)
    return RationalMatrix(rows, num_cols=len(basis))


def representative_operators(q, hb):
    """Each HH1 representative of ``hb`` as an operator built from its
    label: D_{r,s} for AL(r, s), the face derivation for Face(f), and
    D_{k,k} for Extra(k)."""
    ops = []
    for label in hb.labels:
        if label.kind == "al":
            ops.append(d_rs(q, label.arrow, label.path))
        elif label.kind == "face":
            ops.append(face_derivation(q, hb.faces[label.face]))
        else:
            ops.append(d_rs(q, label.arrow, q.arrow_path(label.arrow)))
    return ops


class ReferenceHH1:
    """HH1 by the operator route, with none of the edge-pair shortcuts.

    The representatives are operators built from the library's labels
    (representative_operators).  Each one's canonical coordinates must be
    exactly the EdgePair combination the library wrote for it.  A class
    is found by reading an operator's coordinates in the canonical basis
    (DerivationBasis.coordinates_of) and solving them against the
    representatives' coordinates modulo operator_inner_subspace, on dim Der
    columns.
    Brackets are sparse operator brackets, and each eigenvalue comes from
    adjoint_eigenvalue, which checks its identity on operators.
    """

    def __init__(self, q, rot, outer=None):
        self.basis = hb = hh1_basis(q, rot, outer)
        ops = representative_operators(q, hb)
        for label, op, pairs in zip(hb.labels, ops, hb.edge_pairs):
            expected = {DerivationLabel("edge_pair", r, s): c for (r, s), c in pairs.items()}
            assert canonical_coordinates(q, op) == expected, label.display(q)
        self.derivations = canonical_basis(q)
        self.inner = operator_inner_subspace(q, self.derivations)
        reps = RationalMatrix(
            [self.derivations.coordinates_of(op) for op in ops], len(self.derivations)
        )
        self.solver = LinearSolver(self.inner, reps)
        # a rank count, so the check does not rest on the solver it feeds
        self.independent = (
            RationalMatrix.stack(self.inner, reps).rank() == self.inner.rank() + len(ops)
        )
        self.brackets = tuple(
            (i, j, self.coset(ops[i].bracket(ops[j])))
            for i in range(len(ops))
            for j in range(i + 1, len(ops))
        )
        # the verdicts below read dense coordinates
        table = {(i, j): dense_row(coords, len(ops)) for i, j, coords in self.brackets}
        kinds = [label.kind for label in hb.labels]
        al = [i for i, kind in enumerate(kinds) if kind == "al"]
        face = [i for i, kind in enumerate(kinds) if kind == "face"]
        self.eigenvalues = tuple(
            (i, j, adjoint_eigenvalue(
                q, hb.faces[hb.labels[j].face], hb.labels[i].arrow, hb.labels[i].path
            ))
            for i in al
            for j in face
        )
        self.faces_commute = all(not any(table[i, j]) for i in face for j in face if i < j)
        # AL members come before faces, so [b_j, b_i] = -table[i, j]
        self.face_acts_diagonally = all(
            table[i, j] == tuple(-lam if k == i else 0 for k in range(len(ops)))
            for i, j, lam in self.eigenvalues
        )
        self.al_brackets_in_al_span = all(
            not any(x for k, x in enumerate(table[i, j]) if k not in al)
            for i in al
            for j in al
            if i < j
        )

    def coset(self, op):
        """HH1 coordinates of op as a sparse row, or None outside the
        derivation span."""
        coords = self.derivations.coordinates_of(op)
        if coords is None:
            return None
        return self.solver.solve(sparse_row(coords))


# -- the per-pair derivation checks, as they were before q.products() --------
# Kept verbatim as references for is_derivation and
# check_coefficient_conditions: an AlgebraElement product per basis pair,
# and op.matrix read cell by cell.

def reference_is_derivation(op: LinearOperator) -> bool:
    """Leibniz rule on all basis pairs, zero products included."""
    q = op.quiver
    paths = q.paths()
    elems = [AlgebraElement.from_path(q, p) for p in paths]
    images = [op.apply(p) for p in paths]
    zero = AlgebraElement.zero(q)
    for i, x in enumerate(paths):
        for j, y in enumerate(paths):
            xy = q.concat(x, y)
            lhs = op.apply(xy) if xy is not None else zero
            if lhs != images[i] * elems[j] + elems[i] * images[j]:
                return False
    return True


def reference_coefficient_conditions(op: LinearOperator) -> list[ConditionViolation]:
    """Structured derivation conditions on the coefficient level.

    Checks, coefficient by coefficient, the four families equivalent to
    the Leibniz rule: the image of a vertex idempotent is supported on
    acyclic paths through that vertex; those coefficients at head and
    tail sum to zero; the image of a nontrivial path p consists of the
    terms forced by the vertex images (q.p and p.q) plus free terms
    parallel to p; and for every factorization p = p1 p2 the parallel
    coefficients are consistent with those of the factors.  The list is
    empty exactly when the operator is a derivation.
    """
    q = op.quiver
    paths = q.paths()
    m = op.matrix
    idx = q.path_index
    violations = []
    disp = q.path_display

    trivial = [p for p in paths if p.is_trivial]
    nontrivial = [p for p in paths if not p.is_trivial]
    acyclic = [p for p in nontrivial if q.path_head(p) != q.path_tail(p)]

    # images of vertex idempotents live on acyclic paths touching the vertex
    for v in trivial:
        col = idx(v)
        for w in paths:
            c = matrix_entry(m, idx(w), col)
            if c == 0:
                continue
            touches = q.path_tail(w) == v.base or q.path_head(w) == v.base
            if w.is_trivial or q.path_head(w) == q.path_tail(w) or not touches:
                violations.append(
                    ConditionViolation(
                        RULE_VERTEX_SUPPORT,
                        f"D({disp(v)}) has coefficient {c} on {disp(w)}",
                    )
                )

    # for each acyclic path, the coefficients in the head and tail
    # vertex images must cancel
    for w in acyclic:
        total = matrix_entry(m, idx(w), idx(Path(q.path_tail(w)))) + matrix_entry(
            m, idx(w), idx(Path(q.path_head(w)))
        )
        if total != 0:
            violations.append(
                ConditionViolation(
                    RULE_VERTEX_PAIR,
                    f"coefficients of {disp(w)} at its endpoints sum to {total}",
                )
            )

    # image of a nontrivial path: forced prefix/suffix terms plus free
    # parallel terms, nothing else
    for p in nontrivial:
        col = idx(p)
        tail, head = q.path_tail(p), q.path_head(p)
        forced: dict[int, Fraction] = {}
        for w in acyclic:
            if q.path_head(w) == tail:
                forced_path = q.concat(w, p)
                c = matrix_entry(m, idx(w), idx(Path(tail)))
                if forced_path is not None:
                    k = idx(forced_path)
                    forced[k] = forced.get(k, _ZERO) + c
            if q.path_tail(w) == head:
                forced_path = q.concat(p, w)
                c = matrix_entry(m, idx(w), idx(Path(head)))
                if forced_path is not None:
                    k = idx(forced_path)
                    forced[k] = forced.get(k, _ZERO) + c
        for w in paths:
            if q.path_tail(w) == tail and q.path_head(w) == head:
                continue  # parallel coefficients are free here
            actual = matrix_entry(m, idx(w), col)
            expected = forced.get(idx(w), _ZERO)
            if actual != expected:
                violations.append(
                    ConditionViolation(
                        RULE_PATH_FORCED,
                        f"D({disp(p)}) has coefficient {actual} on {disp(w)},"
                        f" the vertex images force {expected}",
                    )
                )

    # factorization consistency across every split p = p1 p2
    for p in nontrivial:
        if len(p) < 2:
            continue
        col = idx(p)
        for k in range(1, len(p)):
            p1 = Path(p.base, p.arrows[:k])
            p2 = Path(q.path_head(p1), p.arrows[k:])
            c1, c2 = idx(p1), idx(p2)
            for w in q.parallel_paths(p):
                starts = len(w) >= k and w.arrows[:k] == p1.arrows
                ends = len(w) >= len(p) - k and (
                    w.arrows[len(w) - (len(p) - k) :] == p2.arrows
                )
                expected = _ZERO
                if ends:
                    w1 = Path(w.base, w.arrows[: len(w) - (len(p) - k)])
                    expected += matrix_entry(m, idx(w1), c1)
                if starts:
                    w2 = Path(q.path_head(p1), w.arrows[k:])
                    expected += matrix_entry(m, idx(w2), c2)
                actual = matrix_entry(m, idx(w), col)
                if actual != expected:
                    violations.append(
                        ConditionViolation(
                            RULE_FACTOR,
                            f"coefficient of {disp(w)} in D({disp(p)}) is {actual}"
                            f" but the split {disp(p1)}|{disp(p2)} forces {expected}",
                        )
                    )
    return violations


# -- the all-pairs bracket checks, as they were before the support test ----
# Kept as references for verify_bracket_identities and
# inner_edge_bracket_sign: two matrix products for every ordered pair
# of members, and a sparse bracket for every (path, edge pair).  The
# edge-edge right side extends D_{r,s} bilinearly in s with
# reference_d_rs_element, so it does not run _bracket_pairs.  They
# look the constructors up in this module: a test that patches one in
# quiverdiff.derivations patches it here as well.

def reference_verify_bracket_identities(q: Quiver) -> dict[str, bool]:
    """Spot-check the closed bracket formulas against matrix brackets.

    inner_inner: [D_p, D_r] is the inner derivation of the commutator pr - rp
    for all basis path pairs.  edge_edge: [D_{r,s}, D_{p,q}] equals
    D_{p, D_{r,s}(q)} - D_{r, D_{p,q}(s)}, the second slot extended
    bilinearly, for all edge pairs.  The left-hand sides are
    RationalMatrix products AB - BA of the operators' matrices, which
    share no code with the sparse LinearOperator.bracket, so they check
    it independently.
    """
    paths = q.paths()
    inner = [(inner_derivation(q, p).matrix, AlgebraElement.from_path(q, p)) for p in paths]
    # most pairs of paths commute; their right-hand side is one shared zero
    zero = RationalMatrix.zeros(len(paths), len(paths))

    def inner_rhs(x: AlgebraElement, y: AlgebraElement) -> RationalMatrix:
        commutator = x.commutator(y)
        return zero if commutator.is_zero else inner_derivation(q, commutator).matrix

    def edge_rhs(r: int, s: Path, p: int, t: Path) -> RationalMatrix:
        left, right = d_rs_apply(q, r, s, t), d_rs_apply(q, p, t, s)
        return (reference_d_rs_element(q, p, left) - reference_d_rs_element(q, r, right)).matrix

    pairs = [(r, s, d_rs(q, r, s).matrix) for r, s in q.edge_pairs()]
    return {
        "inner_inner": all(
            matrix_difference(a * b, b * a) == inner_rhs(x, y) for a, x in inner for b, y in inner
        ),
        "edge_edge": all(
            matrix_difference(a * b, b * a) == edge_rhs(r, s, p, t)
            for r, s, a in pairs
            for p, t, b in pairs
        ),
    }


def reference_inner_edge_bracket_sign(q: Quiver) -> int | None:
    """The global sign in [D_p, D_{r,s}] = sign * D_{D_{r,s}(p)}.

    Computed empirically over every acyclic path p and every edge pair
    (r, s) of the quiver; raises when the instances disagree or when a
    bracket is not proportional to the predicted inner derivation.
    Returns None when every instance degenerates to zero.
    """
    edge_ops = [(r, s, d_rs(q, r, s)) for r, s in q.edge_pairs()]
    signs = set()
    for p in q.acyclic_paths():
        dp = inner_derivation(q, p)
        for r, s, op in edge_ops:
            br = dp.bracket(op)
            target = inner_derivation(q, d_rs_apply(q, r, s, p))
            if target.is_zero:
                if not br.is_zero:
                    raise InternalCheckError(
                        "bracket with an edge pair is nonzero on a central image"
                    )
            elif br == target:
                signs.add(1)
            elif br == -target:
                signs.add(-1)
            else:
                raise InternalCheckError(
                    "bracket is not proportional to the inner derivation of the image"
                )
    if len(signs) > 1:
        raise InternalCheckError("bracket sign is not globally consistent")
    return signs.pop() if signs else None


# -- the per-path operators, as they were before the sparse rows -------------
# Kept verbatim as references for LinearOperator and its constructors: one
# AlgebraElement per basis path, zeros included, and the matrix, sums,
# scalar multiples and brackets read off those elements.  The closed forms
# on a single path are _inner_terms, which concatenates the paths the
# library reads off its product table, and _splices, a copy of the
# library's, so a defect in the library's own shows up against them.

class ReferenceOperator:
    """A linear self-map of kGamma, stored as the images of the basis paths.

    ``images[j]`` is the sparse image of the j-th canonical basis path;
    ``matrix`` builds the matrix (column j = images[j]) on each read.
    Build one with ``from_images`` (a function basis path ->
    AlgebraElement), ``zero`` or ``identity``; sums, scalar multiples and
    brackets of operators are operators again.
    """

    __slots__ = ("quiver", "images")

    @classmethod
    def _of(cls, quiver: Quiver, images) -> "ReferenceOperator":
        op = cls.__new__(cls)
        op.quiver = quiver
        op.images = tuple(images)
        return op

    @classmethod
    def zero(cls, quiver: Quiver) -> "ReferenceOperator":
        return cls._of(quiver, [AlgebraElement.zero(quiver)] * len(quiver.paths()))

    @classmethod
    def identity(cls, quiver: Quiver) -> "ReferenceOperator":
        return cls._of(quiver, [AlgebraElement.from_path(quiver, p) for p in quiver.paths()])

    @classmethod
    def from_images(cls, quiver: Quiver, image) -> "ReferenceOperator":
        """Build an operator from a function basis path -> AlgebraElement."""
        return cls._of(quiver, [image(p) for p in quiver.paths()])

    @property
    def matrix(self) -> RationalMatrix:
        q = self.quiver
        n = len(self.images)
        # the coefficients of an element are nonzero and exact already
        rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for j, img in enumerate(self.images):
            for p, c in img._terms.items():
                rows[q.path_index(p)][j] = c
        return RationalMatrix._of(rows, n)

    def _zip(self, other: "ReferenceOperator", combine) -> "ReferenceOperator":
        if self.quiver is not other.quiver and self.quiver != other.quiver:
            raise QuiverMismatchError("operators live over different quivers")
        return ReferenceOperator._of(self.quiver, map(combine, self.images, other.images))

    def apply(self, a: AlgebraElement | Path) -> AlgebraElement:
        q = self.quiver
        if isinstance(a, Path):
            return self.images[q.path_index(a)]
        if q is not a.quiver and q != a.quiver:
            raise QuiverMismatchError("operator and element live over different quivers")
        acc: dict[Path, Fraction] = {}
        for p, c in a._terms.items():
            for w, x in self.images[q.path_index(p)]._terms.items():
                acc[w] = acc.get(w, _ZERO) + c * x
        return AlgebraElement._of(q, {w: c for w, c in acc.items() if c})

    def bracket(self, other: "ReferenceOperator") -> "ReferenceOperator":
        # column j of [A, B] is A(B(p_j)) - B(A(p_j))
        return self._zip(other, lambda a, b: self.apply(b) - other.apply(a))

    def __add__(self, other: "ReferenceOperator") -> "ReferenceOperator":
        return self._zip(other, operator.add)

    def __sub__(self, other: "ReferenceOperator") -> "ReferenceOperator":
        return self._zip(other, operator.sub)

    def __neg__(self) -> "ReferenceOperator":
        return ReferenceOperator._of(self.quiver, [-a for a in self.images])

    def __rmul__(self, scalar) -> "ReferenceOperator":
        if isinstance(scalar, Rational):
            return ReferenceOperator._of(self.quiver, [scalar * a for a in self.images])
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.images)

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(x for row in self.matrix.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, ReferenceOperator):
            return NotImplemented
        return self.quiver == other.quiver and self.images == other.images

    def __repr__(self):
        return f"ReferenceOperator({len(self.images)}x{len(self.images)})"


def _inner_terms(q: Quiver, terms, p: Path) -> list[tuple[Path, Fraction]]:
    """The terms of D_a(p) = sum of c (wp - pw) over the terms (w, c) of a."""
    out = []
    for w, c in terms:
        left, right = q.concat(w, p), q.concat(p, w)
        if left is not None:
            out.append((left, c))
        if right is not None:
            out.append((right, -c))
    return out


def _splices(r: int, s: Path, p: Path) -> list[Path]:
    """The paths got from p by replacing one occurrence of the arrow r with
    the path s parallel to r, once per occurrence: D_{r,s}(p) is their sum."""
    a = p.arrows
    return [Path(p.base, a[:i] + s.arrows + a[i + 1 :]) for i, x in enumerate(a) if x == r]


def reference_inner_derivation(q: Quiver, a: Path | AlgebraElement) -> ReferenceOperator:
    """The inner derivation b -> ab - ba."""
    if isinstance(a, Path):
        a = AlgebraElement.from_path(q, a)
    elif a.quiver is not q and a.quiver != q:
        raise QuiverMismatchError("element lives over a different quiver")
    terms = a._terms.items()
    return ReferenceOperator.from_images(q, lambda p: AlgebraElement(q, _inner_terms(q, terms, p)))


def reference_d_rs(q: Quiver, r: int | str, s: Path) -> ReferenceOperator:
    """D_{r,s} as an operator on the path basis (acyclic quivers only)."""
    if isinstance(r, str):
        r = q.arrow_index(r)
    return ReferenceOperator.from_images(
        q, lambda p: AlgebraElement(q, [(u, _ONE) for u in _splices(r, s, p)])
    )


def reference_d_rs_element(q: Quiver, r: int | str, elem: AlgebraElement) -> ReferenceOperator:
    """Bilinear extension of d_rs in its second slot.

    Each basis path maps to the sum of its splices by the terms of
    ``elem``; terms that are not parallel to r contribute nothing.
    """
    if isinstance(r, str):
        r = q.arrow_index(r)
    arrow = q.arrows[r]
    terms = [
        (s, c)
        for s, c in elem._terms.items()
        if q.path_tail(s) == arrow.tail and q.path_head(s) == arrow.head
    ]
    return ReferenceOperator.from_images(
        q, lambda p: AlgebraElement(q, [(u, c) for s, c in terms for u in _splices(r, s, p)])
    )


def reference_face_derivation(q: Quiver, face) -> ReferenceOperator:
    """The signed sum of arrow-rescaling derivations along a face.

    Accepts a FaceCycle, read through its dense net, or a bare coefficient
    vector over the arrows; coefficient a_k multiplies the edge derivation
    D_{k,k}, which multiplies each path by the number of times it runs
    along arrow k.  The sum is therefore diagonal on paths, p -> (sum of
    a_x over the arrows x of p) p, and is built that way in one pass.
    """
    coeffs = dense_net(face, q.num_arrows) if isinstance(face, FaceCycle) else tuple(face)
    if len(coeffs) != q.num_arrows:
        raise ValueError(f"expected {q.num_arrows} face coefficients")
    weights = [Fraction(a) for a in coeffs]
    return ReferenceOperator.from_images(
        q, lambda p: AlgebraElement.from_path(q, p, sum(weights[x] for x in p.arrows))
    )
