"""Shared test utilities: fixture loading, seeded random generators, the
planar checkerboard grid, small operations only tests need (sparse rows
among them), the library functions that only tests call (quiver file
text, the dense operator constructor, the checked adjoint eigenvalue,
the stacked connection matrix and the greedy quotient complement), the
HH1 representatives as operators, and the operator routes to the inner
subspace and to the HH1 structure table as independent references."""

import random
from fractions import Fraction
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
    DerivationLabel,
    LinearOperator,
    canonical_basis,
    canonical_coordinates,
    d_rs,
    inner_derivation,
)
from quiverdiff.errors import InternalCheckError, NotAlmostCycleError
from quiverdiff.linalg import (
    _ONE,
    _ZERO,
    EchelonBasis,
    LinearSolver,
    RationalMatrix,
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


def checkerboard_grid(k):
    """k x k grid, every arrow from a vertex with i + j even to one with
    i + j odd, darts in counter-clockwise order: a planar embedding."""
    name = "v{}_{}".format
    vertices = [name(i, j) for i in range(k) for j in range(k)]
    arrows, around = [], {v: [] for v in vertices}
    for i in range(k):
        for j in range(k):
            # (step, position of the dart at each end in east, north, west, south)
            for di, dj, pos in ((0, 1, 0), (1, 0, 1)):
                if i + di == k or j + dj == k:
                    continue
                u, w, u_pos, w_pos = name(i, j), name(i + di, j + dj), pos, pos + 2
                if (i + j) % 2:
                    u, w, u_pos, w_pos = w, u, w_pos, u_pos
                a = len(arrows)
                arrows.append((f"a{a}", u, w))
                around[u].append((u_pos, dart(a, TAIL)))
                around[w].append((w_pos, dart(a, HEAD)))
    q = Quiver(vertices, arrows, name=f"grid{k}")
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
    paths = quiver.paths()
    n = len(paths)
    if matrix.num_rows != n or matrix.num_cols != n:
        raise ValueError(f"operator matrix must be {n}x{n}")
    images = [{} for _ in range(n)]
    for w, row in zip(paths, matrix._entries):
        for j, c in row.items():
            images[j][w] = c
    return LinearOperator._of(quiver, [AlgebraElement._of(quiver, t) for t in images])


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
    coeffs = face.net if isinstance(face, FaceCycle) else tuple(face)
    lam = _eigenvalue(coeffs, r, s)
    op = d_rs(q, r, s)
    if face_derivation(q, coeffs).bracket(op) != lam * op:
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


# -- operations only tests need --------------------------------------------

def mat_vec(m, vec):
    """The product M v of a RationalMatrix and a column vector."""
    v = as_vector(vec)
    assert len(v) == m.num_cols
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m.rows)


def transpose(m):
    return RationalMatrix([[row[j] for row in m.rows] for j in range(m.num_cols)], m.num_rows)


def sparse_row(vec):
    """The nonzero entries of a dense vector, as a sparse row {index: Fraction}."""
    return {j: Fraction(x) for j, x in enumerate(vec) if x}


def dense_row(row, n):
    """The sparse row {index: value} as a dense tuple of n Fractions."""
    out = [Fraction(0)] * n
    for j, x in row.items():
        out[j] = Fraction(x)
    return tuple(out)


def assert_sparse_row(row, n):
    """The sparse-row contract: exact Fraction entries, no stored zero, and
    every index in 0..n-1."""
    assert all(type(x) is Fraction and x for x in row.values()), row
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
