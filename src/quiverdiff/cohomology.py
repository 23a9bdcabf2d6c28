"""Relation matrices, rank theorems, and the structure of HH1.

The edge derivations D_{p,p} (one per arrow) are linearly independent,
so the span of the vertex derivations and the span of the face
derivations both live inside k^E and all rank statements reduce to
integer matrices: C_va expresses each vertex derivation over the edge
basis, C_ca each face derivation, and B_gamma records how faces share
arrows.  On top of those, this module assembles the quotient HH1 =
derivations modulo inner derivations: its dimension (counted three
independent ways), a labeled basis of coset representatives, and the
bracket structure constants with the face eigenvalues.

HH1 is computed on edge-pair labels, following the semidirect sum
decomposition Der / Inn = (almost oriented cycles) + k^E / row(C_va).
Every representative is a sparse combination of EdgePair(r, s) labels,
written straight from its label; brackets follow from [D_{r,s}, D_{p,t}]
= D_{p, D_{r,s}(t)} - D_{r, D_{p,t}(s)}, spliced on single paths by
derivations._bracket_pairs, which --verify checks against matrix products.
The quotient by Inn is one solve on |E| columns, by a solver built on the
first solve; independence needs none: closed faces and one face rank.  A
class is a sparse row {slot: coefficient}, so a zero bracket costs nothing.
No operator, algebra element, canonical basis or inner subspace is built
on that path; operators appear only in HH1Basis.coset_coordinates and the
tests.  The face eigenvalues come from the net-coefficient formula.
"""

from __future__ import annotations

import functools
from collections import Counter, namedtuple

from . import derivations
from .embedding import FaceCycle, RotationSystem, surface_genus
from .errors import CyclicQuiverError, DisconnectedError, InternalCheckError
from .linalg import _ONE, EchelonBasis, LinearSolver, RationalMatrix, Row, Scalar, _merged
from .quiver import Path, Quiver


def _require_connected_acyclic(q: Quiver) -> None:
    if not q.num_vertices:
        # an empty quiver is not connected; name the reason surface_genus gives
        raise DisconnectedError("genus is defined for quivers with at least one vertex")
    if not q.is_acyclic():
        raise CyclicQuiverError("the quiver contains a directed cycle")
    if not q.is_connected():
        raise DisconnectedError("the quiver is not connected")


# ----------------------------------------------------------------------
# relation matrices


def vertex_arrow_matrix(q: Quiver) -> RationalMatrix:
    """|V| x |E| matrix of the vertex derivations over the edge basis.

    D_v rescales each arrow by +1 when it leaves v and -1 when it
    enters v, so row v is the signed incidence vector of v.
    """
    _require_connected_acyclic(q)
    rows = [{} for _ in range(q.num_vertices)]
    # acyclic, so no arrow is a loop and its two ends are distinct rows
    for k, a in enumerate(q.arrows):
        rows[a.tail][k] = _ONE
        rows[a.head][k] = -_ONE
    return RationalMatrix._of(rows, q.num_arrows)


def cycle_arrow_matrix(q: Quiver, faces) -> RationalMatrix:
    """|F| x |E| matrix whose row j is the net of face j, its sparse
    (arrow, count) pairs taken as they are."""
    return RationalMatrix._of([dict(f.net) for f in faces], q.num_arrows)


def boundary_matrix(faces) -> RationalMatrix:
    """Face-by-face arrow sharing counts, B_gamma = N N^T for N the matrix
    of face nets, as wide as the arrows on them.

    A net counts +1 for an arrow's tail dart and -1 for its head dart on
    the walk, and every dart lies on exactly one walk.  So diagonal entry
    i counts the arrows with exactly one dart on face i, entry (i, j) is
    minus the number shared by faces i and j, and each row sums to zero.
    """
    nets = [dict(f.net) for f in faces]
    n = RationalMatrix._of(nets, 1 + max((k for net in nets for k in net), default=-1))
    return n * n.transpose()


def _open_face(q: Quiver, faces) -> str | None:
    """What is wrong with the first face that is no closed walk, at its least vertex, or None.
    Face j's balance at v, its net counted + at tails and - at heads, is C_ca C_va^T at (j, v)."""
    for j, f in enumerate(faces):
        balance: Counter = Counter()
        for k, x in f.net:
            balance[q.arrows[k].tail] += x
            balance[q.arrows[k].head] -= x
        v = min((u for u, b in balance.items() if b), default=None)
        if v is not None:
            name = q.vertex_names[v]
            return f"face {j} is not a closed walk: its net is off by {balance[v]} at vertex {name}"


# ----------------------------------------------------------------------
# the combinatorial report


_REPORT_FIELDS = """num_vertices num_arrows num_faces genus dim_dv dim_de dim_df dim_sum
    c_va c_ca c_gamma b_gamma rank_c_va rank_c_ca rank_c_gamma rank_b_gamma
    rank_theorems_hold spaces_disjoint euler_holds faces_sum_to_zero faces"""


class CombinatorialReport(namedtuple("CombinatorialReport", _REPORT_FIELDS)):
    """Dimensions, matrices (c_*, b_gamma), ranks, and theorem verdicts in one place.

    Every verdict is recomputable from the stored matrices.  rank_b_gamma
    is rank_c_ca, as B_gamma = C_ca C_ca^T (see combinatorial_report);
    no other rank or verdict is assumed in the computation of another.
    """

    __slots__ = ()


def combinatorial_report(q: Quiver, rot: RotationSystem) -> CombinatorialReport:
    """Compute all relation matrices and check the rank and Euler laws.

    Verdicts are reported, not raised: a false verdict on valid input
    would falsify a theorem, and the caller decides how loudly to fail.
    The vertex and face spaces are disjoint: a face row c is the net of a
    closed walk, so C_va c = 0 (cuts are orthogonal to cycles; Biggs,
    Algebraic Graph Theory, 1993), and over Q a vector x in both spaces
    has x . x = 0.  A face whose row of C_ca C_va^T, read off its net, is
    not zero is no closed walk, a tracing defect, and raises.  B_gamma is
    C_ca C_ca^T, and over Q B x = 0 gives |C_ca^T x|^2 = x^T B x = 0, so
    rank B_gamma = rank C_ca: the ranks of C_va, C_ca and C_gamma are the
    report's three eliminations.
    """
    _require_connected_acyclic(q)
    faces = rot.faces()
    g = surface_genus(q, len(faces))
    c_va = vertex_arrow_matrix(q)
    c_ca = cycle_arrow_matrix(q, faces)
    if open_face := _open_face(q, faces):
        raise InternalCheckError(open_face)
    c_gamma = RationalMatrix.stack(c_va, c_ca)
    rank_va = c_va.rank()
    rank_ca = c_ca.rank()
    rank_stack = c_gamma.rank()

    # the circulation check above showed the spaces disjoint: the ranks must add up
    if rank_stack != rank_va + rank_ca:
        raise InternalCheckError("subspace intersection disagrees with rank count")

    zero_sum = not functools.reduce(_merged, c_ca._entries, {})
    return CombinatorialReport(
        num_vertices=q.num_vertices,
        num_arrows=q.num_arrows,
        num_faces=len(faces),
        genus=g,
        dim_dv=rank_va,
        dim_de=q.num_arrows,
        dim_df=rank_ca,
        dim_sum=rank_stack,
        c_va=c_va,
        c_ca=c_ca,
        c_gamma=c_gamma,
        b_gamma=boundary_matrix(faces),
        rank_c_va=rank_va,
        rank_c_ca=rank_ca,
        rank_c_gamma=rank_stack,
        rank_b_gamma=rank_ca,
        rank_theorems_hold=rank_va == q.num_vertices - 1 and rank_ca == len(faces) - 1,
        spaces_disjoint=True,
        euler_holds=(q.num_arrows - rank_stack == 2 * g),
        faces_sum_to_zero=zero_sum,
        faces=faces,
    )


# ----------------------------------------------------------------------
# HH1 dimension, three ways


def happel_dimension(q: Quiver) -> int:
    """1 - |V| + sum over arrows a of #paths parallel to a, from one count of
    the paths leaving each arrow tail; no path is enumerated."""
    return 1 - q.num_vertices + sum(q.parallel_path_counts())


def hh1_dimension(q: Quiver, faces) -> int:
    """|F| + |almost oriented cycles| - 1 + 2g over the traced ``faces``,
    cross-checked against the path-counting formula.  The almost oriented
    cycles are the edge pairs less the |E| pairs (r, r) of each arrow with
    itself, so they are counted, not listed."""
    _require_connected_acyclic(q)
    g = surface_genus(q, len(faces))
    dim = len(faces) + len(q.edge_pairs()) - q.num_arrows - 1 + 2 * g
    happel = happel_dimension(q)
    if dim != happel:
        raise InternalCheckError(
            f"face-count dimension {dim} disagrees with path-count dimension {happel}"
        )
    return dim


# ----------------------------------------------------------------------
# the HH1 basis


class HH1Label(namedtuple("HH1Label", "kind arrow path face", defaults=(None, None, None))):
    """Tag for a coset representative: AL(r, s), Face(f), or Extra(r); kind is
    "al", "face" or "extra" and the fields it does not use are None."""

    __slots__ = ()

    def display(self, q: Quiver) -> str:
        if self.kind == "al":
            return f"AL({q.arrows[self.arrow].name},{q.path_display(self.path)})"
        if self.kind == "face":
            return f"Face({self.face})"
        return f"Extra({q.arrows[self.arrow].name})"


class HH1Basis:
    """Labeled coset representatives spanning HH1 = Der / Inn.

    In canonical coordinates Inn is spanned by the Inner(w) unit vectors
    and by the rows of C_va placed on the EdgePair(k, k) block, because
    D_{e_v} is a signed sum of the D_{k,k}.  The class of a derivation
    therefore depends only on its EdgePair coordinates: the AL(r, s)
    coordinates are read off as they are, and the diagonal vector of the
    EdgePair(k, k) coordinates is solved in k^E modulo the row space of
    ``c_va`` against the Face and Extra rows, a solve on |E| columns, by
    one LinearSolver built on the first solve.  ``edge_pairs[i]`` is
    representative i as a sparse combination of EdgePair labels,
    {(r, s): coefficient}; no operator is stored.
    """

    def __init__(
        self,
        quiver: Quiver,
        labels,
        edge_pairs,
        c_va: RationalMatrix,
        faces,
        dropped_face: int,
        genus_: int,
    ):
        self.quiver = quiver
        self.labels: tuple[HH1Label, ...] = tuple(labels)
        self.edge_pairs: tuple[dict[tuple[int, Path], Scalar], ...] = tuple(edge_pairs)
        self.faces: tuple[FaceCycle, ...] = tuple(faces)
        self.dropped_face = dropped_face
        self.genus = genus_
        self._al_slot = {
            (lab.arrow, lab.path): i for i, lab in enumerate(self.labels) if lab.kind == "al"
        }
        self._c_va = c_va

    @functools.cached_property
    def _quotient(self) -> LinearSolver:  # the Face and Extra rows, in label order
        rows = [{r: c for (r, _), c in p.items()} for p in self.edge_pairs[len(self._al_slot) :]]
        return LinearSolver(self._c_va, RationalMatrix._of(rows, self.quiver.num_arrows))

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def display_labels(self) -> tuple[str, ...]:
        return tuple(label.display(self.quiver) for label in self.labels)

    def class_coordinates(self, pairs) -> Row | None:
        """The class of a derivation whose nonzero EdgePair coordinates
        are ``pairs`` (its Inner ones do not matter), as a sparse row
        {slot: coefficient} of its coordinates in this basis; no solve runs
        without a diagonal part.  None only if that part is outside the
        span of C_va and the Face and Extra rows, which a valid basis
        rules out."""
        out: Row = {}
        diagonal: Row = {}
        for (r, s), c in pairs.items():
            if s.arrows == (r,):
                diagonal[r] = c
            else:
                out[self._al_slot[r, s]] = c
        if diagonal:
            y = self._quotient.solve(diagonal)
            if y is None:
                return None
            num_al = len(self._al_slot)
            out.update((num_al + i, x) for i, x in y.items())
        return out

    def coset_coordinates(self, op: derivations.LinearOperator) -> Row | None:
        """Coordinates of the class of ``op`` in this basis, as the
        sparse row class_coordinates gives.

        None when op is not a derivation-span member at all; otherwise
        the unique coefficients modulo the inner subspace.
        """
        coords = derivations.canonical_coordinates(self.quiver, op)
        if coords is None:
            return None
        pairs = {
            (label.arrow, label.path): c
            for label, c in coords.items()
            if label.kind == "edge_pair"
        }
        return self.class_coordinates(pairs)


def _dropped_face(q: Quiver, rot: RotationSystem, outer: int | None) -> int:
    """The index of the face hh1 drops, ``outer`` or 0, once ``q`` is connected
    and acyclic; a ValueError when it names no face of ``rot``."""
    _require_connected_acyclic(q)
    dropped = 0 if outer is None else outer
    if not 0 <= dropped < len(rot.faces()):
        raise ValueError(f"outer face {dropped} out of range ({len(rot.faces())} faces)")
    return dropped


def hh1_basis(q: Quiver, rot: RotationSystem, outer: int | None = None) -> HH1Basis:
    """Coset representatives: one AL(r, s) per almost oriented cycle,
    one face class per face except the dropped one, and 2g edge classes
    completing the quotient.

    ``outer`` picks the dropped face (default: the first traced face).
    No operator is built.  AL(r, s) is {(r, s): 1}; the Face and Extra
    classes are rows in k^E, read as EdgePair(k, k) coefficients: Face(f)
    is row f of C_ca, and Extra(k) is the unit row e_k for each k outside
    row(C_gamma) + span(e_j, j < k): the k at which no vector of
    row(C_gamma) ends, read off the pivots of one echelon basis of its
    rows over reversed columns, so they are triangular against it.  The
    representatives are independent modulo Inn when no AL pair is listed
    twice, every face is a closed walk (whose rows meet row(C_va) only in
    zero; see combinatorial_report), the kept face rows have rank |F| - 1
    and 2g units are read.  Otherwise the basis's quotient solver, built
    then, lists the dependent rows; the first dependent one is named.
    The count is cross-checked against both dimension formulas on the
    faces of ``rot``.
    """
    dropped = _dropped_face(q, rot, outer)
    faces = rot.faces()
    g = surface_genus(q, len(faces))

    cycles = q.almost_oriented_cycles()
    c_va = vertex_arrow_matrix(q)
    c_ca = cycle_arrow_matrix(q, faces)
    labels = [HH1Label("al", arrow=r, path=s) for r, s in cycles]
    labels += [HH1Label("face", face=f) for f in range(len(faces)) if f != dropped]
    rows = [row for f, row in enumerate(c_ca._entries) if f != dropped]
    if g:
        # over reversed columns the pivots are where the vectors of row(C_gamma) end
        n = q.num_arrows
        flipped = [{n - 1 - k: x for k, x in row.items()} for row in c_va._entries + c_ca._entries]
        last = {n - 1 - p for p in EchelonBasis.spanning(n, flipped).pivots}
        extra = [k for k in range(n) if k not in last]
        labels += [HH1Label("extra", arrow=k) for k in extra]
        rows += [{k: _ONE} for k in extra]
    edge_pairs = [{pair: _ONE} for pair in cycles]
    edge_pairs += [{(k, q.arrow_path(k)): c for k, c in row.items()} for row in rows]
    basis = HH1Basis(q, labels, edge_pairs, c_va, faces, dropped, g)

    first_seen: dict[tuple[int, Path], int] = {}
    dependent = [k for k, pair in enumerate(cycles) if first_seen.setdefault(pair, k) != k]
    face_rank = EchelonBasis.spanning(q.num_arrows, rows[: len(faces) - 1]).rank
    certified = face_rank == len(faces) - 1 == len(rows) - 2 * g and not _open_face(q, faces)
    if not dependent and not certified:
        dependent = [len(cycles) + i for i in basis._quotient.dependent]
    if dependent:
        name = labels[dependent[0]].display(q)
        raise InternalCheckError(f"representative {name} is dependent modulo the inner subspace")
    dim = hh1_dimension(q, faces)
    if len(labels) != dim:
        raise InternalCheckError(f"{len(labels)} representatives for HH1 of dimension {dim}")
    return basis


# ----------------------------------------------------------------------
# adjoint action and structure constants


def _eigenvalue(net, r: int, s: Path) -> Scalar:
    # -a_r + sum of a_x over the arrows x of s, with multiplicity, where a
    # is the sparse net, (arrow, coefficient) pairs, of a face
    a = dict(net)
    return sum((a.get(x, 0) for x in s.arrows), -a.get(r, 0))


_TABLE_FIELDS = """basis brackets eigenvalues enforced
    faces_commute face_acts_diagonally al_brackets_in_al_span"""


class StructureTable(namedtuple("StructureTable", _TABLE_FIELDS)):
    """Bracket table of the HH1 basis, reduced modulo inner derivations.

    brackets holds (i, j, coordinates of [b_i, b_j]) for every i < j in (i, j)
    order, zero ones included, as sparse rows {slot: coefficient}; the
    eigenvalues entries (i, j, lam) record the adjoint action of face
    b_j on AL member b_i, i.e. [b_j, b_i] = lam * b_i mod Inn.  When
    ``enforced`` is true (planar embedding) the face-commutation and
    diagonal-action verdicts are guaranteed; the AL-span verdict is
    always informational.
    """

    __slots__ = ()


def hh1_structure(
    q: Quiver, rot: RotationSystem, outer: int | None = None
) -> StructureTable:
    """Full bracket table of the HH1 basis with face eigenvalues.

    Each bracket is computed on the representatives' EdgePair labels by
    the bracket identity and reduced by class_coordinates; no operator
    is bracketed.  The eigenvalue of face f on AL(r, s) comes from the
    net-coefficient formula, so the diagonal-action verdict compares two
    independent computations: the table entry against the formula.  On
    a planar embedding the face representatives commute with each other
    and act diagonally on the AL representatives; those two facts are
    asserted.  Whether AL brackets stay inside the AL span is only
    reported (it can genuinely fail, e.g. for the double arrow, where
    an AL bracket lands on a face class).
    """
    hb = hh1_basis(q, rot, outer)
    enforced = hb.genus == 0
    n = len(hb)
    # the labels run AL, face, extra: slots below num_al span the AL classes
    num_al = sum(1 for lab in hb.labels if lab.kind == "al")
    end_face = num_al + len(hb.faces) - 1
    brackets: list[tuple[int, int, Row]] = []
    eigenvalues = []
    faces_commute = diagonal = al_closed = True
    zero: Row = {}  # one shared empty row for every zero bracket, not a dict each
    for i, (lab, left) in enumerate(zip(hb.labels, hb.edge_pairs)):
        start = len(brackets) - i - 1  # row i's run: (i, j) sits at start + j
        for j in range(i + 1, n):
            coords = hb.class_coordinates(derivations._bracket_pairs(q, left, hb.edge_pairs[j]))
            if coords is None:
                raise InternalCheckError("bracket of representatives left the span")
            brackets.append((i, j, coords or zero))
        if i < num_al:
            al_run = brackets[start + i + 1 : start + num_al]
            al_closed = al_closed and all(max(c, default=0) < num_al for _, _, c in al_run)
            for _, j, coords in brackets[start + num_al : start + end_face]:
                lam = _eigenvalue(hb.faces[hb.labels[j].face].net, lab.arrow, lab.path)
                eigenvalues.append((i, j, lam))
                diagonal = diagonal and coords == ({i: -lam} if lam else zero)
        elif i < end_face:
            face_run = brackets[start + i + 1 : start + end_face]
            faces_commute = faces_commute and not any(c for _, _, c in face_run)
    if enforced and not faces_commute:
        raise InternalCheckError("face representatives do not commute on a planar embedding")
    if enforced and not diagonal:
        raise InternalCheckError("face action is not diagonal on a planar embedding")
    return StructureTable(
        basis=hb,
        brackets=tuple(brackets),
        eigenvalues=tuple(eigenvalues),
        enforced=enforced,
        faces_commute=faces_commute,
        face_acts_diagonally=diagonal,
        al_brackets_in_al_span=al_closed,
    )
