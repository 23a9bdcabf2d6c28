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
derivations._bracket_pairs, which --verify checks against matrix
products, and the quotient by Inn is one solve on |E| columns.  A class is a sparse
row {slot: Fraction} of its nonzero coordinates, as a RationalMatrix
stores a row, so the zero structure constants cost nothing.  No
operator, algebra element, canonical basis or inner subspace is built
on that path; operators appear only in HH1Basis.coset_coordinates and
the tests.  The face eigenvalues come from the net-coefficient formula.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from .derivations import LinearOperator, _bracket_pairs, canonical_coordinates
from .embedding import FaceCycle, RotationSystem, surface_genus, trace_faces
from .errors import CyclicQuiverError, DisconnectedError, InternalCheckError
from .linalg import _ONE, _ZERO, LinearSolver, RationalMatrix, Row, _merged, intersect_row_spaces
from .quiver import Path, Quiver

_MINUS_ONE = -_ONE


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
        rows[a.head][k] = _MINUS_ONE
    return RationalMatrix._of(rows, q.num_arrows)


def cycle_arrow_matrix(q: Quiver, faces) -> RationalMatrix:
    """|F| x |E| matrix whose row j is the net sign vector of face j."""
    # a face walk leaves each dart at most once, so each net count is -1, 0 or 1
    sign = {-1: _MINUS_ONE, 1: _ONE}
    rows = [{k: sign[x] for k, x in enumerate(f.net) if x} for f in faces]
    return RationalMatrix._of(rows, q.num_arrows)


def boundary_matrix(faces) -> RationalMatrix:
    """Face-by-face arrow sharing counts.

    Every arrow has one dart in exactly two face walks (possibly the
    same walk twice); an arrow on two distinct faces adds 1 to both
    diagonal entries and -1 to both cross entries, so the matrix is
    symmetric with zero row sums.
    """
    faces = tuple(faces)
    num_arrows = len(faces[0].net) if faces else 0
    owner: dict[int, int] = {}
    for j, f in enumerate(faces):
        for d in f.darts:
            owner[d] = j
    rows: list[dict[int, Fraction]] = [{} for _ in faces]
    for k in range(num_arrows):
        j1, j2 = owner[2 * k], owner[2 * k + 1]
        if j1 != j2:
            # no entry cancels: diagonal ones only grow, cross ones only shrink
            for i, j in ((j1, j2), (j2, j1)):
                rows[i][i] = rows[i].get(i, _ZERO) + _ONE
                rows[i][j] = rows[i].get(j, _ZERO) - _ONE
    return RationalMatrix._of(rows, len(faces))


# ----------------------------------------------------------------------
# the combinatorial report


_REPORT_FIELDS = """num_vertices num_arrows num_faces genus dim_dv dim_de dim_df dim_sum
    c_va c_ca c_gamma b_gamma rank_c_va rank_c_ca rank_c_gamma rank_b_gamma
    rank_theorems_hold spaces_disjoint euler_holds faces_sum_to_zero faces"""


class CombinatorialReport(namedtuple("CombinatorialReport", _REPORT_FIELDS)):
    """Dimensions, matrices (c_*, b_gamma), ranks, and theorem verdicts in one place.

    Every verdict is recomputable from the stored matrices; none of
    them is assumed in the computation of the others.
    """

    __slots__ = ()


def combinatorial_report(q: Quiver, rot: RotationSystem) -> CombinatorialReport:
    """Compute all relation matrices and check the rank and Euler laws.

    Verdicts are reported, not raised: a false verdict on valid input
    would falsify a theorem, and the caller decides how loudly to fail.
    """
    _require_connected_acyclic(q)
    faces = trace_faces(rot)
    g = surface_genus(q, len(faces))
    c_va = vertex_arrow_matrix(q)
    c_ca = cycle_arrow_matrix(q, faces)
    c_gamma = RationalMatrix.stack(c_va, c_ca)
    b_gamma = boundary_matrix(faces)
    rank_va = c_va.rank()
    rank_ca = c_ca.rank()
    rank_stack = c_gamma.rank()
    rank_b = b_gamma.rank()

    meet = intersect_row_spaces(c_va, c_ca)
    disjoint = meet.num_rows == 0
    if disjoint != (rank_stack == rank_va + rank_ca):
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
        b_gamma=b_gamma,
        rank_c_va=rank_va,
        rank_c_ca=rank_ca,
        rank_c_gamma=rank_stack,
        rank_b_gamma=rank_b,
        rank_theorems_hold=(
            rank_va == q.num_vertices - 1
            and rank_ca == len(faces) - 1
            and rank_b == len(faces) - 1
        ),
        spaces_disjoint=disjoint,
        euler_holds=(q.num_arrows - rank_stack == 2 * g),
        faces_sum_to_zero=zero_sum,
        faces=faces,
    )


# ----------------------------------------------------------------------
# HH1 dimension, three ways


def happel_dimension(q: Quiver) -> int:
    """1 - |V| + sum over arrows a of #paths parallel to a, from the path counts."""
    counts = q.path_counts()
    return 1 - q.num_vertices + sum(counts[a.tail][a.head] for a in q.arrows)


def _face_formula(num_faces: int, num_al: int, g: int) -> int:
    """dim HH1 = |F| + |almost oriented cycles| - 1 + 2g."""
    return num_faces + num_al - 1 + 2 * g


def hh1_dimension(q: Quiver, faces) -> int:
    """|F| + |almost oriented cycles| - 1 + 2g over the traced ``faces``,
    cross-checked against the path-counting formula."""
    _require_connected_acyclic(q)
    g = surface_genus(q, len(faces))
    dim = _face_formula(len(faces), len(q.almost_oriented_cycles()), g)
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
    C_va against the Face and Extra rows, a solve on |E| columns, by the
    ``quotient`` LinearSolver that hh1_basis built from them and checked.
    ``edge_pairs[i]`` is representative i as a sparse combination of
    EdgePair labels, {(r, s): coefficient}; no operator is stored.
    """

    def __init__(
        self,
        quiver: Quiver,
        labels,
        edge_pairs,
        quotient: LinearSolver,
        faces,
        dropped_face: int,
        genus_: int,
    ):
        self.quiver = quiver
        self.labels: tuple[HH1Label, ...] = tuple(labels)
        self.edge_pairs: tuple[dict[tuple[int, Path], Fraction], ...] = tuple(edge_pairs)
        self.faces: tuple[FaceCycle, ...] = tuple(faces)
        self.dropped_face = dropped_face
        self.genus = genus_
        self._al_slot = {
            (label.arrow, label.path): i
            for i, label in enumerate(self.labels)
            if label.kind == "al"
        }
        self._quotient = quotient  # over the Face and Extra rows, in label order

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
        {slot: Fraction} of its coordinates in this basis; no solve runs
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

    def coset_coordinates(self, op: LinearOperator) -> Row | None:
        """Coordinates of the class of ``op`` in this basis, as the
        sparse row class_coordinates gives.

        None when op is not a derivation-span member at all; otherwise
        the unique coefficients modulo the inner subspace.
        """
        coords = canonical_coordinates(self.quiver, op)
        if coords is None:
            return None
        pairs = {
            (label.arrow, label.path): c
            for label, c in coords.items()
            if label.kind == "edge_pair"
        }
        return self.class_coordinates(pairs)


def _dropped_face(faces, outer: int | None) -> int:
    """The index of the face hh1 drops, ``outer`` or 0; a ValueError when it names no face."""
    dropped = 0 if outer is None else outer
    if not 0 <= dropped < len(faces):
        raise ValueError(f"outer face {dropped} out of range ({len(faces)} faces)")
    return dropped


def hh1_basis(q: Quiver, rot: RotationSystem, outer: int | None = None) -> HH1Basis:
    """Coset representatives: one AL(r, s) per almost oriented cycle,
    one face class per face except the dropped one, and 2g edge classes
    completing the quotient.

    ``outer`` picks the dropped face (default: the first traced face).
    No operator is built.  AL(r, s) is {(r, s): 1}; the Face and Extra
    classes are rows in k^E, read as EdgePair(k, k) coefficients: Face(f)
    is row f of C_ca, and Extra(k) is the unit row e_k for each k whose
    e_k is not in row(C_gamma) plus the span of e_j for j < k, in
    increasing k.  One LinearSolver modulo row(C_va) holds those rows and
    goes to HH1Basis.  The representatives are independent modulo Inn
    exactly when no AL pair is listed twice and that solver lists no row
    as dependent; the first representative that breaks this is named.
    The count is cross-checked against both dimension formulas on the
    faces traced here.
    """
    _require_connected_acyclic(q)
    faces = trace_faces(rot)
    g = surface_genus(q, len(faces))
    dropped = _dropped_face(faces, outer)

    cycles = q.almost_oriented_cycles()
    c_va = vertex_arrow_matrix(q)
    c_ca = cycle_arrow_matrix(q, faces)
    labels = [HH1Label("al", arrow=r, path=s) for r, s in cycles]
    labels += [HH1Label("face", face=f) for f in range(len(faces)) if f != dropped]
    rows = [row for f, row in enumerate(c_ca._entries) if f != dropped]
    if g:
        unit = RationalMatrix.identity(q.num_arrows)
        covered = set(LinearSolver(RationalMatrix.stack(c_va, c_ca), unit).dependent)
        for k in range(q.num_arrows):
            if k not in covered:
                labels.append(HH1Label("extra", arrow=k))
                rows.append({k: _ONE})
    quotient = LinearSolver(c_va, RationalMatrix._of(rows, q.num_arrows))

    first_seen: dict[tuple[int, Path], int] = {}
    dependent = [k for k, pair in enumerate(cycles) if first_seen.setdefault(pair, k) != k]
    dependent += [len(cycles) + i for i in quotient.dependent]
    if dependent:
        name = labels[dependent[0]].display(q)
        raise InternalCheckError(f"representative {name} is dependent modulo the inner subspace")
    dim = hh1_dimension(q, faces)
    if len(labels) != dim:
        raise InternalCheckError(f"{len(labels)} representatives for HH1 of dimension {dim}")
    edge_pairs = [{pair: _ONE} for pair in cycles]
    edge_pairs += [{(k, q.arrow_path(k)): c for k, c in row.items()} for row in rows]
    return HH1Basis(q, labels, edge_pairs, quotient, faces, dropped, g)


# ----------------------------------------------------------------------
# adjoint action and structure constants


def _eigenvalue(coeffs, r: int, s: Path) -> Fraction:
    # -a_r + sum of a_x over the arrows x of s, with multiplicity
    return sum((Fraction(coeffs[x]) for x in s.arrows), -Fraction(coeffs[r]))


_TABLE_FIELDS = """basis brackets eigenvalues enforced
    faces_commute face_acts_diagonally al_brackets_in_al_span"""


class StructureTable(namedtuple("StructureTable", _TABLE_FIELDS)):
    """Bracket table of the HH1 basis, reduced modulo inner derivations.

    brackets holds (i, j, coordinates of [b_i, b_j]) for i < j, the
    coordinates a sparse row {slot: Fraction} of the nonzero ones; the
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
    table: dict[tuple[int, int], Row] = {}
    zero: Row = {}  # one shared empty row for every zero bracket, not a dict each
    for i in range(n):
        for j in range(i + 1, n):
            coords = hb.class_coordinates(_bracket_pairs(q, hb.edge_pairs[i], hb.edge_pairs[j]))
            if coords is None:
                raise InternalCheckError("bracket of representatives left the span")
            table[i, j] = coords or zero

    al = [i for i, lab in enumerate(hb.labels) if lab.kind == "al"]
    face = [i for i, lab in enumerate(hb.labels) if lab.kind == "face"]

    # AL members come first, so the slots from len(al) on are the face and
    # extra classes
    faces_commute = not any(table[i, j] for i in face for j in face if i < j)
    eigenvalues = []
    diagonal = True
    for i in al:
        lab = hb.labels[i]
        for j in face:
            lam = _eigenvalue(hb.faces[hb.labels[j].face].net, lab.arrow, lab.path)
            eigenvalues.append((i, j, lam))
            if table[i, j] != ({i: -lam} if lam else {}):
                diagonal = False
    al_closed = all(max(table[i, j], default=0) < len(al) for i in al for j in al if i < j)
    if enforced and not faces_commute:
        raise InternalCheckError("face representatives do not commute on a planar embedding")
    if enforced and not diagonal:
        raise InternalCheckError("face action is not diagonal on a planar embedding")
    return StructureTable(
        basis=hb,
        brackets=tuple((i, j, coords) for (i, j), coords in table.items()),
        eigenvalues=tuple(eigenvalues),
        enforced=enforced,
        faces_commute=faces_commute,
        face_acts_diagonally=diagonal,
        al_brackets_in_al_span=al_closed,
    )
