"""Rotation systems and combinatorial surface embeddings.

An embedding of the underlying graph into an oriented surface is the
same data as a rotation system: a cyclic order of edge-ends around
every vertex.  Each arrow contributes two darts, one at its tail and
one at its head; faces are the orbits of the dart permutation
"cross the arrow, then take the next dart around the arrival vertex",
and the genus of the resulting surface falls out of Euler's formula.

Dart n+/- notation: ``p1+`` is the tail-end dart of arrow p1 (the end
drawn leaving its tail vertex) and ``p1-`` the head-end dart.
"""

from __future__ import annotations

from collections import namedtuple

from . import derivations, linalg
from .errors import DisconnectedError, InternalCheckError, InvalidRotationError
from .quiver import Quiver

TAIL = 0
HEAD = 1


def dart(arrow: int, end: int) -> int:
    return 2 * arrow + end


def dart_arrow(d: int) -> int:
    return d // 2


def dart_end(d: int) -> int:
    return d & 1


def dart_opposite(d: int) -> int:
    return d ^ 1


def dart_vertex(q: Quiver, d: int) -> int:
    a = q.arrows[dart_arrow(d)]
    return a.tail if dart_end(d) == TAIL else a.head


def dart_display(q: Quiver, d: int) -> str:
    sign = "+" if dart_end(d) == TAIL else "-"
    return q.arrows[dart_arrow(d)].name + sign


def dart_from_text(q: Quiver, text: str) -> int:
    if len(text) < 2 or text[-1] not in "+-":
        raise ValueError(f"malformed dart {text!r}, expected arrowName+ or arrowName-")
    end = TAIL if text[-1] == "+" else HEAD
    return dart(q.arrow_index(text[:-1]), end)


class RotationSystem:
    """A cyclic order of darts at every vertex of a quiver.

    ``orders[v]`` lists the darts around vertex v; each of the 2|E|
    darts must appear exactly once, at the vertex it is attached to.
    """

    __slots__ = ("quiver", "orders", "_next", "_faces")

    def __init__(self, quiver: Quiver, orders):
        orders = tuple(tuple(o) for o in orders)
        if len(orders) != quiver.num_vertices:
            raise InvalidRotationError(
                f"rotation lists {len(orders)} vertex orders for"
                f" {quiver.num_vertices} vertices"
            )
        seen: set[int] = set()
        nxt: dict[int, int] = {}
        for v, order in enumerate(orders):
            for d in order:
                if not 0 <= d < 2 * quiver.num_arrows:
                    raise InvalidRotationError(f"dart id {d} out of range")
                if dart_vertex(quiver, d) != v:
                    raise InvalidRotationError(
                        f"dart {dart_display(quiver, d)} listed at vertex"
                        f" {quiver.vertex_names[v]} but attached to"
                        f" {quiver.vertex_names[dart_vertex(quiver, d)]}"
                    )
                if d in seen:
                    raise InvalidRotationError(
                        f"dart {dart_display(quiver, d)} appears twice"
                    )
                seen.add(d)
            for i, d in enumerate(order):
                nxt[d] = order[(i + 1) % len(order)]
        if len(seen) != 2 * quiver.num_arrows:
            missing = next(d for d in range(2 * quiver.num_arrows) if d not in seen)
            raise InvalidRotationError(
                f"dart {dart_display(quiver, missing)} is missing from the rotation"
            )
        self.quiver = quiver
        self.orders = orders
        self._next = nxt
        self._faces = None

    @classmethod
    def canonical(cls, quiver: Quiver) -> "RotationSystem":
        """Darts around each vertex ordered by (arrow index, end)."""
        orders = [[] for _ in range(quiver.num_vertices)]
        for d in range(2 * quiver.num_arrows):
            orders[dart_vertex(quiver, d)].append(d)
        return cls(quiver, orders)

    def successor(self, d: int) -> int:
        return self._next[d]

    def faces(self) -> tuple["FaceCycle", ...]:
        """trace_faces(self), traced on first use and kept."""
        if self._faces is None:
            self._faces = trace_faces(self)
        return self._faces

    def display(self) -> tuple[tuple[str, ...], ...]:
        q = self.quiver
        return tuple(tuple(dart_display(q, d) for d in o) for o in self.orders)

    def __eq__(self, other):
        if not isinstance(other, RotationSystem):
            return NotImplemented
        return self.quiver == other.quiver and self.orders == other.orders

    def __repr__(self):
        return f"RotationSystem({self.display()})"


class FaceCycle(namedtuple("FaceCycle", "darts net")):
    """One face boundary: the exit darts in walk order, plus its net, the
    sparse row of net traversal counts (+forward, -backward) as a tuple of
    (arrow, nonzero count) pairs in increasing arrow order; an arrow the
    walk crosses as often forward as backward, or not at all, is absent."""

    __slots__ = ()

    def display(self, q: Quiver) -> tuple[str, ...]:
        return tuple(dart_display(q, d) for d in self.darts)


def trace_faces(rot: RotationSystem) -> tuple[FaceCycle, ...]:
    """Face boundaries of the embedding, ordered by smallest start dart.

    Walking out along a dart traverses its arrow forward when the dart
    is a tail end; the walk continues from the rotation successor of the
    opposite dart.  Isolated vertices each bound one empty face.  Each net
    is counted over the walk's own darts: |darts| work, not |E|.
    """
    q = rot.quiver
    faces = []
    visited: set[int] = set()
    for start in range(2 * q.num_arrows):
        if start in visited:
            continue
        darts = []
        net: dict[int, int] = {}
        d = start
        while True:
            visited.add(d)
            darts.append(d)
            k = dart_arrow(d)
            net[k] = net.get(k, 0) + (1 if dart_end(d) == TAIL else -1)
            d = rot.successor(dart_opposite(d))
            if d == start:
                break
        faces.append(FaceCycle(tuple(darts), tuple(sorted((k, c) for k, c in net.items() if c))))
    for order in rot.orders:
        if not order:
            faces.append(FaceCycle((), ()))
    return tuple(faces)


def genus(rot: RotationSystem) -> int:
    """Genus of the embedding surface via Euler's formula."""
    return surface_genus(rot.quiver, len(rot.faces()))


def surface_genus(q: Quiver, num_faces: int) -> int:
    """Genus of a nonempty connected quiver's embedding with ``num_faces`` faces."""
    if not q.num_vertices:
        raise DisconnectedError("genus is defined for quivers with at least one vertex")
    if not q.is_connected():
        raise DisconnectedError("genus is defined for connected quivers only")
    chi = q.num_vertices - q.num_arrows + num_faces
    if chi % 2:
        raise InternalCheckError(f"odd Euler characteristic {chi}")
    g = (2 - chi) // 2
    if g < 0:
        raise InternalCheckError(f"negative genus from Euler characteristic {chi}")
    return g


def face_derivation(q: Quiver, face) -> derivations.LinearOperator:
    """The signed sum of arrow-rescaling derivations along a face.

    Accepts a FaceCycle, whose sparse net it reads, or a bare dense
    coefficient vector over the arrows; coefficient a_k multiplies the
    edge derivation D_{k,k}, which multiplies each path by the number of
    times it runs along arrow k.  The sum is therefore diagonal on paths,
    p -> (sum of a_x over the arrows x of p) p, and is built that way in
    one pass.
    """
    exact = linalg._exact
    if isinstance(face, FaceCycle):
        weights = dict(face.net)
    else:
        coeffs = tuple(face)
        if len(coeffs) != q.num_arrows:
            raise ValueError(f"expected {q.num_arrows} face coefficients")
        weights = {k: exact(a) for k, a in enumerate(coeffs) if a}
    sums = ((j, exact(sum(weights.get(x, 0) for x in p.arrows))) for j, p in enumerate(q.paths()))
    return derivations.LinearOperator._of(q, {j: {j: c} for j, c in sums if c})
