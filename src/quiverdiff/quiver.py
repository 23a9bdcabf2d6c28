"""Finite quivers and their path combinatorics.

A quiver is a finite directed multigraph with named vertices and
arrows.  Loops and parallel arrows are allowed.  Internally all math
runs on dense integer indices; names only matter for input and
reporting.

Paths are the basis of the path algebra, so their order matters: every
matrix in this package uses the path list ordered by length first,
then lexicographically by (base vertex index, arrow index sequence).
The zero product of two non-composable paths is represented by None,
a first-class value, never an exception.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CyclicQuiverError


Arrow = namedtuple("Arrow", "name tail head")


class Path:
    """A trivial vertex-path (no arrows) or a composable arrow walk.

    ``base`` is the tail vertex index; validity of the arrow chain is
    checked by the owning quiver, not here.  Paths are immutable values:
    they compare and hash by (base, arrows).
    """

    __slots__ = ("base", "arrows")

    def __init__(self, base: int, arrows: tuple[int, ...] = ()):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "arrows", arrows)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Path:
            return NotImplemented
        return self.base == other.base and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.base, self.arrows))

    def __repr__(self):
        return f"Path(base={self.base!r}, arrows={self.arrows!r})"

    def __reduce__(self):
        return Path, (self.base, self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def key(self) -> tuple[int, int, tuple[int, ...]]:
        """Canonical sort key: length, then base vertex, then arrows."""
        return (len(self.arrows), self.base, self.arrows)

    def __lt__(self, other: "Path") -> bool:
        return self.key < other.key


class Quiver:
    """Immutable finite quiver.

    ``vertices`` is an iterable of vertex names, ``arrows`` an iterable
    of (name, tail name, head name) triples.  Identifiers must be
    unique within their kind and endpoints must name declared vertices.
    """

    def __init__(self, vertices, arrows, name: str = ""):
        self.name = name
        self.vertex_names: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertex_names)) != len(self.vertex_names):
            raise ValueError("duplicate vertex names")
        self._vertex_index = {v: i for i, v in enumerate(self.vertex_names)}
        built = []
        for arrow_name, tail, head in arrows:
            if tail not in self._vertex_index:
                raise ValueError(f"arrow {arrow_name!r}: unknown tail vertex {tail!r}")
            if head not in self._vertex_index:
                raise ValueError(f"arrow {arrow_name!r}: unknown head vertex {head!r}")
            built.append(Arrow(arrow_name, self._vertex_index[tail], self._vertex_index[head]))
        self.arrows: tuple[Arrow, ...] = tuple(built)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        self._arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        out: list[list[int]] = [[] for _ in self.vertex_names]
        into: list[list[int]] = [[] for _ in self.vertex_names]
        for i, a in enumerate(self.arrows):
            out[a.tail].append(i)
            into[a.head].append(i)
        self._out = tuple(tuple(x) for x in out)
        self._in = tuple(tuple(x) for x in into)
        self._paths: tuple[Path, ...] | None = None
        self._path_index: dict[Path, int] | None = None
        self._parallel: dict[tuple[int, int], tuple[Path, ...]] = {}

    # identity is structural; the display name is packaging metadata
    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertex_names == other.vertex_names and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.vertex_names, self.arrows))

    def __repr__(self):
        label = self.name or "quiver"
        return f"Quiver({label}: {self.num_vertices} vertices, {self.num_arrows} arrows)"

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_names)

    @property
    def num_arrows(self) -> int:
        return len(self.arrows)

    def vertex_index(self, name: str) -> int:
        try:
            return self._vertex_index[name]
        except KeyError:
            raise ValueError(f"unknown vertex {name!r}") from None

    def arrow_index(self, name: str) -> int:
        try:
            return self._arrow_index[name]
        except KeyError:
            raise ValueError(f"unknown arrow {name!r}") from None

    def out_arrows(self, vertex: int) -> tuple[int, ...]:
        return self._out[vertex]

    def in_arrows(self, vertex: int) -> tuple[int, ...]:
        return self._in[vertex]

    # ------------------------------------------------------------------
    # paths

    def trivial_path(self, vertex: int | str) -> Path:
        if isinstance(vertex, str):
            vertex = self.vertex_index(vertex)
        if not 0 <= vertex < self.num_vertices:
            raise ValueError(f"vertex index {vertex} out of range")
        return Path(vertex)

    def arrow_path(self, arrow: int | str) -> Path:
        if isinstance(arrow, str):
            arrow = self.arrow_index(arrow)
        return Path(self.arrows[arrow].tail, (arrow,))

    def path_tail(self, path: Path) -> int:
        return path.base

    def path_head(self, path: Path) -> int:
        if path.is_trivial:
            return path.base
        return self.arrows[path.arrows[-1]].head

    def is_valid_path(self, path: Path) -> bool:
        if not 0 <= path.base < self.num_vertices:
            return False
        at = path.base
        for i in path.arrows:
            if not 0 <= i < self.num_arrows or self.arrows[i].tail != at:
                return False
            at = self.arrows[i].head
        return True

    def path_display(self, path: Path) -> str:
        if path.is_trivial:
            return self.vertex_names[path.base]
        return "".join(self.arrows[i].name for i in path.arrows)

    def concat(self, p: Path | None, r: Path | None) -> Path | None:
        """Concatenation p then r; None encodes the zero product.

        None inputs are absorbed, so nested concatenations never need
        to branch.  Trivial paths act as the local idempotents.
        """
        if p is None or r is None:
            return None
        if self.path_head(p) != r.base:
            return None
        return Path(p.base, p.arrows + r.arrows)

    # ------------------------------------------------------------------
    # global structure

    def is_acyclic(self) -> bool:
        indegree = [0] * self.num_vertices
        for a in self.arrows:
            indegree[a.head] += 1
        stack = [v for v in range(self.num_vertices) if indegree[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for i in self._out[v]:
                h = self.arrows[i].head
                indegree[h] -= 1
                if indegree[h] == 0:
                    stack.append(h)
        return seen == self.num_vertices

    def is_connected(self) -> bool:
        """True when the underlying graph is one component; the empty quiver has none."""
        if self.num_vertices <= 1:
            return self.num_vertices == 1
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for i in self._out[v] + self._in[v]:
                for w in (self.arrows[i].tail, self.arrows[i].head):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return len(seen) == self.num_vertices

    def paths(self) -> tuple[Path, ...]:
        """Every path of the quiver in the canonical basis order."""
        if self._paths is None:
            if not self.is_acyclic():
                raise CyclicQuiverError("path enumeration requires an acyclic quiver")
            collected: list[Path] = []
            layer = [Path(v) for v in range(self.num_vertices)]
            while layer:
                collected.extend(layer)
                layer = [
                    Path(p.base, p.arrows + (i,))
                    for p in layer
                    for i in self._out[self.path_head(p)]
                ]
            collected.sort(key=lambda p: p.key)
            self._paths = tuple(collected)
            self._path_index = {p: i for i, p in enumerate(self._paths)}
            groups: dict[tuple[int, int], list[Path]] = {}
            for p in self._paths:
                groups.setdefault((p.base, self.path_head(p)), []).append(p)
            self._parallel = {ends: tuple(ps) for ends, ps in groups.items()}
        return self._paths

    def path_index(self, path: Path) -> int:
        self.paths()
        assert self._path_index is not None
        try:
            return self._path_index[path]
        except KeyError:
            raise ValueError(f"path {path!r} does not belong to this quiver") from None

    def acyclic_paths(self) -> tuple[Path, ...]:
        """All paths p with h(p) != t(p), in canonical order."""
        return tuple(p for p in self.paths() if self.path_head(p) != self.path_tail(p))

    def parallel_paths(self, path: Path) -> tuple[Path, ...]:
        """All paths with the same tail and head as ``path`` (itself included)."""
        self.paths()
        return self._parallel.get((path.base, self.path_head(path)), ())

    def almost_oriented_cycles(self) -> tuple[tuple[int, Path], ...]:
        """All pairs (arrow r, path s) with s parallel to r and s != r."""
        pairs = []
        for i in range(self.num_arrows):
            rp = self.arrow_path(i)
            for s in self.parallel_paths(rp):
                if s != rp:
                    pairs.append((i, s))
        return tuple(pairs)

    def longest_path_length(self) -> int:
        return max(len(p) for p in self.paths())
