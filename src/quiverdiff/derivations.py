"""The derivation Lie algebra of an acyclic quiver's path algebra.

A linear endomorphism D of kGamma is a derivation when the Leibniz
rule D(xy) = D(x)y + xD(y) holds; on the path basis this is a finite
check.  The derivation Lie algebra has an explicit basis: inner
derivations D_s of the acyclic paths s, together with one operator
D_{r,s} for every arrow r and every path s parallel to r.  D_{r,s}
sends a path to the sum of its copies with one occurrence of r
replaced by s, which is the closed form of the defining recursion and
stays meaningful on cyclic quivers as long as it is applied lazily to
individual paths.

Operators are stored as the sparse images of the basis paths, and the
constructors fill those images in one pass instead of summing whole
operators.  D_a on a single path is _inner_terms, and D_{r,s} on a
single path is _splices, the list of its splices; d_rs_apply is the
checked public form of the latter, while d_rs_element, the rebuild in
canonical_coordinates and the HH1 brackets call _splices directly.  The canonical
coordinates of an operator are read off as single coefficients, the
coefficient of w in the image of the idempotent at the head of w for
Inner(w) and the coefficient of s in the image of the arrow r for
EdgePair(r, s), and accepted only if they rebuild the operator.  The
inner subspace is written from its closed form and builds no operator.
|P| x |P| matrices, which store only their nonzero entries, appear only
at the edges: the CLI's matrix output, the coefficient checker, the
matrix brackets of verify_bracket_identities, and the flattened rows
compared with a brute-force oracle.  The matrix brackets are
RationalMatrix products AB - BA, which never go through the sparse
LinearOperator.bracket, so they remain an independent reference for
it.  The oracle solves the raw Leibniz system in the n^2 matrix
entries, knowing nothing about the structure theory, so its solution
space is independent ground truth for the canonical basis.  It keeps
each equation once, as a primitive integer row, and builds each
solution's operator from its nonzero entries.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from math import gcd
from numbers import Rational

from .algebra import AlgebraElement
from .errors import (
    InternalCheckError,
    NotACycleError,
    NotParallelError,
    QuiverMismatchError,
    TooLargeError,
)
from .linalg import _ONE, _ZERO, RationalMatrix
from .quiver import Path, Quiver


class LinearOperator:
    """A linear self-map of kGamma, stored as the images of the basis paths.

    ``images[j]`` is the sparse image of the j-th canonical basis path;
    ``matrix`` builds the matrix (column j = images[j]) on each read.
    Build one with ``from_images`` (a function basis path ->
    AlgebraElement), ``zero`` or ``identity``; sums, scalar multiples and
    brackets of operators are operators again.
    """

    __slots__ = ("quiver", "images")

    @classmethod
    def _of(cls, quiver: Quiver, images) -> "LinearOperator":
        op = cls.__new__(cls)
        op.quiver = quiver
        op.images = tuple(images)
        return op

    @classmethod
    def zero(cls, quiver: Quiver) -> "LinearOperator":
        return cls._of(quiver, [AlgebraElement.zero(quiver)] * len(quiver.paths()))

    @classmethod
    def identity(cls, quiver: Quiver) -> "LinearOperator":
        return cls._of(quiver, [AlgebraElement.from_path(quiver, p) for p in quiver.paths()])

    @classmethod
    def from_images(cls, quiver: Quiver, image) -> "LinearOperator":
        """Build an operator from a function basis path -> AlgebraElement."""
        return cls._of(quiver, [image(p) for p in quiver.paths()])

    @property
    def matrix(self) -> RationalMatrix:
        q = self.quiver
        n = len(self.images)
        # the coefficients of an element are nonzero Fractions already
        rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for j, img in enumerate(self.images):
            for p, c in img._terms.items():
                rows[q.path_index(p)][j] = c
        return RationalMatrix._of(rows, n)

    def _zip(self, other: "LinearOperator", combine) -> "LinearOperator":
        if self.quiver is not other.quiver and self.quiver != other.quiver:
            raise QuiverMismatchError("operators live over different quivers")
        return LinearOperator._of(self.quiver, map(combine, self.images, other.images))

    def apply(self, a: AlgebraElement | Path) -> AlgebraElement:
        q = self.quiver
        if isinstance(a, Path):
            return self.images[q.path_index(a)]
        if q is not a.quiver and q != a.quiver:
            raise QuiverMismatchError("operator and element live over different quivers")
        return AlgebraElement(
            q, [(w, c * x) for p, c in a._terms.items() for w, x in self.apply(p)._terms.items()]
        )

    def bracket(self, other: "LinearOperator") -> "LinearOperator":
        # column j of [A, B] is A(B(p_j)) - B(A(p_j))
        return self._zip(other, lambda a, b: self.apply(b) - other.apply(a))

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        return self._zip(other, operator.add)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        return self._zip(other, operator.sub)

    def __neg__(self) -> "LinearOperator":
        return LinearOperator._of(self.quiver, [-a for a in self.images])

    def __rmul__(self, scalar) -> "LinearOperator":
        if isinstance(scalar, Rational):
            return LinearOperator._of(self.quiver, [scalar * a for a in self.images])
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.images)

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(x for row in self.matrix.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, LinearOperator):
            return NotImplemented
        return self.quiver == other.quiver and self.images == other.images

    def __repr__(self):
        return f"LinearOperator({len(self.images)}x{len(self.images)})"


# ----------------------------------------------------------------------
# constructors


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


def inner_derivation(q: Quiver, a: Path | AlgebraElement) -> LinearOperator:
    """The inner derivation b -> ab - ba."""
    if isinstance(a, Path):
        a = AlgebraElement.from_path(q, a)
    elif a.quiver is not q and a.quiver != q:
        raise QuiverMismatchError("element lives over a different quiver")
    terms = a._terms.items()
    return LinearOperator.from_images(q, lambda p: AlgebraElement(q, _inner_terms(q, terms, p)))


def _splices(r: int, s: Path, p: Path) -> list[Path]:
    """The paths got from p by replacing one occurrence of the arrow r with
    the path s parallel to r, once per occurrence: D_{r,s}(p) is their sum."""
    a = p.arrows
    return [Path(p.base, a[:i] + s.arrows + a[i + 1 :]) for i, x in enumerate(a) if x == r]


def d_rs_apply(q: Quiver, r: int | str, s: Path, p: Path) -> AlgebraElement:
    """Apply D_{r,s} to a single path: replace one occurrence of r by s.

    Works on any quiver, cyclic or not, because it never enumerates the
    path basis.  Trivial paths and paths avoiding r map to zero.
    """
    if isinstance(r, str):
        r = q.arrow_index(r)
    arrow = q.arrows[r]
    if q.path_tail(s) != arrow.tail or q.path_head(s) != arrow.head:
        raise NotParallelError(
            f"path {q.path_display(s)} is not parallel to arrow {arrow.name}"
        )
    return AlgebraElement(q, [(u, _ONE) for u in _splices(r, s, p)])


def d_rs(q: Quiver, r: int | str, s: Path) -> LinearOperator:
    """D_{r,s} as an operator on the path basis (acyclic quivers only)."""
    if isinstance(r, str):
        r = q.arrow_index(r)
    return LinearOperator.from_images(q, lambda p: d_rs_apply(q, r, s, p))


def d_rs_element(q: Quiver, r: int | str, elem: AlgebraElement) -> LinearOperator:
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
    return LinearOperator.from_images(
        q, lambda p: AlgebraElement(q, [(u, c) for s, c in terms for u in _splices(r, s, p)])
    )


# ----------------------------------------------------------------------
# derivation tests


def is_derivation(op: LinearOperator) -> bool:
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


RULE_VERTEX_SUPPORT = "vertex-image-support"
RULE_VERTEX_PAIR = "vertex-coefficient-sum"
RULE_PATH_FORCED = "path-image-support"
RULE_FACTOR = "factorization-consistency"


ConditionViolation = namedtuple("ConditionViolation", "rule message")


def check_coefficient_conditions(op: LinearOperator) -> list[ConditionViolation]:
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
            c = m.entry(idx(w), col)
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
        total = m.entry(idx(w), idx(Path(q.path_tail(w)))) + m.entry(
            idx(w), idx(Path(q.path_head(w)))
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
                c = m.entry(idx(w), idx(Path(tail)))
                if forced_path is not None:
                    k = idx(forced_path)
                    forced[k] = forced.get(k, _ZERO) + c
            if q.path_tail(w) == head:
                forced_path = q.concat(p, w)
                c = m.entry(idx(w), idx(Path(head)))
                if forced_path is not None:
                    k = idx(forced_path)
                    forced[k] = forced.get(k, _ZERO) + c
        for w in paths:
            if q.path_tail(w) == tail and q.path_head(w) == head:
                continue  # parallel coefficients are free here
            actual = m.entry(idx(w), col)
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
                    expected += m.entry(idx(w1), c1)
                if starts:
                    w2 = Path(q.path_head(p1), w.arrows[k:])
                    expected += m.entry(idx(w2), c2)
                actual = m.entry(idx(w), col)
                if actual != expected:
                    violations.append(
                        ConditionViolation(
                            RULE_FACTOR,
                            f"coefficient of {disp(w)} in D({disp(p)}) is {actual}"
                            f" but the split {disp(p1)}|{disp(p2)} forces {expected}",
                        )
                    )
    return violations


# ----------------------------------------------------------------------
# the canonical basis


class DerivationLabel(namedtuple("DerivationLabel", "kind arrow path")):
    """Tag for a canonical basis member: Inner(s) or EdgePair(r, s); kind is
    "inner" or "edge_pair"."""

    __slots__ = ()

    def display(self, q: Quiver) -> str:
        if self.kind == "inner":
            return f"Inner({q.path_display(self.path)})"
        return f"EdgePair({q.arrows[self.arrow].name},{q.path_display(self.path)})"


class DerivationBasis:
    """The canonical ordered basis of the derivation Lie algebra."""

    def __init__(self, quiver: Quiver, labels, operators):
        self.quiver = quiver
        self.labels: tuple[DerivationLabel, ...] = tuple(labels)
        self.operators: tuple[LinearOperator, ...] = tuple(operators)
        self._index = {label: i for i, label in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.operators)

    def flat_rows(self) -> RationalMatrix:
        """Basis operators as stacked row vectors of length |P|^2."""
        n = len(self.quiver.paths())
        # entry (w, j) of an operator's matrix goes to column w n + j
        return RationalMatrix._of(
            [{w * n + j: c for w, row in enumerate(op.matrix._entries) for j, c in row.items()}
             for op in self.operators],
            n * n,
        )

    def coordinates_of(self, op: LinearOperator) -> tuple[Fraction, ...] | None:
        """Coordinates of ``op`` in this basis, or None if outside the span.

        The nonzero ones come from canonical_coordinates; every other
        coordinate is zero.
        """
        sparse = canonical_coordinates(self.quiver, op)
        if sparse is None:
            return None
        coords = [_ZERO] * len(self.labels)
        for label, c in sparse.items():
            coords[self._index[label]] = c
        return tuple(coords)

    def display_labels(self) -> tuple[str, ...]:
        return tuple(label.display(self.quiver) for label in self.labels)


def canonical_coordinates(
    q: Quiver, op: LinearOperator
) -> dict[DerivationLabel, Fraction] | None:
    """The nonzero canonical coordinates of ``op`` over ``q``, or None
    outside the span of the canonical basis.

    Each coordinate is one coefficient of op.  Inner(w) is the only
    member that puts w into the image of the idempotent at the head of
    w, so its coordinate is the coefficient of w in op(e_head(w)).
    EdgePair(r, s) is the only member that puts s into the image of the
    arrow r (an inner derivation D_u sends r to ur - ru, and those paths
    are parallel to r only when u is a cycle), so its coordinate is the
    coefficient of s in op(r).  Only the |V| + |E| generator images are
    read.  The coordinates rebuild op exactly when op lies in the span;
    the rebuild sums, at each basis path, the images of the members with
    a nonzero coordinate, so no basis is built.
    """
    if op.quiver is not q and op.quiver != q:
        raise QuiverMismatchError("operator lives over a different quiver")
    coords: dict[DerivationLabel, Fraction] = {}
    for v in range(q.num_vertices):
        for w, c in op.apply(q.trivial_path(v))._terms.items():
            if q.path_head(w) == v and q.path_tail(w) != v:
                coords[DerivationLabel("inner", None, w)] = c
    for r, arrow in enumerate(q.arrows):
        for s, c in op.apply(q.arrow_path(r))._terms.items():
            if q.path_tail(s) == arrow.tail and q.path_head(s) == arrow.head:
                coords[DerivationLabel("edge_pair", r, s)] = c

    inner = [(label.path, c) for label, c in coords.items() if label.kind == "inner"]
    pairs = [(label.arrow, label.path, c) for label, c in coords.items() if label.kind != "inner"]

    def rebuilt(p: Path) -> AlgebraElement:
        terms = _inner_terms(q, inner, p)
        for r, s, c in pairs:
            if r in p.arrows:
                terms += [(u, c) for u in _splices(r, s, p)]
        return AlgebraElement(q, terms)

    return coords if LinearOperator.from_images(q, rebuilt) == op else None


def _edge_pairs(q: Quiver) -> list[tuple[int, Path]]:
    """Every arrow r with every path s parallel to it, in (arrow, path) order."""
    return [(r, s) for r in range(q.num_arrows) for s in q.parallel_paths(q.arrow_path(r))]


def canonical_basis(q: Quiver) -> DerivationBasis:
    """Inner(s) for s acyclic in path order, then EdgePair(r, s) in
    (arrow, path) order; linearly independent and spanning."""
    labels = []
    operators = []
    for s in q.acyclic_paths():
        labels.append(DerivationLabel("inner", None, s))
        operators.append(inner_derivation(q, s))
    for r, s in _edge_pairs(q):
        labels.append(DerivationLabel("edge_pair", r, s))
        operators.append(d_rs(q, r, s))
    return DerivationBasis(q, labels, operators)


def inner_subspace(q: Quiver) -> RationalMatrix:
    """Coordinates of every D_p (p a basis path) in the canonical basis,
    written from the quiver with no operator built: D_{e_v} is row v of
    C_va on the EdgePair(k, k) block (+1 for each arrow k leaving v, -1
    for each arrow entering v), and D_p of a nontrivial path is the
    member Inner(p), column path_index(p) - |V|.  For a connected acyclic
    quiver the rank is |P| - 1: the kernel of p -> D_p is the center k.
    """
    num_inner = len(q.paths()) - q.num_vertices
    pairs = _edge_pairs(q)
    diagonal = {r: num_inner + i for i, (r, s) in enumerate(pairs) if s.arrows == (r,)}
    rows = [{} for _ in range(q.num_vertices)] + [{i: _ONE} for i in range(num_inner)]
    for k, a in enumerate(q.arrows):  # acyclic, so the tail and head rows differ
        rows[a.tail][diagonal[k]], rows[a.head][diagonal[k]] = _ONE, -_ONE
    return RationalMatrix._of(rows, num_inner + len(pairs))


# ----------------------------------------------------------------------
# brute-force oracle


def _leibniz_rows(q: Quiver) -> set[tuple[tuple[int, int], ...]]:
    """The oracle's equations, as sparse primitive integer rows: sorted
    (unknown, coefficient) pairs over their gcd, the first one positive,
    so that equations that are multiples of one another are one row."""
    paths = q.paths()
    n = len(paths)
    idx = q.path_index
    # the nonzero products: left[j] holds (u, index of u p_j), right[j]
    # holds (u, index of p_j u)
    left: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    right: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ja, a in enumerate(paths):
        for jb, b in enumerate(paths):
            ab = q.concat(a, b)
            if ab is not None:
                left[jb].append((ja, idx(ab)))
                right[ja].append((jb, idx(ab)))
    product = [dict(r) for r in right]
    rows: set[tuple[tuple[int, int], ...]] = set()
    for jx in range(n):
        for jy in range(n):
            per_w: dict[int, dict[int, int]] = {}
            for ju, w in left[jy]:
                d = per_w.setdefault(w, {})
                key = ju * n + jx
                d[key] = d.get(key, 0) + 1
            for ju, w in right[jx]:
                d = per_w.setdefault(w, {})
                key = ju * n + jy
                d[key] = d.get(key, 0) + 1
            jz = product[jx].get(jy)
            if jz is not None:
                for wi in range(n):
                    d = per_w.setdefault(wi, {})
                    key = wi * n + jz
                    d[key] = d.get(key, 0) - 1
            for d in per_w.values():
                entries = sorted((u, c) for u, c in d.items() if c)
                if entries:
                    g = gcd(*(c for _, c in entries))
                    if entries[0][1] < 0:
                        g = -g
                    rows.add(tuple((u, c // g) for u, c in entries))
    return rows


def derivation_space_oracle(q: Quiver, max_paths: int = 60) -> list[LinearOperator]:
    """Solve the raw Leibniz system in the n^2 unknown matrix entries.

    For every basis pair (x, y) and every potential image path w this
    imposes one linear equation relating the unknowns d[w, xy], d[u, x]
    (where u y = w) and d[u, y] (where x u = w), read off a table of
    the products of basis paths built once by concatenation.  The
    system is pre-simplified by unit propagation (an equation with one
    surviving unknown forces it to zero) and the residue is solved by
    exact elimination.  Nothing here knows about the structure theory.
    """
    # count the paths before enumerating them: T_40 has 2^40 - 1
    n = sum(map(sum, q.path_counts()))
    if n > max_paths:
        raise TooLargeError(f"{n} paths exceed the oracle cap of {max_paths}")
    paths = q.paths()

    # unit propagation: single-unknown equations force zeros
    active = [dict(r) for r in sorted(_leibniz_rows(q))]
    by_var: dict[int, list[int]] = {}
    for i, row in enumerate(active):
        for u in row:
            by_var.setdefault(u, []).append(i)
    zeroed: set[int] = set()
    queue = [next(iter(row)) for row in active if len(row) == 1]
    while queue:
        u = queue.pop()
        if u in zeroed:
            continue
        zeroed.add(u)
        for i in by_var.get(u, ()):
            row = active[i]
            if u in row:
                del row[u]
                if len(row) == 1:
                    queue.append(next(iter(row)))

    residual = [row for row in active if len(row) >= 2]
    touched = sorted({u for row in residual for u in row})
    solutions = []
    if touched:
        column = {u: k for k, u in enumerate(touched)}
        matrix = RationalMatrix._of(
            [{column[u]: Fraction(c) for u, c in row.items()} for row in residual], len(touched)
        )
        solutions = [[(touched[k], x) for k, x in row.items()] for row in matrix.kernel()._entries]
    touched_set = set(touched)
    solutions += [[(u, _ONE)] for u in range(n * n) if u not in zeroed and u not in touched_set]
    operators = []
    for solution in solutions:
        # the operator straight from the nonzero entries: unknown w n + j
        # is the coefficient of path w in the image of path j
        images: list[dict[Path, Fraction]] = [{} for _ in range(n)]
        for u, x in solution:
            images[u % n][paths[u // n]] = x
        operators.append(LinearOperator._of(q, [AlgebraElement._of(q, t) for t in images]))
    return operators


# ----------------------------------------------------------------------
# identities that hold on any quiver


def verify_inner_expansion(q: Quiver, c: Path) -> bool:
    """Check D_c against its edge-pair expansion on the generators.

    For an oriented cycle c based at v0 the inner derivation D_c equals
    sum of D_{p, cp} over arrows p leaving v0 minus sum of D_{r, rc}
    over arrows r entering v0.  Both sides are evaluated lazily on
    V union E only, which determines a derivation by the product rule,
    so this works on cyclic quivers where no matrix form exists.
    """
    if c.is_trivial or q.path_head(c) != q.path_tail(c):
        raise NotACycleError("the expansion is defined for nontrivial oriented cycles")
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


def verify_bracket_identities(q: Quiver) -> dict[str, bool]:
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
    inner = [inner_derivation(q, p).matrix for p in paths]
    elems = [AlgebraElement.from_path(q, p) for p in paths]
    # most pairs of paths commute; their right-hand side is one shared zero
    zero = RationalMatrix.zeros(len(paths), len(paths))
    inner_inner = True
    for i, a in enumerate(inner):
        for j, b in enumerate(inner):
            commutator = elems[i].commutator(elems[j])
            rhs = zero if commutator.is_zero else inner_derivation(q, commutator).matrix
            if a * b - b * a != rhs:
                inner_inner = False
                break
        if not inner_inner:
            break
    pairs = [(r, s, d_rs(q, r, s).matrix) for r, s in _edge_pairs(q)]
    edge_edge = True
    for r, s, a in pairs:
        for p, t, b in pairs:
            rhs = d_rs_element(q, p, d_rs_apply(q, r, s, t)) - d_rs_element(
                q, r, d_rs_apply(q, p, t, s)
            )
            if a * b - b * a != rhs.matrix:
                edge_edge = False
                break
        if not edge_edge:
            break
    return {"inner_inner": inner_inner, "edge_edge": edge_edge}


def inner_edge_bracket_sign(q: Quiver) -> int | None:
    """The global sign in [D_p, D_{r,s}] = sign * D_{D_{r,s}(p)}.

    Computed empirically over every acyclic path p and every edge pair
    (r, s) of the quiver; raises when the instances disagree or when a
    bracket is not proportional to the predicted inner derivation.
    Returns None when every instance degenerates to zero.
    """
    edge_ops = [(r, s, d_rs(q, r, s)) for r, s in _edge_pairs(q)]
    sign = None
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
                continue
            if br == target:
                found = 1
            elif br == -target:
                found = -1
            else:
                raise InternalCheckError(
                    "bracket is not proportional to the inner derivation of the image"
                )
            if sign is None:
                sign = found
            elif sign != found:
                raise InternalCheckError("bracket sign is not globally consistent")
    return sign
