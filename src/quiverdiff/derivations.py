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

An operator stores only its nonzero images, each a sparse row {path
index: coefficient}, the Row of the linear algebra.  The members of the
canonical basis write them off q.products(), the one table of basis
products, on the paths they move and no other: D_a writes a p_j - p_j a
with _product_sum for the paths p_j that start at h(w) or end at t(w)
for a term w of a, and D_{r,s} writes u s v at u r v, the one way a
path of an acyclic quiver runs along r.  _splices is D_{r,s} on one
path of any quiver, listed, and d_rs_apply is its checked public form.
_bracket_pairs, the one edge-edge bracket, splices single paths to
write [D_{r,s}, D_{p,t}] on EdgePair labels; the HH1 structure table
runs it and verify_bracket_identities checks it.  The canonical
coordinates of an operator are read off as single coefficients, the
coefficient of w in the image of the idempotent at the head of w for
Inner(w) and the coefficient of s in the image of the arrow r for
EdgePair(r, s), and accepted only if _combination, the sum of each
coordinate times its member, rebuilds the operator.  The inner
subspace is written from its closed form and builds no operator.
|P| x |P| matrices, which store only their nonzero entries, appear
only at the edges: the CLI's matrix output, the matrix brackets of
verify_bracket_identities, and the flattened rows compared with a
brute-force oracle.  The Leibniz and coefficient checks read the rows
and every product of basis paths off one table, q.products().  The
matrix brackets are RationalMatrix products AB - BA, which never go
through LinearOperator.bracket or a closed-form right side: an
independent reference for both.  The oracle solves the raw Leibniz
system in the n^2 matrix entries, knowing nothing about the structure
theory, so its solution space is independent ground truth for the
canonical basis.  It streams its equations, of at most three unknowns
each, into _row_kernel, which merges d[u] = 0 and d[u] = +-d[v] into
signed classes as they come and stores only the few longer rows.

The checks skip work only where their own operands show that it gives
zero.  A matrix moves the columns where it has entries and hits the
paths of its nonempty rows, so AB can be nonzero only where the paths
B hits meet the columns A moves; both sets are read off the operands
alone.  The bracket checks read the members of the basis they check,
and build only right sides and the |V| operators D_{e_v}, no members.
verify_bracket_identities decides every ordered pair, but forms a
product only where the supports meet, and where both products are zero
it requires the right-hand side to be zero; each distinct inner right
side is built once.  inner_edge_bracket_sign brackets only where the
supports meet and builds D_{D_{r,s}(p)} only where r runs along p.  The
Leibniz and coefficient checks visit only the pairs of paths and the
coefficients that an operator's nonzero images can make nonzero.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Iterator
from numbers import Rational

from . import algebra
from .errors import (
    ORACLE_MAX_PATHS,
    InternalCheckError,
    NotParallelError,
    QuiverMismatchError,
    TooLargeError,
)
from .linalg import _ONE, _ZERO, RationalMatrix, Row, Scalar, _exact, _merged, _row_kernel
from .quiver import Path, Quiver


class LinearOperator:
    """A linear self-map of kGamma, stored as its nonzero images.

    ``images[j]`` is the image of the j-th basis path as a sparse row
    {path index: nonzero coefficient}, for each j whose image is not zero;
    ``matrix`` builds the matrix (column j = images[j]) on each read.
    ``from_images`` takes a function basis path -> AlgebraElement.  Sums,
    scalar multiples and brackets of operators are operators again.
    Integral inputs give int coefficients; non-integral operands may leave
    an integral Fraction, as 2 * (Fraction(1, 2) * op) does, which
    compares, hashes and prints as the int.
    """

    __slots__ = ("quiver", "images")

    @classmethod
    def _of(cls, quiver: Quiver, images: dict[int, Row]) -> "LinearOperator":
        # images: nonempty rows of nonzero exact coefficients, never mutated
        op = cls.__new__(cls)
        op.quiver = quiver
        op.images = images
        return op

    @classmethod
    def zero(cls, quiver: Quiver) -> "LinearOperator":
        return cls._of(quiver, {})

    @classmethod
    def from_images(cls, quiver: Quiver, image) -> "LinearOperator":
        """Build an operator from a function basis path -> AlgebraElement."""
        index, images = quiver.path_index, {}
        for j, p in enumerate(quiver.paths()):
            # an element's terms are distinct paths with nonzero coefficients
            row = {index(w): c for w, c in image(p)._terms.items()}
            if row:
                images[j] = row
        return cls._of(quiver, images)

    @property
    def matrix(self) -> RationalMatrix:
        n, rows = len(self.quiver.paths()), self._rows()
        return RationalMatrix._of([rows.get(k, {}) for k in range(n)], n)

    def _rows(self) -> dict[int, Row]:
        """The nonempty rows of ``matrix`` by index: row k holds the
        coefficients of path k in the images."""
        rows: dict[int, Row] = {}
        for j, image in self.images.items():
            for k, c in image.items():
                rows.setdefault(k, {})[j] = c
        return rows

    def _zip(self, other: "LinearOperator", combine) -> "LinearOperator":
        if self.quiver is not other.quiver and self.quiver != other.quiver:
            raise QuiverMismatchError("operators live over different quivers")
        images = {}
        for j in sorted(self.images.keys() | other.images.keys()):
            row = combine(self.images.get(j, {}), other.images.get(j, {}))
            if row:
                images[j] = row
        return LinearOperator._of(self.quiver, images)

    def _mapped(self, row: Row) -> Row:
        """The image of the vector ``row``, pruned."""
        acc: Row = {}
        for j, c in row.items():
            for k, x in self.images.get(j, {}).items():
                acc[k] = acc.get(k, _ZERO) + c * x
        return {k: x for k, x in acc.items() if x}

    def apply(self, a: algebra.AlgebraElement | Path) -> algebra.AlgebraElement:
        q = self.quiver
        if isinstance(a, Path):
            a = algebra.AlgebraElement.from_path(q, a)
        elif q is not a.quiver and q != a.quiver:
            raise QuiverMismatchError("operator and element live over different quivers")
        image = self._mapped({q.path_index(p): c for p, c in a._terms.items()})
        return algebra.AlgebraElement._of(q, {q.paths()[k]: c for k, c in image.items()})

    def bracket(self, other: "LinearOperator") -> "LinearOperator":
        # column j of [A, B] is A(B(p_j)) - B(A(p_j)); B maps -A(p_j), and -B is never built
        def column(a: Row, b: Row) -> Row:
            return _merged(self._mapped(b), other._mapped({k: -x for k, x in a.items()}))

        return self._zip(other, column)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        return self._zip(other, _merged)

    def __neg__(self) -> "LinearOperator":
        return -1 * self

    def __rmul__(self, scalar) -> "LinearOperator":
        if not isinstance(scalar, Rational):
            return NotImplemented
        c = _exact(scalar)
        images = {j: {k: c * x for k, x in row.items()} for j, row in self.images.items() if c}
        return LinearOperator._of(self.quiver, images)

    @property
    def is_zero(self) -> bool:
        return not self.images

    def flatten(self) -> tuple[Scalar, ...]:
        return tuple(x for row in self.matrix.rows for x in row)

    def flat_row(self) -> Row:
        """flatten() as a sparse row: entry (w, j) of the matrix at column w |P| + j."""
        n = len(self.quiver.paths())
        return {w * n + j: c for j, image in self.images.items() for w, c in image.items()}

    def __eq__(self, other):
        if not isinstance(other, LinearOperator):
            return NotImplemented
        return self.quiver == other.quiver and self.images == other.images

    def __repr__(self):
        return "LinearOperator({0}x{0})".format(len(self.quiver.paths()))


# ----------------------------------------------------------------------
# constructors


def inner_derivation(q: Quiver, a: Path | algebra.AlgebraElement) -> LinearOperator:
    """The inner derivation b -> ab - ba, its image of p_j the row a p_j - p_j a
    read off q.products() for the paths p_j starting at h(w) or ending at t(w)
    for a term w of a: the others have w p_j = p_j w = 0."""
    if isinstance(a, Path):
        terms = [(a, _ONE)]
    elif a.quiver is not q and a.quiver != q:
        raise QuiverMismatchError("element lives over a different quiver")
    else:
        terms = a._terms.items()
    left = {q.path_index(w): c for w, c in terms}  # a ValueError for a path not of q
    right = {w: -c for w, c in left.items()}
    moved = {j for w, _ in terms for j in q.paths_at(q.path_head(w))[0] + q.paths_at(w.base)[1]}
    products, images = q.products(), {}
    for j in sorted(moved):
        row = {k: c for k, c in _product_sum(products, left, j, j, right).items() if c}
        if row:
            images[j] = row
    return LinearOperator._of(q, images)


def _splices(r: int, s: Path, p: Path) -> list[Path]:
    """The paths got from p by replacing one occurrence of the arrow r with
    the path s parallel to r, once per occurrence: D_{r,s}(p) is their sum."""
    a = p.arrows
    return [Path(p.base, a[:i] + s.arrows + a[i + 1 :]) for i, x in enumerate(a) if x == r]


def _bracket_pairs(q: Quiver, left, right) -> dict[tuple[int, Path], Scalar]:
    """[sum c D_{r,s}, sum d D_{p,t}] on EdgePair labels, by the identity
    [D_{r,s}, D_{p,t}] = D_{p, D_{r,s}(t)} - D_{r, D_{p,t}(s)}."""
    out: dict[tuple[int, Path], Scalar] = {}
    for (r, s), c in left.items():
        for (p, t), d in right.items():
            # D_{r,s}(t) vanishes unless r runs along t
            if r in t.arrows:
                for u in _splices(r, s, t):
                    out[p, u] = out.get((p, u), _ZERO) + c * d
            if p in s.arrows:
                for u in _splices(p, t, s):
                    out[r, u] = out.get((r, u), _ZERO) - c * d
    return {key: c for key, c in out.items() if c}


def _check_path(q: Quiver, p: Path) -> None:
    """Raise ValueError unless p is a path of q: a vertex of q, then arrows of q
    each leaving the head of the one before.  Enumerates no path, so it works on
    cyclic quivers too."""
    v = p.base if p.base in range(q.num_vertices) else None
    for a in p.arrows:
        v = q.arrows[a].head if a in range(q.num_arrows) and q.arrows[a].tail == v else None
    if v is None:
        raise ValueError(f"path {p!r} does not belong to this quiver")


def _parallel_arrow(q: Quiver, r: int | str, s: Path) -> int:
    """The index of the arrow r, once s is checked to be a path parallel to it."""
    r = q.arrow_path(r).arrows[0]  # a ValueError for a name or index that is no arrow
    _check_path(q, s)
    arrow = q.arrows[r]
    if q.path_tail(s) != arrow.tail or q.path_head(s) != arrow.head:
        raise NotParallelError(f"path {q.path_display(s)} is not parallel to arrow {arrow.name}")
    return r


def d_rs_apply(q: Quiver, r: int | str, s: Path, p: Path) -> algebra.AlgebraElement:
    """Apply D_{r,s} to a single path: replace one occurrence of r by s.

    Works on any quiver, cyclic or not, because it never enumerates the
    path basis.  Trivial paths and paths avoiding r map to zero.
    """
    r = _parallel_arrow(q, r, s)
    _check_path(q, p)
    return algebra.AlgebraElement(q, [(u, _ONE) for u in _splices(r, s, p)])


def d_rs(q: Quiver, r: int | str, s: Path) -> LinearOperator:
    """D_{r,s} on the path basis (acyclic quivers only): a path through r runs
    along it once, so D_{r,s}(p_i r p_j) = p_i s p_j, both read off q.products()
    for the p_i ending at t(r) and the p_j starting at h(r)."""
    r = _parallel_arrow(q, r, s)
    products, arrow = q.products(), q.arrow_path(r)
    ri, si = q.path_index(arrow), q.path_index(s)
    after, images = q.paths_at(q.path_head(arrow))[0], {}
    for i in q.paths_at(arrow.base)[1]:
        through, spliced = products[products[i][ri]], products[products[i][si]]
        for j in after:
            images[through[j]] = {spliced[j]: _ONE}
    return LinearOperator._of(q, dict(sorted(images.items())))


# ----------------------------------------------------------------------
# derivation tests


def _product_sum(products, left: dict, j: int, i: int, right: dict) -> Row:
    """left p_j + p_i right as a {path index: coefficient} row, left and
    right such rows too, each product of basis paths read off ``products``
    (q.products()); coefficients that cancel stay as zeros."""
    acc: Row = {}
    for w, c in left.items():
        k = products[w].get(j)
        if k is not None:
            acc[k] = acc.get(k, _ZERO) + c
    row = products[i]
    for w, c in right.items():
        k = row.get(w)
        if k is not None:
            acc[k] = acc.get(k, _ZERO) + c
    return acc


def is_derivation(op: LinearOperator) -> bool:
    """Leibniz rule on all basis pairs, zero products included.

    D(p_i p_j) and D(p_i) p_j + p_i D(p_j) are compared as {path index:
    coefficient} rows read off q.products(); no element is multiplied.
    Only pairs where one can be nonzero are visited: p_i p_j moved by D,
    p_j leaving the head or p_i entering the tail of a term of an image.
    """
    q, images, products = op.quiver, op.images, op.quiver.products()
    pairs = {(i, j) for i, row in enumerate(products) for j, z in row.items() if z in images}
    for k, image in images.items():
        for w in image:  # D(p_k) p_j and p_i D(p_k) vanish off these pairs
            pairs.update((k, j) for j in products[w])
            pairs.update((i, k) for i in q.paths_at(q.paths()[w].base)[1])
    for i, j in pairs:
        rhs = _product_sum(products, images.get(i, {}), j, i, images.get(j, {}))
        if images.get(products[i].get(j), {}) != {w: c for w, c in rhs.items() if c}:
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
    coefficients are consistent with those of the factors.  Images are
    read off the operator's rows and products of basis paths off
    q.products(); no matrix is built, and only the coefficients on the
    keys of the images read are compared.  The list is empty exactly
    when the operator is a derivation.
    """
    q = op.quiver
    paths = q.paths()
    products = q.products()
    tails, heads = [p.base for p in paths], [q.path_head(p) for p in paths]
    images = [op.images.get(j, {}) for j in range(len(paths))]
    at_vertex = [images[q.path_index(q.trivial_path(v))] for v in range(q.num_vertices)]
    violations = []
    disp = q.path_display

    # images of vertex idempotents live on acyclic paths touching the vertex
    for v, image in enumerate(at_vertex):
        for wi in sorted(image):
            w = paths[wi]
            touches = tails[wi] == v or heads[wi] == v
            if w.is_trivial or heads[wi] == tails[wi] or not touches:
                violations.append(
                    ConditionViolation(
                        RULE_VERTEX_SUPPORT,
                        f"D({disp(q.trivial_path(v))}) has coefficient {image[wi]} on {disp(w)}",
                    )
                )

    # for each acyclic path, the coefficients in the head and tail
    # vertex images must cancel; both are zero off the vertex images
    for wi in sorted(set().union(*at_vertex)):
        w = paths[wi]
        if w.is_trivial or heads[wi] == tails[wi]:
            continue
        total = at_vertex[tails[wi]].get(wi, _ZERO) + at_vertex[heads[wi]].get(wi, _ZERO)
        if total != 0:
            violations.append(
                ConditionViolation(
                    RULE_VERTEX_PAIR,
                    f"coefficients of {disp(w)} at its endpoints sum to {total}",
                )
            )

    # image of a nontrivial path: forced prefix/suffix terms plus free
    # parallel terms, nothing else; none where D(p) and the images of
    # its end idempotents are all empty
    for pi, p in enumerate(paths):
        if p.is_trivial:
            continue
        tail, head = tails[pi], heads[pi]
        t_image, h_image, image = at_vertex[tail], at_vertex[head], images[pi]
        if not (image or t_image or h_image):
            continue
        # the terms w p and p w of the vertex images; on an acyclic quiver
        # every such w is acyclic but e_tail and e_head, which give p: parallel
        forced = _product_sum(products, t_image, pi, pi, h_image)
        for wi in sorted(image.keys() | forced.keys()):
            if tails[wi] == tail and heads[wi] == head:
                continue  # parallel coefficients are free here
            actual, expected = image.get(wi, _ZERO), forced.get(wi, _ZERO)
            if actual != expected:
                violations.append(
                    ConditionViolation(
                        RULE_PATH_FORCED,
                        f"D({disp(p)}) has coefficient {actual} on {disp(paths[wi])},"
                        f" the vertex images force {expected}",
                    )
                )

    # factorization consistency across every split p = p1 p2; none where
    # D(p), D(p1) and D(p2) are all empty.  The splits of p into nontrivial
    # factors, read off the products, come by increasing index of p1, and
    # so by increasing length: the prefixes of p share its tail
    splits: list[list[tuple[int, int]]] = [[] for _ in paths]
    for c1, row in enumerate(products):
        if paths[c1].arrows:
            for c2, pi in row.items():
                if paths[c2].arrows:
                    splits[pi].append((c1, c2))
    for pi, factors in enumerate(splits):
        image, tail, head = images[pi], tails[pi], heads[pi]
        for c1, c2 in factors:
            if not (image or images[c1] or images[c2]):
                continue
            # the terms w1 p2 of D(p1) p2 and p1 w2 of p1 D(p2), compared where parallel to p
            split = _product_sum(products, images[c1], c2, c1, images[c2])
            for wi in sorted(image.keys() | split.keys()):  # both are zero off these keys
                if tails[wi] != tail or heads[wi] != head:
                    continue
                actual, expected = image.get(wi, _ZERO), split.get(wi, _ZERO)
                if actual != expected:
                    violations.append(
                        ConditionViolation(
                            RULE_FACTOR,
                            f"coefficient of {disp(paths[wi])} in D({disp(paths[pi])}) is {actual}"
                            f" but the split {disp(paths[c1])}|{disp(paths[c2])} forces {expected}",
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
        return RationalMatrix._of([op.flat_row() for op in self.operators], n * n)

    def coordinates_of(self, op: LinearOperator) -> tuple[Scalar, ...] | None:
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
) -> dict[DerivationLabel, Scalar] | None:
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
    the rebuild is the sum of c * _member(label) over the nonzero
    coordinates, so only those members are built, not the basis.
    """
    if op.quiver is not q and op.quiver != q:
        raise QuiverMismatchError("operator lives over a different quiver")
    coords: dict[DerivationLabel, Scalar] = {}
    for v in range(q.num_vertices):
        for w, c in op.apply(q.trivial_path(v))._terms.items():
            if q.path_head(w) == v and q.path_tail(w) != v:
                coords[DerivationLabel("inner", None, w)] = c
    for r, arrow in enumerate(q.arrows):
        for s, c in op.apply(q.arrow_path(r))._terms.items():
            if q.path_tail(s) == arrow.tail and q.path_head(s) == arrow.head:
                coords[DerivationLabel("edge_pair", r, s)] = c
    return coords if _combination(q, coords.items()) == op else None


def _member(q: Quiver, label: DerivationLabel) -> LinearOperator:
    """The canonical basis member named by ``label``: D_s or D_{r,s}."""
    if label.kind == "inner":
        return inner_derivation(q, label.path)
    return d_rs(q, label.arrow, label.path)


def _combination(q: Quiver, coords, member=_member) -> LinearOperator:
    """The sum of c * member(q, label) over the (label, c) pairs of ``coords``."""
    return sum((c * member(q, label) for label, c in coords), LinearOperator.zero(q))


def canonical_basis(q: Quiver) -> DerivationBasis:
    """Inner(s) for s acyclic in path order, then EdgePair(r, s) in
    (arrow, path) order; linearly independent and spanning."""
    labels = [DerivationLabel("inner", None, s) for s in q.acyclic_paths()]
    labels += [DerivationLabel("edge_pair", r, s) for r, s in q.edge_pairs()]
    return DerivationBasis(q, labels, [_member(q, label) for label in labels])


def inner_subspace(q: Quiver) -> RationalMatrix:
    """Coordinates of every D_p (p a basis path) in the canonical basis,
    written from the quiver with no operator built: D_{e_v} is row v of
    C_va on the EdgePair(k, k) block (+1 for each arrow k leaving v, -1
    for each arrow entering v), and D_p of a nontrivial path is the
    member Inner(p), column path_index(p) - |V|.  For a connected acyclic
    quiver the rank is |P| - 1: the kernel of p -> D_p is the center k.
    """
    num_inner = len(q.paths()) - q.num_vertices
    pairs = q.edge_pairs()
    diagonal = {r: num_inner + i for i, (r, s) in enumerate(pairs) if s.arrows == (r,)}
    rows = [{} for _ in range(q.num_vertices)] + [{i: _ONE} for i in range(num_inner)]
    for k, a in enumerate(q.arrows):  # acyclic, so the tail and head rows differ
        rows[a.tail][diagonal[k]], rows[a.head][diagonal[k]] = _ONE, -_ONE
    return RationalMatrix._of(rows, num_inner + len(pairs))


# ----------------------------------------------------------------------
# brute-force oracle


def _leibniz_rows(q: Quiver) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield the oracle's equations as tuples of at most three (unknown,
    coefficient) pairs, unknown u n + j being d[u, j]; one may repeat.

    The equation of (x, y, w) is d[u, x] + d[v, y] = d[w, xy], each term
    there only when u p_y = w (by_head[y]), p_x v = w (by_tail[x]) or p_x
    p_y is not zero; d[u, x] is d[w, xy] when p_y is an idempotent, as is
    d[v, y] when p_x is.  With neither u nor v it is d[w, xy] = 0, written
    once per product z for the w that miss the w-set of some p_x p_y = p_z.
    When p_x p_y = 0 only the equations of two unknowns are written, off
    the factorizations of w: d[u, x] = 0 alone is also the equation of (x,
    e_h(x), u), and d[v, y] = 0 that of (e_t(y), y, v).
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
    # for each product path z, the w in the equations of every p_x p_y = p_z
    touched: dict[int, set[int]] = {}
    for jx, row in enumerate(product):
        tail = by_tail[jx]
        for jy, jz in row.items():
            head = by_head[jy]
            ws = head.keys() | tail.keys()
            touched[jz] = touched[jz] & ws if jz in touched else ws
            for w, u in head.items():
                v = tail.get(w)
                if u == w:  # p_y = e_h(x): d[u, x] is d[w, xy]
                    if v is not None:
                        yield ((v * n + jy, 1),)
                elif v == w:  # p_x = e_t(y): d[v, y] is d[w, xy]
                    yield ((u * n + jx, 1),)
                elif v is None:
                    yield ((u * n + jx, 1), (w * n + jz, -1))
                else:
                    yield ((u * n + jx, 1), (v * n + jy, 1), (w * n + jz, -1))
            for w, v in tail.items():
                if v != w and w not in head:
                    yield ((v * n + jy, 1), (w * n + jz, -1))
    for pairs in factors:  # w = p_x v = u p_y with p_x p_y = 0
        for x, v in pairs:
            for u, y in pairs:
                if y not in product[x]:
                    yield ((u * n + x, 1), (v * n + y, 1))
    # d[w, z] = 0 alone is the equation of any p_x p_y = p_z whose w-set misses w
    for jz, ws in touched.items():
        yield from (((w * n + jz, 1),) for w in range(n) if w not in ws)


def derivation_space_oracle(q: Quiver, max_paths: int = ORACLE_MAX_PATHS) -> list[LinearOperator]:
    """Solve the raw Leibniz system in the n^2 unknown matrix entries.

    For every basis pair (x, y) and every potential image path w this
    imposes one equation in d[w, xy], d[u, x] (u y = w) and d[u, y] (x u
    = w), read off q.products() and streamed into _row_kernel.  Almost
    every one says d[u] = 0 or d[u] = +-d[v], which merge signed classes
    of unknowns as they come; only the rest are eliminated exactly.
    Nothing here knows about the structure theory.
    """
    # count the paths before enumerating them: T_40 has 2^40 - 1
    n = q.num_paths()
    if n > max_paths:
        raise TooLargeError(f"{n} paths exceed the oracle cap of {max_paths}")
    operators = []
    for solution in _row_kernel(_leibniz_rows(q), n * n):
        # the rows straight from the nonzero entries: unknown w n + j is
        # the coefficient of path w in the image of path j
        images: dict[int, Row] = {}
        for u, x in solution.items():
            images.setdefault(u % n, {})[u // n] = x
        operators.append(LinearOperator._of(q, images))
    return operators


# ----------------------------------------------------------------------
# bracket identities of the canonical basis


def _support(rows: dict[int, Row]) -> tuple[frozenset[int], frozenset[int]]:
    """The indices of the nonempty rows and the union of their keys: for the
    rows of a RationalMatrix, the paths it hits and the columns it moves;
    for the images of an operator, the paths it moves and those it hits."""
    return frozenset(k for k, row in rows.items() if row), frozenset().union(*rows.values())


def verify_bracket_identities(basis: DerivationBasis) -> dict[str, bool]:
    """Spot-check the closed bracket formulas against matrix brackets.

    inner_inner: [D_p, D_r] is the inner derivation of the commutator pr - rp
    for all basis path pairs, pr and rp read off q.products().  edge_edge:
    [D_{r,s}, D_{p,t}] is the combination of members of ``basis`` that
    _bracket_pairs, the HH1 table's routine, writes for it, for all edge
    pairs.  The left-hand sides are RationalMatrix products AB - BA of the
    matrices of the members and of D_{e_v}, the one operand built here:
    they share no code with LinearOperator.bracket or a right side, so
    they check both independently.  Every ordered pair is decided against
    its own right-hand side; the two products of an unordered pair are
    formed once, and only where the supports meet.  AB is compared with
    BA plus R's nonempty rows, read off R's images, so no matrix is built
    for R and no matrices are added.
    """
    q = basis.quiver
    paths, products = q.paths(), q.products()
    # a product that is zero by support is one shared zero matrix
    zero = RationalMatrix.zeros(len(paths), len(paths))

    def member(q: Quiver, label: DerivationLabel) -> LinearOperator:
        return basis.operators[basis._index[label]]

    # each right side R as the nonempty rows of its matrix; pairs that share
    # p_i p_j and p_j p_i share one inner right side
    @functools.cache
    def inner_side(ij: int | None, ji: int | None) -> dict[int, Row]:
        terms = [(paths[k], c) for k, c in ((ij, _ONE), (ji, -_ONE)) if k is not None]
        return inner_derivation(q, algebra.AlgebraElement(q, terms))._rows()

    def inner_rhs(i: int, j: int) -> dict[int, Row]:
        # on an acyclic quiver p_i p_j = p_j p_i only where both are zero or i = j
        ij, ji = products[i].get(j), products[j].get(i)
        return {} if ij == ji else inner_side(ij, ji)

    def edge_rhs(x: tuple[int, Path], y: tuple[int, Path]) -> dict[int, Row]:
        pairs = _bracket_pairs(q, {x: _ONE}, {y: _ONE}).items()
        labels = ((DerivationLabel("edge_pair", r, u), c) for (r, u), c in pairs)
        return _combination(q, labels, member)._rows()

    def holds(ab: RationalMatrix, ba: RationalMatrix, r: dict[int, Row]) -> bool:
        # AB - BA == R as AB == BA + R, R added on its own rows only; where
        # both are zero by support, R must be zero
        if ab is zero and ba is zero:
            return not r
        expected = list(ba._entries)
        for k, row in r.items():
            expected[k] = _merged(expected[k], row)
        return ab._entries == tuple(expected)

    def all_hold(operands, rhs) -> bool:
        """AB - BA == rhs(x, y) for every ordered pair of operands (A, x), (B, y)."""
        # AB can be nonzero only where the paths B hits meet the columns A moves
        supported = [(a, *_support(dict(enumerate(a._entries))), x) for a, x in operands]
        for i, (a, a_hits, a_moves, x) in enumerate(supported):
            for j in range(i, len(supported)):
                b, b_hits, b_moves, y = supported[j]
                ab = zero if a_moves.isdisjoint(b_hits) else a * b
                ba = ab if j == i else zero if b_moves.isdisjoint(a_hits) else b * a
                if not holds(ab, ba, rhs(x, y)) or (j > i and not holds(ba, ab, rhs(y, x))):
                    return False
        return True

    inner = []
    for i, p in enumerate(paths):  # D_{e_v} is no member: the one operand built here
        op = member(q, DerivationLabel("inner", None, p)) if p.arrows else inner_derivation(q, p)
        inner.append((op.matrix, i))
    members = zip(basis.labels, basis.operators)
    pairs = [(op.matrix, (r, s)) for (kind, r, s), op in members if kind == "edge_pair"]
    return {"inner_inner": all_hold(inner, inner_rhs), "edge_edge": all_hold(pairs, edge_rhs)}


def inner_edge_bracket_sign(basis: DerivationBasis) -> int | None:
    """The global sign in [D_p, D_{r,s}] = sign * D_{D_{r,s}(p)}.

    Computed empirically over the members D_p, p acyclic, and D_{r,s} of
    ``basis``; raises when the instances disagree or when a bracket is not
    proportional to the predicted inner derivation, the one operator built
    here.  Returns None when every instance degenerates to zero.
    """
    q, inner_ops, edge_ops = basis.quiver, [], []
    # [D_p, D_{r,s}] is zero by support where neither operator hits a path the other moves
    for (kind, r, s), op in zip(basis.labels, basis.operators):
        (edge_ops if kind == "edge_pair" else inner_ops).append((r, s, op, *_support(op.images)))
    zero = LinearOperator.zero(q)
    signs = set()
    for _, p, dp, dp_moves, dp_hits in inner_ops:
        for r, s, op, moves, hits in edge_ops:
            meets = not dp_moves.isdisjoint(hits) or not moves.isdisjoint(dp_hits)
            br = dp.bracket(op) if meets else zero
            # D_{r,s}(p) = 0, and with it the target, unless r runs along p
            target = inner_derivation(q, d_rs_apply(q, r, s, p)) if r in p.arrows else zero
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
