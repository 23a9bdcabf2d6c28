"""Exact linear algebra over the rationals.

A matrix stores only its nonzero entries: each row is a dict {column:
Fraction}, and every routine here reads and writes those rows directly,
so arithmetic and elimination cost in proportion to the nonzeros.  A
product walks the nonzero entries of each row of A against those of the
matching rows of B.  kernel() and LinearSolver answer in those sparse
rows too.  Dense vectors enter through one function, ``_sparse``; dense
tuples are built only for ``rows`` and ``row(i)``.  Every elimination
runs through one kernel, EchelonBasis:
sparse primitive integer rows, reduced forward only (fraction-free, as
in Bareiss, Math. Comp. 22, 1968), with no floating point.  Batches of
rows, LinearSolver's tagged ones too, go in through ``spanning``, latest
leading column first (a fixed row order in the spirit of Markowitz,
Management Sci. 3, 1957); caller order fills in on the row-major vertex
and face rows of a planar grid.  rank reads the forward pivots; rref,
kernel and row-space intersection (Zassenhaus) back-substitute once to
the reduced row echelon form.  LinearSolver needs no back-substitution:
a target carries a 1 in one more column, which no stored row reaches,
so forward reduction leaves the answer's scale there.  The reduced row
echelon form of a row space is unique, so ranks, echelon forms, kernels
and intersections do not depend on the order the rows are inserted in.
Forward-only rows matter for Zassenhaus: keeping every row fully reduced
fills in the right half of the block [[A A], [B 0]], which for a report
on a 112-arrow grid is 114 x 224.  _row_kernel, the oracle's solver,
puts a signed union-find in front of kernel() for systems that are
almost all rows d[u] = 0 and d[u] = +-d[v].
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import DimensionMismatchError

Vector = tuple[Fraction, ...]
Row = dict[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_vector(entries) -> Vector:
    # entries that are already exact Fractions are shared, not rebuilt
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def _sparse(vec, n: int) -> Row:
    """The nonzero entries of ``vec``, a dense vector of length n, by
    column: every dense vector enters the linear algebra here."""
    v = as_vector(vec)
    if len(v) != n:
        raise DimensionMismatchError(f"a vector of length {len(v)} in {n} columns")
    return {j: x for j, x in enumerate(v) if x}


class RationalMatrix:
    """Immutable rational matrix that stores only its nonzero entries.

    Row i is a dict {column: Fraction} of its nonzero entries.  No zero
    is stored, so two matrices are equal, and hash alike, exactly when
    their entries are.  The public constructor takes dense rows of
    anything Fraction accepts; ``rows`` and ``row(i)`` build dense
    tuples on each read.
    """

    __slots__ = ("num_rows", "num_cols", "_entries")

    def __init__(self, rows, num_cols: int | None = None):
        data = [tuple(r) for r in rows]
        if num_cols is None:
            num_cols = len(data[0]) if data else 0
        self.num_rows, self.num_cols = len(data), num_cols
        self._entries = tuple(_sparse(r, num_cols) for r in data)

    @classmethod
    def _of(cls, rows, num_cols: int) -> "RationalMatrix":
        # rows: one dict of nonzero Fraction entries per row, never mutated
        m = cls.__new__(cls)
        m._entries = tuple(rows)
        m.num_rows, m.num_cols = len(m._entries), num_cols
        return m

    @classmethod
    def zeros(cls, num_rows: int, num_cols: int) -> "RationalMatrix":
        return cls._of([{} for _ in range(num_rows)], num_cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of([{i: _ONE} for i in range(n)], n)

    @classmethod
    def stack(cls, *matrices: "RationalMatrix") -> "RationalMatrix":
        widths = {m.num_cols for m in matrices}
        if len(widths) > 1:
            raise DimensionMismatchError("stacked matrices must share a column count")
        width = widths.pop() if widths else 0
        return cls._of([r for m in matrices for r in m._entries], width)

    @property
    def rows(self) -> tuple[Vector, ...]:
        return tuple(map(self.row, range(self.num_rows)))

    def row(self, i: int) -> Vector:
        if not 0 <= i < self.num_rows:
            raise IndexError(f"row {i} outside 0..{self.num_rows - 1}")
        out = [_ZERO] * self.num_cols
        for j, x in self._entries[i].items():
            out[j] = x
        return tuple(out)

    def entry(self, i: int, j: int) -> Fraction:
        if not 0 <= i < self.num_rows:
            raise IndexError(f"row {i} outside 0..{self.num_rows - 1}")
        if not 0 <= j < self.num_cols:
            raise IndexError(f"column {j} outside 0..{self.num_cols - 1}")
        return self._entries[i].get(j, _ZERO)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.num_rows == other.num_rows
            and self.num_cols == other.num_cols
            and self._entries == other._entries
        )

    def __hash__(self):
        rows = tuple(frozenset(r.items()) for r in self._entries)
        return hash((self.num_rows, self.num_cols, rows))

    def __repr__(self):
        return f"RationalMatrix({self.num_rows}x{self.num_cols})"

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.num_rows, self.num_cols) != (other.num_rows, other.num_cols):
            raise DimensionMismatchError("shape mismatch in addition")
        return RationalMatrix._of(map(_merged, self._entries, other._entries), self.num_cols)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        negated = [{j: -x for j, x in r.items()} for r in self._entries]
        return RationalMatrix._of(negated, self.num_cols)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.num_cols != other.num_rows:
            raise DimensionMismatchError("inner dimensions do not match")
        # row i of AB is the sum of A[i,k] * B[k,:] over the nonzero A[i,k]
        right = other._entries
        rows = []
        for r in self._entries:
            if not r:  # an empty row of A: an empty row, no accumulator
                rows.append(r)
                continue
            acc: Row = {}
            for k, a in r.items():
                for j, x in right[k].items():
                    y = acc.get(j)
                    acc[j] = a * x if y is None else y + a * x
            rows.append({j: x for j, x in acc.items() if x})
        return RationalMatrix._of(rows, other.num_cols)

    # ------------------------------------------------------------------
    # elimination

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        ech = self._echelon()
        padding = [{} for _ in range(self.num_rows - ech.rank)]
        return RationalMatrix._of(ech._reduced(ech.pivots) + padding, self.num_cols), ech.pivots

    def rank(self) -> int:
        return self._echelon().rank

    def _echelon(self) -> "EchelonBasis":
        return EchelonBasis.spanning(self.num_cols, self._entries)

    def kernel(self) -> "RationalMatrix":
        """Exact kernel basis as the rows of a matrix, one row per free
        column in increasing order.

        Each row is scaled so its first nonzero entry is 1, which makes
        the basis canonical.
        """
        reduced, pivots = self.rref()
        free = sorted(set(range(self.num_cols)).difference(pivots))
        vectors: dict[int, Row] = {j: {j: _ONE} for j in free}
        # a reduced row is zero at every other pivot, so each of its other
        # entries sits in a free column, whose vector it gives at the pivot
        for c, row in zip(pivots, reduced._entries):
            for j, x in row.items():
                if j != c:
                    vectors[j][c] = -x
        scaled = []
        for v in vectors.values():
            lead = v[min(v)]
            scaled.append({j: x / lead for j, x in v.items()})
        return RationalMatrix._of(scaled, self.num_cols)


class EchelonBasis:
    """Incrementally maintained echelon basis of a row space.

    The package's one elimination kernel: rref, rank, intersections and
    the solver are all built on it.  Each row is stored sparsely
    (column -> nonzero int) as a primitive integer row: scaled by the
    lcm of its denominators, divided by its content, with a positive
    leading entry at its pivot.  A new row is reduced forward only,
    against the pivots in increasing column order, and stored rows are
    never touched again, so an insert costs one pass over the pivots it
    meets and nothing fills in behind it.  ``rows()`` turns the basis
    into the unique RREF of the span by one back-substitution.

    ``insert`` and ``contains`` take dense vectors.  ``spanning`` builds
    the basis of a batch of sparse matrix rows: it inserts them latest
    leading column first, so every pivot already stored lies at or
    after the next row's leading column, and a row meets a pivot only
    when it starts in the same column.  Every basis the package builds
    goes through ``spanning``.
    """

    def __init__(self, num_cols: int):
        self.num_cols = num_cols
        self._pivot_rows: dict[int, dict[int, int]] = {}

    @classmethod
    def spanning(cls, num_cols: int, rows) -> "EchelonBasis":
        """The echelon basis of the span of ``rows``, each a dict of its
        nonzero entries by column, as a RationalMatrix stores it.

        The rows are inserted in decreasing order of leading column; the
        sort is stable, so rows with the same leading column keep their
        order, and zero rows go last.
        """
        ech = cls(num_cols)
        for row in sorted(rows, key=lambda row: min(row, default=-1), reverse=True):
            ech._insert(row)
        return ech

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivot_rows))

    def _forward(self, v: dict[int, int]) -> int | None:
        """Reduce ``v`` in place until its leading column, returned (None
        once v vanishes), is not a pivot.  A pivot row only has entries at
        and after its pivot, so each step moves that column strictly right."""
        while v:
            p = min(v)
            row = self._pivot_rows.get(p)
            if row is None:
                return p
            _eliminate(v, row, p)
        return None

    def _insert(self, row: Row) -> bool:
        v = _integer_row(row)
        pivot = self._forward(v)
        if pivot is None:
            return False
        c = gcd(*v.values())
        if v[pivot] < 0:
            c = -c
        self._pivot_rows[pivot] = {j: x // c for j, x in v.items()} if c != 1 else v
        return True

    def insert(self, vec) -> bool:
        """Add ``vec`` to the span; returns True when the rank grew."""
        return self._insert(_sparse(vec, self.num_cols))

    def contains(self, vec) -> bool:
        return self._forward(_integer_row(_sparse(vec, self.num_cols))) is None

    def rows(self) -> RationalMatrix:
        """The unique reduced row echelon form of the span."""
        return RationalMatrix._of(self._reduced(self.pivots), self.num_cols)

    def _reduced(self, pivots) -> list[Row]:
        """RREF rows of the given pivots, by one back-substitution.

        ``pivots`` must hold every pivot after its smallest one: the row
        of a pivot is cleared, latest pivot first, with the reduced rows
        of the later pivots only.  A reduced row is zero at every other
        reduced pivot, so clearing one column leaves the others alone.
        """
        done: dict[int, dict[int, int]] = {}
        out = []
        for p in sorted(pivots, reverse=True):
            v = dict(self._pivot_rows[p])
            for q in [j for j in v if j in done]:
                _eliminate(v, done[q], q)
            done[p] = v
            out.append({j: Fraction(x, v[p]) for j, x in v.items()})
        return out[::-1]


def _merged(r: Row, s: Row) -> Row:
    """The nonzero entries of r + s."""
    if not s:
        return r
    acc = dict(r)
    for j, x in s.items():
        y = acc.get(j)
        x = x if y is None else y + x
        if x:
            acc[j] = x
        else:
            del acc[j]
    return acc


def _integer_row(row: Row) -> dict[int, int]:
    """The int row den * row, den the lcm of its denominators."""
    den = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (den // x.denominator) for j, x in row.items()}


def _eliminate(v: dict[int, int], row: dict[int, int], col: int) -> None:
    """Clear column ``col`` of ``v`` in place with ``row`` (nonzero there).

    v becomes (a v - b row) / c, a and b coprime and c the content of
    the result.  Entries that cancel are dropped.
    """
    g = gcd(row[col], v[col])
    a, b = row[col] // g, v[col] // g
    if a != 1:
        for j in v:
            v[j] *= a
    for j, x in row.items():
        y = v.get(j, 0) - b * x
        if y:
            v[j] = y
        else:
            del v[j]
    c = gcd(*v.values()) if v else 1
    if c != 1:
        for j in v:
            v[j] //= c


def _row_kernel(rows, num_unknowns: int) -> Iterator[dict[int, Fraction]]:
    """Yield a basis of the solutions of ``rows``, each a row of (unknown,
    nonzero int) pairs over the unknowns 0 .. num_unknowns - 1; a solution
    is {unknown: Fraction}, 1 at its least unknown.  A signed union-find
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
        matrix = [{column[r]: Fraction(c) for r, c in row} for row in longer]
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
    for solution in chain(solutions, ({r: _ONE} for r in free)):
        for r in [r for r in solution if r in members]:
            x = solution[r]
            solution.update((u, x if s == 1 else -x) for u, s in members[r])
        yield solution


def intersect_row_spaces(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Echelon basis of rowspace(a) and rowspace(b) intersected.

    Zassenhaus: row reduce the block matrix [[A A], [B 0]]; the rows
    whose pivot lies in the right half have a vanishing left half, and
    their right halves are the RREF of the intersection.  Only those
    rows are back-substituted.
    """
    if a.num_cols != b.num_cols:
        raise DimensionMismatchError("row spaces live in different dimensions")
    n = a.num_cols
    # the right half of [A A] is each row of A shifted n columns on
    doubled = [{**row, **{j + n: x for j, x in row.items()}} for row in a._entries]
    ech = EchelonBasis.spanning(2 * n, doubled + list(b._entries))
    found = ech._reduced([p for p in ech.pivots if p >= n])
    return RationalMatrix._of([{j - n: x for j, x in row.items()} for row in found], n)


class LinearSolver:
    """Expresses vectors as combinations of fixed rows modulo a subspace.

    Reduces once, then answers many queries: for a row matrix M, the row
    space S of ``modulo`` and a target t, ``solve(t)`` returns some x with
    t - x M in S, or None when t is outside S + row(M).  Both are sparse
    rows, as a RationalMatrix stores them: t is {column: Fraction} and x
    is {row index of M: Fraction}, nonzero entries only.  ``dependent``
    lists, in increasing order, the rows of M that lie in S plus the
    span of the rows before them; x is unique exactly when it is empty.
    """

    def __init__(self, modulo: RationalMatrix, m: RationalMatrix):
        if modulo.num_cols != m.num_cols:
            raise DimensionMismatchError("subspace and rows have different column counts")
        self.num_rows = k = m.num_rows
        self.num_cols = n = m.num_cols
        # row i of M is tagged at column n + k - 1 - i, so a basis row is
        # [y M + z | y reversed], z in S; row i's tag is a pivot exactly when
        # some y with y_i != 0 and no later entry has y M + z = 0, that is
        # when row i depends on S and the rows before it, in any row order
        tagged = [{**row, n + k - 1 - i: _ONE} for i, row in enumerate(m._entries)]
        self._basis = EchelonBasis.spanning(n + k, list(modulo._entries) + tagged)
        self.dependent = tuple(sorted(n + k - 1 - p for p in self._basis.pivots if p >= n))

    def solve(self, target: Row) -> Row | None:
        n, k = self.num_cols, self.num_rows
        if target and not 0 <= min(target) <= max(target) < n:
            raise DimensionMismatchError(f"a target with columns outside 0..{n - 1}")
        # [t | 0 | 1] reduces forward to s [t | 0 | 1] - [y M + z | y reversed
        # | 0], as no stored row reaches the scale column n + k; once its left
        # half vanishes, y M + z = s t and x = y / s.  A stored zero is
        # dropped first: it would pass for the leading entry
        v = _integer_row({**{j: x for j, x in target.items() if x}, n + k: _ONE})
        if self._basis._forward(v) < n:
            return None
        s = v.pop(n + k)
        return {n + k - 1 - j: Fraction(-c, s) for j, c in v.items()}
