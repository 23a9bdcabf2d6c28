"""Exact linear algebra over the rationals.

Matrices are stored dense and immutable, but their arithmetic costs in
proportion to their nonzeros: each matrix lists the nonzero entries of
its rows once and keeps the list, a product walks the nonzero entries
of each row of A against those of the matching rows of B, and sums and
negations touch only nonzero cells.  Entries that are already Fractions
are shared; arithmetic results, built from their nonzero entries, skip
the constructor's conversion pass.  Every elimination
runs through one kernel, EchelonBasis: sparse primitive integer rows,
reduced forward only (fraction-free, as in Bareiss, Math. Comp. 22,
1968), with no floating point.  Rows whose order does not matter go in
through ``EchelonBasis.spanning``, latest leading column first (a fixed
row order in the spirit of Markowitz, Management Sci. 3, 1957); caller
order fills in on the row-major vertex and face rows of a planar grid.
rank reads the forward pivots; rref, kernel and row-space intersection
(Zassenhaus) back-substitute once to the reduced row echelon form, and
quotient complements and LinearSolver need no back-substitution at
all.  The reduced row echelon form of a row space is unique, so ranks,
echelon forms, kernels and intersections do not depend on the order
the rows are inserted in.  Forward-only rows matter for Zassenhaus:
keeping every row fully reduced fills in the right half of the block
[[A A], [B 0]], which for a report on a 112-arrow grid is 114 x 224.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import DimensionMismatchError

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_vector(entries) -> Vector:
    # entries that are already exact Fractions are shared, not rebuilt
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


class RationalMatrix:
    """Immutable rational matrix stored row-major as tuples of Fractions.

    Entries that are already Fractions are shared, every other entry is
    converted once.  Products and sums skip zero entries, so the operands
    of the dense bracket checks, which are mostly zeros, cost little; the
    nonzero entries of a matrix are listed once, on first use or by the
    arithmetic that built it, so an operand of many products is scanned once.
    """

    __slots__ = ("num_rows", "num_cols", "_rows", "_nonzero_rows")

    def __init__(self, rows, num_cols: int | None = None):
        data = tuple(as_vector(r) for r in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise DimensionMismatchError("ragged rows")
            if num_cols is not None and num_cols != width:
                raise DimensionMismatchError("num_cols does not match row width")
            num_cols = width
        self.num_rows = len(data)
        self.num_cols = num_cols if num_cols is not None else 0
        self._rows = data
        self._nonzero_rows = None

    @classmethod
    def _of(cls, nonzero_rows, num_cols: int) -> "RationalMatrix":
        # the matrix of the nonzero (column, Fraction) entries, row by row
        zero = (_ZERO,) * num_cols
        rows = []
        for nz in nonzero_rows:
            row = [_ZERO] * num_cols if nz else zero
            for j, x in nz:
                row[j] = x
            rows.append(tuple(row))
        m = cls.__new__(cls)
        m.num_rows, m.num_cols, m._rows = len(rows), num_cols, tuple(rows)
        m._nonzero_rows = nonzero_rows
        return m

    def _nonzeros(self) -> list[list[tuple[int, Fraction]]]:
        if self._nonzero_rows is None:
            self._nonzero_rows = [[(j, x) for j, x in enumerate(r) if x] for r in self._rows]
        return self._nonzero_rows

    @classmethod
    def zeros(cls, num_rows: int, num_cols: int) -> "RationalMatrix":
        return cls([[_ZERO] * num_cols for _ in range(num_rows)], num_cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], n)

    @classmethod
    def stack(cls, *matrices: "RationalMatrix") -> "RationalMatrix":
        widths = {m.num_cols for m in matrices}
        if len(widths) > 1:
            raise DimensionMismatchError("stacked matrices must share a column count")
        width = widths.pop() if widths else 0
        return cls([r for m in matrices for r in m._rows], width)

    @property
    def rows(self) -> tuple[Vector, ...]:
        return self._rows

    def row(self, i: int) -> Vector:
        return self._rows[i]

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.num_rows == other.num_rows
            and self.num_cols == other.num_cols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.num_rows, self.num_cols, self._rows))

    def __repr__(self):
        return f"RationalMatrix({self.num_rows}x{self.num_cols})"

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.num_rows, self.num_cols) != (other.num_rows, other.num_cols):
            raise DimensionMismatchError("shape mismatch in addition")
        return RationalMatrix._of(
            [_merged(r, s) for r, s in zip(self._nonzeros(), other._nonzeros())],
            self.num_cols,
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        negated = [[(j, -x) for j, x in r] for r in self._nonzeros()]
        return RationalMatrix._of(negated, self.num_cols)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.num_cols != other.num_rows:
            raise DimensionMismatchError("inner dimensions do not match")
        # row i of AB is the sum of A[i,k] * B[k,:] over the nonzero A[i,k],
        # each against the nonzero entries of row k of B only
        right = other._nonzeros()
        return RationalMatrix._of(
            [_merged((), [(j, a * x) for k, a in r for j, x in right[k]])
             for r in self._nonzeros()],
            other.num_cols,
        )

    # ------------------------------------------------------------------
    # elimination

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        ech = self._echelon()
        zero = (_ZERO,) * self.num_cols
        padding = (zero,) * (self.num_rows - ech.rank)
        return RationalMatrix(ech.rows().rows + padding, self.num_cols), ech.pivots

    def rank(self) -> int:
        return self._echelon().rank

    def _echelon(self) -> "EchelonBasis":
        return EchelonBasis.spanning(self.num_cols, self._rows)

    def kernel(self) -> tuple[Vector, ...]:
        """Exact kernel basis, one vector per free column.

        Each vector is scaled so its first nonzero entry is 1, which
        makes the basis canonical.
        """
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.num_cols):
            if free in pivot_set:
                continue
            v = [_ZERO] * self.num_cols
            v[free] = _ONE
            for r, c in enumerate(pivots):
                x = reduced.entry(r, free)
                if x:
                    v[c] = -x
            # zero entries stay linalg's shared zero, undivided
            lead = next(x for x in v if x)
            basis.append(tuple(x / lead if x else x for x in v))
        return tuple(basis)


class EchelonBasis:
    """Incrementally maintained echelon basis of a row space.

    The package's one elimination kernel: rref, rank, intersections,
    complements and the solver are all built on it.  Each row is stored
    sparsely (column -> nonzero int) as a primitive integer row: scaled
    by the lcm of its denominators, divided by its content, with a
    positive leading entry at its pivot.  A new row is reduced forward
    only, against the pivots in increasing column order, and stored
    rows are never touched again, so an insert costs one pass over the
    pivots it meets and nothing fills in behind it.  ``rows()`` turns
    the basis into the unique RREF of the span by one back-substitution.

    ``spanning`` builds the basis of a batch of rows whose order does
    not matter: it inserts them latest leading column first, so every
    pivot already stored lies at or after the next row's leading
    column, and a row meets a pivot only when it starts in the same
    column.  Callers whose answer depends on which rows are kept
    (LinearSolver, the candidates of quotient_complement) insert one
    row at a time, in their own order.
    """

    def __init__(self, num_cols: int):
        self.num_cols = num_cols
        self._pivot_rows: dict[int, dict[int, int]] = {}

    @classmethod
    def spanning(cls, num_cols: int, rows) -> "EchelonBasis":
        """The echelon basis of the span of ``rows``.

        The rows are inserted in decreasing order of leading column; the
        sort is stable, so rows with the same leading column keep their
        order, and zero rows go last.
        """
        ech = cls(num_cols)
        for row in sorted(rows, key=_leading_column, reverse=True):
            ech.insert(row)
        return ech

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivot_rows))

    def _checked_row(self, vec) -> dict[int, int]:
        if len(vec) != self.num_cols:
            raise DimensionMismatchError("vector length does not match column count")
        return _integer_row(enumerate(vec))[0]

    def _forward(self, v: dict[int, int]) -> tuple[int | None, int, int]:
        """Reduce ``v`` in place until its leading column is not a pivot.

        Returns that column (None once v vanishes) and (mul, div) with
        v after = (mul / div) * v before - (a combination of the rows).
        A pivot row only has entries at and after its pivot, so each
        step moves the leading column of v strictly right.
        """
        mul = div = 1
        while v:
            p = min(v)
            row = self._pivot_rows.get(p)
            if row is None:
                return p, mul, div
            a, c = _eliminate(v, row, p)
            mul *= a
            div *= c
        return None, mul, div

    def _store(self, pivot: int, v: dict[int, int]) -> None:
        c = gcd(*v.values())
        if v[pivot] < 0:
            c = -c
        self._pivot_rows[pivot] = {j: x // c for j, x in v.items()} if c != 1 else v

    def insert(self, vec) -> bool:
        """Add ``vec`` to the span; returns True when the rank grew."""
        v = self._checked_row(vec)
        pivot = self._forward(v)[0]
        if pivot is None:
            return False
        self._store(pivot, v)
        return True

    def contains(self, vec) -> bool:
        return self._forward(self._checked_row(vec))[0] is None

    def rows(self) -> RationalMatrix:
        """The unique reduced row echelon form of the span."""
        return RationalMatrix(self._reduced(self.pivots), self.num_cols)

    def _reduced(self, pivots) -> list[list[Fraction]]:
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
            row = [_ZERO] * self.num_cols
            for j, x in v.items():
                row[j] = Fraction(x, v[p])
            out.append(row)
        return out[::-1]


def _merged(r, s) -> list[tuple[int, Fraction]]:
    """The nonzero entries of r + s, two rows of (column, entry) pairs;
    s may name a column more than once."""
    if not s:
        return r
    acc = dict(r)
    for j, x in s:
        y = acc.get(j)
        acc[j] = x if y is None else y + x
    return [(j, x) for j, x in acc.items() if x]


def _leading_column(row) -> int:
    return next((j for j, x in enumerate(row) if x), -1)


def _integer_row(entries) -> tuple[dict[int, int], int]:
    """The sparse int row den * x over the (column, x) pairs, den the
    lcm of the denominators of the nonzero x."""
    row = {j: x if type(x) is Fraction else Fraction(x) for j, x in entries if x}
    den = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (den // x.denominator) for j, x in row.items()}, den


def _eliminate(v: dict[int, int], row: dict[int, int], col: int) -> tuple[int, int]:
    """Clear column ``col`` of ``v`` in place with ``row`` (nonzero there).

    v becomes (a v - b row) / c, a and b coprime and c the content of
    the result; returns (a, c).  Entries that cancel are dropped.
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
    return a, c


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
    padding = (_ZERO,) * n
    ech = EchelonBasis.spanning(
        2 * n, [row + row for row in a.rows] + [row + padding for row in b.rows]
    )
    found = ech._reduced([p for p in ech.pivots if p >= n])
    return RationalMatrix([row[n:] for row in found], n)


def quotient_complement(subspace: RationalMatrix, preferred=()) -> list[Vector]:
    """Representatives completing ``subspace`` to its full ambient space.

    Scans the preferred candidates first, then the standard unit
    vectors, in that order, keeping each vector that increases the
    rank of the subspace and the vectors kept so far; the result
    has length (ambient dimension - rank of subspace) and the choice is
    deterministic.
    """
    n = subspace.num_cols
    ech = EchelonBasis.spanning(n, subspace.rows)
    units = ([_ONE if j == i else _ZERO for j in range(n)] for i in range(n))
    chosen: list[Vector] = []
    for cand in chain(preferred, units):
        if ech.rank == n:
            break
        v = as_vector(cand)
        if len(v) != n:
            raise DimensionMismatchError("candidate length does not match ambient dimension")
        if ech.insert(v):
            chosen.append(v)
    return chosen


class LinearSolver:
    """Expresses vectors as combinations of a fixed list of rows.

    Reduces the rows once, then answers many queries: for a row matrix
    M and target t, ``solve(t)`` returns x with x M = t, or None when t
    is outside the row space.  A row that depends on earlier rows gets
    coordinate zero, so answers are deterministic; when the rows are
    linearly independent the answer is the unique one.

    The rows go in one at a time in the caller's order, never through
    ``EchelonBasis.spanning``: which row of a dependent set gets the
    zero is part of the answer.  hh1_basis relies on it: it lists the
    rows of C_va before the representatives, so a representative that
    lies in their span gets coordinate zero on itself and is caught.
    In latest-leading-column order that representative could be kept
    instead, and would solve to its own unit vector.
    """

    def __init__(self, m: RationalMatrix):
        self.num_rows = m.num_rows
        self.num_cols = n = m.num_cols
        # row i of M is tagged with e_i, so every basis row is [y M | y];
        # a row whose left half vanishes depends on earlier rows: it is
        # not stored, so its tag is 0 in every basis row and in every x
        self._basis = EchelonBasis(n + m.num_rows)
        for i, row in enumerate(m.rows):
            v = _integer_row(chain(enumerate(row), ((n + i, _ONE),)))[0]
            pivot = self._basis._forward(v)[0]
            if pivot < n:
                self._basis._store(pivot, v)

    def solve(self, target) -> Vector | None:
        n = self.num_cols
        if len(target) != n:
            raise DimensionMismatchError("target length does not match column count")
        # forward reduction leaves s [t | 0] - [y M | y]: once the left half
        # vanishes, y M = s t and x = y / s is read off the nonzero tags
        v, den = _integer_row(enumerate(target))
        pivot, mul, div = self._basis._forward(v)
        if pivot is not None and pivot < n:
            return None
        x = [_ZERO] * self.num_rows
        for j, y in v.items():
            x[j - n] = Fraction(-y * div, mul * den)
        return tuple(x)
