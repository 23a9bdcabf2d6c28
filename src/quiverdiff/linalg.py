"""Exact linear algebra over the rationals.

Matrices are stored dense and immutable, but their arithmetic costs in
proportion to their nonzeros: a product walks only the nonzero entries
of each row of A against the nonzero entries of the matching rows of
B, sums and negations leave zero cells untouched, and entries that are
already Fractions are shared rather than rebuilt.  Every elimination
runs through one kernel, EchelonBasis: a sparse, fully reduced echelon
basis on Fraction entries, with no floating point and no pivot
heuristics.
rref, rank, kernel, row-space intersection (Zassenhaus), quotient
complements and LinearSolver are short callers of it.  The reduced
row echelon form of a row space is unique, so ranks, echelon forms,
kernels and intersections come out bit-for-bit identical on every
run, whatever order the rows arrive in.  The sparse rows matter: the
Zassenhaus block of a report on a 112-arrow grid is 114 x 224 and
mostly zeros.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

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
    of the dense bracket checks, which are mostly zeros, cost little.
    """

    __slots__ = ("num_rows", "num_cols", "_rows")

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

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self._rows[i][j] for i in range(self.num_rows)] for j in range(self.num_cols)],
            self.num_rows,
        )

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
        # a zero cell adds nothing: keep the other cell as it is
        return RationalMatrix(
            [[a + b if a and b else a or b for a, b in zip(r, s)]
             for r, s in zip(self._rows, other._rows)],
            self.num_cols,
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-a if a else a for a in r] for r in self._rows], self.num_cols)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.num_cols != other.num_rows:
            raise DimensionMismatchError("inner dimensions do not match")
        # row i of AB is the sum of A[i,k] * B[k,:] over the nonzero A[i,k],
        # each against the nonzero entries of row k of B only
        width = other.num_cols
        sparse = [[(j, x) for j, x in enumerate(row) if x] for row in other._rows]
        out = []
        for r in self._rows:
            acc = [_ZERO] * width
            for a, row in zip(r, sparse):
                if a:
                    for j, x in row:
                        acc[j] += a * x
            out.append(acc)
        return RationalMatrix(out, width)

    def mat_vec(self, vec) -> Vector:
        v = as_vector(vec)
        if len(v) != self.num_cols:
            raise DimensionMismatchError("vector length does not match column count")
        return tuple(_dot(r, v) for r in self._rows)

    # ------------------------------------------------------------------
    # elimination

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        ech = EchelonBasis(self.num_cols)
        for row in self._rows:
            ech.insert(row)
        zero = (_ZERO,) * self.num_cols
        padding = (zero,) * (self.num_rows - ech.rank)
        return RationalMatrix(ech.rows().rows + padding, self.num_cols), ech.pivots

    def rank(self) -> int:
        return len(self.rref()[1])

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
                v[c] = -reduced.entry(r, free)
            lead = next(x for x in v if x != 0)
            basis.append(tuple(x / lead for x in v))
        return tuple(basis)


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), _ZERO)


class EchelonBasis:
    """Incrementally maintained reduced echelon basis of a row space.

    The package's one elimination kernel: rref, intersections,
    complements and the solver are all built on it.  Rows are stored
    sparsely (column -> nonzero entry) and kept fully reduced (leading
    1, zeros above and below every pivot), so membership tests and
    coset reduction are one pass.  Since pivots are leading entries,
    the sorted rows are exactly the unique RREF of the span.
    """

    def __init__(self, num_cols: int):
        self.num_cols = num_cols
        self._pivot_rows: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivot_rows))

    def _residue(self, vec) -> dict[int, Fraction]:
        if len(vec) != self.num_cols:
            raise DimensionMismatchError("vector length does not match column count")
        v = {j: Fraction(x) for j, x in enumerate(vec) if x}
        # rows are interreduced, so subtracting one pivot row leaves the
        # entries of v at every other pivot unchanged: one pass suffices
        for p in [j for j in v if j in self._pivot_rows]:
            _axpy(v, -v[p], self._pivot_rows[p])
        return v

    def reduce(self, vec) -> list[Fraction]:
        """Residue of ``vec`` modulo the current row space."""
        v = self._residue(vec)
        return [v.get(j, _ZERO) for j in range(self.num_cols)]

    def insert(self, vec) -> bool:
        """Add ``vec`` to the span; returns True when the rank grew."""
        v = self._residue(vec)
        if not v:
            return False
        pivot = min(v)
        lead = v[pivot]
        v = {j: x / lead for j, x in v.items()}
        for row in self._pivot_rows.values():
            if pivot in row:
                _axpy(row, -row[pivot], v)
        self._pivot_rows[pivot] = v
        return True

    def contains(self, vec) -> bool:
        return not self._residue(vec)

    def rows(self) -> RationalMatrix:
        return RationalMatrix(
            [
                [self._pivot_rows[p].get(j, _ZERO) for j in range(self.num_cols)]
                for p in self.pivots
            ],
            self.num_cols,
        )


def _axpy(target: dict[int, Fraction], c: Fraction, row: dict[int, Fraction]) -> None:
    """target += c * row on sparse rows, dropping entries that cancel."""
    for j, x in row.items():
        y = target.get(j, _ZERO) + c * x
        if y:
            target[j] = y
        else:
            del target[j]


def intersect_row_spaces(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Echelon basis of rowspace(a) and rowspace(b) intersected.

    Zassenhaus: row reduce the block matrix [[A A], [B 0]]; the rows
    whose pivot lies in the right half have a vanishing left half, and
    their right halves are the RREF of the intersection.
    """
    if a.num_cols != b.num_cols:
        raise DimensionMismatchError("row spaces live in different dimensions")
    n = a.num_cols
    ech = EchelonBasis(2 * n)
    for row in a.rows:
        ech.insert(row + row)
    for row in b.rows:
        ech.insert(row + (_ZERO,) * n)
    found = [row[n:] for p, row in zip(ech.pivots, ech.rows().rows) if p >= n]
    return RationalMatrix(found, n)


def quotient_complement(subspace: RationalMatrix, preferred=()) -> list[Vector]:
    """Representatives completing ``subspace`` to its full ambient space.

    Scans the preferred candidates first, then the standard unit
    vectors, keeping each vector that increases the rank; the result
    has length (ambient dimension - rank of subspace) and the choice is
    deterministic.
    """
    n = subspace.num_cols
    ech = EchelonBasis(n)
    for row in subspace.rows:
        ech.insert(row)
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
    """

    def __init__(self, m: RationalMatrix):
        self.num_rows = m.num_rows
        self.num_cols = m.num_cols
        # row i of M is tagged with e_i, so every basis row is [x M | x];
        # a row in the span of earlier rows is skipped and keeps coordinate 0
        self._basis = EchelonBasis(m.num_cols + m.num_rows)
        for i, row in enumerate(m.rows):
            tag = [_ZERO] * m.num_rows
            tag[i] = _ONE
            residue = self._basis.reduce(row + tuple(tag))
            if any(residue[: m.num_cols]):
                self._basis.insert(residue)

    def solve(self, target) -> Vector | None:
        t = as_vector(target)
        if len(t) != self.num_cols:
            raise DimensionMismatchError("target length does not match column count")
        # reducing [t | 0] leaves [t - x M | -x]
        residue = self._basis.reduce(t + (_ZERO,) * self.num_rows)
        if any(residue[: self.num_cols]):
            return None
        return tuple(-y for y in residue[self.num_cols :])
