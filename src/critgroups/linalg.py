"""Exact integer linear algebra over arbitrary-precision integers.

Everything in this module is exact: matrices hold Python ints, so there is
no overflow and no floating point anywhere.  The primitives are the ones
needed to study integer matrices up to unimodular equivalence:

* determinants (fraction-free Bareiss elimination),
* minors and GCDs of k x k minors ("determinantal divisors" D_k),
* the corner variant D_k* restricted to minors that use the last row and
  last column,
* Chio pivotal condensation and the Desnanot-Jacobi identity,
* Smith normal form diagonals, eliminated on the primitive part: the
  matrix divided by its content, the GCD of its entries.

Indices are 0-based throughout.  A "minor" here is the (unsigned)
determinant of the submatrix selected by a row set and a column set of
equal size; no cofactor sign is applied.

Minor GCDs come from one fold over explicitly evaluated minors.  For a
size k it gives D_k and, per tracked row, the GCD of the k x k minors
through that row and a given column: D_k* tracks the last row with the
last column, and the D_k* of index i moved last tracks row i with column
i.  The folds of one matrix share a minor table that evaluates a row set
at a time: all the k x k minors on k rows in one Laplace step along the
last row, from the (k-1) x (k-1) minors on the other k - 1 rows, folded
with one ``math.gcd`` call.  Sizes 1, 2, ... are stored while each has at
most 2**16 minors (every size of a 10 x 10 matrix), so no stored minor is
evaluated twice.  Each larger size keeps only its last row set; the folds
walk row sets in lexicographic order, so the row sets that share their
first k - 1 rows come one after another and read the same list below.
For a symmetric matrix of 5 or more rows, such as a structure matrix,
the table evaluates each pair of transposed minors once: row set R keeps
the minors on column sets C >= R, and C >= R implies C - {c} >= R[:-1],
so the expansion reads only kept minors.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, partial
from itertools import accumulate, combinations, filterfalse, starmap
from math import comb, gcd
from operator import add, eq, index, mul, sub
from typing import NamedTuple

from ._record import Record


class IntegerMatrix(Record):
    """Immutable dense matrix of Python ints (at least 1 x 1).

    Validation happens at the boundary: the constructor and ``from_rows``
    check the shape and the type of every entry.  Matrices built in the
    package from entries already known to be a nonempty rectangle of ints
    (submatrices, transposes, condensations, structure matrices and fuzz
    case matrices) come from the private ``_unchecked``, which checks nothing.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "entries", entries)
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged rows: all rows must have equal length")
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise TypeError(f"matrix entries must be int, got {type(x).__name__}")

    @classmethod
    def _unchecked(cls, entries: tuple[tuple[int, ...], ...]) -> IntegerMatrix:
        """The matrix of ``entries``, a nonempty rectangle of ints the caller vouches for."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def from_rows(cls, rows) -> IntegerMatrix:
        """A matrix of the rows' entries, each converted without loss by ``operator.index``.

        Ints, bools and other ``__index__`` types convert; floats, strings
        and fractions raise TypeError.
        """
        return cls(tuple(tuple(map(index, row)) for row in rows))

    @classmethod
    def identity(cls, n: int) -> IntegerMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> IntegerMatrix:
        return IntegerMatrix._unchecked(tuple(zip(*self.entries)))

    def submatrix(self, row_idx, col_idx) -> IntegerMatrix:
        """Submatrix selected by iterables of 0-based row/column indices."""
        ri = tuple(row_idx)
        ci = tuple(col_idx)
        if not ri or not ci:
            raise ValueError("submatrix needs at least one row and one column")
        for i in ri:
            if not 0 <= i < self.rows:
                raise IndexError(f"row index {i} out of range")
        for j in ci:
            if not 0 <= j < self.cols:
                raise IndexError(f"column index {j} out of range")
        return IntegerMatrix._unchecked(tuple(tuple(self.entries[i][j] for j in ci) for i in ri))

    def __str__(self) -> str:
        width = max(len(str(x)) for row in self.entries for x in row)
        return "\n".join(
            "[" + " ".join(str(x).rjust(width) for x in row) + "]" for row in self.entries
        )


class MinorSpec(Record):
    """A choice of k row indices and k column indices, strictly increasing."""

    __slots__ = ("row_set", "col_set")

    def __init__(self, row_set: tuple[int, ...], col_set: tuple[int, ...]) -> None:
        self._set(row_set, col_set)
        if len(self.row_set) != len(self.col_set):
            raise ValueError("row set and column set must have equal size")
        if not self.row_set:
            raise ValueError("minor needs at least one row and one column")
        for seq in (self.row_set, self.col_set):
            if any(b <= a for a, b in zip(seq, seq[1:])):
                raise ValueError("index sets must be strictly increasing")
            if seq[0] < 0:
                raise IndexError("indices must be nonnegative")

    @property
    def size(self) -> int:
        return len(self.row_set)


class SnfResult(Record):
    """Diagonal of the Smith normal form, padded with zeros to full length.

    ``diag[i] > 0`` and ``diag[i] | diag[i+1]`` for i < rank; all later
    entries are 0.  Transform matrices are not tracked.
    """

    __slots__ = ("diag", "rank")

    def __init__(self, diag: tuple[int, ...], rank: int) -> None:
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "rank", rank)


class MinorGcdProfile(Record):
    """All determinantal-divisor data of one matrix in a single bundle.

    ``dk[k]`` is the GCD of all k x k minors for k = 0..min(rows, cols),
    with dk[0] = 1 by convention.  ``dk_star[k-1]`` is the GCD of the
    k x k minors whose rows include the last row and whose columns include
    the last column, for k = 1..min(rows, cols).  ``row_gcds[i]`` and
    ``col_gcds[j]`` are entry GCDs of single rows/columns.
    """

    __slots__ = ("dk", "dk_star", "row_gcds", "col_gcds")

    def __init__(self, dk: tuple[int, ...], dk_star: tuple[int, ...], row_gcds: tuple[int, ...],
                 col_gcds: tuple[int, ...]) -> None:
        self._set(dk, dk_star, row_gcds, col_gcds)


# ---------------------------------------------------------------------------
# determinants


def _det_lists(a: list[list[int]]) -> int:
    """Determinant of a small list-of-lists matrix (mutates its argument)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if n == 3:
        (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
        return (
            a11 * (a22 * a33 - a23 * a32)
            - a12 * (a21 * a33 - a23 * a31)
            + a13 * (a21 * a32 - a22 * a31)
        )
    # Bareiss fraction-free elimination: every division below is exact, so
    # the result is the exact integer determinant.
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant of a square matrix."""
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    return _det_lists([list(row) for row in m.entries])


def _minor_det(entries, row_set, col_set) -> int:
    """Determinant of the submatrix selected by the given index tuples."""
    k = len(row_set)
    if k == 1:
        return entries[row_set[0]][col_set[0]]
    if k == 2:
        r0 = entries[row_set[0]]
        r1 = entries[row_set[1]]
        j0, j1 = col_set
        return r0[j0] * r1[j1] - r0[j1] * r1[j0]
    return _det_lists([[entries[i][j] for j in col_set] for i in row_set])


def minor(m: IntegerMatrix, spec: MinorSpec) -> int:
    """Unsigned minor: the determinant of the selected square submatrix."""
    if spec.row_set[-1] >= m.rows or spec.col_set[-1] >= m.cols:
        raise IndexError("minor index sets exceed matrix dimensions")
    return _minor_det(m.entries, spec.row_set, spec.col_set)


# ---------------------------------------------------------------------------
# GCDs of minors


def row_gcd(m: IntegerMatrix, i: int) -> int:
    """GCD of the entries of row i (nonnegative; 0 for an all-zero row)."""
    if not 0 <= i < m.rows:
        raise IndexError(f"row index {i} out of range")
    g = 0
    for x in m.entries[i]:
        g = gcd(g, x)
        if g == 1:
            break
    return g


_TABLE_CAP = 1 << 16  # a size with more minors than this keeps one row set, as does any larger one
_SYMMETRIC_MIN_ROWS = 5  # smaller symmetric matrices keep every column set (see _MinorTable)


class _Plan(NamedTuple):
    """How the k x k minors on one row set are laid out and expanded, for one column count.

    The minors follow their column sets: size 1 in column order (its
    minors are the matrix row itself), larger sizes in descending
    lexicographic order, so the column sets C >= R of a k-subset R are the
    first ``position[R] + 1``.  ``position`` maps each k-subset to its
    place, and ``containing[c]`` lists, ascending, the places of the
    column sets that contain c.
    ``terms`` are the Laplace terms along the last row, one per position
    t: (operation, the column ci[t] of every ci, the position of ci without
    ci[t] among the (k-1)-subsets); the first is the positive one, t = k-1.
    The plan depends on the shape only, never on matrix entries.
    """

    position: dict[tuple[int, ...], int]
    terms: list
    containing: list[list[int]]


@cache
def _plan(cols: int, k: int) -> _Plan:
    col_sets = list(combinations(range(cols), k))[:: -1 if k > 1 else 1]
    position = {ci: j for j, ci in enumerate(col_sets)}
    containing: list[list[int]] = [[] for _ in range(cols)]
    for j, ci in enumerate(col_sets):
        for c in ci:
            containing[c].append(j)
    terms = []
    if k > 1:
        below = _plan(cols, k - 1).position
        # column ci[t] pairs with the (k-1)-minor on ci without it, sign (-1)**(k-1+t)
        for t in reversed(range(k)):
            terms.append((add if (k - 1 - t) % 2 == 0 else sub,
                          [ci[t] for ci in col_sets],
                          [below[ci[:t] + ci[t + 1 :]] for ci in col_sets]))
    return _Plan(position, terms, containing)


class _MinorTable:
    """The minors of one matrix, evaluated a row set at a time, and the GCDs folded from them.

    Sizes 1, 2, ... are stored as long as each has at most ``_TABLE_CAP``
    minors (every size of a 10 x 10 matrix), for the life of the table, as
    ``{row_set: [minor, ...]}`` with the minors on a row set in the order
    of :class:`_Plan`.  Each larger size keeps only the row set it
    evaluated last, so it holds one list at a time.  Every row set is
    evaluated in one batch: size 1 is the matrix row, and size k expands
    along its last row from the (k-1)-minors of the row set without it,
    evaluating that one first if need be.  The folds walk row sets in
    lexicographic order, in which the row sets that extend one (k-1)-row
    set come one after another, so a list kept above the stored sizes
    serves all of them before it is replaced.

    A symmetric matrix (equal to its transpose, as every structure matrix
    is) has the minor on rows C and columns R equal to the one on rows R
    and columns C, as det A^T = det A.  So above size 1 a row set R keeps
    only the minors on column sets C >= R (lexicographic), the first
    ``position[R] + 1`` of its list, and a complete scan evaluates
    C(n, k) (C(n, k) + 1) / 2 minors of size k instead of C(n, k)**2.
    The expansion needs no others, because C >= R implies
    C - {c} >= R[:-1] for every c in C.  Dropping c_t keeps the first
    difference of C and R if it lies before place t.  Otherwise the places
    before t agree, c_t >= r_t, and c_{t+1} > r_t moves into place t,
    unless t is the last place, where what is left is R[:-1].  The sets
    of minors the fold reads (all of them, and those whose row and column
    sets both contain index i, the corner among them) are each closed
    under transposition, so it reads the kept minors only.  Any other
    matrix keeps every column set; the code is the same.  So does a
    symmetric matrix with fewer than ``_SYMMETRIC_MIN_ROWS`` rows: its row
    sets hold at most 6 minors, and the position lookup per batch and the
    bisection per tracked row cost more than the minors the halving saves.

    :meth:`fold` folds one size: D_k and the GCDs of the minors through
    given (row, column) pairs.  :meth:`_scan` folds each size once, for
    ``profile()`` tracking the corner and for ``pivot_scan()`` every
    (i, i), the corner among them.  Neither keeps its result.
    """

    def __init__(self, m: IntegerMatrix) -> None:
        self.matrix = m
        self.entries = m.entries
        self.rows = m.rows
        self.cols = m.cols
        self.size = min(m.rows, m.cols)
        self.symmetric = self.rows >= _SYMMETRIC_MIN_ROWS and all(map(eq, m.entries, zip(*m.entries)))
        stored = 0
        while stored < self.size and comb(self.rows, stored + 1) * comb(self.cols, stored + 1) <= _TABLE_CAP:
            stored += 1
        self.stored = stored
        self.stores: list[dict] = [{} for _ in range(self.size + 1)]
        self.indices = tuple(range(self.rows))  # a tuple pool makes combinations() cheaper than a range
        self.corner = {self.rows - 1: self.cols - 1}

    def _row_set(self, k: int, ri: tuple[int, ...]) -> list[int]:
        """The kept k x k minors on row set ri, in the order of :class:`_Plan`."""
        if k == 1:
            return self.entries[ri[0]]
        store = self.stores[k]
        minors = store.get(ri)
        if minors is None:
            if k > self.stored:
                store.clear()
            minors = store[ri] = self._batch(k, ri)
        return minors

    def _batch(self, k: int, ri: tuple[int, ...]) -> list[int]:
        """Evaluate the kept k x k minors on row set ri along its last row, all at once."""
        plan = _plan(self.cols, k)
        row = self.entries[ri[-1]].__getitem__
        below = self._row_set(k - 1, ri[:-1]).__getitem__
        (_, cols, idx), *rest = plan.terms
        if self.symmetric:
            # the first term's columns end where the kept minors end, and every later map with them
            cols = cols[: plan.position[ri] + 1]
        minors = map(mul, map(row, cols), map(below, idx))
        for op, cols, idx in rest:
            minors = map(op, minors, map(mul, map(row, cols), map(below, idx)))
        return list(minors)

    def fold(self, k: int, columns: dict[int, int], g: int = 0) -> tuple[int, list[int]]:
        """D_k folded into g and, per tracked row r, the GCD of the k x k minors
        whose row set holds r and whose column set holds ``columns[r]``; the
        list has one entry per row, and an untracked row's reads 1.

        On a symmetric matrix each tracked row tracks its own column.  The row
        sets that hold a tracked row come first, in lexicographic order, until
        D_k and every tracked GCD are 1; then, for D_k alone, the others, until
        it is 1.  Each row set's kept minors are batched and folded as one list.
        ``g = 1`` asks for the tracked GCDs only.
        """
        containing = _plan(self.cols, k).containing
        n, symmetric, indices, row_set = self.rows, self.symmetric, self.indices, self._row_set
        gcds = [1] * n
        for r in columns:
            gcds[r] = 0
        through = combinations(indices, k)
        if len(columns) < n:
            through = filterfalse(columns.keys().isdisjoint, through)
        for ri in through:
            minors = row_set(k, ri)
            if g != 1:
                g = gcd(g, *minors)
            at = minors.__getitem__
            for r in ri:
                if gcds[r] != 1:
                    picks = containing[columns[r]]
                    if symmetric:
                        picks = picks[: bisect_left(picks, len(minors))]
                    gcds[r] = gcd(gcds[r], *map(at, picks))
            if g == 1 and gcds.count(1) == n:
                break
        if g != 1:
            for ri in combinations(filterfalse(columns.__contains__, indices), k):
                g = gcd(g, *row_set(k, ri))
                if g == 1:
                    break
        return g, gcds

    def _scan(self, columns: dict[int, int]) -> tuple[MinorGcdProfile, tuple[tuple[int, ...], ...]]:
        """The profile and, per row, the GCDs :meth:`fold` tracks at k = 1..size: one fold per size.

        The last row tracks the last column, so its GCDs are D_k*.  Once D_k = 0
        every larger minor vanishes, so the remaining D_k are 0; the tracked GCDs
        are folded all the same, so a wrong corner value still shows against the Smith form.
        """
        dk, tracked = [1], []
        for k in range(1, self.size + 1):
            d, gcds = self.fold(k, columns, 0 if dk[-1] else 1)
            dk.append(d if dk[-1] else 0)
            tracked.append(gcds)
        sequences = tuple(zip(*tracked))
        m = self.matrix
        profile = MinorGcdProfile(tuple(dk), sequences[-1], tuple(starmap(gcd, m.entries)),
                                  tuple(starmap(gcd, zip(*m.entries))))
        return profile, sequences

    def profile(self) -> MinorGcdProfile:
        """D_k, D_k* and the row and column GCDs: the scan that tracks the corner."""
        return self._scan(self.corner)[0]

    def pivot_scan(self) -> tuple[MinorGcdProfile, tuple[tuple[int, ...], ...]]:
        """The profile and the pivot sequences of a square matrix, from one scan that tracks every (i, i).

        Pivot sequence i is the (D_1*, ..., D_n*) of the matrix with row and column i moved last."""
        if not self.matrix.is_square:
            raise ValueError(f"pivot sequences need a square matrix, got {self.rows}x{self.cols}")
        return self._scan({i: i for i in range(self.rows)})


def minor_gcd_all(m: IntegerMatrix, k: int) -> int:
    """GCD of all k x k minors (the k-th determinantal divisor D_k).

    D_0 = 1 by the empty-minor convention.  The scan over row sets is
    lexicographic and stops as soon as the running GCD reaches 1.  Returns
    0 exactly when every k x k minor vanishes.
    """
    size = min(m.rows, m.cols)
    if not 0 <= k <= size:
        raise ValueError(f"k={k} out of range 0..{size}")
    if k == 0:
        return 1
    return _MinorTable(m).fold(k, {})[0]


def minor_gcd_corner(m: IntegerMatrix, k: int) -> int:
    """GCD of the k x k minors using the last row and last column (D_k*).

    k = 0 is invalid: there is no empty minor containing the corner.
    """
    size = min(m.rows, m.cols)
    if not 1 <= k <= size:
        raise ValueError(f"k={k} out of range 1..{size}")
    table = _MinorTable(m)
    return table.fold(k, table.corner, 1)[1][-1]


def minor_gcd_profile(m: IntegerMatrix) -> MinorGcdProfile:
    """dk, dk_star and the row/column GCDs of one matrix; see :meth:`_MinorTable.profile`."""
    return _MinorTable(m).profile()


# ---------------------------------------------------------------------------
# condensation identities


def chio_condense(m: IntegerMatrix) -> IntegerMatrix:
    """Chio pivotal condensation on the last diagonal entry.

    The result B' is (n-1) x (n-1) with entries
    ``b[i][j] * b[n-1][n-1] - b[i][n-1] * b[n-1][j]`` (the 2 x 2 corner
    minors of B), and satisfies det(B') = b[n-1][n-1]**(n-2) * det(B).
    """
    if not m.is_square:
        raise ValueError(f"condensation needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n < 2:
        raise ValueError("condensation needs at least a 2x2 matrix")
    e = m.entries
    last = e[n - 1]
    corner = last[n - 1]
    return IntegerMatrix._unchecked(
        tuple(
            tuple(e[i][j] * corner - e[i][n - 1] * last[j] for j in range(n - 1))
            for i in range(n - 1)
        )
    )


def _first_minor(entries, n: int, i: int, j: int) -> int:
    rows = tuple(r for r in range(n) if r != i)
    cols = tuple(c for c in range(n) if c != j)
    if not rows:
        return 1
    return _minor_det(entries, rows, cols)


def _desnanot_residual(m: IntegerMatrix, det: int, first_minor, i1: int, i2: int, j1: int, j2: int) -> int:
    """The residual of :func:`desnanot_jacobi_residual`, given det(m) and ``first_minor(i, j)``.

    The caller validates the indices; ``first_minor`` may be cached, so a
    caller that takes several residuals of m computes each determinant once.
    """
    n = m.rows
    rows = tuple(r for r in range(n) if r not in (i1, i2))
    cols = tuple(c for c in range(n) if c not in (j1, j2))
    central = _minor_det(m.entries, rows, cols) if rows else 1
    cross = first_minor(i1, j1) * first_minor(i2, j2) - first_minor(i1, j2) * first_minor(i2, j1)
    return central * det - cross


def desnanot_jacobi_residual(m: IntegerMatrix, i1: int, i2: int, j1: int, j2: int) -> int:
    """Residual of the Desnanot-Jacobi identity; identically 0 for ints.

    With M[i,j] the unsigned first minor deleting row i and column j, and
    C the central minor deleting both rows i1 < i2 and columns j1 < j2
    (the empty central minor of a 2x2 matrix counts as 1), the residual is

        C * det(m) - (M[i1,j1] * M[i2,j2] - M[i1,j2] * M[i2,j1])
    """
    if not m.is_square:
        raise ValueError(f"identity needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n < 2:
        raise ValueError("identity needs at least a 2x2 matrix")
    if not (0 <= i1 < i2 < n and 0 <= j1 < j2 < n):
        raise IndexError("need 0 <= i1 < i2 < n and 0 <= j1 < j2 < n")
    return _desnanot_residual(m, determinant(m), partial(_first_minor, m.entries, n), i1, i2, j1, j2)


# ---------------------------------------------------------------------------
# Smith normal form


def _fold_divisibility(diag: list[int]) -> list[int]:
    """Repair a positive diagonal into a divisibility chain, in one pass.

    diag(a, b) is unimodularly equivalent to diag(gcd(a, b), lcm(a, b)),
    so pairwise folding preserves the equivalence class.  After row i of
    the pass, diag[i] divides every later entry, and the later folds keep
    that (the gcd and the lcm of two multiples of d are multiples of d),
    so at the end every entry divides the next, which is the Smith
    condition.
    """
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = gcd(a, b)
            if g != a:
                diag[i] = g
                diag[j] = a * b // g
    return diag


def _primitive(m: IntegerMatrix) -> tuple[int, IntegerMatrix]:
    """(c, m / c), c the content of m (the gcd of its entries); m itself when c is 0 or 1."""
    c = 0
    for row in m.entries:
        c = gcd(c, *row)
        if c == 1:
            break
    return (c, m) if c <= 1 else (c, type(m)._unchecked(tuple(tuple([x // c for x in row]) for row in m.entries)))


def smith_normal_form(m: IntegerMatrix) -> SnfResult:
    """Smith normal form diagonal of an integer matrix.

    Pivoting picks the nonzero entry of minimum absolute value in the
    working submatrix; row/column reductions strictly shrink that minimum,
    so the elimination terminates.  The diagonal is then normalized to a
    positive divisibility chain.  Three steps keep the integers small
    without changing the diagonal:

    * The content c, the GCD of all entries (D_1), is divided out first
      by ``_primitive``, and the folded diagonal is multiplied by c at the
      end.  Dividing by c > 0 keeps the order of absolute values and every
      floor quotient, so the elimination takes the same steps on entries c
      times smaller, and gcd and lcm commute with scaling: SNF(c M) = c SNF(M).
    * The pivot search stops after the first row that holds a unit: no
      nonzero entry is smaller, so the pivot is still the first minimum
      in row-major order.
    * Once column t is zero below the pivot it is zero above it too (the
      earlier pivot rows are zero past their pivot), so a column
      operation with column t changes the pivot row only: that row alone
      is reduced modulo the pivot.
    """
    c, p = _primitive(m)
    rows, cols = m.rows, m.cols
    size = min(rows, cols)
    if c == 0:
        return SnfResult((0,) * size, 0)
    a = [list(row) for row in p.entries]
    diag: list[int] = []
    t = 0
    while t < size:
        best = None
        best_abs = 0
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                v = ai[j]
                if v != 0 and (best is None or -best_abs < v < best_abs):
                    best = (i, j)
                    best_abs = abs(v)
            if best_abs == 1:
                break
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        while True:
            pivot = a[t][t]
            clean = True
            for i in range(t + 1, rows):
                q = a[i][t] // pivot
                if q:
                    row, prow = a[i], a[t]
                    for j in range(t, cols):
                        row[j] -= q * prow[j]
                if a[i][t] != 0:
                    # remainder smaller than the pivot: promote it and retry
                    a[t], a[i] = a[i], a[t]
                    clean = False
                    break
            if not clean:
                continue
            prow = a[t]
            for j in range(t + 1, cols):
                prow[j] %= pivot
                if prow[j] != 0:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    clean = False
                    break
            if clean:
                break
        diag.append(abs(a[t][t]))
        t += 1
    rank = len(diag)
    return SnfResult(tuple(c * x for x in _fold_divisibility(diag)) + (0,) * (size - rank), rank)


# ---------------------------------------------------------------------------
# corner divisors from Smith forms


def _egcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(x, y) = s x + t y and g >= 0."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (x, s0, t0) if x >= 0 else (-x, -s0, -t0)


def corner_divisors(m: IntegerMatrix) -> tuple[int, ...]:
    """(D_1*, ..., D_min*) of any integer matrix, from one Smith form.

    With b the corner entry (last row, last column):

    * b != 0: the Chio condensation C on b, with entries
      ``m[i][j] * b - m[i][-1] * m[-1][j]`` over the other rows and
      columns, has by Sylvester's identity each k x k minor equal to
      b^(k-1) times the (k+1) x (k+1) corner minor of m on the matching
      other indices.  So D_1* = |b| and D_{k+1}* = D_k(C) / |b|^(k-1),
      with D_k(C) the prefix products of SNF(C).
    * b = 0: unimodular operations on the other columns bring the last
      row to (g_r, 0, ..., 0), then operations on the other rows bring the
      last column to (g_c, 0, ..., 0); neither changes any D_k*.  A corner
      minor then needs row 0 and column 0, and expands to g_r g_c times a
      minor of the inner block B (rows and columns 1 .. -2), so D_1* = 0
      and D_k* = g_r g_c D_{k-2}(B), from SNF(B).

    Raises ArithmeticError when a quotient of the first case is not exact,
    which a true Smith form never gives.
    """
    e = m.entries
    rows, cols = m.rows - 1, m.cols - 1  # the other rows and columns, and the last indices
    size = min(rows, cols) + 1
    b = e[rows][cols]
    if size == 1:
        return (abs(b),)
    if b:
        bottom = e[rows]
        cond = IntegerMatrix._unchecked(
            tuple(tuple(row[j] * b - row[cols] * bottom[j] for j in range(cols)) for row in e[:rows]))
        unit = abs(b)
        stars = [unit]
        scale = 1  # |b|^(k-1)
        for dk in accumulate(smith_normal_form(cond).diag, mul):
            q, r = divmod(dk, scale)
            if r:
                raise ArithmeticError(f"D_k of the condensation on corner {b} is {dk}, "
                                      f"not a multiple of {scale}; its Smith form is wrong")
            stars.append(q)
            scale *= unit
        return tuple(stars)
    a = [list(row) for row in e]
    bottom = a[rows]
    for j in range(1, cols):
        if bottom[j]:
            g, s, t = _egcd(bottom[0], bottom[j])
            u, v = bottom[0] // g, bottom[j] // g
            for row in a:
                row[0], row[j] = s * row[0] + t * row[j], u * row[j] - v * row[0]
    for i in range(1, rows):
        if a[i][cols]:
            top, row = a[0], a[i]
            g, s, t = _egcd(top[cols], row[cols])
            u, v = top[cols] // g, row[cols] // g
            a[0] = [s * x + t * y for x, y in zip(top, row)]
            a[i] = [u * y - v * x for x, y in zip(top, row)]
    gg = abs(a[rows][0] * a[0][cols])  # g_r g_c
    inner = (1,)
    if gg and size > 2:
        inner += tuple(accumulate(smith_normal_form(IntegerMatrix._unchecked(
            tuple(tuple(row[1:cols]) for row in a[1:rows]))).diag, mul))
    return (0, *(gg * d for d in inner), *(0,) * (size - 1 - len(inner)))
