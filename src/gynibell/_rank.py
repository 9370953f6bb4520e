"""Exact rank of integer matrices by fraction-free elimination.

Used for affine-rank computations on polytope vertex sets.  A row is reduced
against a pivot row as ``row = pivot_value * row - row[pivot_col] *
pivot_row``, in place, which keeps everything in integers; no tolerance is
involved anywhere.  A row is divided by the gcd of its entries only when a
bound on its entries reaches ``_REDUCE_AT``, the rule
:mod:`gynibell.lp` applies to the basis inverse, and once more before it is
stored as a pivot.  A skipped division only scales the row, and every row
reduced from it, by a positive integer, so the stored pivot rows and the
rank are the same as with a division after every step.

Rows are numpy arrays.  They are int64 while a conservative magnitude guard
shows that no combination can reach ``_INT64_SAFE``; the first time it
cannot, every row switches to Python integers (``dtype=object``) for the rest
of the computation, the same switch :mod:`gynibell.lp` makes in the simplex.
Either way the rank is exact.
"""

from __future__ import annotations

import numpy as np

_INT64_SAFE = 2**62

#: a row is divided by its gcd only once a bound on its entries reaches this;
#: the value is exact either way, and below it a product of two entries
#: stays under ``_INT64_SAFE``
_REDUCE_AT = 2**31


def _primitive(row):
    """``row`` divided by the gcd of its entries, in place, and its exact
    max |entry|; a zero row comes back as it is."""
    g = int(np.gcd.reduce(row))
    if g > 1:
        row //= g
    return row, int(np.abs(row).max(initial=0))


class ExactRankAccumulator:
    """Incremental row-echelon rank over the integers.

    Each pivot is stored as ``(column, row, pivot value, max |entry|)`` in
    insertion order; every freshly added pivot row has been reduced against
    all earlier ones and divided by its gcd, so reducing a new row against
    the pivots in insertion order can never reintroduce an eliminated
    column.  During a reduction ``max|row|`` is carried as an upper bound:
    the entries of ``pval * row - rc * prow`` are bounded by
    ``|pval| * max|row| + |rc| * max|prow|``.  When that bound reaches
    ``_REDUCE_AT`` the row is divided by its gcd and the bound made exact.
    While the bound of the next step stays below ``_INT64_SAFE`` the step
    runs in int64.  The first time it does not, even for the gcd-reduced
    row with its exact maximum, ``big`` is set and every stored pivot row
    and the current row become Python integer arrays for the rest of the
    accumulator's life.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots = []  # (pivot_col, row, pivot_value, max |entry|)
        self.big = False  # True once the rows hold Python ints

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row) -> bool:
        """Reduce one row of int64-sized integers against the echelon; True
        if the rank grew."""
        row = np.array(row, dtype=np.int64)
        if row.shape != (self.ncols,):
            raise ValueError("row length mismatch")
        if self.big:
            row = row.astype(object)
        rmax = int(np.abs(row).max(initial=0))  # an upper bound on max |row|
        for k in range(len(self.pivots)):
            c, prow, pval, pmax = self.pivots[k]
            rc = int(row[c])
            if rc == 0:
                continue
            hi = abs(pval) * rmax + abs(rc) * pmax
            if hi >= _INT64_SAFE and not self.big:
                row, rmax = _primitive(row)
                rc = int(row[c])
                hi = abs(pval) * rmax + abs(rc) * pmax
                if hi >= _INT64_SAFE:
                    self.big = True
                    self.pivots = [(pc, p.astype(object), pv, pm) for pc, p, pv, pm in self.pivots]
                    prow = self.pivots[k][1]
                    row = row.astype(object)
            if pval != 1:
                row *= pval
            row -= rc * prow
            rmax = hi
            if rmax >= _REDUCE_AT:
                row, rmax = _primitive(row)
        row, rmax = _primitive(row)
        if rmax == 0:
            return False
        c = int(np.flatnonzero(row)[0])
        self.pivots.append((c, row, int(row[c]), rmax))
        return True

    def add_rows(self, matrix) -> int:
        added = 0
        for row in matrix:
            if self.add_row(row):
                added += 1
        return added


def integer_rank(matrix) -> int:
    """Exact rank of an integer matrix (any iterable of rows)."""
    rows = [np.asarray(r, dtype=np.int64) for r in matrix]
    if not rows:
        return 0
    acc = ExactRankAccumulator(len(rows[0]))
    acc.add_rows(rows)
    return acc.rank


def affine_rank(matrix) -> int:
    """Exact affine rank (dimension of the affine hull) of integer points."""
    rows = [np.asarray(r, dtype=np.int64) for r in matrix]
    if len(rows) <= 1:
        return 0
    base = rows[0]
    acc = ExactRankAccumulator(len(base))
    for r in rows[1:]:
        acc.add_row(r - base)
    return acc.rank
