"""Exact rank of integer matrices by fraction-free elimination.

Used for affine-rank computations on polytope vertex sets.  Rows are combined
as ``pivot_value * row - row[pivot_col] * pivot_row`` and divided by their
gcd, which keeps everything in integers; no tolerance is involved anywhere.

Rows are numpy arrays.  They are int64 while a conservative magnitude guard
shows that no combination can reach ``_INT64_SAFE``; the first time it
cannot, every row switches to Python integers (``dtype=object``) for the rest
of the computation, the same switch :mod:`gynibell.lp` makes in the simplex.
Either way the rank is exact.
"""

from __future__ import annotations

import numpy as np

_INT64_SAFE = 2**62


class ExactRankAccumulator:
    """Incremental row-echelon rank over the integers.

    Each pivot is stored as ``(column, row, pivot value, max |entry|)`` in
    insertion order; every freshly added pivot row has been reduced against
    all earlier ones, so reducing a new row against the pivots in insertion
    order can never reintroduce an eliminated column.  The entries of
    ``pval * row - rc * prow`` are bounded by
    ``|pval| * max|row| + |rc| * max|prow|``; while that bound stays below
    ``_INT64_SAFE`` the step runs in int64.  The first time it does not,
    ``big`` is set and every stored pivot row and the current row become
    Python integer arrays for the rest of the accumulator's life.  During a
    reduction ``max|row|`` is carried as an upper bound (the step's bound
    over the gcd) and made exact only when the bound reaches the guard, so
    the switch happens exactly when the exact maxima call for it.
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
                rmax = int(np.abs(row).max())
                hi = abs(pval) * rmax + abs(rc) * pmax
                if hi >= _INT64_SAFE:
                    self.big = True
                    self.pivots = [(pc, p.astype(object), pv, pm) for pc, p, pv, pm in self.pivots]
                    prow = self.pivots[k][1]
                    row = row.astype(object)
            row = pval * row - rc * prow
            g = int(np.gcd.reduce(row))
            if g == 0:
                return False
            if g > 1:
                row //= g
            rmax = hi // g
        nz = np.flatnonzero(row)
        if nz.size == 0:
            return False
        c = int(nz[0])
        self.pivots.append((c, row, int(row[c]), int(np.abs(row).max())))
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
