"""Exact rank of integer matrices.

Used for affine-rank computations on polytope vertex sets.  Floats propose,
integers decide: :func:`affine_rank` lets a float32 pass choose the
independent difference rows S, their pivot columns P and an integer kernel
K, and returns that rank r = |S| only when two exact checks prove it: rank
>= r by A X = delta I for the minor A = D[S][:, P] and X = rint(delta A^-1),
and rank <= r by D K = 0, each product exact by a checked bound.  Otherwise,
and on small sets, fraction-free elimination runs over every row.  No
tolerance decides a rank (the certifying-algorithm pattern of McConnell,
Mehlhorn, Naeher and Schweitzer, Comput. Sci. Rev. 5, 119 (2011)).

A row is reduced against a pivot row as ``row = pivot_value * row -
row[pivot_col] * pivot_row``, in place, which keeps everything in
integers.  A row is divided by the gcd of its entries only when a
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

#: rows per gemm in the float pass
_FLOAT_BLOCK = 32
#: the float pass takes a residual entry at most this fraction of its row's
#: largest input entry as zero; a wrong call costs the fallback, not the rank
_FLOAT_ZERO = 2.0**-10
#: float32 holds every integer of magnitude up to this exactly
_FLOAT32_EXACT = 2**24
#: OpenBLAS as numpy ships it runs a float32 gemm of at most this many
#: multiply-adds on the calling thread alone; a larger one hands parts to
#: worker threads, which on a small shared host cost more than they save
#: (the same product took from 0.2 ms to 16 ms) and keep their own
#: buffers resident (about 1.4 MB against 0.25 MB)
_GEMM_MACS = 2**19
#: rows per float32 block of the kernel and inverse checks
_CHECK_ROWS = 64
#: difference matrices of at most this many entries go straight to the
#: all-rows loop, which is exact too: at GYNI-3 (31 x 27) it costs what the
#: float pass's few dozen numpy calls cost.  wupb (71 x 45) would certify
#: in about 1.7 ms against 3.0 ms, but it is the only rank the CLI workload
#: of perfbench takes, and its traced run requires the span ``rank.add_row``
_SMALL = 4096


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


def integer_rank(matrix) -> int:
    """Exact rank of an integer matrix (any iterable of rows), every row
    through the accumulator."""
    rows = list(matrix)
    if not rows:
        return 0
    acc = ExactRankAccumulator(len(rows[0]))
    for row in rows:
        acc.add_row(row)
    return acc.rank


def _subtract_product(out, a, b):
    """``out -= a @ b`` in column slices of at most ``_GEMM_MACS``
    multiply-adds each."""
    width = max(1, _GEMM_MACS // max(1, a.size))
    for j in range(0, b.shape[1], width):
        out[:, j : j + width] -= a @ b[:, j : j + width]


def _propose(diffs):
    """The float pass: independent rows S, their pivot columns P and an
    integer kernel proposed from float32 arithmetic, as ``(S, P, delta,
    kernel_p)``.

    The columns are kept in an order with the pivots first, in the order
    they are chosen.  E, the reduced echelon of the rows chosen so far, is
    stored transposed in that order (row j of ``ech_t`` is column j of E);
    its identity part is never read.  The rows are reduced in order, a
    block of ``_FLOAT_BLOCK`` at a time: one product with E on the free
    columns, then each row takes its largest free entry as pivot, unless
    that entry is at most ``_FLOAT_ZERO`` times the row's largest input
    entry, and that column is cleared from the block's later rows.  At the
    block's end its chosen rows are reduced against each other and their
    pivot columns cleared from E, one product each.  ``delta`` is the
    rounded product of the pivots' magnitudes, |det D[S][:, P]| if the
    float values are right, and ``kernel_p`` is -rint(delta E) on the free
    columns, in ascending order, or None when delta reaches
    ``_FLOAT32_EXACT``.  Nothing here is trusted: :func:`_certified_rank`
    checks what it proposes."""
    n, m = diffs.shape
    order = np.arange(m)
    ech_t = np.empty((m, min(n, m)), dtype=np.float32)
    rows = []
    det = 1.0
    r = 0
    for start in range(0, n, _FLOAT_BLOCK):
        if r == m:
            break
        block = diffs[start : start + _FLOAT_BLOCK][:, order].astype(np.float32)
        zero = _FLOAT_ZERO * np.abs(block).max(axis=1)
        if r:
            _subtract_product(block[:, r:], block[:, :r], ech_t[r:, :r].T)
        chosen, picked = [], []
        for i in range(len(block)):
            c = r + int(np.abs(block[i, r:]).argmax())
            v = float(block[i, c])
            if not abs(v) > zero[i]:
                continue
            det *= abs(v)
            row = block[i, r:]
            row /= v
            below = block[i + 1 :, r:]
            below -= block[i + 1 :, c, None] * row
            chosen.append(i)
            picked.append(c)
        if not chosen:
            continue
        # the block's pivot columns move to positions r, r + 1, ...
        k = len(picked)
        rest = np.ones(m, dtype=bool)
        rest[:r] = False
        rest[picked] = False
        perm = np.concatenate((picked, np.flatnonzero(rest)))
        order[r:] = order[perm]
        new = block[chosen][:, perm]
        # new[:, :k] is unit upper triangular, U; inv becomes U^-1, and
        # new[:, k:] += (U^-1 - I) new[:, k:] reduces the rows against each other
        inv = np.eye(k, dtype=np.float32)
        for j in range(k - 1, 0, -1):
            inv[:j] -= new[:j, j, None] * inv[j]
        _subtract_product(new[:, k:], np.eye(k, dtype=np.float32) - inv, new[:, k:])
        if r:
            ech_t[r:, :r] = ech_t[perm, :r]
            _subtract_product(ech_t[r + k :, :r], new[:, k:].T, ech_t[r : r + k, :r])
        ech_t[r + k :, r : r + k] = new[:, k:].T
        rows.extend(start + i for i in chosen)
        r += k
    delta = float(np.rint(det))
    kernel_p = None
    if delta < _FLOAT32_EXACT:
        kernel_p = ech_t[r:, :r][np.argsort(order[r:])]
        kernel_p *= np.float32(-delta)
        np.rint(kernel_p, out=kernel_p)
        kernel_p = kernel_p.T
    return np.array(rows, dtype=np.intp), order[:r].copy(), delta, kernel_p


def _annihilates(diffs, cols, delta, kernel_p) -> bool:
    """Whether D K = 0 holds exactly for the integer matrix K that has
    delta * I on the nf columns not in ``cols`` (ascending) and the rows of
    ``kernel_p`` on ``cols``; K's columns are then nf independent vectors
    orthogonal to every row of D, and rank D <= m - nf.

    The product runs in float32, a block of ``_CHECK_ROWS`` rows at a time,
    each block only while its largest row L1 norm times max |K| stays
    below 2**24: then every product and partial sum is an integer that
    float32 holds exactly, in any summation order.  The L1 norms are
    float32 sums of magnitudes too, exact below 2**24 and never below it
    once the true sum reaches it."""
    n, m = diffs.shape
    free = np.ones(m, dtype=bool)
    free[cols] = False
    nf = np.count_nonzero(free)
    if not nf:
        return True
    if kernel_p is None or kernel_p.shape != (len(cols), nf):
        return False
    if not (1 <= delta < _FLOAT32_EXACT and float(delta).is_integer()):
        return False
    if not np.array_equal(kernel_p, np.rint(kernel_p)):
        return False
    kmax = max(delta, float(np.abs(kernel_p).max(initial=0)))
    kernel = np.zeros((m, nf), dtype=np.float32)
    kernel[np.flatnonzero(free), np.arange(nf)] = delta
    kernel[cols] = kernel_p
    for start in range(0, n, _CHECK_ROWS):
        part = diffs[start : start + _CHECK_ROWS].astype(np.float32)
        if not float(np.abs(part).sum(axis=1).max()) * kmax < _FLOAT32_EXACT:
            return False
        width = max(1, _GEMM_MACS // part.size)
        for j in range(0, nf, width):
            if (part @ kernel[:, j : j + width]).any():
                return False
    return True


def _scaled_inverse(diffs, rows, cols, delta):
    """X = rint(delta * A^-1) for the minor A = D[rows][:, cols], in float32,
    or None at a zero pivot.

    Gauss-Jordan in place on the one r x r array, with the pivots on the
    diagonal in the given order: the float pass found a nonzero pivot at
    each step in that order, so none is searched for.  Each block of
    ``_FLOAT_BLOCK`` pivots K is inverted alone, element by element, and the
    other rows take it through two products: row block K becomes
    (A_KK)^-1 [I, A_KR], and every other row i subtracts A_iK times that
    after its own K entries are cleared.  Nothing here is trusted:
    :func:`_inverts` checks X."""
    r = len(rows)
    x = np.empty((r, r), dtype=np.float32)
    for start in range(0, r, _CHECK_ROWS):
        x[start : start + _CHECK_ROWS] = diffs[np.ix_(rows[start : start + _CHECK_ROWS], cols)]
    for start in range(0, r, _FLOAT_BLOCK):
        end = min(start + _FLOAT_BLOCK, r)
        inv = x[start:end, start:end].copy()
        for k in range(len(inv)):
            p = inv[k, k]
            if p == 0:
                return None
            f = inv[:, k].copy()
            f[k] = 0
            inv[k, k] = 1
            inv[k] /= p
            inv -= f[:, None] * inv[k]
            inv[:, k] -= f
        # row block K becomes inv [I, A_KR]: A_KR -= (I - inv) A_KR
        eye_minus_inv = np.eye(end - start, dtype=np.float32) - inv
        for side in (x[start:end, :start], x[start:end, end:]):
            _subtract_product(side, eye_minus_inv, side)
        x[start:end, start:end] = inv
        for side in (x[:start], x[end:]):
            f = side[:, start:end].copy()
            side[:, start:end] = 0
            _subtract_product(side, f, x[start:end])
    x *= np.float32(delta)
    np.rint(x, out=x)
    return x


def _inverts(diffs, rows, cols, delta, x) -> bool:
    """Whether A X = delta I holds exactly for the minor A = D[rows][:, cols];
    with delta != 0, det A det X = delta^r, so A is nonsingular.

    The product runs in float32, a block of ``_CHECK_ROWS`` rows of A at a
    time, and only for an integer X and each block only while its largest
    row L1 norm times max |X| stays below 2**24: every partial sum is then
    an integer that float32 holds exactly, the argument of
    :func:`_annihilates`."""
    r = len(rows)
    if x is None or x.shape != (r, r):
        return False
    if not (1 <= delta < _FLOAT32_EXACT and float(delta).is_integer()):
        return False
    for start in range(0, r, _CHECK_ROWS):
        part = x[start : start + _CHECK_ROWS]
        if not np.array_equal(part, np.rint(part)):
            return False
    xmax = float(np.maximum(x.max(initial=0), -x.min(initial=0)))  # NaN if X holds one
    for start in range(0, r, _CHECK_ROWS):
        part = diffs[np.ix_(rows[start : start + _CHECK_ROWS], cols)].astype(np.float32)
        if not float(np.abs(part).sum(axis=1).max()) * xmax < _FLOAT32_EXACT:
            return False
        width = max(1, _GEMM_MACS // part.size)
        for j in range(0, r, width):
            prod = part @ x[:, j : j + width]
            diag = np.arange(max(start, j), min(start + len(part), j + prod.shape[1]))
            prod[diag - start, diag - j] -= np.float32(delta)
            if prod.any():
                return False
    return True


def _certified_rank(diffs):
    """The rank r = |S| the float pass proposes, if two exact checks prove
    it, else None.

    Upper bound: :func:`_annihilates` for the proposed kernel proves
    rank <= m - nf, which is at most r because r pivot columns leave at
    least m - r free.  Lower bound: rank >= r by A X = delta I, checked by
    :func:`_inverts` for the minor A = D[S][:, P] (rows in order, columns in
    the order the float pass chose them) and X = rint(delta A^-1) from
    :func:`_scaled_inverse`."""
    rows, cols, delta, kernel_p = _propose(diffs)
    r = len(rows)
    if len(cols) != r or not _annihilates(diffs, cols, delta, kernel_p):
        return None
    del kernel_p  # not held while the minor is inverted
    x = _scaled_inverse(diffs, rows, cols, delta)
    return r if _inverts(diffs, rows, cols, delta, x) else None


def affine_rank(matrix) -> int:
    """Exact affine rank (dimension of the affine hull) of integer points.

    The rank of the differences from the first point, as the float pass
    proposes and :func:`_certified_rank` proves it, or, when a check fails
    or the differences have at most ``_SMALL`` entries, as
    :func:`integer_rank` finds it over every row.  An integer array is kept
    in its dtype while the differences fit it."""
    points = matrix
    if not (isinstance(points, np.ndarray) and points.dtype.kind == "i"):
        points = np.asarray(matrix, dtype=np.int64)
    if len(points) <= 1:
        return 0
    if points.size and int(points.max()) - int(points.min()) > np.iinfo(points.dtype).max:
        points = points.astype(np.int64)
    diffs = points[1:] - points[0]
    rank = None if diffs.size <= _SMALL else _certified_rank(diffs)
    return integer_rank(diffs) if rank is None else rank
