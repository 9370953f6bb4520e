"""Exact rank of integer matrices.

Used for affine-rank computations on polytope vertex sets.  Floats propose,
integers decide: :func:`affine_rank` lets a float32 pass choose the
independent difference rows S, their pivot columns P and an integer kernel
K, and returns that rank r = |S| only when two exact checks prove it: rank
>= r by A X = delta I for the minor A = D[S][:, P] and X = rint(delta A^-1),
and rank <= r by D K = 0, each product exact by a checked bound.  The pass
takes the rows a block at a time: one product reduces the block against
the rows chosen so far, one vectorized screen drops the rows that product
leaves at zero, and Gauss-Jordan runs on the rest, so the pass takes a
Python step per row the screen keeps, not per row.  When a check fails,
and on small sets, fraction-free elimination runs over every row.  No
tolerance decides a rank (the certifying-algorithm pattern of McConnell,
Mehlhorn, Naeher and Schweitzer, Comput. Sci. Rev. 5, 119 (2011)).

The rank is taken on D', the distinct nonzero columns of the differences
D, in ascending order (:func:`_distinct_columns`): a float32 weighted sum
of each column groups them, and exact integer tests decide which go.  A
dropped column is zero or equal to a kept one, so D and D' have the same
rank, D' K = 0 bounds rank D as it bounds rank D', and a minor of D' is a
minor of D: neither certificate changes.  At Niset-Cerf(4,3) 121 of 625
columns go (97 zero, 24 copies), elsewhere in the catalogue only the
constant one.

Every float32 product runs in tiles of at most ``_GEMM_MACS``
multiply-adds, so each stays on the calling thread, and a tile's operands
stay in cache while it runs (Goto and van de Geijn, ACM Trans. Math.
Softw. 34, 12 (2008)).  The two checks share one tiled product,
:func:`_product_is`, in tiles of rows x inner x columns; the float pass and
the inverse subtract their products, whose inner dimension is at most
``_FLOAT_BLOCK``, in tiles of rows x columns (:func:`_subtract_product`).

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

#: rows per block of the float pass: one gemm against the rows chosen so
#: far, one screen for the dependent rows, Gauss-Jordan on the others
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
#: buffers resident (about 1.4 MB against 0.25 MB).  Every product is cut
#: into tiles of at most this many.  Measured on a 2-vCPU Xeon against
#: column slices with every row of ``a``: at Niset-Cerf(4,3) (728 x 625,
#: rank 415) the checks' 64 x 128 x 64 tiles took the kernel check 4.8 ->
#: 2.9 ms and the inverse check 4.4 -> 2.6 ms (64 x 256 x 32: 3.2 ms), and
#: at GYNI-7 (rank 2185) the inverse check 0.99 -> 0.40 s and the inverse's
#: 64 x 32 x 256 tiles 1.5 -> 0.6 s; 3-D tiles made the float pass's
#: block reduction 14-21 % slower, so it keeps the inner dimension whole
_GEMM_MACS = 2**19
#: rows per tile of every product, per float32 block of the checks' L1
#: bound and of the column keys, and columns per tile of the checks
_CHECK_ROWS = 64
#: reduced difference matrices of at most this many entries go straight to
#: the all-rows loop, which is exact too.  Both run below 2 ms there: at
#: GYNI-3 (31 x 26) the float pass and its checks take 0.37 ms against
#: 0.51 ms for the loop, at wupb (71 x 44) 0.73 ms against 1.62 ms (medians
#: of 200 calls).  wupb is the only rank the CLI workload of perfbench
#: takes, and its traced run requires the span ``rank.add_row``
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
    """``out -= a @ b`` in tiles of at most ``_CHECK_ROWS`` rows of ``a``,
    all of its columns, and as many columns of ``b`` as keep a tile within
    ``_GEMM_MACS`` multiply-adds.

    This is the form for the float pass and the inverse, whose inner
    dimension is at most ``_FLOAT_BLOCK``: the block reduction in
    :func:`_propose` (``a`` has ``_FLOAT_BLOCK`` rows) takes column slices
    of one row tile, and the rank-32 updates of the other rows in
    :func:`_scaled_inverse` take 64 x 32 x 256 tiles.  ``out`` may be ``b``
    itself only when ``a`` is one row tile."""
    width = max(1, _GEMM_MACS // max(1, min(len(a), _CHECK_ROWS) * a.shape[1]))
    for i in range(0, len(a), _CHECK_ROWS):
        for j in range(0, b.shape[1], width):
            out[i : i + _CHECK_ROWS, j : j + width] -= a[i : i + _CHECK_ROWS] @ b[:, j : j + width]


def _propose(diffs):
    """The float pass: independent rows S, their pivot columns P and an
    integer kernel proposed from float32 arithmetic, as ``(S, P, delta,
    kernel_p)``.

    The columns are kept in an order with the pivots first, in the order
    they are chosen.  E, the reduced echelon of the rows chosen so far, is
    stored transposed in that order (row j of ``ech_t`` is column j of E);
    its identity part is never read.  The rows are reduced in order, a
    block of ``_FLOAT_BLOCK`` at a time.  One product with E on the free
    columns reduces the block, and one vectorized screen drops every row
    whose largest free entry is at most ``_FLOAT_ZERO`` times its largest
    input entry, as dependent on the rows already chosen.  Each row the
    screen keeps then takes its largest free entry as pivot, under the same
    test, and Gauss-Jordan clears that column from every other kept row of
    the block, so the block's chosen rows come out as [I | N] on the free
    columns.  One product with N then clears the new pivot columns from
    E's earlier rows.  ``delta`` is the rounded product of the pivots'
    magnitudes, |det D[S][:, P]| if the float values are right, and
    ``kernel_p`` is -rint(delta E) on the free columns, in ascending order,
    or None when delta reaches ``_FLOAT32_EXACT``.  Nothing here is
    trusted: :func:`_certified_rank` checks what it proposes."""
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
        live = np.flatnonzero(np.abs(block[:, r:]).max(axis=1) > zero)
        if not len(live):
            continue
        work, zero = block[live, r:], zero[live]
        chosen, picked = [], []
        for i in range(len(live)):
            c = int(np.abs(work[i]).argmax())
            v = float(work[i, c])
            if not abs(v) > zero[i]:
                continue
            det *= abs(v)
            work[i] /= v
            f = work[:, c].copy()
            f[i] = 0
            work -= f[:, None] * work[i]
            chosen.append(i)
            picked.append(r + c)
        if not chosen:
            continue
        # the block's pivot columns move to positions r, r + 1, ...
        k = len(picked)
        rest = np.ones(m, dtype=bool)
        rest[:r] = False
        rest[picked] = False
        perm = np.concatenate((picked, np.flatnonzero(rest)))
        order[r:] = order[perm]
        free = work[chosen][:, perm[k:] - r]  # N of the chosen rows' [I | N]
        if r:
            ech_t[r:, :r] = ech_t[perm, :r]
            _subtract_product(ech_t[r + k :, :r], free.T, ech_t[r : r + k, :r])
        ech_t[r + k :, r : r + k] = free.T
        rows.extend(start + live[chosen])
        r += k
    delta = float(np.rint(det))
    kernel_p = None
    if delta < _FLOAT32_EXACT:
        kernel_p = ech_t[r:, :r][np.argsort(order[r:])]
        kernel_p *= np.float32(-delta)
        np.rint(kernel_p, out=kernel_p)
        kernel_p = kernel_p.T
    return np.array(rows, dtype=np.intp), order[:r].copy(), delta, kernel_p


def _product_is(a, b, bmax, delta) -> bool:
    """Whether ``a @ b`` is exactly delta I, or zero when delta = 0, for an
    integer ``a`` and an integer-valued float32 ``b`` with max |b| =
    ``bmax``: the product of both checks.

    It runs in float32 tiles of ``_CHECK_ROWS`` rows x ``_CHECK_ROWS``
    columns x as much of the inner dimension as keeps a tile within
    ``_GEMM_MACS`` multiply-adds (64 x 128 x 64; a kernel of two columns
    takes 64 x 4096 x 2), summed over the inner tiles.  Each block of
    ``_CHECK_ROWS`` rows of ``a`` runs only while its largest row L1 norm
    times ``bmax`` stays below 2**24: then every product and partial sum
    is an integer that float32 holds exactly, in any summation order.  The L1 norms are
    float32 sums of magnitudes too, exact below 2**24 and never below it
    once the true sum reaches it, and a NaN ``bmax`` fails the test."""
    inner, cols = b.shape
    depth = _GEMM_MACS // (_CHECK_ROWS * max(1, min(cols, _CHECK_ROWS)))
    for i in range(0, len(a), _CHECK_ROWS):
        part = a[i : i + _CHECK_ROWS].astype(np.float32)
        if not float(np.abs(part).sum(axis=1).max()) * bmax < _FLOAT32_EXACT:
            return False
        for j in range(0, cols, _CHECK_ROWS):
            tile = b[:, j : j + _CHECK_ROWS]
            acc = part[:, :depth] @ tile[:depth]
            for k in range(depth, inner, depth):
                acc += part[:, k : k + depth] @ tile[k : k + depth]
            if delta:
                diag = np.arange(max(i, j), min(i + len(part), j + acc.shape[1]))
                acc[diag - i, diag - j] -= np.float32(delta)
            if acc.any():
                return False
    return True


def _annihilates(diffs, cols, delta, kernel_p) -> bool:
    """Whether D K = 0 holds exactly for the integer matrix K that has
    delta * I on the nf columns not in ``cols`` (ascending) and the rows of
    ``kernel_p`` on ``cols``; K's columns are then nf independent vectors
    orthogonal to every row of D, and rank D <= m - nf.  The product is
    :func:`_product_is`, exact by its bound."""
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
    return _product_is(diffs, kernel, kmax, 0)


def _scaled_inverse(minor, delta):
    """X = rint(delta * A^-1) for the integer minor A, in float32, or None at
    a zero pivot.

    Gauss-Jordan in place on the one r x r array, with the pivots on the
    diagonal in the given order: the float pass found a nonzero pivot at
    each step in that order, so none is searched for.  Each block of
    ``_FLOAT_BLOCK`` pivots K is inverted alone, element by element, and the
    other rows take it through two products: row block K becomes
    (A_KK)^-1 [I, A_KR], and every other row i subtracts A_iK times that
    after its own K entries are cleared.  Nothing here is trusted:
    :func:`_inverts` checks X."""
    r = len(minor)
    x = minor.astype(np.float32)
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


def _inverts(minor, delta, x) -> bool:
    """Whether A X = delta I holds exactly for the integer minor A; with
    delta != 0, det A det X = delta^r, so A is nonsingular.  The product is
    :func:`_product_is`, run only for an integer X and exact by its
    bound."""
    r = len(minor)
    if x is None or x.shape != (r, r):
        return False
    if not (1 <= delta < _FLOAT32_EXACT and float(delta).is_integer()):
        return False
    for start in range(0, r, _CHECK_ROWS):
        part = x[start : start + _CHECK_ROWS]
        if not np.array_equal(part, np.rint(part)):
            return False
    xmax = float(np.maximum(x.max(initial=0), -x.min(initial=0)))  # NaN if X holds one
    return _product_is(minor, x, xmax, delta)


def _certified_rank(diffs):
    """The rank r = |S| the float pass proposes, if two exact checks prove
    it, else None.

    Upper bound: :func:`_annihilates` for the proposed kernel proves
    rank <= m - nf, which is at most r because r pivot columns leave at
    least m - r free.  Lower bound: rank >= r by A X = delta I, checked by
    :func:`_inverts` for the minor A = D[S][:, P] (rows in order, columns in
    the order the float pass chose them), gathered once in the dtype of D,
    and X = rint(delta A^-1) from :func:`_scaled_inverse`."""
    rows, cols, delta, kernel_p = _propose(diffs)
    r = len(rows)
    if len(cols) != r or not _annihilates(diffs, cols, delta, kernel_p):
        return None
    del kernel_p  # not held while the minor is inverted
    minor = diffs[np.ix_(rows, cols)]
    x = _scaled_inverse(minor, delta)
    return r if _inverts(minor, delta, x) else None


def _column_keys(diffs):
    """A fingerprint of each column of ``diffs``: its sum with row i
    weighted by 1 + (3 i**2 + 5003 i mod 8191), taken as float32 products
    of ``_CHECK_ROWS`` rows at a time and summed in float64.

    A zero column gets 0.  While every entry is at most 32 in magnitude,
    each partial sum is an integer below 2**24, which float32 holds
    exactly in any summation order, so equal columns get equal keys; past
    that they may not, which only keeps both.  (With weights linear in i,
    distinct catalogue columns shared keys: 9 pairs at Niset-Cerf(4,3) for
    5003 i mod 8191; with these, none.)"""
    n, m = diffs.shape
    rows = np.arange(n, dtype=np.int64)
    weights = (1 + (3 * rows * rows + 5003 * rows) % 8191).astype(np.float32)
    step = max(1, min(_CHECK_ROWS, _GEMM_MACS // max(1, m)))
    keys = np.zeros(m)
    for i in range(0, n, step):
        keys += weights[i : i + step] @ diffs[i : i + step].astype(np.float32)
    return keys


def _distinct_columns(diffs):
    """The first of each set of equal nonzero columns of ``diffs``, as
    ascending column indices.

    The keys of :func:`_column_keys` only group the columns; exact integer
    tests decide.  A column whose key is 0 is kept if ``any(axis=0)`` finds
    a nonzero entry in it.  Among the nonzero columns that share a key, in
    ascending order, a column is dropped only if it equals the first of
    them, or one kept after it, entry for entry.  Distinct columns with one
    key thus cost a comparison, and equal columns with different keys are
    both kept: no tolerance decides which columns go."""
    keys = _column_keys(diffs)
    nonzero = keys != 0
    maybe_zero = np.flatnonzero(~nonzero)
    nonzero[maybe_zero] = diffs[:, maybe_zero].any(axis=0)
    cols = np.flatnonzero(nonzero)
    order = cols[np.argsort(keys[cols], kind="stable")]
    tied = keys[order[1:]] == keys[order[:-1]]
    if not tied.any():
        return cols
    # first[p]: the position in ``order`` where the key at position p starts
    starts = np.concatenate(([True], ~tied))
    first = np.maximum.accumulate(np.where(starts, np.arange(len(order)), 0))
    tied = np.flatnonzero(tied) + 1
    keep = np.ones(len(order), dtype=bool)
    keep[tied] = (diffs[:, order[tied]] != diffs[:, order[first[tied]]]).any(axis=0)
    kept = {}  # start of a key -> the columns kept after its first
    for p in tied[keep[tied]]:
        mates = kept.setdefault(first[p], [])
        if any(np.array_equal(diffs[:, order[p]], diffs[:, c]) for c in mates):
            keep[p] = False
        else:
            mates.append(order[p])
    return np.sort(order[keep])


def affine_rank(matrix) -> int:
    """Exact affine rank (dimension of the affine hull) of integer points.

    The rank of the differences D from the first point.  It is taken on
    D', the columns :func:`_distinct_columns` keeps: every other column of
    D is zero or equal to a kept one, so D and D' have the same column
    space and the same rank.  Both certificates carry over: D' K = 0 for
    nf independent columns of K proves rank D = rank D' <= m' - nf, and a
    minor A of D' is a minor of D, so A X = delta I proves rank D >= r.
    The rank comes from the float pass and :func:`_certified_rank` or,
    when a check fails or D' has at most ``_SMALL`` entries, from
    :func:`integer_rank` over every row of D'.  An integer array is kept in
    its dtype while the differences fit it."""
    points = matrix
    if not (isinstance(points, np.ndarray) and points.dtype.kind == "i"):
        points = np.asarray(matrix, dtype=np.int64)
    if len(points) <= 1:
        return 0
    if points.size and int(points.max()) - int(points.min()) > np.iinfo(points.dtype).max:
        points = points.astype(np.int64)
    diffs = points[1:] - points[0]
    cols = _distinct_columns(diffs)
    if len(cols) < diffs.shape[1]:
        diffs = diffs[:, cols]
    rank = None if diffs.size <= _SMALL else _certified_rank(diffs)
    return integer_rank(diffs) if rank is None else rank
