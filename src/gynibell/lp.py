"""Exact rational linear programming.

One problem form: maximize ``c.x`` subject to equality rows ``A x = b`` over
``x >= 0``.  An inequality or a variable bound is written as an equality
row with its own slack column.

A two-phase revised simplex.  The basis inverse is held explicitly as one
m x m integer numpy matrix plus a vector of positive integer row
denominators (rows are pre-scaled so constraint columns are integral),
which keeps every pivot exact without per-element rational normalization;
a row is divided by its gcd only once its entries grow large.  A pivot has
no per-row Python loop: the touched rows are updated, and the grown ones
gcd-reduced, one numpy operation per block of rows, and the lexicographic
ratio tie-break scans column chunks that grow geometrically.  The arrays are
int64 while the magnitude guard of :mod:`gynibell._rank` shows that no
product can reach 2**62; past it they switch to Python integers
(``dtype=object``) for the rest of the solve.  The duals are integer
numerators over one common denominator, and each pivot prices every column
with one exact sparse integer product.  The problems solved here
(no-signaling bounds, membership tests, time-ordered bilocal
decompositions) have modest row counts and wide, very sparse column sets,
so columns are stored once, compressed.

Correctness posture:

* "optimal" results are re-verified before being returned: the solution is
  substituted into every original row exactly, and the dual vector (free,
  one multiplier per equality row) is checked for exact dual feasibility,
  complementary slackness and exact agreement of primal and dual
  objectives (strong duality).
* infeasible problems come with a Farkas certificate, verified exactly.
* unbounded problems come with a verified improving ray.

The verifiers read only the :class:`LPProblem` and the result, never the
solver's standard form: each original row is scaled by the lcm of its own
denominators, each vector becomes integer numerators over one common
denominator, and every check is a Python-integer sum.

Anti-cycling: pricing is best-in-first-improving-block by default (the most
improving column, first on ties, of the first block of ``PRICE_BLOCK``
nonbasic columns that holds an improving one); after a
run of consecutive degenerate pivots the solver switches to Bland's rule
until a strict improvement happens, which guarantees termination.  An
artificial variable sitting at zero is pivoted out the moment an entering
column touches its row, so artificials can never rise again after phase 1;
each such forced pivot removes one artificial for good, so they cannot loop.

There is deliberately no floating-point mode and no presolve; exactness of
the returned fractions is the point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from ._rank import _INT64_SAFE, _REDUCE_AT

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: consecutive degenerate pivots tolerated before Bland's rule engages.
#: the primary tie-break is lexicographic, which already makes cycling all
#: but impossible, so this is a deep safety net rather than a tuning knob
DEGENERACY_STREAK = 500

#: column block size for lazy pricing.  An LP with at most this many columns
#: is priced over all of them (plain Dantzig), as is every LP the benchmark
#: workloads solve (at most 384 columns).  Blocks stay for wide LPs: on the
#: uncollapsed TOBL LP (1600 columns) full pricing had not finished after
#: 7 minutes, and block pricing solves it in 8-19 s (2-vCPU Xeon)
PRICE_BLOCK = 512

#: most entries of the basis inverse that one block of a pivot's row update,
#: or of the lexicographic tie-break, copies at a time
_BLOCK_ELEMS = 1 << 13

#: columns in the first chunk the lexicographic tie-break compares
_LEX_CHUNK = 32


class LPError(RuntimeError):
    pass


@dataclass(frozen=True)
class Constraint:
    """One equality row: sparse coefficients and a right-hand side."""

    coeffs: tuple  # tuple of (var_index, Fraction)
    rhs: Fraction


def _fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def make_constraint(coeffs, rhs) -> Constraint:
    """Accept a dense sequence or a {index: value} dict of coefficients.
    A ``Fraction`` given is kept as it is, not copied."""
    if isinstance(coeffs, dict):
        items = tuple(sorted((int(i), _fraction(v)) for i, v in coeffs.items() if v))
    else:
        items = tuple((i, _fraction(v)) for i, v in enumerate(coeffs) if v)
    return Constraint(items, _fraction(rhs))


@dataclass(frozen=True)
class LPProblem:
    """max of objective . x subject to equality rows, over x >= 0.

    An inequality is written as an equality row with its own slack column;
    any other bound on a variable is written as such a row.  A minimum is
    the negated maximum of the negated objective.
    """

    n: int
    objective: tuple
    constraints: tuple

    def __post_init__(self):
        if len(self.objective) != self.n:
            raise ValueError("objective length mismatch")


def make_problem(objective, constraints) -> LPProblem:
    obj = tuple(Fraction(c) for c in objective)
    rows = tuple(
        c if isinstance(c, Constraint) else make_constraint(*c) for c in constraints
    )
    return LPProblem(len(obj), obj, rows)


@dataclass
class LPResult:
    """Solver outcome with exact certificates.

    ``dual`` (optimal): one multiplier per constraint, with
    ``value == dual . rhs``.
    ``farkas`` (infeasible): row multipliers proving emptiness.
    ``ray`` (unbounded): feasible improving direction.
    """

    status: str
    value: Fraction | None = None
    solution: tuple | None = None
    dual: tuple | None = None
    farkas: tuple | None = None
    ray: tuple | None = None
    pivots: int = 0


# ---------------------------------------------------------------------------
# standard-form conversion
#
# internal form: minimize c.x  s.t.  A x = b, x >= 0, b >= 0
# variable layout: [original vars | artificials]


class _Standard:
    __slots__ = ("m", "n", "indptr", "indices", "data", "colabs", "b", "phase2_cost", "row_mult")


def _standardize(problem: LPProblem) -> _Standard:
    """Convert to ``min -objective.x, A x = b, x >= 0`` with integer columns.

    Each row is multiplied by the (signed) rational that clears coefficient
    denominators and makes the right-hand side nonnegative; ``row_mult``
    records the multipliers so duals and Farkas certificates can be mapped
    back to the rows as originally written.  The columns of the scaled
    matrix are stored once, compressed: column ``j`` holds rows
    ``indices[indptr[j]:indptr[j + 1]]`` (ascending) with the integers
    ``data`` at the same positions (int64 if every one is below the guard);
    ``colabs[j]`` is the sum of the column's absolute values.
    """
    n = problem.n
    rows = problem.constraints

    std = _Standard()
    std.m = len(rows)
    std.n = n

    # integer row scaling plus sign flip for b >= 0
    b = []
    row_mult = []
    col_rows = [[] for _ in range(n)]
    col_values = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        mult = 1
        for _, v in row.coeffs:
            mult = math.lcm(mult, v.denominator)
        if row.rhs < 0:
            mult = -mult
        row_mult.append(Fraction(mult))
        b.append(row.rhs * mult)
        for j, v in row.coeffs:
            if v:
                col_rows[j].append(i)
                col_values[j].append(v.numerator * (mult // v.denominator))
    std.indptr = np.array(list(itertools.accumulate(map(len, col_rows), initial=0)))
    std.indices = np.array(list(itertools.chain.from_iterable(col_rows)), dtype=np.intp)
    values = list(itertools.chain.from_iterable(col_values))
    big = max(map(abs, values), default=0) >= _INT64_SAFE
    std.data = np.array(values, dtype=object if big else np.int64)
    std.colabs = [sum(map(abs, c)) for c in col_values]
    std.b = b
    std.phase2_cost = [-c for c in problem.objective]
    std.row_mult = row_mult
    return std


def _scaled_integers(values):
    """Integers ``values * scale`` and the least positive ``scale`` making
    every one of the rationals integral."""
    scale = 1
    for v in values:
        scale = math.lcm(scale, v.denominator)
    return [v.numerator * (scale // v.denominator) for v in values], scale


# ---------------------------------------------------------------------------
# simplex core


def _least_ratios(nums, dens):
    """Positions k of the least ``nums[k] / dens[k]`` (every ``dens[k] > 0``),
    ascending; exact, by integer cross products."""
    bn, bd = nums[0], dens[0]
    ties = [0]
    for k in range(1, len(nums)):
        lhs, rhs = nums[k] * bd, bn * dens[k]
        if lhs < rhs:
            bn, bd = nums[k], dens[k]
            ties = [k]
        elif lhs == rhs:
            ties.append(k)
    return ties


class _Simplex:
    """Revised simplex with the basis inverse held as one integer matrix.

    ``M[:, :m]`` holds the numerators of the basis inverse, row ``i`` over
    the positive denominator ``bden[i]``; a row is reduced by its gcd with
    the denominator once its entries reach ``_REDUCE_AT``.  The last column
    ``M[:, m]`` is the inverse applied to the right-hand side scaled to
    integers (``b_scale * b``), so basic value ``i`` is
    ``M[i, m] / (bden[i] * b_scale)`` and the row operations of a pivot keep
    it current.  A pivot updates the touched rows of ``M`` in place, a block
    of rows at a time, and allocates nothing of size m x m.  The duals are
    integer numerators ``ynum`` over one common denominator ``yden``, and
    every pivot prices all columns with one sparse integer product
    ``A^T ynum``, so the reduced costs are integers over one positive
    denominator and compare exactly.

    The arrays are int64 while a magnitude guard (the bound of
    :mod:`gynibell._rank`, fed by ``rowmax``, an upper bound on each row's
    entries) shows that no product or sum can reach ``_INT64_SAFE``; the
    first time it cannot show that, every array switches to Python integers
    (``dtype=object``) for the rest of the solve.  Either way the arithmetic
    is exact, and so is every pivot choice.
    """

    def __init__(self, std: _Standard):
        m, n = std.m, std.n
        self.m, self.n = m, n
        self.pivots = 0
        # rows of M (m + 1 entries each) that one block of an update holds
        self.block_rows = max(1, _BLOCK_ELEMS // (m + 1))
        self.basis = np.arange(n, n + m)
        self.nonbasic = np.ones(n, dtype=bool)
        self.last_ray_col = None
        self.last_ray_u = None

        self.indptr = std.indptr
        self.indices = std.indices
        self.nonempty = np.flatnonzero(std.indptr[1:] != std.indptr[:-1])
        self.starts = std.indptr[self.nonempty]
        self.colabs = std.colabs
        self.colabs_max = max(std.colabs, default=0)

        b_int, self.b_scale = _scaled_integers(std.b)
        self.big = std.data.dtype == object or max(map(abs, b_int), default=0) >= _INT64_SAFE
        dtype = object if self.big else np.int64
        self.data = std.data.astype(dtype, copy=False)
        self.M = np.zeros((m, m + 1), dtype=dtype)
        np.fill_diagonal(self.M, 1)
        self.M[:, m] = b_int
        self.bden = np.ones(m, dtype=dtype)
        self.cost = np.zeros(0, dtype=dtype)
        self.ynum = np.zeros(m, dtype=dtype)
        self.rowmax = np.maximum(np.abs(self.M[:, m]), 1)

    # -- magnitude guard

    def _fits(self, *bounds) -> bool:
        """Whether int64 arithmetic is safe below every bound; switch every
        array to Python integers the first time it is not."""
        if self.big:
            return False
        if all(v < _INT64_SAFE for v in bounds):
            return True
        self.big = True
        for name in ("M", "bden", "rowmax", "data", "cost", "ynum"):
            setattr(self, name, getattr(self, name).astype(object))
        return False

    def _bmax(self) -> int:
        return int(self.rowmax.max(initial=1))

    # -- duals and pricing

    def _set_cost(self, cost):
        """Integer costs over one scale, and the duals of the current basis
        computed from scratch: ``y = c_B B^-1``."""
        ints, self.cscale = _scaled_integers(cost)
        self.cmax = max(map(abs, ints), default=0)
        self._fits(self.cmax, self.cscale)
        self.cost = np.array(ints, dtype=self.M.dtype)
        cb = [ints[j] for j in self.basis.tolist()]
        den = math.lcm(1, *(int(d) for c, d in zip(cb, self.bden) if c))
        w = [c * (den // int(d)) if c else 0 for c, d in zip(cb, self.bden)]
        self._fits(sum(map(abs, w)) * self._bmax(), self.cscale * den)
        ynum = np.zeros(self.m, dtype=self.M.dtype)
        for i, wi in enumerate(w):
            if wi:
                ynum += self.M[i, : self.m] * wi
        self._set_duals(ynum, self.cscale * den)

    def _set_duals(self, ynum, yden):
        g = math.gcd(int(np.gcd.reduce(ynum)), yden)
        if g > 1:
            ynum //= g
            yden //= g
        self.ynum, self.yden = ynum, yden
        self.ymax = int(np.abs(ynum).max(initial=0))

    def dual_values(self):
        return [Fraction(int(v), self.yden) for v in self.ynum]

    def _reduced_costs(self):
        """Numerators of the structural reduced costs ``c - A^T y``, all
        over the positive denominator ``cscale * yden``; basic columns
        get exactly 0."""
        c, yden = self.cscale, self.yden
        self._fits(self.cmax * yden + c * self.colabs_max * self.ymax, yden, c)
        prod = self.data * self.ynum[self.indices]
        aty = np.zeros(self.n, dtype=prod.dtype)
        if self.starts.size:
            aty[self.nonempty] = np.add.reduceat(prod, self.starts)
        return self.cost[: self.n] * yden - c * aty

    def _price(self, dnum, bland):
        """Bland: the first improving column.  Otherwise the most improving
        column (first on ties) of the first block of ``PRICE_BLOCK``
        consecutive nonbasic columns that holds an improving one."""
        neg = np.flatnonzero(dnum < 0)
        if neg.size == 0:
            return None
        first = int(neg[0])
        if bland:
            return first
        nonbasic = np.flatnonzero(self.nonbasic)
        k = int(np.count_nonzero(self.nonbasic[:first]))
        start = k - k % PRICE_BLOCK
        stop = min(start + PRICE_BLOCK, nonbasic.size)
        lo, hi = int(nonbasic[start]), int(nonbasic[stop - 1]) + 1
        return lo + int(np.argmin(dnum[lo:hi]))

    def _update_duals(self, dn, row):
        """Rank-one dual update: the entering column's reduced cost drops to
        zero and every other basic column keeps zero, so the new duals are
        ``y + d_enter * (updated pivot row of the inverse)``."""
        if not dn:
            return
        dd = self.cscale * self.yden
        g = math.gcd(dn, dd)
        dn, dd = dn // g, dd // g
        step = dd * int(self.bden[row])
        den = math.lcm(self.yden, step)
        f1, f2 = den // self.yden, dn * (den // step)
        self._fits(self.ymax * f1 + abs(f2) * int(self.rowmax[row]), f1, abs(f2), den)
        prow = self.M[row, : self.m]
        self._set_duals(self.ynum * f1 + prow * f2, den)

    # -- ratio test and pivot

    def tableau_numerators(self, j: int):
        """Integer numerators of the tableau column; entry i is over bden[i]."""
        lo, hi = int(self.indptr[j]), int(self.indptr[j + 1])
        self._fits(self._bmax() * self.colabs[j])
        unum = np.zeros(self.m, dtype=self.M.dtype)
        for r, v in zip(self.indices[lo:hi].tolist(), self.data[lo:hi].tolist()):
            unum += self.M[:, r] * v
        return unum

    def _lex_least(self, rows, unum):
        """The row i among ``rows`` whose inverse row over ``unum[i] > 0`` is
        lexicographically least; the row denominators cancel against the
        entries' own, so this compares integer cross products.

        Each round finds the first column from ``col`` on where some row's
        scaled entry differs from the first row's, and keeps the rows with
        the least scaled entry there.  The cross products are formed over
        column chunks that grow geometrically (``_LEX_CHUNK`` columns, then
        four times more each chunk) until one chunk holds a differing column,
        since that column is mostly among the first few.  Rows are copied
        ``_BLOCK_ELEMS`` entries at a time; more rows are split, and the
        least of the parts' least rows is the least.
        """
        m = self.m
        part = max(2, _BLOCK_ELEMS // (m + 1))
        if len(rows) > part:
            parts = range(0, len(rows), part)
            return self._lex_least([self._lex_least(rows[s : s + part], unum) for s in parts], unum)
        rows = np.asarray(rows)
        us = unum[rows]
        sub = self.M[rows, :m]
        if not self.big and 2 * int(self.rowmax[rows].max()) * int(us.max()) >= _INT64_SAFE:
            sub, us = sub.astype(object), us.astype(object)
        col = 0
        while rows.size > 1:
            width = _LEX_CHUNK
            while True:
                chunk = slice(col, col + width)
                cross = sub[:, chunk] * us[0] - sub[0, chunk] * us[:, None]
                differ = np.flatnonzero(cross.any(axis=0))
                if differ.size or col + width >= m:
                    break
                col += width
                width *= 4
            col += int(differ[0])
            keep = _least_ratios(sub[:, col].tolist(), us.tolist())
            rows, sub, us = rows[keep], sub[keep], us[keep]
            col += 1
        return int(rows[0])

    def _ratio_test(self, unum, bland):
        m = self.m
        x = self.M[:, m]
        # force out any zero-valued basic artificial whose row is touched;
        # the entering variable replaces it at value 0, so feasibility holds
        # regardless of the sign of the pivot entry
        forced = np.flatnonzero((unum != 0) & (self.basis >= self.n) & (x == 0))
        if forced.size:
            return int(forced[0]), True
        pos = np.flatnonzero(unum > 0)
        if pos.size == 0:
            return None, False
        # ratio i is x[i] / (b_scale * unum[i]); basic values are >= 0, so a
        # zero ratio is the minimum
        ties = pos[x[pos] == 0]
        if ties.size == 0:
            ties = pos[_least_ratios(x[pos].tolist(), unum[pos].tolist())]
        if ties.size == 1:
            return int(ties[0]), False
        if bland:
            return int(ties[np.argmin(self.basis[ties])]), False
        return self._lex_least(ties, unum), False

    def _pivot(self, enter, row, unum):
        """Make ``enter`` basic in ``row``.

        The pivot row becomes ``prow / pden`` (old numerators over the pivot
        entry) and every touched row ``i`` becomes ``(M[i] * pden - unum[i] *
        prow) / (bden[i] * pden)``.  With ``pden == 1`` (most pivots) only the
        pivot row's nonzero columns change, so those are updated in place;
        otherwise whole rows are, ``M[t] * pden - a * prow``.  ``rowmax``
        bounds each row's entries from above; the rows whose bound or
        denominator reaches ``_REDUCE_AT`` are reduced (:meth:`_reduce`).
        Every update runs a block of rows at a time, at most
        ``_BLOCK_ELEMS`` entries of ``M``, so no transient is of size m x m.
        """
        M, bden, rowmax = self.M, self.bden, self.rowmax
        piv = int(unum[row])
        prow = M[row]
        if piv < 0:
            prow *= -1
        pden = abs(piv)
        g = math.gcd(int(np.gcd.reduce(prow)), pden)
        if g > 1:
            prow //= g
            pden //= g
        bden[row] = pden
        cols = np.flatnonzero(prow)
        pmax = int(np.abs(prow[cols]).max())
        rowmax[row] = pmax

        touched = np.flatnonzero(unum)
        touched = touched[touched != row]
        a = unum[touched]
        if touched.size and not self._fits(
            self._bmax() * pden + int(np.abs(a).max()) * pmax,
            int(bden[touched].max()) * pden,
        ):
            M, bden, rowmax = self.M, self.bden, self.rowmax
            a = a.astype(object)
        prow = M[row]  # the arrays may have switched to Python integers
        rowmax[touched] = rowmax[touched] * pden + np.abs(a) * pmax
        if pden != 1:
            bden[touched] *= pden
            step = self.block_rows
            for s in range(0, touched.size, step):
                t = touched[s : s + step]
                M[t] = M[t] * pden - a[s : s + step, None] * prow
        else:
            pvals = prow[cols]
            step = max(1, _BLOCK_ELEMS // cols.size)
            for s in range(0, touched.size, step):
                M[touched[s : s + step, None], cols] -= a[s : s + step, None] * pvals
        self._reduce(touched[np.maximum(rowmax[touched], bden[touched]) >= _REDUCE_AT])

        left = int(self.basis[row])
        self.basis[row] = enter
        self.nonbasic[enter] = False
        if left < self.n:
            self.nonbasic[left] = True
        self.pivots += 1

    def _reduce(self, rows):
        """Divide each of ``rows`` by the gcd of its entries and denominator,
        and give it its exact maximum: one vectorised reduction per block of
        rows."""
        M, bden, step = self.M, self.bden, self.block_rows
        for s in range(0, rows.size, step):
            t = rows[s : s + step]
            sub = M[t]
            g = np.gcd(np.gcd.reduce(sub, axis=1), bden[t])
            sub //= g[:, None]
            M[t] = sub
            bden[t] //= g
            self.rowmax[t] = np.abs(sub).max(axis=1)

    def run(self, cost) -> str:
        """Minimize ``cost`` from the current basis; 'optimal' or 'unbounded'."""
        self._set_cost(cost)
        streak = 0
        bland = False
        while True:
            if self.pivots > config.LP_MAX_PIVOTS:
                raise LPError(f"pivot limit exceeded ({config.LP_MAX_PIVOTS})")
            dnum = self._reduced_costs()
            enter = self._price(dnum, bland)
            if enter is None:
                return "optimal"
            unum = self.tableau_numerators(enter)
            row, forced = self._ratio_test(unum, bland)
            if row is None:
                self.last_ray_col = enter
                self.last_ray_u = unum
                return "unbounded"
            degenerate = self.M[row, self.m] == 0
            self._pivot(enter, row, unum)
            self._update_duals(int(dnum[enter]), row)
            if forced:
                continue
            if degenerate:
                streak += 1
                if streak > DEGENERACY_STREAK:
                    bland = True
            else:
                streak = 0
                bland = False

    def basic_value(self, i) -> Fraction:
        return Fraction(int(self.M[i, self.m]), int(self.bden[i]) * self.b_scale)


# ---------------------------------------------------------------------------
# public entry points


def solve(problem: LPProblem) -> LPResult:
    """Solve exactly; the returned result has already passed verification."""
    std = _standardize(problem)
    sx = _Simplex(std)
    n, m = std.n, std.m

    status = sx.run([_ZERO] * n + [_ONE] * m)
    if status == "unbounded":
        raise LPError("phase 1 cannot be unbounded; solver invariant broken")
    artificial = np.flatnonzero(sx.basis >= n)
    if np.any(sx.M[artificial, m] != 0):
        farkas = _recover_row_multipliers(std, sx.dual_values())
        _verify_infeasible(problem, farkas)
        return LPResult(status="infeasible", farkas=_shared(farkas), pivots=sx.pivots)

    status = sx.run(std.phase2_cost + [_ZERO] * m)
    if status == "unbounded":
        ray = _recover_ray(std, sx)
        _verify_ray(problem, ray)
        return LPResult(status="unbounded", ray=_shared(ray), pivots=sx.pivots)

    solution = [_ZERO] * n
    for i, bj in enumerate(sx.basis.tolist()):
        if bj < n:
            solution[bj] = sx.basic_value(i)
    value = sum((c * v for c, v in zip(problem.objective, solution)), _ZERO)
    dual = [-v for v in _recover_row_multipliers(std, sx.dual_values())]
    res = LPResult(
        status="optimal",
        value=value,
        solution=_shared(solution),
        dual=_shared(dual),
        pivots=sx.pivots,
    )
    _verify_optimal(problem, res)
    return res


def _shared(values) -> tuple:
    """``values`` as a tuple in which equal fractions are one object: LP
    solutions and certificates repeat a few distinct values many times, and
    callers keep them (an optimal box, a separating inequality)."""
    seen = {}
    return tuple(seen.setdefault(v, v) for v in values)


def feasible_point(constraints, n: int) -> LPResult:
    """Find any feasible point of the rows over x >= 0 (zero objective)."""
    return solve(make_problem([_ZERO] * n, constraints))


# ---------------------------------------------------------------------------
# certificate recovery and verification


def _recover_row_multipliers(std: _Standard, y):
    """Undo the row scaling and sign flips."""
    return [y[i] * std.row_mult[i] for i in range(std.m)]


def _recover_ray(std: _Standard, sx: _Simplex):
    ray = [_ZERO] * std.n
    ray[sx.last_ray_col] = _ONE
    for i, bj in enumerate(sx.basis.tolist()):
        if bj < std.n and sx.last_ray_u[i]:
            ray[bj] = Fraction(-int(sx.last_ray_u[i]), int(sx.bden[i]))
    return ray


# The verifiers share no scaling code with the solver (see the module
# docstring): they read only the problem and the result.


def _row_scales(problem: LPProblem) -> list:
    """The lcm of each row's own denominators, right-hand side included."""
    return [
        math.lcm(row.rhs.denominator, *(v.denominator for _, v in row.coeffs))
        for row in problem.constraints
    ]


def _scaled(v, scale: int) -> int:
    return v.numerator * (scale // v.denominator)


def _integer_vector(values, divisors=None):
    """Integers ``k_i`` and one positive ``den`` with ``k_i / den ==
    values[i] / divisors[i]`` (positive integer divisors, all 1 if none)."""
    dens = [v.denominator * d for v, d in zip(values, divisors or itertools.repeat(1))]
    den = math.lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


def _combine_rows(problem: LPProblem, multipliers, x=None, xden=1):
    """``sum_i z_i * row_i`` on every column and on the right-hand side, for
    the integer multipliers ``z_i / den`` of :func:`_integer_vector` over
    the row scales.  With ``x`` (integers over ``xden``), also checks that
    it satisfies every row.  Each row is scaled to integers as it is read."""
    scales = _row_scales(problem)
    z, den = _integer_vector(multipliers, scales)
    comb = [0] * problem.n
    rhs = 0
    for row, scale, zi in zip(problem.constraints, scales, z):
        coeffs = [(j, _scaled(v, scale)) for j, v in row.coeffs]
        b = _scaled(row.rhs, scale)
        if x is not None and sum(v * x[j] for j, v in coeffs) != b * xden:
            raise LPError("verification failed: constraint violated")
        if zi:
            rhs += zi * b
            for j, v in coeffs:
                comb[j] += zi * v
    return comb, rhs, den


def _verify_optimal(problem: LPProblem, res: LPResult) -> None:
    x, xden = _integer_vector(res.solution)
    if any(v < 0 for v in x):
        raise LPError("verification failed: negative variable")
    aty, dual_obj, yden = _combine_rows(problem, res.dual, x, xden)

    # reduced costs c - A^T y in original coordinates, times cden * yden > 0
    c, cden = _integer_vector(problem.objective)
    for j in range(problem.n):
        d = c[j] * yden - cden * aty[j]
        if d > 0:
            raise LPError("verification failed: improving direction remains")
        if x[j] and d != 0:
            raise LPError("verification failed: complementary slackness")

    if dual_obj * res.value.denominator != res.value.numerator * yden:
        raise LPError("verification failed: strong duality")


def _verify_infeasible(problem: LPProblem, farkas) -> None:
    """The multipliers must combine the rows into an impossibility:
    combination <= 0 on every column, yet positive on the right-hand side."""
    comb, rhs, _ = _combine_rows(problem, farkas)
    if any(c > 0 for c in comb):
        raise LPError("farkas verification failed: positive column")
    if rhs <= 0:
        raise LPError("farkas verification failed: rhs not positive")


def _verify_ray(problem: LPProblem, ray) -> None:
    r, _ = _integer_vector(ray)
    if any(v < 0 for v in r):
        raise LPError("ray verification failed: negative component")
    for row, scale in zip(problem.constraints, _row_scales(problem)):
        if sum(_scaled(v, scale) * r[j] for j, v in row.coeffs) != 0:
            raise LPError("ray verification failed: leaves feasible cone")
    c, _ = _integer_vector(problem.objective)
    if sum(cj * rj for cj, rj in zip(c, r)) <= 0:
        raise LPError("ray verification failed: not improving")
