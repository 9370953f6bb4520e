"""Exact rational linear programming.

One problem form: maximize ``c.x`` subject to equality rows ``A x = b`` over
``x >= 0``.  An inequality or a variable bound is written as an equality
row with its own slack column.  The rows are one :class:`Rows`: integer
coefficients as COO arrays and the right-hand sides as integer numerators
over one positive denominator; the objective is integer numerators over one
positive denominator too.  The model builders of :mod:`gynibell.polytope`
hand theirs over as they are; :func:`make_problem` converts hand-written
``(coeffs, rhs)`` pairs once, multiplying each by the lcm of its
coefficients' denominators.  Integers stay integers from there to the
result: an :class:`LPResult` holds every vector as integer numerators over
one denominator, and builds ``Fraction`` views of them only when they are
read.  ``make_problem`` and those views are the only places this module
makes a ``Fraction``.

Floats propose, integers decide.  An LP with a nonzero objective first runs
a float64 two-phase simplex (:func:`_float_basis`).  A small LP pivots in
one dense tableau, one outer-product update per pivot; a larger one runs
the revised form over the standard form's compressed columns, which
carries an explicit basis inverse with one rank-1 update per pivot and
holds no tableau.  The tableau's entry count selects the form; both share
every pivot rule and end with ``B^-1``.  The basis the pass stops at is
solved exactly, its basic values and duals from the original right-hand
sides and costs, by numeric lifting in integers with the inverse it
carried (:func:`_candidate`).  The candidate is returned only if
:func:`_verify_optimal` accepts it.  Anything else (a float verdict of
infeasible or unbounded, the float pass's pivot ceiling, a basis the
lifting cannot solve, a failed verification) runs the exact simplex below
from the all-artificial basis, as does every LP with a zero objective
(feasibility: its exact solve is phase 1 alone, on sparse pivots, and
beats the float pass).  So no float is ever returned, and which path ran
shows only in the counters.  No matrix
product and no ``numpy.linalg`` call appears in this module: every float
and integer step is element-wise, so no threaded BLAS decides a pivot.

The exact simplex is a two-phase revised simplex.  The basis inverse is
held explicitly as one m x m integer numpy matrix plus a vector of positive
integer row denominators, which keeps every pivot exact without per-element
rational normalization; a row is divided by its gcd only once its entries
grow large.  A pivot has no per-row Python loop.  A touched row whose
tableau entry the pivot entry divides keeps its denominator, the others are
scaled whole first; then every touched row changes only in the pivot row's
nonzero columns, through one gather and scatter over all touched rows, and
the grown rows are gcd-reduced in one numpy operation.  The lexicographic
ratio tie-break is a pairwise tournament over the tied rows' whole inverse
rows (Dantzig, Orden and Wolfe 1955).  The arrays are int64 while
the magnitude guard of :mod:`gynibell._rank` shows that no product can
reach 2**62; past it they switch to Python integers (``dtype=object``) for
the rest of the solve.  Every pivot choice depends only on rationals
(ratios and lexicographic rows cancel each row's denominator), so none
depends on how a row is scaled or when it switches.  The duals are integer
numerators over one common denominator, and each pivot prices every column
with one exact sparse integer product.  What still runs here is the
feasibility LPs of membership tests and the rare LP whose float basis does
not verify; like every LP of the models, they have modest row counts and
wide, very sparse column sets, so columns are stored once, compressed.

Correctness posture:

* "optimal" results are re-verified before being returned: the solution is
  substituted into every original row exactly, and the dual vector (free,
  one multiplier per equality row) is checked for exact dual feasibility,
  complementary slackness and exact agreement of primal and dual
  objectives (strong duality).
* infeasible problems come with a Farkas certificate, verified exactly.
* unbounded problems come with a verified improving ray.

The verifiers read only the :class:`LPProblem` and the result, never the
solver's standard form: the rows are integer, the right-hand sides, the
objective and each vector are integer numerators over one denominator as
they are posed and returned, and every check is a Python-integer sum.

Pricing takes the most improving column, first on ties, of the first block
of ``PRICE_BLOCK`` enterable columns that holds one.  The lexicographic
ratio rule is the only anti-cycling rule, and it is enough:

(a) Each pivot is on a positive entry, in the row whose ``[x_B | B^-1]``
    row over that entry is lexicographically least.  From ``[b | I]``,
    ``b >= 0``, every such row stays lexico-positive (first nonzero entry
    positive), and each pivot makes ``[c_B x_B | c_B B^-1]``
    lexicographically smaller, so no basis repeats in either phase.  Of
    the rows tied at ratio 0 the least is one whose first nonzero inverse
    entry lies furthest right, so only those are compared.
(b) Phase 1 ends at w = 0 (w the sum of the artificials, which are never
    priced once they leave) with duals y1 and reduced costs d1 >= 0.  At
    every point of the rows with the nonbasic artificials at zero, w =
    y1.b + d1.x = d1.x, so a column with d1_j > 0 is zero at every
    feasible point.  Phase 2 prices only the columns with d1_j = 0; w stays
    0, so every basic artificial stays at zero unforced, and an unbounded
    ray moves none.
(c) The result's duals are y2 + t y1, y2 the phase-2 duals and t >= 0 the
    least rational that makes each excluded column's d2_j + t d1_j
    nonnegative.  As y1.b = 0, the dual objective is y2's, and
    :func:`_verify_optimal` checks them like any duals.

There is no presolve; exactness of the returned fractions is the point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from ._rank import _INT64_SAFE, _REDUCE_AT
from .core import integer_numerators

#: column block size for lazy pricing.  An LP with at most this many columns
#: is priced over all of them (plain Dantzig), as is every LP the benchmark
#: workloads solve (at most 384 columns).  Blocks stay for wide LPs: cold,
#: the uncollapsed TOBL LP (1600 columns) takes 3092 pivots and 1.3-1.5 s
#: with them, 1917 pivots and 58 s with full pricing (2-vCPU Xeon)
PRICE_BLOCK = 512

#: most entries of the basis inverse that one block of ``_set_cost``'s dual
#: sum copies at a time: as one whole-array product its self time over 40
#: membership solves went from 7.6 to 25 ms (2-vCPU Xeon)
_BLOCK_ELEMS = 1 << 13

#: the float pass raises right-hand side i by (_PERTURB + _PERTURB_SPREAD *
#: frac(i * _GOLDEN)) * (1 + max|b|): a fixed perturbation, so reruns pivot
#: alike, against the degeneracy of the no-signaling and TOBL LPs
_PERTURB, _PERTURB_SPREAD = 1e-7, 9e-7
_GOLDEN = (1 + 5**0.5) / 2

#: the float pass's tolerance on pivot entries and reduced costs
_FLOAT_TOL = 1e-9

#: an artificial still worth more than this times 1 + max|b| after phase 1
#: makes the float pass's verdict infeasible
_INFEASIBLE = 1e-4

#: the float pass gives up after this many pivots per row and column
_FLOAT_PIVOTS_PER_DIMENSION = 4

#: the float pass pivots in a dense tableau of (m + 2)(n + m + 1) entries
#: when it has at most this many, else in the revised form.  Below it the
#: tableau pass took 0.64-0.84 of the revised pass's time (GYNI-7 at 16 x
#: 40, the random-promise N = 3 games at 26 x 64, TOBL at 36 x 144, GYNI-6
#: at 64 x 128: 12.7 k entries); above it 1.5 (random N = 4 games at 80 x
#: 256: 27.6 k entries), 1.5-1.7 (four-partite, 107 x 384), 1.5-1.7
#: (GYNI-8, 256 x 512) and 4.1 (binary N = 5, 242 x 1024), in-process,
#: best of 9 (2-vCPU Xeon)
_TABLEAU_ENTRIES = 1 << 14

#: each step of the exact lifting of the float basis (:func:`_lifted`)
#: gathers this many bits of every basic value and dual
_LIFT_BITS = 20


class LPError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class Rows:
    """Equality rows ``sum_k val[k] * x[col[k]] = rhs[i] / rhs_den``, the
    sum over the entries k with ``row[k] == i``: integer COO arrays sorted
    by row, then column, with nonzero values (int64, or Python integers past
    ``_INT64_SAFE``), a 1-D integer array (int64, or Python integers in an
    object array) of one right-hand side numerator per row, and their one
    positive denominator ``rhs_den``.  ``len`` is the row count."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    rhs: np.ndarray
    rhs_den: int = 1

    def __len__(self):
        return len(self.rhs)


def _integral(values) -> bool:
    """Whether every value is a Python ``int``."""
    return {int}.issuperset(map(type, values))


@dataclass(frozen=True)
class LPProblem:
    """max of ``(objective / objective_den) . x`` subject to equality rows,
    over x >= 0: ``objective`` is a tuple of Python-integer numerators over
    the positive integer ``objective_den``.

    An inequality is written as an equality row with its own slack column;
    any other bound on a variable is written as such a row.  A minimum is
    the negated maximum of the negated objective.  Construction checks that
    every column index lies in ``[0, n)``, every row index in ``[0,
    len(constraints))``, and that the numerators are integers over positive
    denominators.
    """

    n: int
    objective: tuple
    constraints: Rows
    objective_den: int = 1

    def __post_init__(self):
        rows = self.constraints
        if len(self.objective) != self.n:
            raise ValueError("objective length mismatch")
        if not len(rows.row) == len(rows.col) == len(rows.val):
            raise ValueError("row, column and value arrays differ in length")
        if rows.col.size and not (0 <= rows.col.min() and rows.col.max() < self.n):
            raise ValueError(f"a column index lies outside [0, {self.n})")
        if rows.row.size and not (0 <= rows.row.min() and rows.row.max() < len(rows)):
            raise ValueError(f"a row index lies outside the {len(rows)} right-hand sides")
        if rows.rhs.dtype.kind != "i" and not _integral(rows.rhs.tolist()):
            raise ValueError("right-hand sides must be integer numerators over rhs_den")
        if not _integral(self.objective):
            raise ValueError("objective must be integer numerators over objective_den")
        if not (self.objective_den > 0 and rows.rhs_den > 0):
            raise ValueError("denominators must be positive")


def make_problem(objective, constraints, objective_den: int = 1) -> LPProblem:
    """The LP max ``objective . x / objective_den`` over ``constraints``: a
    :class:`Rows`, or ``(coeffs, rhs)`` pairs whose coefficients are a dense
    sequence or an ``{index: value}`` dict of rationals.  Each pair is
    multiplied by the lcm of its coefficients' denominators, so certificates
    refer to the integer rows in ``problem.constraints``, and the
    right-hand sides become numerators over their lcm.  An objective of
    integers is taken as it is; other rationals become numerators over
    their lcm."""
    obj = list(objective)
    if not _integral(obj):
        obj, den = integer_numerators([Fraction(c) for c in obj])
        objective_den *= den
    if isinstance(constraints, Rows):
        return LPProblem(len(obj), tuple(obj), constraints, objective_den)
    row, col, val, rhs = [], [], [], []
    for i, (coeffs, b) in enumerate(constraints):
        items = sorted(coeffs.items()) if isinstance(coeffs, dict) else enumerate(coeffs)
        items = [(int(j), Fraction(v)) for j, v in items if v]
        nums, scale = integer_numerators([v for _, v in items])
        row += [i] * len(items)
        col += [j for j, _ in items]
        val += nums
        rhs.append(Fraction(b) * scale)
    rhs, den = integer_numerators(rhs)
    big = max(map(abs, val), default=0) >= _INT64_SAFE
    rows = Rows(
        np.array(row, dtype=np.intp),
        np.array(col, dtype=np.intp),
        np.array(val, dtype=object if big else np.int64),
        np.array(rhs, dtype=object),
        den,
    )
    return LPProblem(len(obj), tuple(obj), rows, objective_den)


def _lowest(nums, den) -> tuple:
    """``(nums, den)`` divided by the gcd of ``den`` and every numerator,
    the numerators as a tuple of Python integers: the one form of a vector
    of rationals over a common positive denominator with nothing left to
    cancel, so equal vectors compare equal."""
    g = math.gcd(den, *nums)
    return tuple(v // g for v in nums), den // g


def _over_one_denominator(nums, dens) -> tuple:
    """The rationals ``nums[i] / dens[i]`` (every ``dens[i] > 0``) as
    numerators over their least common denominator (:func:`_lowest`)."""
    den = math.lcm(*set(dens))
    return _lowest([v * (den // d) for v, d in zip(nums, dens)], den)


@dataclass
class LPResult:
    """Solver outcome with exact certificates.

    Every rational is held as integers: ``value_ints`` is ``(numerator,
    denominator)``, and ``solution_ints``, ``dual_ints``, ``farkas_ints``
    and ``ray_ints`` are each ``(numerators, denominator)``, a tuple of
    Python integers over one positive denominator, in lowest terms (no
    common factor of the denominator and every numerator), so equal results
    compare equal.  ``value``, ``solution``, ``dual``, ``farkas`` and
    ``ray`` are their ``Fraction`` views, built the first time they are
    read, with equal values one object: LP solutions and certificates repeat
    a few distinct values many times, and callers keep them.

    ``dual`` (optimal): one multiplier per constraint, with
    ``value == dual . rhs``.
    ``farkas`` (infeasible): row multipliers proving emptiness.
    ``ray`` (unbounded): feasible improving direction.

    The counters are the same on every run: ``float_pivots`` the float pass
    made (0 if it did not run); ``pivots`` the exact simplex made, 0 when
    the float pass's basis verified, of them ``phase1_pivots`` in phase 1,
    and ``degenerate_pivots`` that left a basic variable at zero (no step).
    """

    status: str
    value_ints: tuple | None = None
    solution_ints: tuple | None = None
    dual_ints: tuple | None = None
    farkas_ints: tuple | None = None
    ray_ints: tuple | None = None
    pivots: int = 0
    phase1_pivots: int = 0
    degenerate_pivots: int = 0
    float_pivots: int = 0

    @functools.cached_property
    def value(self) -> Fraction | None:
        return None if self.value_ints is None else Fraction(*self.value_ints)

    @functools.cached_property
    def solution(self) -> tuple | None:
        return self._fractions(self.solution_ints)

    @functools.cached_property
    def dual(self) -> tuple | None:
        return self._fractions(self.dual_ints)

    @functools.cached_property
    def farkas(self) -> tuple | None:
        return self._fractions(self.farkas_ints)

    @functools.cached_property
    def ray(self) -> tuple | None:
        return self._fractions(self.ray_ints)

    @staticmethod
    def _fractions(ints) -> tuple | None:
        """The ``Fraction`` tuple of ``(numerators, denominator)``, one
        object per distinct value."""
        if ints is None:
            return None
        nums, den = ints
        made = {k: Fraction(k, den) for k in set(nums)}
        return tuple(map(made.__getitem__, nums))


# ---------------------------------------------------------------------------
# standard-form conversion
#
# internal form: minimize c.x  s.t.  A x = b, x >= 0, b >= 0
# variable layout: [original vars | artificials]


class _Standard:
    __slots__ = (
        "m", "n", "indptr", "indices", "data", "colabs", "b", "b_scale", "phase2_cost",
        "c_scale", "row_mult",
    )


def _standardize(problem: LPProblem) -> _Standard:
    """Convert to ``min -objective.x, A x = b, x >= 0`` with ``b >= 0``.

    ``b`` and ``phase2_cost`` are lists of integer numerators over the
    positive ``b_scale`` and ``c_scale``, read off the problem's and
    divided by their gcd, so each scale is the lcm of the denominators of
    its rationals in lowest terms, however the problem was posed.  Each row
    with a negative right-hand side is negated; ``row_mult`` records the
    signs so duals and Farkas certificates map back to the rows as
    given.  The columns are stored once, compressed: column ``j`` holds
    rows ``indices[indptr[j]:indptr[j + 1]]`` (ascending) with the integers
    ``data`` at the same positions (int64 if every one is below the guard);
    ``colabs[j]`` is the sum of the column's absolute values.
    """
    rows, n = problem.constraints, problem.n
    std = _Standard()
    std.m, std.n = len(rows), n
    rhs = rows.rhs.tolist()
    std.row_mult = [-1 if b < 0 else 1 for b in rhs]
    rhs, std.b_scale = _lowest(rhs, rows.rhs_den)
    std.b = [abs(b) for b in rhs]
    # a stable sort by column keeps each column's rows ascending
    order = np.argsort(rows.col, kind="stable")
    std.indices = rows.row[order]
    val = rows.val[order]
    absd = np.abs(val)
    maxabs = int(absd.max(initial=0))
    dtype = object if maxabs >= _INT64_SAFE else np.int64
    std.data = val.astype(dtype) * np.array(std.row_mult, dtype=dtype)[std.indices]
    counts = np.bincount(rows.col, minlength=n)
    std.indptr = np.concatenate(([0], np.cumsum(counts)))
    if maxabs * int(counts.max(initial=0)) >= 2**63:
        absd = absd.astype(object)
    colabs = np.zeros(n, dtype=absd.dtype)
    nonempty = counts.nonzero()[0]
    if nonempty.size:
        colabs[nonempty] = np.add.reduceat(absd, std.indptr[nonempty])
    std.colabs = colabs.tolist()
    cost, std.c_scale = _lowest(problem.objective, problem.objective_den)
    std.phase2_cost = [-c for c in cost]
    return std


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
    ``M[:, m]`` is the inverse applied to the right-hand side numerators
    ``b_scale * b`` of the standard form, so basic value ``i`` is
    ``M[i, m] / (bden[i] * b_scale)`` and the row operations of a pivot keep
    it current.  A pivot updates the touched rows of ``M`` in place, each
    step one numpy operation over all of them.  The duals are
    integer numerators ``ynum`` over one common denominator ``yden``, and
    every pivot prices all columns with one sparse integer product
    ``A^T ynum``, so the reduced costs are integers over one positive
    denominator and compare exactly.  ``enterable`` marks the nonbasic
    columns that pricing may pick (module docstring, (b)).

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
        self.degenerate = 0
        self.basis = np.arange(n, n + m)
        self.enterable = np.ones(n, dtype=bool)
        self.last_ray_col = None
        self.last_ray_u = None

        self.indptr = std.indptr
        self.indices = std.indices
        self.nonempty = (std.indptr[1:] != std.indptr[:-1]).nonzero()[0]
        self.starts = std.indptr[self.nonempty]
        self.colabs = std.colabs
        self.colabs_max = max(std.colabs, default=0)

        self.b_scale = std.b_scale
        self.big = std.data.dtype == object or max(std.b, default=0) >= _INT64_SAFE
        dtype = object if self.big else np.int64
        self.data = std.data.astype(dtype, copy=False)
        self.M = np.zeros((m, m + 1), dtype=dtype)
        np.fill_diagonal(self.M, 1)
        self.M[:, m] = std.b
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
        if max(bounds) < _INT64_SAFE:
            return True
        self.big = True
        for name in ("M", "bden", "rowmax", "data", "cost", "ynum"):
            setattr(self, name, getattr(self, name).astype(object))
        return False

    def _bmax(self) -> int:
        return int(self.rowmax.max(initial=1))

    # -- duals and pricing

    def _set_cost(self, ints, cscale):
        """The cost numerators ``ints`` over the positive ``cscale``, and
        the duals of the current basis computed from scratch:
        ``y = c_B B^-1``."""
        self.cscale = cscale
        self.cmax = max(map(abs, ints), default=0)
        self._fits(self.cmax, self.cscale)
        self.cost = np.array(ints, dtype=self.M.dtype)
        cb = [ints[j] for j in self.basis.tolist()]
        den = math.lcm(1, *(int(d) for c, d in zip(cb, self.bden) if c))
        w = [c * (den // int(d)) if c else 0 for c, d in zip(cb, self.bden)]
        self._fits(sum(map(abs, w)) * self._bmax(), self.cscale * den)
        w = np.array(w, dtype=self.M.dtype)
        basic = w.nonzero()[0]
        ynum = np.zeros(self.m, dtype=self.M.dtype)
        step = max(1, _BLOCK_ELEMS // (self.m + 1))
        for s in range(0, basic.size, step):
            t = basic[s : s + step]
            ynum += (w[t, None] * self.M[t, : self.m]).sum(axis=0)
        self._set_duals(ynum, self.cscale * den)

    def _set_duals(self, ynum, yden):
        g = math.gcd(int(np.gcd.reduce(ynum)), yden)
        if g > 1:
            ynum //= g
            yden //= g
        self.ynum, self.yden = ynum, yden
        self.ymax = int(np.abs(ynum).max(initial=0))

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

    def _price(self, dnum):
        """The most improving column (first on ties) of the first block of
        ``PRICE_BLOCK`` consecutive enterable columns that holds an
        improving one, or None."""
        dnum = np.where(self.enterable, dnum, 0)
        if self.n <= PRICE_BLOCK:
            # one block holds every column
            j = int(dnum.argmin())
            return j if dnum[j] < 0 else None
        neg = (dnum < 0).nonzero()[0]
        if neg.size == 0:
            return None
        enterable = self.enterable.nonzero()[0]
        k = int(np.count_nonzero(self.enterable[: neg[0]]))
        start = k - k % PRICE_BLOCK
        stop = min(start + PRICE_BLOCK, enterable.size)
        lo, hi = int(enterable[start]), int(enterable[stop - 1]) + 1
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
        return (self.M[:, self.indices[lo:hi]] * self.data[lo:hi]).sum(axis=1)

    def _lex_least(self, rows, unum):
        """The row i among ``rows`` whose inverse row over ``unum[i] > 0`` is
        lexicographically least; the row denominators cancel against the
        entries' own, so this compares integer cross products.

        A pairwise tournament over the rows' whole inverse rows keeps the
        best row so far and takes row k when the first nonzero entry of
        ``M[k] * u_best - M[best] * u_k`` is negative.  The basis inverse is
        nonsingular, so the least row is unique and the order of the
        comparisons cannot change it.  Where the int64 guard cannot bound
        the cross products, they are taken in Python integers.
        """
        us, inv = unum[rows], self.M[rows, : self.m]
        if not self.big and 2 * int(self.rowmax[rows].max()) * int(us.max()) >= _INT64_SAFE:
            us, inv = us.astype(object), inv.astype(object)
        best = 0
        for k in range(1, rows.size):
            cross = inv[k] * us[best] - inv[best] * us[k]
            first = cross[(cross != 0).argmax()]
            if not first:
                raise LPError("equal rows in the basis inverse; solver invariant broken")
            if first < 0:
                best = k
        return int(rows[best])

    def _ratio_test(self, unum):
        """The leaving row of the lexicographic rule for the tableau column
        ``unum``, or None if no entry is positive (module docstring, (a))."""
        x = self.M[:, self.m]
        pos = (unum > 0).nonzero()[0]
        if pos.size == 0:
            return None
        # ratio i is x[i] / (b_scale * unum[i]); basic values are >= 0, so a
        # zero ratio is the minimum
        ties = pos[x[pos] == 0]
        if ties.size:
            # their inverse rows are lexico-positive: the least starts last
            lead = (self.M[ties, : self.m] != 0).argmax(axis=1)
            ties = ties[lead == lead.max()]
        else:
            ties = pos[_least_ratios(x[pos].tolist(), unum[pos].tolist())]
        return int(ties[0]) if ties.size == 1 else self._lex_least(ties, unum)

    def _pivot(self, enter, row, unum):
        """Make ``enter`` basic in ``row``.

        The pivot row becomes ``prow / pden`` (old numerators over the pivot
        entry, divided by their gcd) and every touched row ``i`` becomes
        ``M[i] / bden[i] - (unum[i] / bden[i]) * prow / pden``.  Where
        ``pden`` divides ``unum[i]`` (always when ``pden == 1``) that is
        ``M[i] - (unum[i] // pden) * prow`` over the unchanged denominator;
        the other rows are first scaled whole (:meth:`_scale_rows`) and
        become ``M[i] * pden - unum[i] * prow`` over ``bden[i] * pden``.
        Both give the same rational row, so no pivot choice depends on which
        is taken, and either way only the pivot row's nonzero columns are
        then updated (:meth:`_sparse_update`).  ``rowmax`` bounds each row's
        entries from above; the rows whose bound or denominator reaches
        ``_REDUCE_AT`` are reduced (:meth:`_reduce`).  Each of these steps
        is one numpy operation over all the rows it touches.  The divisible
        rows' shortcut measured worth its code: without it the cold
        uncollapsed TOBL LP took 1.5-1.7 s against 1.3-1.4 s (2-vCPU Xeon).
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
        cols = prow.nonzero()[0]
        pmax = int(np.abs(prow[cols]).max())
        rowmax[row] = pmax

        touched = unum.nonzero()[0]
        touched = touched[touched != row]
        a = unum[touched]
        if touched.size and not self._fits(
            self._bmax() * pden + int(np.abs(a).max()) * pmax,
            int(bden[touched].max()) * pden,
        ):
            M, bden, rowmax = self.M, self.bden, self.rowmax
            a = a.astype(object)
        prow = M[row]  # the arrays may have switched to Python integers
        if pden != 1:
            whole = a % pden != 0
            if whole.any():
                self._scale_rows(touched[whole], pden)
            a = np.where(whole, a, a // pden)
        rowmax[touched] += np.abs(a) * pmax
        self._sparse_update(touched, a, cols, prow[cols])
        grown = touched[np.maximum(rowmax[touched], bden[touched]) >= _REDUCE_AT]
        if grown.size:
            self._reduce(grown)

        left = int(self.basis[row])
        self.basis[row] = enter
        self.enterable[enter] = False
        if left < self.n:
            self.enterable[left] = True
        self.pivots += 1

    def _scale_rows(self, rows, pden):
        """Multiply ``rows`` of ``M``, their denominators and their bounds by
        ``pden``."""
        self.M[rows] *= pden
        self.bden[rows] *= pden
        self.rowmax[rows] *= pden

    def _sparse_update(self, rows, a, cols, pvals):
        """``M[i, cols] -= a_i * pvals`` for each of ``rows``: one gather and
        one scatter, through flat indices into ``M``."""
        flat = self.M.reshape(-1)  # a view: M is C-contiguous
        at = rows[:, None] * (self.m + 1) + cols
        flat[at.reshape(-1)] -= (a[:, None] * pvals).reshape(-1)

    def _reduce(self, rows):
        """Divide each of ``rows`` by the gcd of its entries and denominator,
        and give it its exact maximum."""
        sub = self.M[rows]
        g = np.gcd(np.gcd.reduce(sub, axis=1), self.bden[rows])
        sub //= g[:, None]
        self.M[rows] = sub
        self.bden[rows] //= g
        self.rowmax[rows] = np.abs(sub).max(axis=1)

    def run(self, cost, cscale) -> str:
        """Minimize ``cost / cscale`` (integer numerators over a positive
        scale) from the current basis; 'optimal' or 'unbounded'."""
        self._set_cost(cost, cscale)
        while True:
            if self.pivots > config.LP_MAX_PIVOTS:
                raise LPError(f"pivot limit exceeded ({config.LP_MAX_PIVOTS})")
            dnum = self._reduced_costs()
            enter = self._price(dnum)
            if enter is None:
                return "optimal"
            unum = self.tableau_numerators(enter)
            row = self._ratio_test(unum)
            if row is None:
                self.last_ray_col = enter
                self.last_ray_u = unum
                return "unbounded"
            self.degenerate += not self.M[row, self.m]
            self._pivot(enter, row, unum)
            self._update_duals(int(dnum[enter]), row)

    def lift_duals(self, d1, y1num):
        """Replace the phase-2 duals y2 by ``y2 + t y1`` (module docstring,
        (c)), ``y1num`` the phase-1 duals over the denominator of the
        phase-1 reduced costs ``d1``."""
        d2 = self._reduced_costs()
        low = ((d1 > 0) & (d2 < 0)).nonzero()[0]
        if not low.size:
            return
        k = low[_least_ratios(d2[low].tolist(), d1[low].tolist())[0]]
        # t = -d2[k] / (cscale * yden) over d1[k] / y1den, so y2 + t y1 is
        # (ynum * a + y1num * b) / (yden * a)
        a, b = self.cscale * int(d1[k]), -int(d2[k])
        self._fits(self.ymax * a + b * int(np.abs(y1num).max()), self.yden * a)
        self._set_duals(self.ynum * a + y1num.astype(self.ynum.dtype) * b, self.yden * a)

    def counts(self, phase1_pivots: int, float_pivots: int) -> dict:
        """The solve counters of :class:`LPResult` so far."""
        return dict(
            pivots=self.pivots,
            phase1_pivots=phase1_pivots,
            degenerate_pivots=self.degenerate,
            float_pivots=float_pivots,
        )


# ---------------------------------------------------------------------------
# float guide: a float64 simplex proposes the basis


class _FloatTableau:
    """The float pass's state as one dense (m + 2) x (n + m + 1) tableau:
    ``B^-1 [A | I | b]`` over the phase-1 and phase-2 reduced-cost rows.
    The artificial block is ``B^-1``.  A pivot is one ``np.multiply.outer``
    update of the whole array, after which the entering column is set to
    the unit column it equals, so every basic column stays exactly a unit
    column with reduced costs exactly 0."""

    def __init__(self, indptr, indices, data, column, x, costs):
        m, n = len(x), costs.shape[1]
        t = np.zeros((m + 2, n + m + 1))
        t[indices, column] = data
        t[np.arange(m), np.arange(n, n + m)] = 1.0
        t[:m, -1] = x
        t[m:, :n] = costs
        self.t, self.n = t, n
        self.x, self.costs = t[:m, -1], t[m:, :n]

    def column(self, q):
        return self.t[:-2, q]

    def pivot(self, q, r, alpha, left):
        t = self.t
        prow = t[r] / alpha[r]
        col = t[:, q].copy()
        col[r] -= 1.0  # row r becomes the pivot row itself
        t -= np.multiply.outer(col, prow)
        t[:, q] = 0.0
        t[r, q] = 1.0
        return prow[: self.n]

    def inverse(self):
        return self.t[:-2, self.n : -1]


class _FloatRevised:
    """The float pass's state as one (m + 1) x m array, the explicit basis
    inverse stored by columns (row k is column k of ``B^-1``, so I at the
    all-artificial start) over the basic values as its last row, and the
    2 x n reduced costs of the structural columns; no tableau is held.
    Column ``alpha = B^-1 A_q`` is formed from that column's few entries,
    and the pivot row ``rho A``, with ``rho`` the row r of ``[B^-1 | x]``
    over ``alpha_r``, by one ``np.bincount`` over the nonzeros; there a
    basic column's entry is set to 0, the leaving one's to ``1 / alpha_r``
    and the entering one's to 1, as a tableau would hold them, so the basic
    reduced costs stay exactly 0.  The inverse and the basic values change
    by one rank-1 update that touches only the stored rows where ``rho`` is
    nonzero, and then the stored column r becomes ``rho``."""

    def __init__(self, indptr, indices, data, column, x, costs):
        m, n = len(x), costs.shape[1]
        self.indptr, self.indices, self.data, self.col_of = indptr, indices, data, column
        self.inv = np.eye(m + 1, m)
        self.x = self.inv[m]
        self.x[:] = x
        self.costs = costs
        self.basic = np.zeros(n, dtype=bool)

    def column(self, q):
        lo, hi = self.indptr[q], self.indptr[q + 1]
        return (self.inv[self.indices[lo:hi]] * self.data[lo:hi, None]).sum(axis=0)

    def pivot(self, q, r, alpha, left):
        inverse, basic, n = self.inv, self.basic, len(self.basic)
        rho = inverse[:, r] / alpha[r]
        prow = np.bincount(self.col_of, rho[self.indices] * self.data, minlength=n)
        prow[basic] = 0.0
        if left < n:
            prow[left] = 1.0 / alpha[r]
            basic[left] = False
        prow[q] = 1.0
        self.costs -= np.multiply.outer(self.costs[:, q], prow)
        nz = rho.nonzero()[0]
        inverse[nz] -= np.multiply.outer(rho[nz], alpha)
        inverse[:, r] = rho
        basic[q] = True
        return prow

    def inverse(self):
        return self.inv[:-1].T


def _float_basis(indptr, indices, data, b, cost):
    """The basis at which a float64 two-phase simplex minimizing ``cost .
    x`` over ``A x = b``, ``x >= 0`` (``b >= 0``) stops optimal, the float
    inverse of that basis, and the pivots it took.  ``A`` is given by its
    compressed columns, laid out as in :class:`_Standard` with float
    ``data``.  Basis position i holds column ``j``, or ``n + i`` for row
    i's artificial; the basis and the inverse are None if the pass ends
    infeasible, unbounded or at its ceiling.

    An LP whose dense tableau has at most ``_TABLEAU_ENTRIES`` entries
    pivots in it (:class:`_FloatTableau`); a larger one runs the revised
    pass (:class:`_FloatRevised`), which carries only the basis inverse
    over sparse columns.  Both run :func:`_float_simplex`, so they share
    every pivot rule and differ only in how a pivot forms the entering
    column and the pivot row and in the update."""
    m, n = len(b), len(cost)
    form = _FloatTableau if (m + 2) * (n + m + 1) <= _TABLEAU_ENTRIES else _FloatRevised
    return _float_simplex(form, indptr, indices, data, b, cost)


def _float_simplex(form, indptr, indices, data, b, cost):
    """:func:`_float_basis` on the state ``form``, one of
    :class:`_FloatTableau` and :class:`_FloatRevised`.

    The state holds the perturbed basic values ``x``, the 2 x n phase-1 and
    phase-2 reduced costs of the structural columns, and ``B^-1``; the
    Devex weights of those columns are kept here.  There are no artificial
    columns to price: an artificial that leaves the basis never returns, so
    phase 1 needs only the structural columns' reduced costs, minus the
    column sums of A at the start.  Pricing is Devex (the largest d_j^2
    over a reference weight), the ratio test takes the least ratio (first
    on ties), a basic value that rounding leaves below zero is set to zero,
    and right-hand side i is raised by ``(_PERTURB + _PERTURB_SPREAD *
    frac(i * phi)) * (1 + max|b|)`` against degeneracy.  Every step is
    element-wise, so no matrix product decides a pivot.  An artificial
    still basic in phase 2 (on a redundant row it stays at the
    perturbation's residue) is priced like any basic variable; if the basis
    leaves one off zero, the exact solution of the basis breaks its row and
    the check refuses it."""
    m, n = len(b), len(cost)
    column = np.repeat(np.arange(n), np.diff(indptr))
    scale = 1.0 + np.abs(b).max(initial=0.0)
    state = form(
        indptr,
        indices,
        data,
        column,
        b + (_PERTURB + _PERTURB_SPREAD * np.modf(np.arange(m) * _GOLDEN)[0]) * scale,
        np.array([-np.bincount(column, data, minlength=n), cost]),
    )
    x = state.x
    basis = np.arange(n, n + m)
    weights = np.ones(n)
    ceiling = _FLOAT_PIVOTS_PER_DIMENSION * (m + n)
    pivots = 0
    for phase2, reduced in enumerate(state.costs):
        if phase2 and np.any(x[basis >= n] > _INFEASIBLE * scale):
            return None, None, pivots
        while True:
            score = np.where(reduced < -_FLOAT_TOL, reduced * reduced / weights, 0.0)
            q = int(score.argmax())
            if not score[q]:
                break
            if pivots == ceiling:
                return None, None, pivots
            alpha = state.column(q)
            pos = alpha > _FLOAT_TOL
            if not pos.any():
                return None, None, pivots
            r = int(np.divide(x, alpha, out=np.full(m, np.inf), where=pos).argmin())
            prow = state.pivot(q, r, alpha, int(basis[r]))
            np.maximum(weights, prow * prow * weights[q], out=weights)
            np.maximum(x, 0.0, out=x)
            basis[r] = q
            pivots += 1
    return basis, state.inverse(), pivots


def _candidate(problem: LPProblem, std: _Standard, basis, inverse):
    """The optimum that a basis of the standard form and its float
    ``inverse`` propose, exact but unverified, or None if :func:`_lifted`
    cannot solve its basic values from ``std.b`` and its duals from
    ``std.phase2_cost`` (one system), put over ``std.b_scale`` and ``std.c_scale``."""
    structural = (basis < std.n).nonzero()[0]
    artificial = (basis >= std.n).nonzero()[0]
    # the basis matrix's entries, (row, basis position, value): the
    # structural columns' compressed entries, then one 1 per artificial
    cols = basis[structural]
    counts = np.diff(std.indptr)[cols]
    ends = np.cumsum(counts)
    at = np.arange(counts.sum()) + np.repeat(std.indptr[cols] - ends + counts, counts)
    row = np.concatenate((std.indices[at], basis[artificial] - std.n))
    col = np.concatenate((np.repeat(structural, counts), artificial))
    val = np.concatenate((std.data[at], np.ones(artificial.size, dtype=std.data.dtype)))
    # B x = b and B^T y = c_B as one block-diagonal system
    m = len(basis)
    both = np.zeros((2 * m, 2 * m))
    both[:m, :m], both[m:, m:] = inverse, inverse.T
    cost_b = [std.phase2_cost[j] if j < std.n else 0 for j in basis.tolist()]
    block_row, block_col = np.concatenate((row, col + m)), np.concatenate((col, row + m))
    lifted = _lifted(both, block_row, block_col, np.concatenate((val, val)), std.b + cost_b)
    if lifted is None:
        return None
    values, den = lifted
    basic = dict(zip(basis.tolist(), values[:m]))
    solution, xden = [basic.get(j, 0) for j in range(std.n)], den * std.b_scale
    # the duals of the rows as given: signs flipped back, and of the maximum
    dual = [-v * k for v, k in zip(values[m:], std.row_mult)]
    return LPResult(
        status="optimal",
        value_ints=_value(problem, solution, xden),
        solution_ints=_lowest(solution, xden),
        dual_ints=_lowest(dual, den * std.c_scale),
    )


def _lifted(inverse, row, col, val, rhs):
    """The solution of ``M x = rhs`` by numeric lifting (Dixon 1982, Wan
    2006) from a float ``inverse`` of ``M`` (integers ``val`` at ``row``,
    ``col``; integer ``rhs``): integer numerators over one denominator, or
    None.  From ``r = rhs``, a step sets ``z = rint(2**k inverse r)`` (k =
    ``_LIFT_BITS``), ``r <- 2**k r - M z`` exactly and ``p <- 2**k p + z``
    over ``q <- 2**k q``, so ``M p = q rhs - r``; ``r = 0`` returns ``p /
    q``.  While each ``z`` is within 1/2 of ``2**k M^-1 r``, ``|p - q x| <
    1`` and ``|r_i|`` stays below row i's absolute sum, so a step past that
    ends the lifting.  Each step rebuilds the values (:func:`_convergent`)
    and returns them if ``M x = rhs``.  Each denominator divides ``det M``,
    at most Hadamard's bound H (the product of the rows' norms), so the
    values are rebuilt exactly by ``q > 2 H**2``; the lifting stops there."""
    m = len(rhs)

    def times(entries, x):  # the matrix of ``entries`` at (row, col) times x, exactly
        prod = entries * x[col]
        out = np.zeros(m, dtype=prod.dtype)
        np.add.at(out, row, prod)
        return out

    rowabs = times(np.abs(val), np.ones(m, dtype=val.dtype))
    hadamard = np.log2(np.bincount(row, np.abs(val).astype(float) ** 2, minlength=m)).sum() / 2
    limit, p, q, r = 1 << _LIFT_BITS, 0, 1, np.array(rhs, dtype=object)
    widest, rmax = int(rowabs.max(initial=0)), max(map(abs, rhs), default=0)
    while True:
        z = np.rint((inverse * r.astype(float)).sum(axis=1) * limit)
        zmax = np.abs(z).max(initial=0)
        if not np.isfinite(zmax):
            return None
        dtype = np.int64 if limit * rmax + widest * int(zmax) < _INT64_SAFE else object
        z = z.astype(dtype) if dtype is np.int64 else np.array([int(v) for v in z.tolist()], dtype)
        r = r.astype(dtype) * limit - times(val, z)
        p, q, rmax = p * limit + z.astype(object), q * limit, widest
        if not r.any():
            return p.tolist(), q
        if (np.abs(r) >= rowabs).any():
            return None
        rebuilt = {v: _convergent(v, q) for v in set(p.tolist())}
        den = math.lcm(*(d for _, d in rebuilt.values()))
        if den.bit_length() <= hadamard + 2:  # else den > H >= |det M|: a wrong rebuild
            x = [a * (den // d) for a, d in map(rebuilt.__getitem__, p.tolist())]
            if (times(val, np.array(x, dtype=object)) == [b * den for b in rhs]).all():
                return x, den
        if q.bit_length() > 2 + 2 * hadamard:  # q > 2 H**2
            return None


def _convergent(p: int, q: int) -> tuple:
    """``(numerator, denominator)`` of the last continued-fraction convergent
    of ``p / q`` (``q >= 2``) with a denominator at most ``sqrt(q / 2)``: by
    Legendre's theorem, any ``a / d`` with such a ``d`` and ``|p - q a / d| < 1``."""
    bound = math.isqrt(q // 2)
    p0, q0, p1, q1, n, d = 0, 1, 1, 0, p, q
    while d:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    return p1, q1


def _value(problem: LPProblem, x, xden: int) -> tuple:
    """``(numerator, denominator)`` in lowest terms of the objective at the
    point ``x / xden``."""
    num = sum(c * v for c, v in zip(problem.objective, x) if v)
    den = problem.objective_den * xden
    g = math.gcd(num, den)
    return num // g, den // g


def _guided(problem: LPProblem, std: _Standard):
    """The optimum that the float pass proposes if it verifies, else None,
    and the float pivots spent.  A basis that :func:`_candidate` cannot
    solve exactly proposes nothing, like one the pass does not reach."""
    try:
        data = std.data.astype(float)
        b, cost = np.array(std.b, dtype=float), np.array(std.phase2_cost, dtype=float)
    except OverflowError:  # an entry past the float range
        return None, 0
    basis, inverse, float_pivots = _float_basis(std.indptr, std.indices, data, b, cost)
    res = None if basis is None else _candidate(problem, std, basis, inverse)
    if res is not None:
        res.float_pivots = float_pivots
        try:
            _verify_optimal(problem, res)
        except LPError:
            res = None
    return res, float_pivots


# ---------------------------------------------------------------------------
# public entry points


def solve(problem: LPProblem) -> LPResult:
    """Solve exactly; the returned result has already passed verification.

    An LP with a nonzero objective first takes the basis the float pass
    proposes (:func:`_guided`); every other outcome runs the exact simplex
    from the all-artificial basis."""
    std = _standardize(problem)
    float_pivots = 0
    if any(problem.objective):
        res, float_pivots = _guided(problem, std)
        if res is not None:
            return res
    sx = _Simplex(std)
    n, m = std.n, std.m

    status = sx.run([0] * n + [1] * m, 1)
    if status == "unbounded":
        raise LPError("phase 1 cannot be unbounded; solver invariant broken")
    phase1 = sx.pivots
    artificial = (sx.basis >= n).nonzero()[0]
    if np.any(sx.M[artificial, m] != 0):
        farkas = _row_multipliers(std, sx, 1)
        _verify_infeasible(problem, farkas)
        return LPResult(
            status="infeasible", farkas_ints=farkas, **sx.counts(phase1, float_pivots)
        )

    # phase 2 prices only the columns of zero phase-1 reduced cost; the
    # phase-1 duals lift the duals on the others (module docstring, (b), (c))
    d1, y1num = sx._reduced_costs(), sx.ynum
    sx.enterable &= d1 == 0
    status = sx.run(std.phase2_cost + [0] * m, std.c_scale)
    if status == "unbounded":
        ray = _recover_ray(std, sx)
        _verify_ray(problem, ray)
        return LPResult(status="unbounded", ray_ints=ray, **sx.counts(phase1, float_pivots))

    # basic value i is M[i, m] / (bden[i] * b_scale)
    nums, dens = [0] * n, [1] * n
    for bj, v, d in zip(sx.basis.tolist(), sx.M[:, m].tolist(), sx.bden.tolist()):
        if bj < n:
            nums[bj], dens[bj] = v, d * sx.b_scale
    x, xden = _over_one_denominator(nums, dens)
    sx.lift_duals(d1, y1num)
    res = LPResult(
        status="optimal",
        value_ints=_value(problem, x, xden),
        solution_ints=(x, xden),
        dual_ints=_row_multipliers(std, sx, -1),
        **sx.counts(phase1, float_pivots),
    )
    _verify_optimal(problem, res)
    return res


def feasible_point(constraints, n: int) -> LPResult:
    """Find any feasible point of the rows over x >= 0 (zero objective)."""
    return solve(make_problem([0] * n, constraints))


# ---------------------------------------------------------------------------
# certificate recovery and verification


def _row_multipliers(std: _Standard, sx: _Simplex, sign: int) -> tuple:
    """``sign`` times the simplex duals, with the sign flips undone: one
    multiplier per row as given, as numerators over ``yden`` (already in
    lowest terms)."""
    return tuple(sign * y * k for y, k in zip(sx.ynum.tolist(), std.row_mult)), sx.yden


def _recover_ray(std: _Standard, sx: _Simplex) -> tuple:
    nums, dens = [0] * std.n, [1] * std.n
    nums[sx.last_ray_col] = 1
    for bj, u, d in zip(sx.basis.tolist(), sx.last_ray_u.tolist(), sx.bden.tolist()):
        if bj < std.n and u:
            nums[bj], dens[bj] = -u, d
    return _over_one_denominator(nums, dens)


# The verifiers share no scaling code with the solver (see the module
# docstring): they read only the problem and the result, numerators and
# denominators as they are.


def _entries(problem: LPProblem):
    """The (row, column, coefficient) entries of the rows, Python integers."""
    rows = problem.constraints
    return zip(rows.row.tolist(), rows.col.tolist(), rows.val.tolist())


def _row_sums(problem: LPProblem, x) -> list:
    """``A x`` for integers ``x``: one sum per row."""
    sums = [0] * len(problem.constraints)
    for i, j, v in _entries(problem):
        sums[i] += v * x[j]
    return sums


def _column_sums(problem: LPProblem, z) -> list:
    """``A^T z`` for integers ``z``: one sum per column."""
    sums = [0] * problem.n
    for i, j, v in _entries(problem):
        sums[j] += z[i] * v
    return sums


def _checked(ints, size: int, what: str) -> tuple:
    """The numerators and denominator of ``ints``, refused unless there are
    ``size`` numerators over a positive denominator."""
    nums, den = ints
    if len(nums) != size or den <= 0:
        raise LPError(f"verification failed: malformed {what}")
    return nums, den


def _verify_optimal(problem: LPProblem, res: LPResult) -> None:
    rows = problem.constraints
    x, xden = _checked(res.solution_ints, problem.n, "solution")
    if any(v < 0 for v in x):
        raise LPError("verification failed: negative variable")
    b, bden = rows.rhs.tolist(), rows.rhs_den
    if any(s * bden != bi * xden for s, bi in zip(_row_sums(problem, x), b)):
        raise LPError("verification failed: constraint violated")

    # reduced costs c - A^T y in original coordinates, times cden * yden > 0
    y, yden = _checked(res.dual_ints, len(rows), "dual")
    aty = _column_sums(problem, y)
    c, cden = problem.objective, problem.objective_den
    for j in range(problem.n):
        d = c[j] * yden - cden * aty[j]
        if d > 0:
            raise LPError("verification failed: improving direction remains")
        if x[j] and d != 0:
            raise LPError("verification failed: complementary slackness")

    # the dual objective y . b is over yden * bden
    dual_obj = sum(yi * bi for yi, bi in zip(y, b))
    num, den = res.value_ints
    if den <= 0 or dual_obj * den != num * yden * bden:
        raise LPError("verification failed: strong duality")


def _verify_infeasible(problem: LPProblem, farkas) -> None:
    """The multipliers ``farkas``, numerators over a denominator, must
    combine the rows into an impossibility: combination <= 0 on every
    column, yet positive on the right-hand side."""
    z, _ = _checked(farkas, len(problem.constraints), "farkas")
    if any(c > 0 for c in _column_sums(problem, z)):
        raise LPError("farkas verification failed: positive column")
    if sum(zi * bi for zi, bi in zip(z, problem.constraints.rhs.tolist())) <= 0:
        raise LPError("farkas verification failed: rhs not positive")


def _verify_ray(problem: LPProblem, ray) -> None:
    """``ray``, numerators over a denominator, must be a nonnegative
    direction that every row leaves at zero and that raises the
    objective."""
    r, _ = _checked(ray, problem.n, "ray")
    if any(v < 0 for v in r):
        raise LPError("ray verification failed: negative component")
    if any(_row_sums(problem, r)):
        raise LPError("ray verification failed: leaves feasible cone")
    if sum(cj * rj for cj, rj in zip(problem.objective, r)) <= 0:
        raise LPError("ray verification failed: not improving")
