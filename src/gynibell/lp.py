"""Exact rational linear programming.

One problem form: maximize ``c.x`` subject to equality rows ``A x = b`` over
``x >= 0``.  An inequality or a variable bound is written as an equality
row with its own slack column.

A two-phase revised simplex.  The basis inverse is held explicitly, one row
of integer numerators plus a positive integer denominator per row (rows are
pre-scaled so constraint columns are integral), which keeps every pivot
exact while costing one gcd pass per touched row instead of per-element
rational normalization.  The problems solved here (no-signaling bounds,
membership tests, time-ordered bilocal decompositions) have modest row
counts and wide, very sparse column sets, so columns are stored sparsely
and priced lazily in blocks.

Correctness posture:

* "optimal" results are re-verified before being returned: the solution is
  substituted into every original row exactly, and the dual vector (free,
  one multiplier per equality row) is checked for exact dual feasibility,
  complementary slackness and exact agreement of primal and dual
  objectives (strong duality).
* infeasible problems come with a Farkas certificate, verified exactly.
* unbounded problems come with a verified improving ray.

Anti-cycling: pricing is best-in-first-improving-block by default; after a
run of consecutive degenerate pivots the solver switches to Bland's rule
until a strict improvement happens, which guarantees termination.  An
artificial variable sitting at zero is pivoted out the moment an entering
column touches its row, so artificials can never rise again after phase 1;
each such forced pivot removes one artificial for good, so they cannot loop.

There is deliberately no floating-point mode and no presolve; exactness of
the returned fractions is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import config

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: consecutive degenerate pivots tolerated before Bland's rule engages.
#: the primary tie-break is lexicographic, which already makes cycling all
#: but impossible, so this is a deep safety net rather than a tuning knob
DEGENERACY_STREAK = 500

#: column block size for lazy pricing
PRICE_BLOCK = 512


class LPError(RuntimeError):
    pass


@dataclass(frozen=True)
class Constraint:
    """One equality row: sparse coefficients and a right-hand side."""

    coeffs: tuple  # tuple of (var_index, Fraction)
    rhs: Fraction


def make_constraint(coeffs, rhs) -> Constraint:
    """Accept a dense sequence or a {index: value} dict of coefficients."""
    if isinstance(coeffs, dict):
        items = tuple(sorted((int(i), Fraction(v)) for i, v in coeffs.items() if v))
    else:
        items = tuple((i, Fraction(v)) for i, v in enumerate(coeffs) if v)
    return Constraint(items, Fraction(rhs))


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
    __slots__ = ("m", "cols", "b", "phase2_cost", "art_start", "row_mult")


def _standardize(problem: LPProblem) -> _Standard:
    """Convert to ``min -objective.x, A x = b, x >= 0`` with integer columns.

    Each row is multiplied by the (signed) rational that clears coefficient
    denominators and makes the right-hand side nonnegative; ``row_mult``
    records the multipliers so duals and Farkas certificates can be mapped
    back to the rows as originally written.
    """
    n = problem.n
    rows = problem.constraints

    std = _Standard()
    std.m = len(rows)

    b = [row.rhs for row in rows]

    # integer row scaling plus sign flip for b >= 0
    row_mult = []
    for i, row in enumerate(rows):
        scale = 1
        for _, v in row.coeffs:
            scale = scale * v.denominator // math.gcd(scale, v.denominator)
        mult = Fraction(scale)
        if b[i] * mult < 0:
            mult = -mult
        row_mult.append(mult)
        b[i] *= mult

    cols = [dict() for _ in range(n)]
    for i, row in enumerate(rows):
        mi = row_mult[i]
        for j, v in row.coeffs:
            if v:
                cols[j][i] = int(v * mi)
    std.cols = [tuple(sorted(c.items())) for c in cols]
    std.b = b
    std.phase2_cost = [-c for c in problem.objective]
    std.row_mult = row_mult
    std.art_start = n
    return std


# ---------------------------------------------------------------------------
# simplex core


class _Simplex:
    """Revised simplex with the basis inverse held as integer rows.

    Row i of the inverse is ``bnum[i] / bden[i]`` with integer numerators and
    a positive integer denominator reduced by their common gcd, so a pivot is
    two scalar-vector integer multiplications, a subtraction and one gcd pass
    per touched row: exact arithmetic without per-element rational
    normalization.  Basic values and duals stay as fractions (O(m) each per
    pivot).
    """

    def __init__(self, std: _Standard):
        self.std = std
        self.m = std.m
        self.pivots = 0
        m = self.m
        self.ncols = std.art_start + m
        self.basis = list(range(std.art_start, self.ncols))
        self.basic_set = set(self.basis)
        self.bnum = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        self.bden = [1] * m
        self.xb = [Fraction(v) for v in std.b]
        self.last_ray_col = None
        self.last_ray_u = None

    def column(self, j: int):
        if j >= self.std.art_start:
            return ((j - self.std.art_start, 1),)
        return self.std.cols[j]

    def is_artificial(self, j: int) -> bool:
        return j >= self.std.art_start

    def tableau_numerators(self, j: int):
        """Integer numerators of the tableau column; entry i is over bden[i]."""
        m = self.m
        unum = [0] * m
        for r, v in self.column(j):
            if v == 1:
                for i in range(m):
                    unum[i] += self.bnum[i][r]
            elif v == -1:
                for i in range(m):
                    unum[i] -= self.bnum[i][r]
            else:
                for i in range(m):
                    w = self.bnum[i][r]
                    if w:
                        unum[i] += v * w
        return unum

    def duals(self, cost):
        m = self.m
        ncost = len(cost)
        y = [_ZERO] * m
        for i, bj in enumerate(self.basis):
            cb = cost[bj] if bj < ncost else _ZERO
            if cb:
                row = self.bnum[i]
                f = cb / self.bden[i]
                for r in range(m):
                    w = row[r]
                    if w:
                        y[r] += f * w
        return y

    def reduced_cost(self, j, cost, y):
        d = cost[j] if j < len(cost) else _ZERO
        for r, v in self.column(j):
            if y[r]:
                d -= y[r] * v
        return d

    def _price(self, cost, y, n_real, bland):
        if bland:
            for j in range(n_real):
                if j in self.basic_set:
                    continue
                if self.reduced_cost(j, cost, y) < 0:
                    return j
            return None
        best = None
        best_d = _ZERO
        scanned = 0
        for j in range(n_real):
            if j in self.basic_set:
                continue
            d = self.reduced_cost(j, cost, y)
            if d < best_d:
                best, best_d = j, d
            scanned += 1
            if scanned % PRICE_BLOCK == 0 and best is not None:
                return best
        return best

    def _lex_smaller(self, i, j, unum) -> bool:
        """Compare rows i and j of the inverse scaled by their pivot-column
        entries, lexicographically; the row denominators cancel against the
        entries' own, so this reduces to integer cross products."""
        ri, rj = self.bnum[i], self.bnum[j]
        ui, uj = unum[i], unum[j]
        for r in range(self.m):
            lhs = ri[r] * uj
            rhs = rj[r] * ui
            if lhs != rhs:
                return lhs < rhs
        return False

    def _ratio_test(self, unum, bland):
        # force out any zero-valued basic artificial whose row is touched;
        # the entering variable replaces it at value 0, so feasibility holds
        # regardless of the sign of the pivot entry
        for i in range(self.m):
            if unum[i] and self.is_artificial(self.basis[i]) and self.xb[i] == 0:
                return i, True
        best_i = None
        best_ratio = None
        for i in range(self.m):
            if unum[i] > 0:
                ratio = self.xb[i] * self.bden[i] / unum[i]
                if best_ratio is None or ratio < best_ratio:
                    best_i, best_ratio = i, ratio
                elif ratio == best_ratio:
                    if bland:
                        if self.basis[i] < self.basis[best_i]:
                            best_i = i
                    elif self._lex_smaller(i, best_i, unum):
                        best_i = i
        return best_i, False

    @staticmethod
    def _row_gcd(nums, den):
        g = den
        for v in nums:
            if v:
                g = math.gcd(g, v)
                if g == 1:
                    return 1
        return g

    def _pivot(self, enter, row, unum):
        m = self.m
        piv = unum[row]
        theta = self.xb[row] * self.bden[row] / piv
        self.xb[row] = theta

        # new pivot row: old numerators over the pivot numerator
        pnum = self.bnum[row]
        if piv < 0:
            pnum = [-v for v in pnum]
            pden = -piv
        else:
            pden = piv
        g = self._row_gcd(pnum, pden)
        if g > 1:
            pnum = [v // g for v in pnum]
            pden //= g
        self.bnum[row] = pnum
        self.bden[row] = pden

        for i in range(m):
            if i == row:
                continue
            a = unum[i]
            if not a:
                continue
            di = self.bden[i]
            if theta:
                self.xb[i] -= Fraction(a, di) * theta
            ni = self.bnum[i]
            if pden == 1:
                new = [x - a * p if p else x for x, p in zip(ni, pnum)]
                nd = di
            else:
                new = [x * pden - a * p for x, p in zip(ni, pnum)]
                nd = di * pden
            g = self._row_gcd(new, nd)
            if g > 1:
                new = [v // g for v in new]
                nd //= g
            self.bnum[i] = new
            self.bden[i] = nd

        left = self.basis[row]
        self.basis[row] = enter
        self.basic_set.discard(left)
        self.basic_set.add(enter)
        self.pivots += 1

    def run(self, cost, n_real) -> str:
        """Minimize ``cost`` from the current basis; 'optimal' or 'unbounded'."""
        streak = 0
        bland = False
        y = self.duals(cost)
        while True:
            if self.pivots > config.LP_MAX_PIVOTS:
                raise LPError(f"pivot limit exceeded ({config.LP_MAX_PIVOTS})")
            enter = self._price(cost, y, n_real, bland)
            if enter is None:
                return "optimal"
            d_enter = self.reduced_cost(enter, cost, y)
            unum = self.tableau_numerators(enter)
            row, forced = self._ratio_test(unum, bland)
            if row is None:
                self.last_ray_col = enter
                self.last_ray_u = unum
                return "unbounded"
            degenerate = self.xb[row] == 0
            self._pivot(enter, row, unum)
            # rank-one dual update: the entering column's reduced cost drops
            # to zero, every other basic column keeps zero, so the exact new
            # duals are y + d_enter * (updated pivot row of the inverse)
            if d_enter:
                prow = self.bnum[row]
                f = d_enter / self.bden[row]
                for r in range(self.m):
                    if prow[r]:
                        y[r] += f * prow[r]
            if forced:
                continue
            if degenerate:
                streak += 1
                if streak > DEGENERACY_STREAK:
                    bland = True
            else:
                streak = 0
                bland = False


# ---------------------------------------------------------------------------
# public entry points


def solve(problem: LPProblem) -> LPResult:
    """Solve exactly; the returned result has already passed verification."""
    std = _standardize(problem)
    sx = _Simplex(std)
    m = std.m

    phase1_cost = [_ZERO] * std.art_start + [_ONE] * m
    status = sx.run(phase1_cost, std.art_start)
    if status == "unbounded":
        raise LPError("phase 1 cannot be unbounded; solver invariant broken")
    infeas = sum(
        (sx.xb[i] for i in range(m) if sx.is_artificial(sx.basis[i])), _ZERO
    )
    if infeas != 0:
        y = sx.duals(phase1_cost)
        farkas = _recover_row_multipliers(std, y)
        _verify_infeasible(problem, farkas)
        return LPResult(status="infeasible", farkas=tuple(farkas), pivots=sx.pivots)

    status = sx.run(std.phase2_cost, std.art_start)
    if status == "unbounded":
        ray = _recover_ray(std, sx)
        _verify_ray(problem, ray)
        return LPResult(status="unbounded", ray=tuple(ray), pivots=sx.pivots)

    solution = [_ZERO] * problem.n
    for i, bj in enumerate(sx.basis):
        if bj < std.art_start:
            solution[bj] = sx.xb[i]
    value = sum((c * v for c, v in zip(problem.objective, solution)), _ZERO)
    y = sx.duals(std.phase2_cost)
    dual = [-v for v in _recover_row_multipliers(std, y)]
    res = LPResult(
        status="optimal",
        value=value,
        solution=tuple(solution),
        dual=tuple(dual),
        pivots=sx.pivots,
    )
    _verify_optimal(problem, res)
    return res


def feasible_point(constraints, n: int) -> LPResult:
    """Find any feasible point of the rows over x >= 0 (zero objective)."""
    return solve(make_problem([_ZERO] * n, constraints))


# ---------------------------------------------------------------------------
# certificate recovery and verification


def _recover_row_multipliers(std: _Standard, y):
    """Undo the row scaling and sign flips."""
    return [y[i] * std.row_mult[i] for i in range(std.m)]


def _recover_ray(std: _Standard, sx: _Simplex):
    ray = [_ZERO] * std.art_start
    ray[sx.last_ray_col] = _ONE
    for i, bj in enumerate(sx.basis):
        if bj < std.art_start and sx.last_ray_u[i]:
            ray[bj] = Fraction(-sx.last_ray_u[i], sx.bden[i])
    return ray


def _row_value(row: Constraint, x) -> Fraction:
    return sum((v * x[j] for j, v in row.coeffs), _ZERO)


def _verify_optimal(problem: LPProblem, res: LPResult) -> None:
    x = res.solution
    if any(v < 0 for v in x):
        raise LPError("verification failed: negative variable")
    for row in problem.constraints:
        if _row_value(row, x) != row.rhs:
            raise LPError("verification failed: constraint violated")

    # reduced costs in original coordinates
    reduced = list(problem.objective)
    for yv, row in zip(res.dual, problem.constraints):
        if yv:
            for j, v in row.coeffs:
                reduced[j] -= yv * v
    for j in range(problem.n):
        d = reduced[j]
        if d > 0:
            raise LPError("verification failed: improving direction remains")
        if x[j] and d != 0:
            raise LPError("verification failed: complementary slackness")

    dual_obj = sum((yv * row.rhs for yv, row in zip(res.dual, problem.constraints)), _ZERO)
    if dual_obj != res.value:
        raise LPError("verification failed: strong duality")


def _verify_infeasible(problem: LPProblem, farkas) -> None:
    """The multipliers must combine the rows into an impossibility:
    combination <= 0 on every column, yet positive on the right-hand side."""
    comb = [_ZERO] * problem.n
    rhs = _ZERO
    for y, row in zip(farkas, problem.constraints):
        if y:
            rhs += y * row.rhs
            for j, v in row.coeffs:
                comb[j] += y * v
    if any(c > 0 for c in comb):
        raise LPError("farkas verification failed: positive column")
    if rhs <= 0:
        raise LPError("farkas verification failed: rhs not positive")


def _verify_ray(problem: LPProblem, ray) -> None:
    if any(r < 0 for r in ray):
        raise LPError("ray verification failed: negative component")
    for row in problem.constraints:
        if _row_value(row, ray) != 0:
            raise LPError("ray verification failed: leaves feasible cone")
    gain = sum((c * r for c, r in zip(problem.objective, ray)), _ZERO)
    if gain <= 0:
        raise LPError("ray verification failed: not improving")
