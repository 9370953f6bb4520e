import functools
import random
from fractions import Fraction

import numpy as np
import pytest

from gynibell import _rank, gyni, polytope, upb
from gynibell._rank import ExactRankAccumulator, affine_rank, integer_rank


def test_integer_rank_small_known():
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_affine_rank_known():
    # three collinear points have affine rank 1, a triangle has 2
    assert affine_rank([[0, 0], [1, 1], [2, 2]]) == 1
    assert affine_rank([[0, 0], [1, 0], [0, 1]]) == 2
    assert affine_rank([[5, 7]]) == 0


def _random_matrices():
    rng = random.Random(12)
    for _ in range(30):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        yield [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]


def _incremental_matrix():
    rng = random.Random(77)
    return [[rng.randint(-3, 3) for _ in range(10)] for _ in range(20)]


def test_rank_matches_float_rank_on_random_matrices():
    for mat in _random_matrices():
        expect = np.linalg.matrix_rank(np.array(mat, dtype=float))
        assert integer_rank(mat) == expect


def test_big_integer_fallback_is_exact():
    """Entries near the int64 guard force the switch to Python-integer rows;
    the rank of a planted rank-2 matrix must still come out exactly."""
    rng = random.Random(5)
    big = 2**40
    u = [rng.randint(1, big) for _ in range(6)]
    v = [rng.randint(1, big) for _ in range(6)]
    w = [rng.randint(1, big) for _ in range(6)]
    rows = []
    for _ in range(8):
        a, b = rng.randint(1, 999), rng.randint(1, 999)
        rows.append([a * x + b * y for x, y in zip(u, v)])
    acc = ExactRankAccumulator(6)
    for row in rows:
        acc.add_row(row)
    assert acc.rank == 2
    assert acc.big  # the guard must actually have tripped
    # an independent third direction is still detected afterwards
    assert acc.add_row([x + z for x, z in zip(u, w)])
    assert acc.rank == 3
    # and a now-dependent row is recognized (w = (u+w) - u, both in the span)
    assert not acc.add_row(w)
    assert acc.rank == 3


def test_incremental_matches_batch():
    mat = _incremental_matrix()
    acc = ExactRankAccumulator(10)
    for row in mat:
        acc.add_row(row)
    assert acc.rank == integer_rank(mat)


@pytest.mark.parametrize("guard", [1, 2**8])
def test_python_integer_rows_give_the_int64_ranks(monkeypatch, guard):
    """A lowered guard moves elimination onto Python-integer rows, at the
    first reduction (guard 1) or part way through (2**8); every rank must
    stay what the int64 run gives."""
    mats = list(_random_matrices())
    expect = [integer_rank(m) for m in mats]
    inc = _incremental_matrix()
    inc_rank = integer_rank(inc)
    monkeypatch.setattr(_rank, "_INT64_SAFE", guard)

    assert [integer_rank(m) for m in mats] == expect

    acc = ExactRankAccumulator(10)
    big_after = []
    for row in inc:
        acc.add_row(row)
        big_after.append(acc.big)
    assert acc.rank == inc_rank
    first = big_after.index(True)
    assert (first == 1) if guard == 1 else (first > 2)
    assert all(big_after[first:])
    assert all(prow.dtype == object for _, prow, _, _ in acc.pivots)


def _fraction_rank(matrix) -> int:
    """Rank by Gaussian elimination over the rationals; shares no code with
    the accumulator."""
    rows = [[Fraction(v) for v in r] for r in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _wide_matrices():
    """Planted-rank matrices, each row a random integer combination of a few
    random base rows.  Entries pass 2**31, or the elimination's
    intermediates do while they stay in int64 for a while."""
    rng = random.Random(31)
    for k in range(16):
        cols = rng.randint(3, 9)
        planted = rng.randint(1, cols)
        top = 2**33 if k % 2 else 2**18
        base = [[rng.randint(-top, top) for _ in range(cols)] for _ in range(planted)]
        mat = []
        for _ in range(rng.randint(planted, planted + 4)):
            w = [rng.randint(-9, 9) for _ in range(planted)]
            mat.append([sum(a * b[j] for a, b in zip(w, base)) for j in range(cols)])
        yield mat


def _gyni5_saturating_differences():
    from gynibell import gyni, polytope

    e = gyni.gyni_expression(5).expression
    den, blocks = polytope._strategy_values(e)
    target = e.classical_bound * den
    hits = np.concatenate([s + np.flatnonzero(v == target) for s, v in blocks])
    points = polytope.cg_coordinates_of_strategies(e.scenario, hits)
    return points[1:] - points[0]


def _echelon(rows, ncols):
    acc = ExactRankAccumulator(ncols)
    for row in rows:
        acc.add_row(row)
    return acc.rank, acc.big, [(c, p.tolist(), v, m) for c, p, v, m in acc.pivots]


def test_wide_entries_match_fraction_rank():
    for mat in _wide_matrices():
        assert integer_rank(mat) == _fraction_rank(mat)


@pytest.mark.parametrize("reduce_at", [1, 2**8])
def test_lazy_gcd_keeps_every_pivot_row(monkeypatch, reduce_at):
    """Dividing rows by their gcd after every step (threshold 1) or part way
    (2**8) stores the same pivot rows, the same rank and the same switch to
    Python integers as the default threshold."""
    mats = [(m, len(m[0])) for m in _random_matrices()]
    mats += [(m, len(m[0])) for m in _wide_matrices()]
    gyni5 = _gyni5_saturating_differences()
    mats.append((gyni5, gyni5.shape[1]))
    expect = [_echelon(m, n) for m, n in mats]
    assert expect[-1][0] == 241
    monkeypatch.setattr(_rank, "_REDUCE_AT", reduce_at)
    assert [_echelon(m, n) for m, n in mats] == expect


# ---------------------------------------------------------------------------
# the certified affine rank: float proposal, exact lower and upper bounds


def _point_sets():
    """Seeded integer point sets, each with the name of its shape."""
    rng = np.random.default_rng(20)
    yield "tall", rng.integers(0, 3, size=(40, 6))
    basis = rng.integers(-1, 2, size=(3, 8))
    coeffs = rng.integers(-2, 3, size=(30, 3))
    yield "tall, rank-deficient", 5 + coeffs @ basis
    yield "wide", rng.integers(0, 2, size=(5, 20))
    wide_basis = rng.integers(0, 2, size=(4, 30))
    yield "wide, rank-deficient", rng.integers(0, 2, size=(12, 4)) @ wide_basis
    few = rng.integers(-2, 3, size=(4, 7))
    yield "repeated points", few[rng.integers(0, 4, size=25)]
    yield "one point", rng.integers(-5, 6, size=(1, 9))
    yield "all points equal", np.tile(rng.integers(-5, 6, size=9), (6, 1))
    # every maximal minor of the differences has |det| 2, or 3
    yield "minor det 2", np.array([[0, 0, 0, 0], [1, 1, 0, 2], [1, 0, 1, 2], [0, 1, 1, 2]])
    yield "minor det 3", np.array([[0, 0, 0], [2, 1, 3], [1, 2, 3]])
    for k in range(6):
        points = rng.integers(0, 2, size=(int(rng.integers(2, 40)), int(rng.integers(1, 30))))
        yield f"random 0/1 {k}", points


_POINT_SETS = dict(_point_sets())


@pytest.mark.parametrize("points", _POINT_SETS.values(), ids=_POINT_SETS.keys())
def test_certified_rank_equals_the_all_rows_accumulator(points):
    """The float pass's rank passes both exact checks on small-entry point
    sets of every shape, and equals the rank of every difference row
    through the accumulator and over the rationals."""
    diffs = points[1:] - points[0]
    expect = integer_rank(diffs)
    assert expect == _fraction_rank(diffs.tolist())
    assert _rank._certified_rank(diffs) == expect
    assert affine_rank(points) == affine_rank(points.tolist()) == expect


@pytest.mark.parametrize("name, rank, delta", [("minor det 2", 3, 2), ("minor det 3", 2, 3)])
def test_float_pass_scales_the_kernel_by_the_minor_determinant(name, rank, delta):
    """delta > 1: the kernel is delta * E, E having denominators delta."""
    points = _POINT_SETS[name]
    rows, cols, got, kernel_p = _rank._propose(points[1:] - points[0])
    assert (len(rows), got) == (rank, delta)
    assert kernel_p.shape == (rank, 1) and np.abs(kernel_p).max() > 0


def test_blocks_spanned_by_the_first_are_screened_out(monkeypatch):
    """Every row after the first block is an integer combination of the
    first block's rows, so the screen drops each later block whole: the
    proposal is the first block's rows and the certified rank is exact."""
    rng = np.random.default_rng(41)
    k = _rank._FLOAT_BLOCK
    first = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, 2, size=(k, 48))])
    later = rng.integers(-2, 3, size=(200, k)) @ first
    diffs = np.vstack([first, later])
    assert integer_rank(diffs) == k
    rows, cols, delta, kernel_p = _rank._propose(diffs)
    assert np.array_equal(rows, np.arange(k)) and len(cols) == k
    assert _rank._certified_rank(diffs) == k
    fallbacks = _count_fallbacks(monkeypatch)
    assert affine_rank(np.vstack([0 * diffs[:1], diffs])) == k
    assert not fallbacks


def test_dependent_rows_inside_a_block_are_not_chosen(monkeypatch):
    """Row 5 repeats row 2 and row 9 is rows 0 + 3, all in the first block:
    the screen cannot see them, the pivot loop's test must."""
    rng = np.random.default_rng(43)
    diffs = np.hstack([np.eye(40, dtype=np.int64), rng.integers(0, 2, size=(40, 80))])
    diffs[5] = diffs[2]
    diffs[9] = diffs[0] + diffs[3]
    assert diffs.size > _rank._SMALL
    independent = np.setdiff1d(np.arange(len(diffs)), [5, 9])
    assert integer_rank(diffs) == integer_rank(diffs[independent]) == len(independent)
    rows, cols, delta, kernel_p = _rank._propose(diffs)
    assert np.array_equal(rows, independent)
    assert _rank._certified_rank(diffs) == len(independent)
    fallbacks = _count_fallbacks(monkeypatch)
    assert affine_rank(np.vstack([0 * diffs[:1], diffs])) == len(independent)
    assert not fallbacks


def test_int8_points_widen_when_their_differences_would_wrap():
    """200 and 100 wrap in int8; the rank of the differences is 1."""
    points = np.array([[-100, -50], [100, 50], [0, 0]], dtype=np.int8)
    assert affine_rank(points) == 1


# ---------------------------------------------------------------------------
# the distinct nonzero columns the rank is taken on


def _reference_distinct_columns(diffs):
    """The first of each set of equal nonzero columns, found by Python
    tuples; shares no code with the column keys."""
    first = {}
    for j, col in enumerate(map(tuple, diffs.T.tolist())):
        if any(col):
            first.setdefault(col, j)
    return sorted(first.values())


@functools.cache
def _planted_columns():
    """Zero columns and copies of columns planted among those of seeded
    matrices, each with its rational-oracle rank.  The first is a 0/1
    matrix that stays at most the small-set size; the others are from
    :func:`_planted_rank_matrices`: the 60-row one passes the small-set size
    only before its columns are reduced, and the last two pass it after and
    certify with minors of |det| 16 and 8."""
    rng = np.random.default_rng(32)
    graphs = list(_planted_rank_matrices())
    out = []
    for base in [rng.integers(0, 2, size=(20, 20)), graphs[4], graphs[0], graphs[5]]:
        m = base.shape[1]
        source = np.concatenate([np.arange(m), rng.integers(0, m, size=m // 4), np.full(m // 8, -1)])
        source = rng.permutation(source)
        diffs = np.where(source >= 0, base[:, source], 0)
        out.append((diffs, _fraction_rank(diffs.tolist())))
    return out


def test_planted_zero_and_equal_columns_leave_the_rank_unchanged(monkeypatch):
    """The columns kept are the reference's, and the affine rank, taken on
    them by the all-rows loop or by the certified path, is the rational
    oracle's rank of every column."""
    certified = []
    real_certified = _rank._certified_rank

    def record(diffs):
        certified.append((diffs.shape, real_certified(diffs)))
        return certified[-1][1]

    monkeypatch.setattr(_rank, "_certified_rank", record)
    reduced = []
    for diffs, rank in _planted_columns():
        kept = _rank._distinct_columns(diffs)
        assert kept.tolist() == _reference_distinct_columns(diffs)
        reduced.append((len(diffs), len(kept)))
        points = np.vstack([np.zeros((1, diffs.shape[1]), dtype=diffs.dtype), diffs]) - 2
        assert affine_rank(points) == rank
    small = _rank._SMALL
    assert [diffs.size > small for diffs, _ in _planted_columns()] == [False, True, True, True]
    assert [n * m > small for n, m in reduced] == [False, False, True, True]
    ranks = [rank for _, rank in _planted_columns()]
    assert certified == list(zip(reduced[2:], ranks[2:]))


@pytest.mark.parametrize("keys", ["every key 0", "every key its own"])
def test_only_exact_tests_decide_which_columns_go(monkeypatch, keys):
    """With every key equal, the exact comparisons alone find the
    reference's columns; with every key different, no column is dropped
    (a zero one neither, its key being nonzero) and the rank is still
    exact."""
    if keys == "every key 0":
        monkeypatch.setattr(_rank, "_column_keys", lambda d: np.zeros(d.shape[1]))
    else:
        monkeypatch.setattr(_rank, "_column_keys", lambda d: np.arange(1.0, d.shape[1] + 1))
    for diffs, rank in _planted_columns():
        kept = _rank._distinct_columns(diffs).tolist()
        if keys == "every key 0":
            assert kept == _reference_distinct_columns(diffs)
        else:
            assert kept == list(range(diffs.shape[1]))
        points = np.vstack([np.zeros((1, diffs.shape[1]), dtype=diffs.dtype), diffs])
        assert affine_rank(points) == rank


@pytest.mark.parametrize("shape", [(6, 9), (300, 50)])
def test_equal_points_keep_no_column(shape):
    """Every difference is zero, so no column is kept and the rank is 0,
    on both sides of the small-set size."""
    points = np.tile(np.arange(shape[1], dtype=np.int64) - 4, (shape[0], 1))
    assert not len(_rank._distinct_columns(points[1:] - points[0]))
    assert affine_rank(points) == affine_rank(points.astype(np.int8).tolist()) == 0


def test_niset_cerf_4_3_certifies_on_its_distinct_columns(monkeypatch):
    """Of Niset-Cerf(4,3)'s 625 difference columns 97 are zero and 24 copy
    another over the 729 saturating vertices: the certified rank, 415,
    runs on the 728 x 504 rest, with no fallback."""
    expression = upb.niset_cerf_inequality(4, 3)
    shapes = []
    certified = _rank._certified_rank
    monkeypatch.setattr(_rank, "_certified_rank", lambda d: shapes.append(d.shape) or certified(d))
    fallbacks = _count_fallbacks(monkeypatch)
    report = polytope.facet_check(expression, expression.classical_bound)
    assert (report.affine_rank, report.is_tight, report.saturating_vertex_count) == (415, False, 729)
    assert shapes == [(728, 504)]
    assert not fallbacks


_real_propose = _rank._propose


def _drop_row(diffs, rows, cols, delta, kernel_p):
    """The proposal for the chosen rows but the first: consistent in
    itself, one short of the rank."""
    sub_rows, cols, delta, kernel_p = _real_propose(diffs[rows[1:]])
    return rows[1:][sub_rows], cols, delta, kernel_p


def _wrong_pivot(diffs, rows, cols, delta, kernel_p):
    """A free column named in place of the first pivot column."""
    cols = cols.copy()
    cols[0] = np.flatnonzero(~np.isin(np.arange(diffs.shape[1]), cols))[0]
    return rows, cols, delta, kernel_p


def _shifted_kernel_entry(diffs, rows, cols, delta, kernel_p):
    kernel_p = kernel_p.copy()
    kernel_p[0, 0] += 1
    return rows, cols, delta, kernel_p


def _extra_row(diffs, rows, cols, delta, kernel_p):
    """A dependent row and the first free column added, and that column's
    kernel vector taken out: D K = 0 still holds, the minor is singular."""
    extra = np.flatnonzero(~np.isin(np.arange(len(diffs)), rows))[0]
    free = np.flatnonzero(~np.isin(np.arange(diffs.shape[1]), cols))
    kernel_p = np.vstack([kernel_p[:, 1:], np.zeros((1, len(free) - 1), kernel_p.dtype)])
    return np.append(rows, extra), np.append(cols, free[0]), delta, kernel_p


def _count_fallbacks(monkeypatch):
    calls = []
    monkeypatch.setattr(_rank, "integer_rank", lambda d: calls.append(d) or integer_rank(d))
    return calls


@pytest.mark.parametrize(
    "corrupt", [_drop_row, _wrong_pivot, _shifted_kernel_entry, _extra_row]
)
def test_a_wrong_proposal_falls_back_to_the_exact_rank(monkeypatch, corrupt):
    """A float pass that drops an independent row, names a wrong pivot
    column, shifts one kernel entry by 1 or takes a dependent row fails an
    exact check, and the rank comes from the accumulator over every row."""
    diffs = _gyni5_saturating_differences()
    points = np.vstack([np.zeros((1, diffs.shape[1]), dtype=diffs.dtype), diffs])
    assert _rank._certified_rank(diffs) == 241
    monkeypatch.setattr(_rank, "_propose", lambda d: corrupt(d, *_real_propose(d)))
    fallbacks = _count_fallbacks(monkeypatch)
    assert _rank._certified_rank(diffs) is None
    assert affine_rank(points) == 241
    assert len(fallbacks) == 1


_real_scaled_inverse = _rank._scaled_inverse
_real_inverts = _rank._inverts


def _gyni5_points_and_proposal():
    diffs = _gyni5_saturating_differences()
    points = np.vstack([np.zeros((1, diffs.shape[1]), dtype=diffs.dtype), diffs])
    return diffs, points, _real_propose(diffs)


def _add_at(entry, shift):
    def tamper(x):
        x[entry] += shift
        return x

    return tamper


_INVERSE_TAMPERS = {
    "X[0, 0] + 1": _add_at((0, 0), 1),
    "X[0, 0] - 1": _add_at((0, 0), -1),
    "X[-1, 0] + 1": _add_at((-1, 0), 1),
    "X[-1, 0] - 1": _add_at((-1, 0), -1),
    "2 X": lambda x: 2 * x,  # right off the diagonal, 2 delta on it
}


@pytest.mark.parametrize("tamper", _INVERSE_TAMPERS.values(), ids=_INVERSE_TAMPERS.keys())
def test_a_wrong_inverse_falls_back(monkeypatch, tamper):
    """X = rint(delta A^-1) with one entry moved by 1, or doubled, breaks
    A X = delta I."""
    diffs, points, (rows, cols, delta, _) = _gyni5_points_and_proposal()
    minor = diffs[np.ix_(rows, cols)]
    x = _real_scaled_inverse(minor, delta)
    assert _rank._inverts(minor, delta, x)
    monkeypatch.setattr(_rank, "_scaled_inverse", lambda *args: tamper(_real_scaled_inverse(*args)))
    fallbacks = _count_fallbacks(monkeypatch)
    assert _rank._certified_rank(diffs) is None
    assert affine_rank(points) == 241
    assert len(fallbacks) == 1


def test_a_zero_pivot_in_the_inverse_falls_back(monkeypatch):
    """The proposed rows reordered so that the minor's first entry is 0: the
    kernel still checks, and the inverse, which searches no pivot, stops.
    The proposal is built on the distinct nonzero columns, the matrix
    affine_rank hands the certified rank."""
    diffs, points, _ = _gyni5_points_and_proposal()
    diffs = diffs[:, _rank._distinct_columns(diffs)]
    rows, cols, delta, kernel_p = _real_propose(diffs)
    first = int(np.flatnonzero(diffs[rows, cols[0]] == 0)[0])
    rows = np.concatenate([rows[first : first + 1], np.delete(rows, first)])
    assert _real_scaled_inverse(diffs[np.ix_(rows, cols)], delta) is None
    monkeypatch.setattr(_rank, "_propose", lambda d: (rows, cols, delta, kernel_p))
    fallbacks = _count_fallbacks(monkeypatch)
    assert _rank._certified_rank(diffs) is None
    assert affine_rank(points) == 241
    assert len(fallbacks) == 1


def test_an_inverse_past_the_float32_bound_falls_back(monkeypatch):
    """delta and X scaled by 2**22: A X = delta I still holds exactly, but a
    row L1 norm times max |X| passes 2**24, so the float32 product proves
    nothing and the check refuses it."""
    diffs, points, (rows, cols, delta, _) = _gyni5_points_and_proposal()
    scale = 2**22
    minor = diffs[np.ix_(rows, cols)]
    x = _real_scaled_inverse(minor, delta) * scale
    assert np.array_equal(minor.astype(np.int64) @ x.astype(np.int64), delta * scale * np.eye(len(rows)))
    assert not _real_inverts(minor, delta * scale, x)
    monkeypatch.setattr(_rank, "_inverts", lambda a, dt, x: _real_inverts(a, dt * scale, x * scale))
    fallbacks = _count_fallbacks(monkeypatch)
    assert _rank._certified_rank(diffs) is None
    assert affine_rank(points) == 241
    assert len(fallbacks) == 1


@pytest.mark.parametrize(
    "points, rank",
    [
        # row L1 15000 times max |K| 7000 (the pivot) passes 2**24
        ([[0, 0, 0], [3000, 5000, 7000]], 1),
        ([[0, 0, 0], [3000, 5000, 7000], [6000, 10000, 14000], [1, 0, 0]], 2),
        # the pivot itself, 2**25, is past float32's exact integers
        ([[0, 0], [2**24, 2**25]], 1),
        # no kernel to check; the minor's row L1 6000 times max |X| 3000
        # (X = [[1, -3000], [0, 3000]], delta 3000) passes 2**24
        ([[0, 0], [3000, 3000], [0, 1]], 2),
    ],
)
def test_past_the_float32_bound_the_rank_falls_back(points, rank):
    """These sets are small enough to skip the float pass in affine_rank;
    called on them directly, the certified rank refuses them."""
    points = np.array(points)
    assert _rank._certified_rank(points[1:] - points[0]) is None
    assert affine_rank(points) == rank


def _planted_rank_matrices():
    """Seeded integer matrices past the small-set size, each row one or the
    sum of two of k random rows with two ones each (a graph's edges).  An
    odd cycle among the chosen rows gives a minor with |det| 2 or more; the
    last two are dense combinations whose minors pass 2**24."""
    rng = np.random.default_rng(22)
    shapes = [(120, 60, 40), (90, 60, 30), (70, 70, 65), (200, 40, 30), (60, 90, 50), (150, 50, 50)]
    for n, m, k in shapes:
        base = np.zeros((k, m), dtype=np.int64)
        a = rng.integers(0, m, size=k)
        base[np.arange(k), a] = 1
        base[np.arange(k), (a + rng.integers(1, m, size=k)) % m] = 1
        coeffs = np.zeros((n, k), dtype=np.int64)
        coeffs[np.arange(n), rng.integers(0, k, size=n)] += 1
        coeffs[np.arange(n), rng.integers(0, k, size=n)] += rng.integers(0, 2, size=n)
        yield coeffs @ base
    for n, m, k in [(90, 50, 30), (50, 90, 40)]:
        yield rng.integers(0, 2, size=(n, k)) @ rng.integers(0, 2, size=(k, m))


def test_affine_rank_matches_the_rational_oracle_past_the_small_size():
    certified_deltas = []
    for diffs in _planted_rank_matrices():
        assert diffs.size > _rank._SMALL
        points = np.vstack([np.zeros((1, diffs.shape[1]), dtype=diffs.dtype), diffs]) + 3
        expect = _fraction_rank(diffs.tolist())
        assert affine_rank(points) == expect
        if _rank._certified_rank(diffs) == expect:
            certified_deltas.append(_rank._propose(diffs)[2])
    # the certified path, with a minor of |det| > 1, and the fallback both ran
    assert max(certified_deltas) > 1
    assert len(certified_deltas) < len(list(_planted_rank_matrices()))


@pytest.mark.parametrize(
    "row, delta, entry",
    [
        # 1 + 3 * float32(-1/3) and 3 * float32(4/3) - 4 read 0 in float32,
        # yet neither product is 0
        ([1, 3], 1.0, -1 / 3),
        ([3, 4], 4 / 3, -1.0),
        ([1, 3], 0.0, 0.0),  # K = 0 annihilates every row
    ],
)
def test_the_kernel_check_takes_only_integer_kernels_with_nonzero_scale(row, delta, entry):
    diffs = np.array([row], dtype=np.int8)
    kernel = np.array([[delta], [entry]], dtype=np.float32)
    assert (diffs.astype(np.float32) @ kernel).item() == 0
    assert not _rank._annihilates(diffs, np.array([1]), delta, kernel[1:])


def test_the_kernel_check_accepts_an_integer_kernel():
    diffs = np.array([[1, 3], [2, 6]], dtype=np.int8)
    assert _rank._annihilates(diffs, np.array([1]), 3.0, np.array([[-1.0]], np.float32))


@pytest.mark.parametrize(
    "delta, entry",
    [
        (1.0, 1 / 3),  # 3 * float32(1/3) reads 1 in float32, yet is not 1
        (0.0, 0.0),  # A 0 = 0 I for every A
    ],
)
def test_the_inverse_check_takes_only_integer_inverses_with_nonzero_scale(delta, entry):
    minor = np.array([[3]], dtype=np.int8)
    x = np.array([[entry]], dtype=np.float32)
    assert (minor.astype(np.float32) @ x).item() == np.float32(delta)
    assert not _rank._inverts(minor, delta, x)


def _planted_product(n, k, c, delta):
    """Integer a (n x k) and an integer-valued float32 b (k x c) with a @ b
    = delta I (n = c) or 0 (delta = 0), and the inner index I[j] at which
    column j of b holds its -1: b's other rows are random, its rows I hold
    -I, and a[:, I] = a[:, others] @ b[others] (minus delta at (j, I[j])),
    so a[r, I[j]] + 1 moves entry (r, j) of the product alone.  Column j
    meets the inner index k - 1 - 2 j: the first columns in the last inner
    tile, the last ones in the first."""
    rng = np.random.default_rng(29)
    inner = k - 1 - 2 * np.arange(c)
    others = np.setdiff1d(np.arange(k), inner)
    b = np.zeros((k, c), dtype=np.int64)
    b[others] = rng.integers(-1, 2, size=(len(others), c))
    b[inner, np.arange(c)] = -1
    a = np.zeros((n, k), dtype=np.int64)
    a[:, others] = rng.integers(-1, 2, size=(n, len(others)))
    a[:, inner] = a[:, others] @ b[others]
    if delta:
        a[np.arange(c), inner] -= delta
    assert np.array_equal(a @ b, delta * np.eye(n, c, dtype=np.int64))
    return a, b.astype(np.float32), inner


# (n, k, c): 150 x 300 x 150 leaves a short last tile in every dimension
# (64 x 128 x 64 tiles); a two-column b takes 64 x 4096 x 2 tiles
_PLANTED_WRONG = {
    "last inner tile": ((150, 300, 150), 3, (70, 5)),
    "last inner tile, zero": ((150, 300, 150), 0, (70, 5)),
    "last column tile": ((150, 300, 150), 3, (10, 140)),
    "last column tile, zero": ((150, 300, 150), 0, (10, 140)),
    "last row block": ((150, 300, 150), 3, (149, 70)),
    "last row block, zero": ((150, 300, 150), 0, (149, 70)),
    "two columns, last inner tile": ((130, 4200, 2), 0, (100, 1)),
}


@pytest.mark.parametrize("shape, delta, entry", _PLANTED_WRONG.values(), ids=_PLANTED_WRONG.keys())
def test_the_tiled_check_refuses_one_wrong_entry_in_any_tile(shape, delta, entry):
    """Operands whose sizes are no multiple of the tiles: the exact product
    passes, and one entry moved by 1 is refused wherever its tile lies."""
    a, b, inner = _planted_product(*shape, delta)
    assert _rank._product_is(a, b, 1.0, delta)
    r, j = entry
    a[r, inner[j]] += 1
    wrong = np.argwhere(a @ b.astype(np.int64) != delta * np.eye(len(a), b.shape[1]))
    assert wrong.tolist() == [[r, j]]
    assert not _rank._product_is(a, b, 1.0, delta)


def test_the_tiled_check_refuses_a_block_past_the_float32_bound():
    """The last row of a @ b = 0 times 2**14 is still exactly 0, but its L1
    norm times max |b| passes 2**24, so the check refuses; so does a NaN
    bound."""
    a, b, _ = _planted_product(150, 300, 150, 0)
    a[-1] *= 2**14
    assert not (a @ b.astype(np.int64)).any()
    assert np.abs(a[-1]).sum() >= 2**24 > np.abs(a[:-1]).sum(axis=1).max()
    assert not _rank._product_is(a, b, 1.0, 0)
    assert not _rank._product_is(a[:-1], b, float("nan"), 0)


def _column_slices(out, a, b):
    """``out -= a @ b`` in column slices of at most ``_GEMM_MACS``
    multiply-adds with every row of ``a``: the form the tiles replaced."""
    width = max(1, _rank._GEMM_MACS // max(1, a.size))
    for j in range(0, b.shape[1], width):
        out[:, j : j + width] -= a @ b[:, j : j + width]


_CATALOGUE = {
    "GYNI-5": (lambda: gyni.gyni_expression(5).expression, 241),
    "Niset-Cerf(4,3)": (lambda: upb.niset_cerf_inequality(4, 3), 415),
    "four-partite": (upb.four_partite_tight_inequality, 106),
    "Niset-Cerf(3,3)": (lambda: upb.niset_cerf_inequality(3, 3), 105),
    "gen_shifts(3)": (lambda: upb.bell_from_set(upb.gen_shifts(3)), 997),
}


@pytest.mark.parametrize("name", _CATALOGUE)
def test_catalogue_ranks_certify_without_the_fallback(monkeypatch, name):
    """The paper's facet ranks come from the certified path alone."""
    build, rank = _CATALOGUE[name]
    expression = build()

    def no_fallback(diffs):
        raise AssertionError("fallback taken")

    monkeypatch.setattr(_rank, "integer_rank", no_fallback)
    report = polytope.facet_check(expression, expression.classical_bound)
    assert report.affine_rank == rank


@pytest.mark.parametrize("name", ["GYNI-5", "Niset-Cerf(4,3)", "four-partite"])
def test_the_tiled_inverse_equals_the_column_slice_inverse(monkeypatch, name):
    """X from the row tiles is X from the column slices, entry by entry.
    (Its bytes match too on these three; at gen_shifts(3) and GYNI-7 the
    last bits before rounding differ, so some zero entries differ in sign,
    which no check reads.)"""
    build, rank = _CATALOGUE[name]
    expression = build()
    diffs = []
    certified = _rank._certified_rank
    monkeypatch.setattr(_rank, "_certified_rank", lambda d: diffs.append(d) or certified(d))
    polytope.facet_check(expression, expression.classical_bound)
    (d,) = diffs
    rows, cols, delta, _ = _real_propose(d)
    minor = d[np.ix_(rows, cols)]
    x = _real_scaled_inverse(minor, delta)
    monkeypatch.setattr(_rank, "_subtract_product", _column_slices)
    expect = _real_scaled_inverse(minor, delta)
    assert len(rows) == rank and x.dtype == expect.dtype
    assert np.array_equal(x, expect)


def test_small_sets_take_the_all_rows_loop(monkeypatch):
    """The wupb facet's saturating set (71 x 45 differences, 44 distinct
    nonzero columns) is at most the small-set size: the all-rows loop
    alone gives its rank, 43."""
    expression = upb.bell_from_set(upb.wupb_example())
    fallbacks = _count_fallbacks(monkeypatch)

    def no_float_pass(diffs):
        raise AssertionError("float pass taken")

    monkeypatch.setattr(_rank, "_certified_rank", no_float_pass)
    report = polytope.facet_check(expression, expression.classical_bound)
    assert (report.affine_rank, report.is_tight) == (43, True)
    assert [d.shape for d in fallbacks] == [(71, 44)]
