import random
from fractions import Fraction

import numpy as np
import pytest

from gynibell import _rank
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
    acc.add_rows(rows)
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
