import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import gynibell as gb
from gynibell import core, polytope

RUN_SLOW = bool(os.environ.get("GYNIBELL_SLOW"))

requires_slow = pytest.mark.skipif(
    not RUN_SLOW, reason="long-running; set GYNIBELL_SLOW=1 to enable"
)


@pytest.fixture(autouse=True)
def fresh_ns_models():
    """Each test starts with no kept no-signaling model and no kept
    relabeling tables, so a test that bars the model build sees it run."""
    polytope._ns_model.cache_clear()
    core._index_tables.cache_clear()


@pytest.fixture(scope="session")
def gyni_games():
    """GYNI games with the parity promise, N = 2..6."""
    return {n: gb.gyni_expression(n) for n in range(2, 7)}


@pytest.fixture(scope="session")
def ns_optima(gyni_games):
    """No-signaling optima for the parity GYNI family, N = 3..6 (cached:
    several invariant tests and acceptance criteria share them)."""
    return {n: gb.ns_max(gyni_games[n].expression) for n in range(3, 7)}


@pytest.fixture(scope="session")
def tobl_result():
    return gb.tobl_max(gb.gyni_sum_expression(3))


@pytest.fixture(scope="session")
def binary3_relabelings():
    """All 384 relabelings of the three-party binary scenario: 6 party
    permutations times 8 input flips times 8 outcome flips."""
    flips = ((0, 1), (1, 0))
    return [
        gb.Symmetry(perm, ins, outs)
        for perm in itertools.permutations(range(3))
        for ins in itertools.product(flips, repeat=3)
        for outs in itertools.product(flips, repeat=3)
    ]
