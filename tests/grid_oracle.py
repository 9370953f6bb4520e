"""Independent oracles for the witness pipeline.

The grid oracle checks the product-state overlap minimum.

Used to cross-check the see-saw estimate of
min over product states of <x1 x2 x3| Pi |x1 x2 x3> for three-qubit
operators: sites 2 and 3 are swept over a dense Bloch-angle grid (theta,
phi per site), and for each grid point the minimum over site 1 is the
smallest eigenvalue of the 2x2 operator obtained by contracting Pi with
the fixed pair, computed in closed form.  The best grid cell is then
refined by repeatedly shrinking the grid around the argmin.

The oracle never iterates coordinate updates, so it shares no machinery
with the see-saw path it checks.

The no-signaling oracle checks a measured float table by summing explicit
marginals entry by entry, without the reshapes the witness module uses.
"""

from __future__ import annotations

import itertools

import numpy as np


def float_nonsignaling(table, inputs, outputs, tol: float = 1e-9) -> bool:
    """No-signaling of a float table P[x_idx, a_idx] whose indices are
    mixed-radix over ``inputs`` / ``outputs`` with party 0 most significant:
    for every party, every input and outcome of the others, the sum over the
    party's outcome must not depend on the party's own input."""
    xs_all = list(itertools.product(*(range(m) for m in inputs)))
    aa_all = list(itertools.product(*(range(d) for d in outputs)))
    for p in range(len(inputs)):
        marginal = {}
        for x_idx, xs in enumerate(xs_all):
            for a_idx, aa in enumerate(aa_all):
                key = (xs[:p] + xs[p + 1 :], aa[:p] + aa[p + 1 :], xs[p])
                marginal[key] = marginal.get(key, 0.0) + float(table[x_idx][a_idx])
        for (xo, ao, _), v in marginal.items():
            if abs(v - marginal[(xo, ao, 0)]) > tol:
                return False
    return True


def _bloch_states(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """All states cos(t/2)|0> + e^{i p} sin(t/2)|1> for the angle grid."""
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    t = t.ravel()
    p = p.ravel()
    return np.stack([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)], axis=1)


def _min_over_first_site(pi_tensor: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of <v2 v3| Pi |v2 v3> (a 2x2 matrix), vectorized
    over all combinations of rows of v2 and v3."""
    # site-2 expectation first (diagonal in the v2 index); the site-3
    # contraction is then one BLAS matmul per chunk
    nk, nl = v2.shape[0], v3.shape[0]
    a = np.einsum("abcdef,ke,kb->kacdf", pi_tensor, v2, v2.conj())
    b = a.transpose(0, 1, 3, 2, 4).reshape(nk * 4, 4)  # rows (k, a, d), cols (c, f)
    w = (v3.conj()[:, :, None] * v3[:, None, :]).reshape(nl, 4)  # cols (c, f)
    m = (b @ w.T).reshape(nk, 2, 2, nl)
    tr = np.real(m[:, 0, 0, :] + m[:, 1, 1, :])
    det = np.real(m[:, 0, 0, :] * m[:, 1, 1, :] - m[:, 0, 1, :] * m[:, 1, 0, :])
    disc = np.sqrt(np.maximum(tr * tr - 4 * det, 0.0))
    return (tr - disc) / 2


def grid_epsilon_min(
    pi_matrix: np.ndarray,
    points_per_angle: int = 50,
    refinements: int = 6,
    shrink: float = 6.0,
) -> float:
    """Global minimum of the product-state overlap for a three-qubit
    operator, by dense 4-angle grid search plus local refinement."""
    pi_tensor = pi_matrix.reshape(2, 2, 2, 2, 2, 2)
    n = points_per_angle

    windows = [(0.0, np.pi, 0.0, 2 * np.pi), (0.0, np.pi, 0.0, 2 * np.pi)]
    best = np.inf
    for _ in range(refinements + 1):
        grids = []
        for t0, t1, p0, p1 in windows:
            thetas = np.linspace(t0, t1, n)
            phis = np.linspace(p0, p1, n, endpoint=False)
            grids.append((thetas, phis))
        v2 = _bloch_states(*grids[0])
        v3 = _bloch_states(*grids[1])
        vals = _min_over_first_site(pi_tensor, v2, v3)
        k, l = np.unravel_index(np.argmin(vals), vals.shape)
        best = min(best, float(vals[k, l]))
        centers = []
        for (thetas, phis), idx in zip(grids, (k, l)):
            ti, pi_ = divmod(int(idx), len(phis))
            centers.append((thetas[ti], phis[pi_]))
        new_windows = []
        for (t0, t1, p0, p1), (tc, pc) in zip(windows, centers):
            ht = (t1 - t0) / shrink
            hp = (p1 - p0) / shrink
            new_windows.append(
                (
                    max(0.0, tc - ht),
                    min(np.pi, tc + ht),
                    pc - hp,
                    pc + hp,
                )
            )
        windows = new_windows
    return best
