"""Witness operators and bound-entangled states from product-vector sets.

Given an orthogonal product set S spanning a proper subspace, the projector
onto span(S) defines two companions: the normalized projector onto the
complement, rho = (1 - Pi) / (dim - |S|), and the operator
W = (Pi - eps*1) / (|S| - eps*dim), where eps is the smallest overlap of Pi
with a fully product state.  When S is unextendible eps is strictly
positive, W is nonnegative on every product state, tr(W rho) < 0, and
measuring W along the local bases of S produces a float table P(a|x),
normalized, nonnegative and no-signaling within ``config.TOLERANCE``, whose
value on the set's Bell inequality is |S|(1-eps)/(|S| - eps*dim) > 1.  That
table is the one float correlation table in the package; boxes
(:class:`gynibell.core.Box`) are exact.

eps has no closed form; it is estimated by alternating (see-saw)
minimization over product states with many seeded restarts.  Each site
update replaces one local vector by the bottom eigenvector of the operator
obtained by contracting Pi with the other sites, so the objective is
nonincreasing at every step.  The starts advance in lockstep as stacked
arrays, one batched contraction and one batched ``eigh`` per site update;
each start still draws its initial state from its own child of the master
seed and stops on its own after a sweep that gains less than ``SWEEP_TOL``,
so the run is deterministic for a fixed master seed.  For weak UPBs the
relevant minimum runs over the finite set of products of the set's own
local vectors and is computed exhaustively, as the sum over members of
|<p|Psi_m>|^2, on the enumeration that :func:`gynibell.upb.is_wupb` reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import config
from .core import Scenario
from .upb import ProductVectorSet, _local_product_overlaps, bell_from_set

DEFAULT_STARTS = 200
SWEEP_TOL = 1e-12


@dataclass(frozen=True)
class HermitianOp:
    """Dense Hermitian operator on a tensor product of local spaces."""

    dims: tuple
    matrix: np.ndarray

    def __post_init__(self):
        d = 1
        for k in self.dims:
            d *= k
        if self.matrix.shape != (d, d):
            raise ValueError("matrix shape does not match the site dimensions")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > config.TOLERANCE:
            raise ValueError("matrix is not Hermitian within tolerance")

    @property
    def total_dim(self) -> int:
        return self.matrix.shape[0]


def projector_onto_span(pvs: ProductVectorSet) -> HermitianOp:
    """Pi = sum over m of |Psi_m><Psi_m| for an orthonormal product set: the
    members are built as one stack, and their Gram matrix must be diagonal
    within tolerance."""
    full = _kron_rows([
        np.reshape([vec[i] for vec in pvs.vectors], (-1, d, 1)) for i, d in enumerate(pvs.dims)
    ])[:, :, 0]
    gram = full.conj() @ full.T
    if np.any(np.abs(np.triu(gram, 1)) > config.TOLERANCE):
        raise ValueError("input vectors are not orthogonal")
    return HermitianOp(pvs.dims, full.T @ full.conj())


# ---------------------------------------------------------------------------
# see-saw minimization of <product| Pi |product>


def _kron_rows(factors) -> np.ndarray:
    """Kronecker product taken row by row over a stack: ``factors[i]`` has
    shape (S, d_i, c_i) and the result (S, prod d_i, prod c_i)."""
    out = factors[0]
    for f in factors[1:]:
        (s, d, c), (e, k) = out.shape, f.shape[1:]
        out = (out[:, :, None, :, None] * f[:, None, :, None, :]).reshape(s, d * e, c * k)
    return out


def _expectations(mat, vectors) -> np.ndarray:
    """<prod| mat |prod> for a stack of product states, ``vectors[i]`` being
    the (S, d_i) local vectors of site i."""
    full = _kron_rows([v[:, :, None] for v in vectors])[:, :, 0]
    return np.einsum("sd,sd->s", full.conj(), full @ mat.T).real


def epsilon_min(pi: HermitianOp, starts: int = DEFAULT_STARTS, seed: int = 0) -> float:
    """Smallest overlap of the operator with a fully product state, by
    multi-start see-saw; per-start seeds derive from the master seed, so the
    result is reproducible.  A heuristic: the value is an upper bound on the
    true minimum, checked elsewhere against an independent grid oracle.

    The starts advance in lockstep as one stack; a start leaves the stack,
    its value frozen, after the first sweep that gains less than
    ``SWEEP_TOL``."""
    if starts < 1:
        raise ValueError("starts must be at least 1")
    mat, dims = pi.matrix, pi.dims
    draws = []
    for ss in np.random.SeedSequence(seed).spawn(starts):
        rng = np.random.default_rng(ss)
        draws.append([rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims])
    state = [np.array(site) for site in zip(*draws)]
    state = [v / np.linalg.norm(v, axis=1, keepdims=True) for v in state]
    value = _expectations(mat, state)
    final = np.empty(starts)
    live = np.arange(starts)
    while live.size:
        before = value
        for site, d in enumerate(dims):
            factors = [v[:, :, None] for v in state]
            factors[site] = np.broadcast_to(np.eye(d), (live.size, d, d))
            k = _kron_rows(factors)
            local = k.conj().transpose(0, 2, 1) @ (mat @ k)
            evals, evecs = np.linalg.eigh((local + local.conj().transpose(0, 2, 1)) / 2)
            state[site] = evecs[:, :, 0]
            # each site update is an exact minimization over that site, so
            # the objective must not increase
            if np.any(evals[:, 0] > value + 1e-9):
                raise RuntimeError("see-saw objective increased")
            value = evals[:, 0]
        done = before - value < SWEEP_TOL
        final[live[done]] = value[done]
        live, value = live[~done], value[~done]
        state = [v[~done] for v in state]
    return float(final.min())


def epsilon_min_restricted(pvs: ProductVectorSet) -> float:
    """Minimum of <p| Pi |p> = sum over m of |<p|Psi_m>|^2, Pi the set's own
    projector, over products p of the set's own local vectors (the weak-UPB
    variant of eps); exhaustive, hence exact up to rounding."""
    return float(min(
        np.sum(np.abs(overlap) ** 2, axis=1).min() for overlap in _local_product_overlaps(pvs)
    ))


# ---------------------------------------------------------------------------
# witness and state


@dataclass(frozen=True)
class WitnessReport:
    epsilon: float
    witness: HermitianOp
    state: HermitianOp
    trace_W_rho: float
    bell_value: float

    def to_json(self) -> dict:
        return {
            "epsilon": float(f"{self.epsilon:.12g}"),
            "trace_W_rho": float(f"{self.trace_W_rho:.12g}"),
            "bell_value": float(f"{self.bell_value:.12g}"),
            "dims": list(self.witness.dims),
        }


def witness_and_state(pvs: ProductVectorSet, eps: float) -> WitnessReport:
    """W = (Pi - eps*1)/(|S| - eps*dim) and rho = (1 - Pi)/(dim - |S|).

    Also evaluates tr(W rho) and the value the measured witness table gives
    to the set's own Bell inequality, a float sum of coefficient * entry.  A
    negative table entry <b|W|b> proves eps above <b|Pi|b> and raises."""
    size = len(pvs)
    pi = projector_onto_span(pvs)
    d = pi.total_dim
    if not 0 < eps < size / d:
        raise ValueError(f"eps must lie in (0, {size}/{d})")
    if size >= d:
        raise ValueError("set must span a proper subspace")
    eye = np.eye(d)
    w_mat = (pi.matrix - eps * eye) / (size - eps * d)
    rho_mat = (eye - pi.matrix) / (d - size)
    witness = HermitianOp(pvs.dims, w_mat)
    state = HermitianOp(pvs.dims, rho_mat)
    trace_w_rho = float(np.real(np.trace(w_mat @ rho_mat)))
    table, scen = _measured_table(witness, pvs)
    # an entry <b|W|b> < 0 means <b|Pi|b> < eps for that product state b
    if np.min(table) < -config.TOLERANCE:
        raise ValueError(
            f"eps = {eps:.6g} exceeds the overlap of a measured product state with "
            "span(S): the see-saw missed the minimum; run it with more --starts"
        )
    _check_table(table, scen)
    expr = bell_from_set(pvs)
    if table.shape != (expr.scenario.n_inputs, expr.scenario.n_outputs):
        raise ValueError("measured table and the set's inequality differ in scenario")
    value = float(sum(float(c) * table[x, a] for (x, a), c in expr.coeffs.items()))
    return WitnessReport(eps, witness, state, trace_w_rho, value)


# ---------------------------------------------------------------------------
# partial transpose / PPT


def partial_transpose(op: HermitianOp, sites) -> HermitianOp:
    """Transpose the chosen sites; an involution per site subset."""
    n = len(op.dims)
    sites = sorted(set(sites))
    if any(not 0 <= s < n for s in sites):
        raise ValueError("site index out of range")
    t = op.matrix.reshape(*op.dims, *op.dims)
    axes = list(range(2 * n))
    for s in sites:
        axes[s], axes[n + s] = axes[n + s], axes[s]
    t = np.transpose(t, axes)
    d = op.total_dim
    return HermitianOp(op.dims, t.reshape(d, d))


def is_ppt(state: HermitianOp) -> bool:
    """True iff every bipartition's partial transpose is positive
    semidefinite within tolerance."""
    eps = config.TOLERANCE
    n = len(state.dims)
    for r in range(1, 2 ** (n - 1)):
        sites = [s for s in range(n) if (r >> s) & 1]
        pt = partial_transpose(state, sites)
        evals = np.linalg.eigvalsh(pt.matrix)
        if evals[0] < -eps:
            return False
    return True


# ---------------------------------------------------------------------------
# measuring an operator along the set's local bases


def _complete_basis(vectors) -> np.ndarray:
    """A unitary whose first columns are the given mutually orthogonal unit
    vectors, each up to a phase (a complete QR factorization)."""
    q, _ = np.linalg.qr(np.column_stack(vectors), mode="complete")
    return q


def measure_operator(op: HermitianOp, pvs: ProductVectorSet) -> np.ndarray:
    """The float table P[x_idx, a_idx] = tr(op . tensor of |b_{x_i,a_i}><b_{x_i,a_i}|),
    where setting x_i selects site i's subset completed to a full basis and
    indices are mixed-radix over (subsets per site) and ``pvs.dims``, as in
    :class:`gynibell.core.Scenario`.

    Each setting's product basis U_x is built once, as a Kronecker product
    of the per-site bases; row x is the real diagonal of U_x^dagger op U_x.
    For any unit-trace Hermitian op the rows sum to 1 and the table is
    no-signaling; nonnegativity needs op to be nonnegative on product
    states.  Rows off 1 or entries below zero by more than
    ``config.TOLERANCE`` raise ValueError, a signaling table RuntimeError."""
    table, scen = _measured_table(op, pvs)
    _check_table(table, scen)
    return table


def _measured_table(op: HermitianOp, pvs: ProductVectorSet) -> tuple[np.ndarray, Scenario]:
    """The table of :func:`measure_operator`, unchecked, and its scenario."""
    if pvs.local_subsets is None:
        raise ValueError("set carries no local subset structure")
    site_bases = [
        [_complete_basis([local[k] for k in subset]) for subset in subsets]
        for subsets, local in zip(pvs.local_subsets, pvs.local_sets)
    ]
    scen = Scenario(tuple(len(b) for b in site_bases), tuple(pvs.dims))
    table = np.empty((scen.n_inputs, scen.n_outputs))
    for x_idx, xs in enumerate(scen.input_tuples()):
        u = functools.reduce(np.kron, [site_bases[i][x] for i, x in enumerate(xs)])
        table[x_idx] = np.einsum("ij,ij->j", u.conj(), op.matrix @ u).real
    return table, scen


def _check_table(table: np.ndarray, scen: Scenario) -> None:
    """Normalization, nonnegativity and no-signaling, within tolerance."""
    eps = config.TOLERANCE
    if np.max(np.abs(table.sum(axis=1) - 1.0)) > eps:
        raise ValueError("measured table rows do not sum to 1 within tolerance")
    if np.min(table) < -eps:
        raise ValueError("measured table has a negative entry beyond tolerance")
    n = scen.parties
    t = table.reshape(scen.inputs + scen.outputs)
    for p in range(n):
        # party p's outcome summed out; it must not depend on party p's input
        marginal = t.sum(axis=n + p)
        if np.max(np.abs(marginal - marginal.take([0], axis=p))) > eps:
            raise RuntimeError("measured table failed the no-signaling check")
