import functools
import itertools

import numpy as np
import pytest

import gynibell as gb
from gynibell import upb, witness
from gynibell.upb import basis_ket
from gynibell.witness import HermitianOp
from grid_oracle import float_nonsignaling


@pytest.fixture(scope="module")
def shifts_set():
    return upb.shifts()


@pytest.fixture(scope="module")
def shifts_pi(shifts_set):
    return gb.projector_onto_span(shifts_set)


@pytest.fixture(scope="module")
def shifts_eps(shifts_pi):
    return gb.epsilon_min(shifts_pi, starts=200, seed=0)


@pytest.fixture(scope="module")
def shifts_report(shifts_set, shifts_eps):
    return gb.witness_and_state(shifts_set, shifts_eps)


# ---------------------------------------------------------------------------
# projectors


def test_projector_single_vector():
    z = basis_ket(2, 0)
    pvs = upb.build_local_subsets([(z, z, z)], (2, 2, 2))
    pi = gb.projector_onto_span(pvs)
    assert abs(np.trace(pi.matrix) - 1) < 1e-12
    assert np.allclose(pi.matrix @ pi.matrix, pi.matrix, atol=1e-12)


def test_projector_shifts_idempotent(shifts_pi):
    assert abs(np.trace(shifts_pi.matrix) - 4) < 1e-8
    assert np.max(np.abs(shifts_pi.matrix @ shifts_pi.matrix - shifts_pi.matrix)) < 1e-8


def test_projector_full_basis_is_identity():
    z0, z1 = basis_ket(2, 0), basis_ket(2, 1)
    pvs = upb.build_local_subsets(
        [(z0, z0), (z0, z1), (z1, z0), (z1, z1)], (2, 2)
    )
    pi = gb.projector_onto_span(pvs)
    assert np.allclose(pi.matrix, np.eye(4), atol=1e-12)


def test_projector_rejects_non_orthogonal():
    z = basis_ket(2, 0)
    e, _ = upb.hadamard_pair()
    pvs = upb.build_local_subsets([(z, z)], (2, 2))
    bad = upb.ProductVectorSet(
        (2, 2),
        ((z, z), (e, z)),
        pvs.local_sets,
        pvs.local_subsets,
        ((0, 0), (0, 0)),
    )
    with pytest.raises(ValueError):
        gb.projector_onto_span(bad)


# ---------------------------------------------------------------------------
# see-saw minimum


def test_epsilon_identity_operator():
    op = HermitianOp((2, 2), np.eye(4, dtype=complex))
    assert abs(gb.epsilon_min(op, starts=5, seed=1) - 1.0) < 1e-9


def test_epsilon_rank_one_projector():
    z = basis_ket(2, 0)
    pvs = upb.build_local_subsets([(z, z, z)], (2, 2, 2))
    pi = gb.projector_onto_span(pvs)
    assert gb.epsilon_min(pi, starts=20, seed=1) < 1e-10


def test_epsilon_shifts_in_open_interval(shifts_eps):
    assert 0 < shifts_eps < 0.5


def test_epsilon_upper_bounds_random_product_states(shifts_pi, shifts_eps):
    rng = np.random.default_rng(999)
    mat = shifts_pi.matrix
    for _ in range(1000):
        state = []
        for d in shifts_pi.dims:
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            state.append(v / np.linalg.norm(v))
        full = np.array([1.0 + 0j])
        for v in state:
            full = np.kron(full, v)
        assert shifts_eps <= np.real(np.vdot(full, mat @ full)) + 1e-9


def test_epsilon_deterministic(shifts_pi, shifts_eps):
    again = gb.epsilon_min(shifts_pi, starts=200, seed=0)
    assert again == shifts_eps


def _random_hermitian(dims, seed):
    d = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianOp(tuple(dims), (a + a.conj().T) / 2)


def _projector(pvs):
    full = np.array([functools.reduce(np.kron, vec) for vec in pvs.vectors])
    return HermitianOp(pvs.dims, full.T @ full.conj())


_OPERATORS = {
    "shifts": lambda: _projector(upb.shifts()),
    "genshifts-2": lambda: _projector(upb.gen_shifts(2)),
    "random-232": lambda: _random_hermitian((2, 3, 2), 5),
    "random-33": lambda: _random_hermitian((3, 3), 6),
}


@functools.lru_cache(maxsize=None)
def _oracle_seesaw(name, seed):
    """(value, sweeps) of each of 200 see-saw starts, one at a time: random
    unit vectors drawn site by site from the start's own generator, then
    sweeps of bottom-eigenvector site updates, contracting the other sites
    with ``tensordot``, until a sweep gains less than 1e-12."""
    op = _OPERATORS[name]()
    dims, n = op.dims, len(op.dims)
    tensor = op.matrix.reshape(*dims, *dims)
    runs = []
    for ss in np.random.SeedSequence(seed).spawn(200):
        rng = np.random.default_rng(ss)
        state = []
        for d in dims:
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            state.append(v / np.linalg.norm(v))
        full = np.array([1.0 + 0j])
        for v in state:
            full = np.kron(full, v)
        value = float(np.real(np.vdot(full, op.matrix @ full)))
        sweeps = 0
        while True:
            before, sweeps = value, sweeps + 1
            for site in range(n):
                t = tensor
                for p in range(n - 1, -1, -1):
                    if p != site:
                        t = np.tensordot(t, state[p], axes=([n + p], [0]))
                for p in range(n - 1, -1, -1):
                    if p != site:
                        t = np.tensordot(t, state[p].conj(), axes=([p], [0]))
                evals, evecs = np.linalg.eigh((t + t.conj().T) / 2)
                state[site] = evecs[:, 0]
                value = float(evals[0])
            if before - value < 1e-12:
                break
        runs.append((value, sweeps))
    return tuple(runs)


@pytest.mark.parametrize("name", sorted(_OPERATORS))
def test_epsilon_matches_one_start_at_a_time_oracle(name):
    op = _OPERATORS[name]()
    for seed in (0, 1, 7):
        # the first k children of spawn(200) are the children of spawn(k)
        values = [value for value, _ in _oracle_seesaw(name, seed)]
        for starts in (1, 7, 200):
            eps = gb.epsilon_min(op, starts=starts, seed=seed)
            assert abs(eps - min(values[:starts])) < 1e-12


@pytest.mark.parametrize("name", ["shifts", "genshifts-2"])
def test_converged_starts_leave_the_stack(monkeypatch, name):
    # a start is updated in exactly the sweeps the oracle runs it for
    sweeps = [k for _, k in _oracle_seesaw(name, 0)]
    op = _OPERATORS[name]()
    eigh, sizes = np.linalg.eigh, []

    def counting(a):
        sizes.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    gb.epsilon_min(op, starts=200, seed=0)
    expected = [sum(k > j for k in sweeps) for j in range(max(sweeps))]
    assert sizes == [size for size in expected for _ in op.dims]


def test_seesaw_rejects_an_increasing_update(monkeypatch, shifts_pi):
    eigh = np.linalg.eigh

    def top_first(a):
        evals, evecs = eigh(a)
        return evals[..., ::-1], evecs[..., ::-1]

    monkeypatch.setattr(np.linalg, "eigh", top_first)
    with pytest.raises(RuntimeError, match="see-saw objective increased"):
        gb.epsilon_min(shifts_pi, starts=7, seed=0)


# ---------------------------------------------------------------------------
# witness and state


def test_witness_report_identities(shifts_report, shifts_eps):
    eps = shifts_eps
    # tr(W rho) = -eps / (|S| - eps dim); the unnormalized complement form
    # (dim - |S|) tr(W rho) equals -eps/(1 - 2 eps) for the 4-of-8 case
    assert abs(shifts_report.trace_W_rho - (-eps / (4 - 8 * eps))) < 1e-9
    assert shifts_report.trace_W_rho < 0
    assert abs(4 * shifts_report.trace_W_rho - (-eps / (1 - 2 * eps))) < 1e-6
    beta = (1 - eps) / (1 - 2 * eps)
    assert abs(shifts_report.bell_value - beta) < 1e-6
    assert shifts_report.bell_value > 1 + 1e-6


def test_state_is_unit_trace_psd_and_kills_span(shifts_report, shifts_set):
    rho = shifts_report.state.matrix
    assert abs(np.trace(rho) - 1) < 1e-9
    assert np.linalg.eigvalsh(rho)[0] > -1e-9
    for m in range(len(shifts_set)):
        psi = functools.reduce(np.kron, shifts_set.vectors[m])
        assert abs(np.vdot(psi, rho @ psi)) < 1e-9


def test_witness_eps_range_validated(shifts_set):
    with pytest.raises(ValueError):
        gb.witness_and_state(shifts_set, 0.0)
    with pytest.raises(ValueError):
        gb.witness_and_state(shifts_set, 0.6)


def test_witness_names_an_eps_above_the_product_minimum():
    """eps = 1e-4 lies inside (0, |S|/dim) but above the gen_shifts(3)
    minimum (about 1.35e-6), so a measured product state b has <b|W|b> < 0."""
    with pytest.raises(ValueError, match=r"eps = 0\.0001 .*see-saw missed the minimum.*--starts"):
        gb.witness_and_state(upb.gen_shifts(3), 1e-4)


# ---------------------------------------------------------------------------
# partial transpose / PPT


def test_partial_transpose_involution(shifts_report):
    w = shifts_report.witness
    assert np.allclose(
        gb.partial_transpose(gb.partial_transpose(w, [1]), [1]).matrix, w.matrix
    )


def test_shifts_state_is_ppt(shifts_report):
    assert gb.is_ppt(shifts_report.state)


def test_maximally_entangled_projector_not_ppt():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    op = HermitianOp((2, 2), np.outer(psi, psi.conj()))
    assert not gb.is_ppt(op)
    pt = gb.partial_transpose(op, [1])
    assert abs(np.linalg.eigvalsh(pt.matrix)[0] + 0.5) < 1e-12


# ---------------------------------------------------------------------------
# measurement boxes


def _random_density_matrix(seed, d=8):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_measured_witness_box_ns_and_normalized(shifts_report, shifts_set):
    table = gb.measure_operator(shifts_report.witness, shifts_set)
    scen = gb.bell_from_set(shifts_set).scenario
    assert table.shape == (scen.n_inputs, scen.n_outputs)
    assert np.allclose(table.sum(axis=1), 1.0, atol=1e-9)
    assert table.min() >= -1e-9
    assert float_nonsignaling(table, scen.inputs, scen.outputs)


def test_measured_density_matrix_respects_quantum_bound(shifts_set):
    op = HermitianOp((2, 2, 2), _random_density_matrix(4))
    table = gb.measure_operator(op, shifts_set)
    e = gb.bell_from_set(shifts_set)
    assert float_nonsignaling(table, e.scenario.inputs, e.scenario.outputs)
    value = sum(float(c) * table[x, a] for (x, a), c in e.coeffs.items())
    assert value <= 1 + 1e-9


def test_measure_operator_rejects_unnormalized_operator(shifts_set):
    op = HermitianOp((2, 2, 2), 2 * _random_density_matrix(4))
    with pytest.raises(ValueError, match="sum to 1"):
        gb.measure_operator(op, shifts_set)


def test_witness_is_non_psd_unit_trace_yet_measures_to_valid_box(shifts_report):
    # the witness is a genuinely non-positive unit-trace Hermitian, so its
    # measured box exercising normalization and no-signaling is not a
    # density-matrix special case
    w = shifts_report.witness.matrix
    assert abs(np.trace(w).real - 1) < 1e-9
    assert np.linalg.eigvalsh(w)[0] < -1e-6
    arr = gb.measure_operator(shifts_report.witness, upb.shifts())
    assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-9)


def test_wupb_witness_value_formula():
    w = upb.wupb_example()
    eps = gb.epsilon_min_restricted(w)
    assert 0 < eps < 0.5
    report = gb.witness_and_state(w, eps)
    expect = 6 * (1 - eps) / (6 - 12 * eps)
    assert abs(report.bell_value - expect) < 1e-6
    assert report.bell_value > 1
    assert gb.is_ppt(report.state)


def _restricted_oracle(pvs):
    """The brute-force restricted eps: every product of the set's own local
    vectors, built in full, against the projector."""
    state = [np.array(site) for site in zip(*itertools.product(*pvs.local_sets))]
    return float(witness._expectations(_projector(pvs).matrix, state).min())


@pytest.mark.parametrize(
    "make", [upb.wupb_example, upb.shifts, lambda: upb.gen_shifts(2)],
    ids=["wupb", "shifts", "genshifts-2"],
)
def test_restricted_eps_matches_brute_force(make):
    pvs = make()
    assert abs(gb.epsilon_min_restricted(pvs) - _restricted_oracle(pvs)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_complete_basis_extends_the_given_vectors(d):
    rng = np.random.default_rng(d)
    cols, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    for k in range(1, d + 1):
        u = witness._complete_basis(list(cols.T[:k]))
        assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-12)
        assert np.allclose(np.abs(np.einsum("ij,ij->j", cols[:, :k].conj(), u[:, :k])), 1,
                           atol=1e-12)
