"""A bound-entangled state and the witness that measures a super-quantum box.

The normalized projector onto the complement of the Shifts span is PPT
across every bipartition yet entangled; the witness (Pi - eps)/(4 - 8 eps)
detects it.  Measured along the set's own local bases, the witness produces
a no-signaling table of floats whose guessing-inequality value is
(1-eps)/(1-2 eps) > 1, strictly beyond anything quantum states allow.
"""

import numpy as np

import gynibell as gb
from gynibell import upb

sh = upb.shifts()
pi = gb.projector_onto_span(sh)

eps = gb.epsilon_min(pi, starts=200, seed=0)
print(f"smallest product-state overlap eps = {eps:.9f}  (0 < eps < 1/2)")

report = gb.witness_and_state(sh, eps)
print(f"tr(W rho) = {report.trace_W_rho:.9f}  (< 0: entanglement detected)")
print(f"rho is PPT across all bipartitions: {gb.is_ppt(report.state)}")
print(f"rho eigenvalue floor: {np.linalg.eigvalsh(report.state.matrix)[0]:+.2e}")

beta = (1 - eps) / (1 - 2 * eps)
print(f"\nmeasured box value on the guessing inequality: {report.bell_value:.9f}")
print(f"closed form (1-eps)/(1-2 eps)               : {beta:.9f}")

# the measured table P[x, a]: 8 joint settings x 8 joint outcomes; summing
# out one party's outcome must give the same marginal for both its settings
table = gb.measure_operator(report.witness, sh).reshape((2,) * 6)
no_signaling = all(
    np.allclose(table.sum(axis=3 + p), table.sum(axis=3 + p).take([0], axis=p))
    for p in range(3)
)
print(f"measured box is no-signaling: {no_signaling}")

print("\nany actual quantum state stays within the bound:")
rng = np.random.default_rng(1)
a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
rho = a @ a.conj().T
rho /= np.trace(rho).real
state_table = gb.measure_operator(gb.HermitianOp((2, 2, 2), rho), sh)
value = sum(float(c) * state_table[x, a] for (x, a), c in gb.bell_from_set(sh).coeffs.items())
print(f"  random density matrix gives {value:.6f} <= 1")
