"""Self-testing: the maximal violation pins down the realization.

Hide the canonical realization inside a larger space, scramble it with a
random unitary, and hand it to the certifier. The four-generator subspace,
the projected operator algebra, and the alignment unitary recover the
two-qubit maximally entangled state and the six reference Pauli strings,
up to machine precision.
"""

import numpy as np

from tempcert import canonical_scenario, certify
from tempcert.scenario import (
    Observable,
    PureState,
    Scenario,
    conjugate_scenario,
    random_involution,
    random_unitary,
)

rng = np.random.Generator(np.random.PCG64(2))
base = canonical_scenario()

# Embed in dimension 12: canonical block plus random junk the state never sees.
dim = 12
obs = []
for o in base.observables:
    m = np.zeros((dim, dim), dtype=complex)
    m[:4, :4] = o.matrix
    m[4:, 4:] = random_involution(dim - 4, rng).matrix
    obs.append(Observable(m))
amps = np.zeros(dim, dtype=complex)
amps[:4] = base.state.amplitudes
hidden = conjugate_scenario(Scenario(PureState(amps), obs), random_unitary(dim, rng))

print(f"scrambled realization in dimension {hidden.dim}")
report = certify(hidden)
print(f"violation: {report.violation.value:.12f} "
      f"(deficit {report.violation.deficit:.2e})")
print(f"Gram spectrum of the subspace generators: "
      f"{np.round(np.linalg.eigvalsh(report.gram), 12)}")
# the projector onto V is B B†, whose trace, its rank, is tr(B† B): no d x d matrix needed
basis = report.subspace_basis
print(f"projector rank: {np.trace(basis.conj().T @ basis).real:.6f}")
print(f"max leakage out of the invariant subspace: {max(report.leakage):.2e}")
print(f"max commutator residual on V:     {max(report.commutator_residuals.values()):.2e}")
print(f"max anticommutator residual on V: {max(report.anticommutator_residuals.values()):.2e}")
print(f"residual signs before fixing: {report.sign3:+.0f}, {report.sign6:+.0f}")
print(f"max distance of aligned observables from the reference strings: "
      f"{report.max_operator_distance:.2e}")
print(f"extracted state: {np.round(report.extracted_state.amplitudes, 9)}")
print(f"fidelity with (|00> + |11>)/sqrt(2): {report.fidelity:.15f}")
print(f"fidelity witness (stabilizer form):  {report.fidelity_witness:.15f}")
