import dataclasses
import importlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from tempcert import linalg
from tempcert.certify import (
    PHI_PLUS,
    TARGET_MATRICES,
    algebra_residuals,
    align,
    build_subspace,
    certify,
    extract,
)
from tempcert.errors import (
    AnticommutatorTooLarge,
    FactorizationFailure,
    ShapeMismatch,
    SubspaceDegenerate,
    TempcertError,
    ZeroEigenvalue,
)
from tempcert.inequality import eval_INC
from tempcert.robustness import Depolarizing, ObservableTilt, UnitaryJitter, apply_noise, sweep
from tempcert.scenario import (
    CANONICAL_MATRICES,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Observable,
    PureState,
    Scenario,
    canonical_scenario,
    conjugate_scenario,
    purify_scenario,
    random_hermitian,
    random_unitary,
    round_to_involutions,
)

from conftest import CONSTRUCTORS, conjugated_embedding, rng_from

certify_module = importlib.import_module("tempcert.certify")


class TestBuildSubspace:
    def test_canonical_gram_is_identity(self, canonical):
        basis, gram = build_subspace(
            canonical.state, canonical.observable(1), canonical.observable(5)
        )
        assert linalg.op_norm(gram - np.eye(4)) <= 1e-14
        assert linalg.op_norm(basis @ basis.conj().T - np.eye(4)) <= 1e-12
        assert linalg.op_norm(basis.conj().T @ basis - np.eye(4)) <= 1e-12

    def test_projector_property(self):
        # the projector onto V is formed here from the basis; certify never forms it
        rng = rng_from(50)
        s = conjugated_embedding(canonical_scenario(), 8, rng)
        basis, _ = build_subspace(s.state, s.observable(1), s.observable(5))
        p = basis @ basis.conj().T
        assert linalg.op_norm(p @ p - p) <= 1e-10
        assert abs(np.trace(p).real - 4) <= 1e-10

    def test_product_state_degenerate(self, canonical):
        # A5 |00> = |00>, so the four generators only span two dimensions
        s = canonical.with_state(PureState([1, 0, 0, 0]))
        with pytest.raises(SubspaceDegenerate):
            build_subspace(s.state, s.observable(1), s.observable(5))

    def test_a_scenario_brings_its_own_checked_operands(self, canonical, monkeypatch):
        # build_subspace(s) reads the scenario's state and stack, checked when it was
        # built, with no require_operands, and gives the bits of the checked call
        for s in (canonical, apply_noise(conjugated_embedding(canonical, 8, rng_from(51)),
                                         Depolarizing(0.01))):
            ref = build_subspace(s.state, s.observable(1), s.observable(5))
            calls = []
            monkeypatch.setattr(certify_module, "require_operands", lambda *a: calls.append(a))
            got = build_subspace(s)
            monkeypatch.undo()
            assert calls == [] and [x.tobytes() for x in got] == [x.tobytes() for x in ref]

    def test_raw_operands_are_checked(self, canonical):
        # a raw vector or density matrix is refused as Scenario refuses it, not
        # left to fail on a missing attribute, and a raw matrix as every route
        # refuses it (test_scenario.py); an Observable of another dimension is
        # refused before any product is formed
        a1, a5 = canonical.observable(1), canonical.observable(5)
        for raw in (canonical.state.amplitudes, canonical.density()):
            with pytest.raises(TypeError, match="PureState or DensityMatrix"):
                build_subspace(raw, a1, a5)
        for pair in ((Observable(np.eye(2)), a5), (a1, Observable(np.eye(2)))):
            with pytest.raises(ShapeMismatch, match="has dimension 2, expected 4"):
                build_subspace(canonical.state, *pair)


class TestAlgebraResiduals:
    def test_canonical_all_vanish(self, canonical):
        basis, _ = build_subspace(
            canonical.state, canonical.observable(1), canonical.observable(5)
        )
        comm, acomm, constraints = algebra_residuals(canonical, basis)
        assert len(comm) == 9 and max(comm.values()) <= 1e-14
        assert len(acomm) == 6 and max(acomm.values()) <= 1e-14
        assert len(constraints) == 18 and max(constraints.values()) <= 1e-14

    def test_a3a6_constraint_named_and_zero(self, canonical):
        basis, _ = build_subspace(
            canonical.state, canonical.observable(1), canonical.observable(5)
        )
        _, _, constraints = algebra_residuals(canonical, basis)
        assert constraints["A3A6+1"] <= 1e-14
        assert constraints["A1A2A3-1"] <= 1e-14

    def test_depolarized_anticommutators_within_robustness_bound(self, canonical):
        # p = 0.01 gives deficit 0.03; on-state anticommutator norms <= 14 sqrt(eps)
        noisy = purify_scenario(apply_noise(canonical, Depolarizing(0.01)))
        psi = noisy.state.amplitudes
        mats = noisy.matrices()
        eps = 0.03
        for i, j in ((1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 5)):
            norm = float(np.linalg.norm(linalg.acomm(mats[i - 1], mats[j - 1]) @ psi))
            assert norm <= 14 * np.sqrt(eps)

    @pytest.mark.parametrize("shape", [(4, 3), (16, 4), (4,)])
    def test_basis_shape_checked(self, canonical, shape):
        # the canonical factor is 4 x 1, so only a (4, 4) basis fits
        with pytest.raises(ShapeMismatch, match=r"is not \(4, 4\)"):
            algebra_residuals(canonical, np.zeros(shape, dtype=complex))

    def test_mixed_equals_its_purification(self):
        # each scenario with its own build_subspace basis: the mixed one on its
        # factor, laid out as the purified vector, the purified one on the lift
        mixed = apply_noise(canonical_scenario(), Depolarizing(0.05))
        for s in (mixed, conjugate_scenario(mixed, random_unitary(4, rng_from(52)))):
            pure = purify_scenario(s)
            basis, _ = build_subspace(s.state, s.observable(1), s.observable(5))
            lifted, _ = build_subspace(pure.state, pure.observable(1), pure.observable(5))
            assert basis.shape == (16, 4)
            assert algebra_residuals(s, basis) == algebra_residuals(pure, lifted)


def reference_align(projected_observables, psi_v):
    """The five-eigensolve alignment `align` replaced: the slot-5 +1 eigenspace
    and M's eigenvectors from fresh eigensolves of the rounded operators, and
    the eigenspace basis ordered by its overlaps with the extracted state."""
    raw = [linalg.as_matrix(m) for m in projected_observables]
    if len(raw) != 6 or any(m.shape != (4, 4) for m in raw):
        raise ShapeMismatch("align expects six 4x4 projected observables")
    raw = np.array(raw)
    try:
        rounded = round_to_involutions(linalg.hermitian_part(raw))[0]
    except ZeroEigenvalue as exc:
        raise AnticommutatorTooLarge(
            f"projected observable cannot be rounded to an involution: {exc}") from exc
    a1r, a5r = rounded[0], rounded[4]
    ac15 = linalg.op_norm(linalg.acomm(a1r, a5r))
    if ac15 > 0.5:
        raise AnticommutatorTooLarge(f"||{{A1, A5}}|| = {ac15:.3f} after rounding exceeds 0.5")
    w5, v5 = linalg.eig_hermitian(a5r)
    plus = v5[:, w5 > 0]
    if plus.shape[1] != 2:
        raise AnticommutatorTooLarge(
            f"slot-5 +1 eigenspace has dimension {plus.shape[1]}, expected 2")
    e = plus[:, np.argsort(-np.abs(plus.conj().T @ psi_v), kind="stable")]
    w0 = np.column_stack([e, a1r @ e])
    w = w0 @ linalg.inv_sqrt_psd(linalg.hermitian_part(w0.conj().T @ w0))
    frame2, frame4 = w.conj().T @ rounded[[1, 3]] @ w
    m_op = linalg.hermitian_part((frame2[:2, :2] + frame2[2:, 2:]) / 2)
    o_op = linalg.hermitian_part((frame4[:2, :2] + frame4[2:, 2:]) / 2)
    try:
        m_r, o_r = round_to_involutions(np.array([m_op, o_op]))[0]
    except ZeroEigenvalue as exc:
        raise FactorizationFailure(
            f"second-factor operator has no involution rounding: {exc}") from exc
    if np.any(linalg.op_norms([m_op - m_r, o_op - o_r, linalg.acomm(m_r, o_r)]) > 0.5):
        raise FactorizationFailure(
            "second-factor operators are not close to anticommuting involutions")
    _, vm = linalg.eig_hermitian(m_r)
    m_plus, m_minus = vm[:, 0], vm[:, 1]
    c = complex(m_plus.conj() @ (o_r @ m_minus))
    if abs(c) < 0.5:
        raise FactorizationFailure(
            f"slot-4 second-factor off-diagonal element {abs(c):.3f} too small")
    u2 = np.column_stack([m_plus, m_minus * (c.conjugate() / abs(c))])
    unitary = np.kron(np.eye(2), u2).conj().T @ w.conj().T
    pivot = complex(unitary.flat[np.argmax(np.abs(unitary) > 1e-12)])
    unitary = unitary * (pivot.conjugate() / abs(pivot))
    aligned = unitary @ raw @ unitary.conj().T
    return unitary, aligned, linalg.op_norms(aligned - TARGET_MATRICES)


def _projected(s):
    basis, _ = build_subspace(s.state, s.observable(1), s.observable(5))
    projected = [basis.conj().T @ m @ basis for m in s.matrices()]
    psi_v = basis.conj().T @ s.state.amplitudes
    return projected, psi_v / float(np.linalg.norm(psi_v))


def _noise_rows():
    """Jitter, tilt and depolarizing rows at d = 4 from near the canonical point
    to past where certify refuses, jitter on a conjugated d = 16 embedding, and
    large tilts of slots 2 and 4, which the second-factor checks refuse at 0.5."""
    base = canonical_scenario()
    big = conjugated_embedding(base, 16, rng_from(57))
    rows = []
    for k, x in enumerate(np.geomspace(1e-4, 0.6, 12)):
        rows.append(apply_noise(base, UnitaryJitter(x, rng_seed=k)))
        rows.append(apply_noise(base, ObservableTilt(k % 6 + 1, x)))
        rows.append(apply_noise(big, UnitaryJitter(x / 2, rng_seed=100 + k)))
    for p in np.geomspace(1e-6, 0.3, 6):
        rows.append(apply_noise(base, Depolarizing(p)))
    for slot, angle in itertools.product((2, 4), (0.5, 1.5)):
        rows.append(apply_noise(base, ObservableTilt(slot, angle)))
    return [purify_scenario(s) for s in rows]


NOISE_ROWS = _noise_rows()


class TestAlign:
    def test_canonical(self, canonical):
        projected, psi_v = _projected(canonical)
        res = align(projected)
        assert max(res.distances) <= 1e-12
        assert res.sign3 == 1.0 and res.sign6 == 1.0
        assert linalg.op_norm(res.unitary @ res.unitary.conj().T - np.eye(4)) <= 1e-12

    def test_conjugation_covariance(self, canonical):
        rng = rng_from(51)
        for _ in range(5):
            s = conjugate_scenario(canonical, random_unitary(4, rng))
            projected, psi_v = _projected(s)
            res = align(projected)
            assert max(res.distances) <= 1e-9
            extracted = res.unitary @ psi_v
            assert abs(abs(PHI_PLUS.conj() @ extracted) ** 2 - 1.0) <= 1e-10

    def test_covariance_under_a_frame_change(self):
        # conjugating the inputs by W gives U' with U' W = U up to one global
        # phase: no basis choice inside align reaches the result
        rng = rng_from(52)
        for k in range(10):
            s = apply_noise(canonical_scenario(), UnitaryJitter(0.05, rng_seed=k))
            projected, psi_v = _projected(s)
            w = random_unitary(4, rng)
            base = align(projected)
            alt = align([w @ m @ w.conj().T for m in projected])
            moved = alt.unitary @ w
            phase = np.vdot(moved, base.unitary)
            phase /= abs(phase)
            assert np.max(np.abs(moved * phase - base.unitary)) <= 1e-12
            assert np.max(np.abs(np.subtract(alt.distances, base.distances))) <= 1e-12
            f0 = abs(PHI_PLUS.conj() @ (base.unitary @ psi_v)) ** 2
            f1 = abs(PHI_PLUS.conj() @ (alt.unitary @ (w @ psi_v))) ** 2
            assert abs(f0 - f1) <= 1e-12

    @pytest.mark.parametrize("k", range(len(NOISE_ROWS)))
    def test_matches_the_five_eigensolve_reference(self, k):
        projected, psi_v = _projected(NOISE_ROWS[k])
        try:
            u, aligned, distances = reference_align(projected, psi_v)
        except TempcertError as exc:
            with pytest.raises(type(exc)) as raised:
                align(projected)
            assert str(raised.value) == str(exc)
            return
        res = align(projected)
        phase = np.vdot(res.unitary, u)
        phase /= abs(phase)
        assert np.max(np.abs(res.unitary * phase - u)) <= 1e-13
        assert np.max(np.abs(np.array(res.aligned_observables) - aligned)) <= 1e-13
        assert np.max(np.abs(np.subtract(res.distances, distances))) <= 1e-13

    def test_reference_rows_include_both_refusals(self):
        refusals = []
        for s in NOISE_ROWS:
            try:
                reference_align(*_projected(s))
            except TempcertError as exc:
                refusals.append(type(exc))
        assert {AnticommutatorTooLarge, FactorizationFailure} <= set(refusals)
        assert len(refusals) < len(NOISE_ROWS) / 2

    def test_unitary_phase_is_fixed(self):
        # the eigenspace bases inside align leave U's global phase free; U's
        # first entry above 1e-12 in magnitude, row-major, is made real
        # positive, so a 1e-15 Hermitian nudge of the inputs moves U by
        # rounding only (by up to 2e-2 without the convention)
        rng = rng_from(53)
        for k in range(20):
            s = apply_noise(canonical_scenario(), UnitaryJitter(0.05, rng_seed=k))
            projected, _ = _projected(s)
            u = align(projected).unitary
            nudged = [m + 1e-15 * random_hermitian(4, rng) for m in projected]
            assert np.max(np.abs(align(nudged).unitary - u)) <= 1e-12
            pivot = u.flat[np.argmax(np.abs(u) > 1e-12)]
            assert pivot.real > 0 and abs(pivot.imag) <= 1e-15

    @pytest.mark.parametrize("mats", [
        list(CANONICAL_MATRICES[:5]),
        list(CANONICAL_MATRICES) + [CANONICAL_MATRICES[0]],
        list(CANONICAL_MATRICES[:5]) + [np.eye(3)],
    ], ids=["five", "seven", "a-3x3"])
    def test_input_contract_count_and_shape(self, mats):
        with pytest.raises(ShapeMismatch, match=r"^align expects six 4x4 projected observables$"):
            align(mats)

    def test_input_contract_refuses_a_vector_entry_as_such(self):
        mats = list(CANONICAL_MATRICES)
        mats[3] = np.ones(4)
        with pytest.raises(ShapeMismatch,
                           match=r"^expected a matrix or a stack of matrices, got ndim 1$"):
            align(mats)

    def test_input_contract_refuses_a_non_finite_entry(self):
        mats = [np.array(m) for m in CANONICAL_MATRICES]
        mats[4][2, 1] = np.nan
        with pytest.raises(ValueError, match=r"^matrix contains NaN or Inf entries$"):
            align(mats)

    def test_an_array_input_is_read_without_a_copy_after_one_finiteness_test(self, monkeypatch):
        # extract's (6, 4, 4) complex stack skips the coercion; a NaN in such an
        # array still raises the coercing edge's ValueError, before any rounding
        calls = []
        original = linalg.as_matrices
        monkeypatch.setattr(linalg, "as_matrices", lambda m: calls.append(m) or original(m))
        mats = np.array(CANONICAL_MATRICES)
        assert align(mats).distances == align(list(CANONICAL_MATRICES)).distances
        assert len(calls) == 1  # the list's coercion alone
        mats[4, 2, 1] = np.nan
        with pytest.raises(ValueError, match=r"^matrix contains NaN or Inf entries$"):
            align(mats)

    def test_verdict_norms_take_an_svd_only_to_name_a_refusal(self, svd_calls):
        # the Frobenius bound settles both 0.5 verdicts on the canonical input, so
        # the distances take the one SVD; a refusal takes the norm for its message
        align(np.array(CANONICAL_MATRICES))
        assert svd_calls == [(6, 4, 4)]
        svd_calls.clear()
        with pytest.raises(AnticommutatorTooLarge, match=r"^\|\|\{A1, A5\}\|\| = 2\.000 after"):
            align([np.kron(PAULI_Z, PAULI_I)] * 6)
        assert svd_calls == [(1, 4, 4), (4, 4)]

    def test_input_contract_takes_any_iterable_of_six(self):
        # a list, a generator and a (6, 4, 4) array give the same bits
        ref = align(list(CANONICAL_MATRICES))
        for mats in ((m for m in CANONICAL_MATRICES), np.array(CANONICAL_MATRICES)):
            res = align(mats)
            assert res.unitary.tobytes() == ref.unitary.tobytes()
            assert res.distances == ref.distances

    def test_input_is_coerced_once(self, monkeypatch):
        # align's norm groups are of arrays it built from its coerced stack, so
        # they go to the SVD kernel without another as_matrices copy and NaN test
        calls = []
        original = linalg.as_matrices
        monkeypatch.setattr(linalg, "as_matrices", lambda m: calls.append(m) or original(m))
        projected, _ = _projected(apply_noise(canonical_scenario(), UnitaryJitter(0.05, rng_seed=3)))
        calls.clear()
        align(projected)
        assert len(calls) == 1

    def test_target_stack_is_a_read_only_constant(self):
        assert TARGET_MATRICES.shape == (6, 4, 4) and not TARGET_MATRICES.flags.writeable
        assert all(t.tobytes() == c.tobytes() for t, c in zip(TARGET_MATRICES, CANONICAL_MATRICES))

    def test_commuting_pair_rejected(self):
        # slots 1 and 5 both Z (x) 1: anticommutator norm 2
        mats = [np.kron(PAULI_Z, PAULI_I)] * 6
        with pytest.raises(AnticommutatorTooLarge):
            align(mats)

    def test_unroundable_projected_observable_rejected(self):
        # slot 3's zero eigenvalues leave it no rounding, though align reads
        # only the roundings of slots 1, 2, 4 and 5
        mats = list(TARGET_MATRICES)
        mats[2] = np.diag([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(AnticommutatorTooLarge, match="cannot be rounded to an involution"):
            align(mats)

    def test_unroundable_second_factor_rejected(self):
        # slot 2 as Z (x) Z reads +Z on the first factor's +1 half and -Z on
        # its -1 half: their mean M = 0 has no involution rounding
        mats = list(TARGET_MATRICES)
        mats[1] = np.kron(PAULI_Z, PAULI_Z)
        with pytest.raises(FactorizationFailure, match="has no involution rounding"):
            align(mats)

    @pytest.mark.parametrize("defect", [0.45, 0.55])
    def test_second_factor_defect_edge_at_one_half(self, defect):
        # slot 2 reads Z on the first factor's +1 half and Z turned by 2t toward Y
        # on its -1 half: M = cos(t) times an involution that anticommutes with
        # O = X, so M's rounding defect is 1 - cos(t) and the other two are 0
        t = np.arccos(1 - defect)
        mats = list(TARGET_MATRICES)
        mats[1] = np.kron(np.diag([1.0, 0.0]), PAULI_Z) + np.kron(
            np.diag([0.0, 1.0]), np.cos(2 * t) * PAULI_Z + np.sin(2 * t) * PAULI_Y)
        if defect < 0.5:
            assert max(align(mats).distances) <= 1
        else:
            with pytest.raises(FactorizationFailure, match="not close to anticommuting involutions"):
                align(mats)

    def test_factorization_failure(self):
        # slots 2 and 4 share the second-factor operator Z: {M, O} = 2
        mats = [
            np.kron(PAULI_X, PAULI_I),
            np.kron(PAULI_I, PAULI_Z),
            np.kron(PAULI_X, PAULI_Z),
            np.kron(PAULI_I, PAULI_Z),
            np.kron(PAULI_Z, PAULI_I),
            np.kron(PAULI_Z, PAULI_X),
        ]
        with pytest.raises(FactorizationFailure):
            align(mats)


class TestCertify:
    def test_canonical(self, canonical):
        report = certify(canonical)
        assert report.fidelity >= 1 - 1e-10
        assert max(report.commutator_residuals.values()) <= 1e-10
        assert max(report.anticommutator_residuals.values()) <= 1e-10
        assert max(report.constraint_residuals.values()) <= 1e-10
        assert max(report.leakage) <= 1e-10
        assert report.max_operator_distance <= 1e-10
        assert abs(report.violation.value - 5.0) <= 1e-12

    def test_embedded_and_conjugated(self, canonical):
        rng = rng_from(53)
        for dim in (4, 8, 16):
            s = conjugated_embedding(canonical, dim, rng)
            report = certify(s)
            assert report.fidelity >= 1 - 1e-9
            assert max(report.leakage) <= 1e-9
            assert report.max_operator_distance <= 1e-9

    def test_unitary_covariance(self, canonical):
        rng = rng_from(54)
        noisy = apply_noise(canonical, UnitaryJitter(1e-2, rng_seed=5))
        w = random_unitary(4, rng)
        a = certify(noisy)
        b = certify(conjugate_scenario(noisy, w))
        assert abs(a.fidelity - b.fidelity) <= 1e-9
        for key in a.commutator_residuals:
            assert abs(a.commutator_residuals[key] - b.commutator_residuals[key]) <= 1e-9
        for key in a.anticommutator_residuals:
            assert abs(a.anticommutator_residuals[key] - b.anticommutator_residuals[key]) <= 1e-9
        for da, db in zip(a.operator_distances, b.operator_distances):
            assert abs(da - db) <= 1e-9

    def test_projected_observables_traceless_at_maximum(self, canonical):
        # even-dimension signature, testable as tracelessness on V
        rng = rng_from(55)
        for dim in (4, 8):
            s = conjugated_embedding(canonical, dim, rng)
            report = certify(s)
            for m in report.projected_observables:
                assert abs(np.trace(m)) <= 1e-9

    def test_witness_equals_fidelity(self, canonical):
        rng = rng_from(56)
        for noise in (Depolarizing(0.01), UnitaryJitter(1e-2, rng_seed=8),
                      ObservableTilt(1, 0.02)):
            report = certify(apply_noise(canonical, noise))
            assert abs(report.fidelity_witness - report.fidelity) <= 1e-12
            assert report.fidelity_lower_bound <= report.fidelity + 1e-12

    def test_depolarized_fidelity_bound(self, canonical):
        # deficit stays below the recorded envelope 20 sqrt(eps)
        for p in (1e-5, 1e-4, 1e-3):
            report = certify(apply_noise(canonical, Depolarizing(p)))
            eps = report.violation.deficit
            assert 0 <= 1 - report.fidelity <= 20 * np.sqrt(eps)

    def test_tilt_fidelity_bound(self, canonical):
        for theta in (1e-3, 1e-2):
            report = certify(apply_noise(canonical, ObservableTilt(1, theta)))
            eps = report.violation.deficit
            assert 0 <= 1 - report.fidelity <= 20 * np.sqrt(eps)

    def test_extracted_state_phase_convention(self, canonical):
        report = certify(canonical)
        overlap = PHI_PLUS.conj() @ report.extracted_state.amplitudes
        assert overlap.real >= 0
        assert abs(overlap.imag) <= 1e-12

    def test_signs_recorded(self, canonical):
        report = certify(canonical)
        assert report.sign3 == 1.0 and report.sign6 == 1.0

    def test_four_eigensolves_on_a_pure_scenario(self, eigh_calls, phase_fixing_calls):
        # the Gram inverse square root, the six-observable rounding, the
        # Loewdin correction and the second-factor rounding; align reads its
        # bases from the two roundings, as eigh gives them
        noisy = apply_noise(canonical_scenario(), UnitaryJitter(0.02, rng_seed=7))
        eigh_calls.clear()
        certify(noisy)
        assert eigh_calls == [(4, 4), (6, 4, 4), (4, 4), (2, 2, 2)]
        assert phase_fixing_calls == []

    def test_norms_of_built_arrays_skip_the_coercing_edge(self, monkeypatch):
        # the residual, leakage and commutator norms are of arrays the engine built,
        # so they go to the SVD kernel without an as_matrices copy and NaN test, and
        # align reads extract's (6, 4, 4) stack after a finiteness test alone
        calls = []
        original = linalg.as_matrices
        monkeypatch.setattr(linalg, "as_matrices", lambda m: calls.append(m) or original(m))
        s = apply_noise(canonical_scenario(), UnitaryJitter(0.02, rng_seed=7))
        basis = extract(s).basis
        calls.clear()
        algebra_residuals(s, basis)
        eval_INC(s)
        assert calls == []
        extract(s)
        in_extract = len(calls)
        calls.clear()
        certify(s)
        assert len(calls) == in_extract == 0

    def test_checks_once_at_the_constructors(self, hermitian_checks):
        # every operator certify forms is Hermitian by construction and goes to
        # the unchecked kernels; only the scenario's constructors check
        s = conjugate_scenario(canonical_scenario(), random_unitary(4, rng_from(21)))
        assert hermitian_checks and set(hermitian_checks) <= CONSTRUCTORS
        hermitian_checks.clear()
        assert certify(s).max_operator_distance <= 1e-12
        assert hermitian_checks == []


class TestMemory:
    """certify keeps V as its (d c) x 4 basis: on a depolarized conjugated d = 64
    embedding, where a (d c) x (d c) complex matrix alone is 256 MiB, certify and
    a one-row sweep each peak below 32 MiB of traced allocations."""

    @staticmethod
    def peak_mib(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_depolarized_d64_embedding_certifies_in_megabytes(self):
        base = conjugated_embedding(canonical_scenario(), 64, rng_from(64))
        noisy = apply_noise(base, Depolarizing(0.01))
        reports, rows = [], []
        assert self.peak_mib(lambda: reports.append(certify(noisy))) < 32
        assert self.peak_mib(lambda: rows.extend(sweep(base, Depolarizing, [0.01]))) < 32
        assert reports[0].subspace_basis.shape == (64 * 64, 4)
        (row,) = rows
        assert not row.failed and row.bounds_all_hold
        assert row.fidelity == reports[0].fidelity


class TestReportSerialization:
    def test_json_round_trip(self, canonical, tmp_path):
        report = certify(canonical)
        doc = json.loads(report.to_json())
        expected_fields = {
            "violation", "subspace_basis", "gram",
            "projected_observables", "leakage", "commutator_residuals",
            "anticommutator_residuals", "constraint_residuals",
            "alignment_unitary", "aligned_observables", "sign3", "sign6",
            "extracted_state", "fidelity", "operator_distances",
            "fidelity_witness", "fidelity_lower_bound",
        }
        # equality, not containment: adding or removing a field is a visible decision
        assert set(doc) == {f.name for f in dataclasses.fields(report)} == expected_fields
        assert abs(doc["fidelity"] - 1.0) <= 1e-10
        assert doc["violation"]["quantum_bound"] == 5.0
        # complex entries serialized as [re, im]
        assert len(doc["gram"][0][0]) == 2

    def test_save(self, canonical, tmp_path):
        report = certify(canonical)
        path = tmp_path / "report.json"
        report.save(path)
        doc = json.loads(path.read_text())
        assert abs(doc["fidelity"] - 1.0) <= 1e-10
