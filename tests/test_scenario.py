import json

import numpy as np
import pytest

from tempcert import linalg
from tempcert.errors import (
    NonInvolution,
    NotHermitian,
    ParseError,
    ShapeMismatch,
    SubspaceDegenerate,
    ZeroEigenvalue,
)
from tempcert.optimize import DEGENERATE_EIGENVALUE
from tempcert.scenario import (
    CANONICAL_MATRICES,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHI_PLUS,
    SIGN_CUTOFF,
    DensityMatrix,
    Observable,
    PureState,
    Scenario,
    canonical_scenario,
    dumps_scenario,
    lift_observable,
    loads_scenario,
    load_scenario,
    observables,
    project_involution,
    purify,
    purify_scenario,
    random_density,
    random_hermitian,
    random_involution,
    random_pure_state,
    random_scenario,
    random_unitary,
    round_eig_to_signs,
    round_to_involutions,
    save_scenario,
    scenario_to_dict,
)
from tempcert.seqcorr import newton_schulz_step, state_images

from conftest import rng_from


class TestCanonical:
    def test_structure(self, canonical):
        assert canonical.dim == 4
        a3 = canonical.observable(3).matrix
        assert a3[0, 2] == 1.0  # X (x) Z structure

    def test_exact_involutions(self, canonical):
        for o in canonical.observables:
            assert o.involution_residual <= 1e-15

    def test_triple_products_are_identity(self, canonical):
        a = canonical.matrices()
        assert np.allclose(a[0] @ a[1] @ a[2], np.eye(4), atol=1e-15)
        assert np.allclose(a[3] @ a[4] @ a[5], np.eye(4), atol=1e-15)

    def test_context_compatibility(self, canonical):
        # all nine context commutators vanish
        a = canonical.matrices()
        pairs = [(1, 4), (2, 5), (3, 6), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
        for i, j in pairs:
            assert linalg.op_norm(a[i - 1] @ a[j - 1] - a[j - 1] @ a[i - 1]) <= 1e-14

    def test_state_is_phi_plus(self, canonical):
        assert np.allclose(canonical.state.amplitudes,
                           np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestProducts:
    """The products A_j A_k R of a scenario's matrices and its state's factor,
    which every per-scenario quantity reads from `seqcorr.state_images`."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32, 64])
    def test_match_per_pair_matmul(self, d):
        rng = rng_from(60 + d)
        s = random_scenario(d, rng)
        for state in (s.state, random_density(d, rng)):
            r = state.factor()
            single, double = state_images(np.array(s.matrices()), r)
            assert single.shape == (6, d, r.shape[1])
            assert double.shape == (6, 6, d, r.shape[1])
            a = s.matrices()
            for i in range(6):
                assert single[i].tobytes() == (a[i] @ r).tobytes()
                for j in range(6):
                    assert double[i, j].tobytes() == (a[i] @ (a[j] @ r)).tobytes()

    @pytest.mark.parametrize("pure", [True, False])
    def test_batch_matches_per_scenario(self, pure):
        # leading batch axes, as the seesaw passes them, change no bit
        rng = rng_from(61)
        scenarios = [random_scenario(4, rng) for _ in range(5)]
        if not pure:
            scenarios = [s.with_state(random_density(4, rng)) for s in scenarios]
        mats = np.array([s.matrices() for s in scenarios])
        factors = np.array([s.state.factor() for s in scenarios])
        single, double = state_images(mats, factors)
        for k, s in enumerate(scenarios):
            one_single, one_double = state_images(np.array(s.matrices()), s.state.factor())
            assert single[k].tobytes() == one_single.tobytes()
            assert double[k].tobytes() == one_double.tobytes()

    @pytest.mark.parametrize("pure", [True, False])
    def test_factor_reproduces_density(self, pure):
        rng = rng_from(59)
        state = random_pure_state(5, rng) if pure else random_density(5, rng, rank=3)
        r = state.factor()
        assert r.shape == ((5, 1) if pure else (5, 5))
        assert linalg.op_norm(r @ r.conj().T - state.density()) <= 1e-14


class TestTypes:
    def test_observable_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            Observable(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_observable_rejects_a_stack(self):
        # as_matrix's ndim check: a stack of observables goes to `observables`
        with pytest.raises(ShapeMismatch, match="ndim 3"):
            Observable(np.array([PAULI_Z, PAULI_X]))

    def test_observable_rejects_non_involution(self):
        with pytest.raises(NonInvolution):
            Observable(np.diag([2.0, -1.0]))

    def test_observable_accepts_small_residual(self):
        m = PAULI_Z + 1e-9 * np.diag([1.0, 0.0])
        o = Observable(m)
        assert 0 < o.involution_residual <= 1e-8

    @pytest.mark.parametrize("d", [2, 4, 16, 64])
    def test_involution_residual_is_the_svd_norm(self, d):
        rng = rng_from(30 + d)
        m = linalg.hermitian_part(random_involution(d, rng).matrix + 1e-10 * random_hermitian(d, rng))
        o = Observable(m)
        assert o.involution_residual > 0
        expected = linalg.op_norm(m @ m - np.eye(d))
        assert o.involution_residual.hex() == expected.hex()
        exact = np.kron(PAULI_X, np.eye(d // 2))
        assert Observable(exact).involution_residual == 0.0

    def test_newton_schulz_step_keeps_exact_involutions(self):
        # A @ A == 1 exactly makes the step A(3 - 1)/2 = A: the sequential
        # correlators take an exact involution as it is. Equal entry for
        # entry; only the sign of a zero may change, which the projectors
        # (1 +- A)/2 do not see.
        paulis = (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)
        for mats in (CANONICAL_MATRICES, paulis,
                     [np.kron(np.kron(a, b), c) for a in paulis for b in paulis for c in paulis]):
            mats = np.array([Observable(m).matrix for m in mats])
            assert np.array_equal(mats @ mats, np.broadcast_to(np.eye(mats.shape[-1]), mats.shape))
            assert np.array_equal(newton_schulz_step(mats), mats)

    @pytest.mark.parametrize("size, hermitian", [(0.9e-10, True), (1.5e-10, False)])
    def test_one_hermiticity_meaning(self, size, hermitian):
        # ||m - m†|| = size for every matrix; the halved defect (m - m†)/2
        # would pass at 1.5e-10, so each check must test m - m† itself
        skew = np.array([[0, size], [0, 0]], dtype=complex)
        checks = [(Observable, PAULI_Z + skew), (DensityMatrix, np.eye(2) / 2 + skew),
                  (linalg.eig_hermitian, PAULI_Z + skew)]
        for check, m in checks:
            assert linalg.op_norm(m - m.conj().T) == size
            if hermitian:
                check(m)
            else:
                with pytest.raises(NotHermitian, match="deviates from Hermitian by 1.500e-10"):
                    check(m)

    def test_construction_settled_by_frobenius_takes_no_svd(self, svd_calls):
        m = random_involution(16, rng_from(9)).matrix
        svd_calls.clear()
        Observable(m)
        Observable(PAULI_Z + 1e-9 * np.diag([1.0, 0.0]))
        assert svd_calls == []

    @pytest.mark.parametrize("bad, error", [
        (np.array([[0, 1], [0, 0]], dtype=complex), NotHermitian),
        (np.diag([2.0, -1.0]), NonInvolution),
        (PAULI_Z + 2e-8 * np.diag([1.0, 0.0]), NonInvolution),
        (np.array([[1, 2e-10], [0, -1]], dtype=complex), NotHermitian),
        (np.array([[np.nan, 0], [0, -1]], dtype=complex), ValueError),
        (np.array([[1, 0], [0, np.inf]], dtype=complex), ValueError),
    ])
    def test_stack_checks_agree_with_observable(self, bad, error):
        # in a stack, after a good matrix and before one that fails later
        # checks, a bad matrix raises what it raises on its own, word for word
        with pytest.raises(error) as single:
            Observable(bad)
        with pytest.raises(error) as stacked:
            observables([[PAULI_X, PAULI_Z], [bad, 3 * PAULI_Z]])
        assert str(stacked.value) == str(single.value)

    def test_observables_are_the_single_constructions(self):
        rng = rng_from(12)
        draws = np.array([[random_hermitian(3, rng) for _ in range(3)] for _ in range(2)])
        stack = round_to_involutions(draws)[0]
        built = observables(stack)
        assert [len(row) for row in built] == [3, 3]
        for i, j in np.ndindex(2, 3):
            o = built[i][j]
            assert isinstance(o, Observable) and not o.matrix.flags.writeable
            assert np.array_equal(o.matrix, Observable(stack[i, j]).matrix)

    def test_pure_state_norm(self):
        with pytest.raises(ValueError):
            PureState([1.0, 1.0])

    def test_pure_state_is_not_flattened(self):
        # a unit-norm matrix is no state vector, not even a 4-dimensional one
        for bad in (np.eye(2) / np.sqrt(2), PHI_PLUS[:, None], PHI_PLUS[None], 1.0):
            with pytest.raises(ShapeMismatch, match="1-d"):
                PureState(bad)

    @pytest.mark.parametrize("bad", [[1.0, 1.0], [np.nan, 0.0], [1.0, 1e-5]])
    def test_stack_norm_check_agrees_with_pure_state(self, bad):
        with pytest.raises(ValueError):
            PureState(bad)

    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([2.0, -1.0]))
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_density_eigendecomposes_once(self, eigh_calls):
        # the one eigensolve at construction serves the PSD check and the
        # factor, which is v sqrt(max(w, 0)) of eig_hermitian scaled to unit
        # Frobenius norm, bit for bit
        m = random_density(6, rng_from(14), rank=4).matrix
        w, v = linalg.eig_hermitian(m)
        r = v * np.sqrt(np.clip(w, 0.0, None))
        eigh_calls.clear()
        rho = DensityMatrix(m)
        for _ in range(3):
            assert np.array_equal(rho.factor(), r / linalg.vec_norm(r))
        assert eigh_calls == [(6, 6)] and not rho.factor().flags.writeable

    @pytest.mark.parametrize("slot", [0, 7, -1])
    def test_with_observable_rejects_slot_outside_1_to_6(self, canonical, slot):
        with pytest.raises(ShapeMismatch):
            canonical.with_observable(slot, canonical.observable(1))

    @pytest.mark.parametrize("slot", [2.0, 1.5, True, False, "1"])
    def test_slot_must_be_an_integer(self, canonical, slot):
        # indexing a tuple with a float fails with a bare TypeError, and a bool
        # would pass as slot 1 or 0; both are refused naming the field
        with pytest.raises(TypeError, match="slot must be an integer"):
            canonical.observable(slot)
        with pytest.raises(TypeError, match="slot must be an integer"):
            canonical.with_observable(slot, canonical.observable(1))

    def test_numpy_integer_slot_is_accepted(self, canonical):
        assert canonical.observable(np.int64(2)) is canonical.observables[1]
        s = canonical.with_observable(np.int32(3), canonical.observable(1))
        assert s.observables[2] is canonical.observables[0]

    def test_scenario_needs_six(self):
        s = canonical_scenario()
        with pytest.raises(ShapeMismatch):
            Scenario(s.state, s.observables[:5])

    def test_scenario_rejects_a_state_of_another_type(self, canonical):
        class Stub:
            dim = 4

        with pytest.raises(TypeError):
            Scenario(Stub(), canonical.observables)
        with pytest.raises(TypeError):
            Scenario(canonical.density(), canonical.observables)

    def test_scenario_dim_match(self):
        s = canonical_scenario()
        with pytest.raises(ShapeMismatch):
            Scenario(PureState([1, 0]), s.observables)


class TestProjectInvolution:
    def test_positive_scaling(self):
        o = project_involution(0.9 * PAULI_X)
        assert np.allclose(o.matrix, PAULI_X, atol=1e-14)

    def test_sign_function(self):
        o = project_involution(np.diag([2.0, -3.0]))
        assert np.allclose(o.matrix, np.diag([1.0, -1.0]), atol=1e-15)

    def test_perturbed_z_has_unit_spectrum(self):
        o = project_involution(PAULI_Z + 0.01 * PAULI_X)
        w = np.linalg.eigvalsh(o.matrix)
        assert np.allclose(sorted(w), [-1.0, 1.0], atol=1e-12)
        # shares the eigenbasis of the input
        h = PAULI_Z + 0.01 * PAULI_X
        assert linalg.op_norm(o.matrix @ h - h @ o.matrix) <= 1e-12

    def test_idempotent(self):
        rng = rng_from(12)
        for _ in range(20):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            once = project_involution((h + h.conj().T) / 2).matrix
            twice = project_involution(once).matrix
            assert linalg.op_norm(twice - once) <= 1e-12

    def test_zero_eigenvalue_raises(self):
        with pytest.raises(ZeroEigenvalue):
            project_involution(np.diag([1.0, 0.0]))


class TestRoundToSigns:
    """The one eigen-sign rounding behind project_involution, the seesaw's
    random starts and its observable half-step."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_stack_matches_project_involution(self, d):
        rng = rng_from(60 + d)
        draws = np.array([[random_hermitian(d, rng) for _ in range(6)] for _ in range(3)])
        w, v = linalg.eig_exact_hermitian(draws)
        a = round_eig_to_signs(w, v, SIGN_CUTOFF)
        assert a.shape == v.shape == draws.shape and w.shape == (3, 6, d)
        for x, y in zip(round_to_involutions(draws), (a, w, v)):
            assert np.array_equal(x, y)
        for idx in np.ndindex(3, 6):
            assert np.array_equal(a[idx], project_involution(draws[idx]).matrix)
            one_w, one_v = linalg.eig_hermitian(draws[idx])
            assert np.array_equal(w[idx], one_w) and np.array_equal(v[idx], one_v)

    @pytest.mark.parametrize("cutoff", [SIGN_CUTOFF, DEGENERATE_EIGENVALUE])
    def test_sign_is_plus_one_at_or_below_the_cutoff(self, cutoff):
        above = np.nextafter(cutoff, 1.0)
        eigenvalues = np.array([2.0, cutoff, cutoff / 2, 0.0, -cutoff / 2, -cutoff, -above, -3.0])
        w, v = linalg.eig_exact_hermitian(np.diag(eigenvalues).astype(complex))
        a = round_eig_to_signs(w, v, cutoff)
        assert np.array_equal(w, eigenvalues)
        assert np.array_equal(a, np.diag([1.0, 1, 1, 1, 1, 1, -1, -1]).astype(complex))

    def test_zero_eigenvalue_at_the_sign_cutoff(self):
        with pytest.raises(ZeroEigenvalue):
            project_involution(np.diag([1.0, -SIGN_CUTOFF]))
        above = np.nextafter(SIGN_CUTOFF, 1.0)
        o = project_involution(np.diag([1.0, -above]))
        assert np.array_equal(o.matrix, np.diag([1.0, -1.0]).astype(complex))

    def test_zero_eigenvalue_anywhere_in_a_stack(self):
        stack = np.array([np.diag([1.0, -1.0])] * 5 + [np.diag([1.0, 0.0])])
        with pytest.raises(ZeroEigenvalue):
            round_to_involutions(stack)

    def test_zero_eigenvalue_names_the_first_failing_matrix(self):
        # the message a loop over the stack would give: the first failure's
        # smallest eigenvalue magnitude, not the stack's
        stack = np.array([np.diag([1.0, -1.0]), np.diag([1.0, 5e-9]), np.diag([1.0, 0.0])])
        with pytest.raises(ZeroEigenvalue, match="magnitude 5.000e-09 inside"):
            round_to_involutions(stack)
        with pytest.raises(ZeroEigenvalue, match="magnitude 5.000e-09 inside"):
            project_involution(stack[1])


def system_density(psi, dim_sys: int) -> np.ndarray:
    """Partial trace of |psi><psi| over the second (environment) factor."""
    m = psi.amplitudes.reshape(dim_sys, -1)
    return m @ m.conj().T


class TestPurify:
    def test_pure_input(self, canonical):
        rho = DensityMatrix(canonical.density())
        psi = purify(rho)
        assert psi.dim == 16
        assert linalg.op_norm(system_density(psi, 4) - rho.matrix) <= 1e-12

    def test_maximally_mixed(self):
        psi = purify(DensityMatrix(np.eye(4) / 4))
        red = system_density(psi, 4)
        assert linalg.op_norm(red - np.eye(4) / 4) <= 1e-12
        # maximally entangled across the 4 (x) 4 cut: all Schmidt weights 1/4
        w = np.linalg.eigvalsh(red)
        assert np.allclose(w, 0.25, atol=1e-12)

    def test_is_the_factor_reshaped(self):
        # the factor has unit Frobenius norm, so purify divides by nothing
        rho = random_density(4, rng_from(12), rank=3)
        assert purify(rho).amplitudes.tobytes() == rho.factor().reshape(-1).tobytes()

    def test_partial_trace_oracle(self):
        rng = rng_from(13)
        for _ in range(10):
            rho = random_density(4, rng, rank=3)
            psi = purify(rho)
            assert linalg.op_norm(system_density(psi, 4) - rho.matrix) <= 1e-10

    def test_lifted_observables_act_trivially(self, canonical):
        lifted = lift_observable(canonical.observable(1), 4)
        assert lifted.dim == 16
        assert np.array_equal(lifted.matrix,
                              np.kron(canonical.observable(1).matrix, np.eye(4)))

    def test_purify_scenario_preserves_correlators(self, canonical):
        from tempcert.seqcorr import correlations
        mixed = Scenario(DensityMatrix(canonical.density()), canonical.observables)
        lifted = purify_scenario(mixed)
        a = correlations(mixed, "analytic").as_dict()
        b = correlations(lifted, "analytic").as_dict()
        for k in a:
            assert abs(a[k] - b[k]) <= 1e-10


class TestRandomConstructions:
    def test_random_unitary_is_unitary(self):
        rng = rng_from(14)
        u = random_unitary(6, rng)
        assert linalg.op_norm(u @ u.conj().T - np.eye(6)) <= 1e-12

    def test_random_involution(self):
        rng = rng_from(15)
        o = random_involution(4, rng)
        assert o.involution_residual <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_one_block_hermitian_draw_is_the_sequential_draws(self, dim):
        # the seesaw's starts and the jitter generators draw six at once
        block, one, ref = rng_from(dim), rng_from(dim), rng_from(dim)
        stack = random_hermitian(dim, block, 6)
        singles = [random_hermitian(dim, one) for _ in range(6)]
        gaussians = [ref.standard_normal((dim, dim)) + 1j * ref.standard_normal((dim, dim))
                     for _ in range(6)]
        assert stack.shape == (6, dim, dim)
        for m, single, g in zip(stack, singles, gaussians, strict=True):
            assert np.array_equal(m, single) and np.array_equal(m, linalg.hermitian_part(g))
        assert block.standard_normal() == one.standard_normal() == ref.standard_normal()

    def test_random_scenario_valid(self):
        rng = rng_from(16)
        s = random_scenario(4, rng)
        assert s.dim == 4 and s.is_pure()

    def test_seeded_reproducibility(self):
        a = random_scenario(4, rng_from(17))
        b = random_scenario(4, rng_from(17))
        assert np.array_equal(a.state.amplitudes, b.state.amplitudes)
        for x, y in zip(a.observables, b.observables):
            assert np.array_equal(x.matrix, y.matrix)


class TestFileFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        s = random_scenario(4, rng_from(18))
        p = tmp_path / "s.json"
        save_scenario(s, p)
        t = load_scenario(p)
        assert np.array_equal(s.state.amplitudes, t.state.amplitudes)
        for a, b in zip(s.observables, t.observables):
            assert np.array_equal(a.matrix, b.matrix)

    def test_mixed_state_round_trip(self, tmp_path, canonical):
        s = Scenario(DensityMatrix(canonical.density()), canonical.observables)
        p = tmp_path / "m.json"
        save_scenario(s, p)
        t = load_scenario(p)
        assert not t.is_pure()
        assert np.array_equal(s.state.matrix, t.state.matrix)

    def test_zero_state_rejected(self, canonical):
        doc = scenario_to_dict(canonical)
        doc["state"]["vector"] = [[0.0, 0.0]] * 4
        with pytest.raises(ParseError, match="state"):
            loads_scenario(json.dumps(doc))

    def test_missing_observable(self, canonical):
        doc = scenario_to_dict(canonical)
        del doc["observables"]["A6"]
        with pytest.raises(ParseError, match="A6"):
            loads_scenario(json.dumps(doc))

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            loads_scenario("not json")

    def test_malformed_pair(self, canonical):
        doc = scenario_to_dict(canonical)
        doc["observables"]["A1"][3] = [1.0]
        with pytest.raises(ParseError, match="A1"):
            loads_scenario(json.dumps(doc))

    def test_non_involution_rejected(self, canonical):
        # diag(2, 2, 2, 2) is Hermitian but not an involution
        doc = scenario_to_dict(canonical)
        doc["observables"]["A1"] = [[2.0, 0.0] if i % 5 == 0 else [0.0, 0.0]
                                    for i in range(16)]
        with pytest.raises(ParseError, match="A1"):
            loads_scenario(json.dumps(doc))

    def test_non_finite_observable_rejected(self, canonical):
        doc = scenario_to_dict(canonical)
        doc["observables"]["A1"][0] = [float("nan"), 0.0]
        with pytest.raises(ParseError, match="observables.A1: .*NaN or Inf"):
            loads_scenario(json.dumps(doc))

    @pytest.mark.parametrize("entry", ["0.5", True, False, None, 10**400],
                             ids=["string", "true", "false", "null", "400-digit"])
    def test_entries_must_be_json_numbers(self, canonical, entry):
        # float() accepts strings and booleans, and overflows on a 400-digit
        # integer, so each entry's type is checked before it converts
        for field in ("state", "observables"):
            doc = scenario_to_dict(canonical)
            pairs = doc["state"]["vector"] if field == "state" else doc["observables"]["A1"]
            pairs[0][0] = entry
            with pytest.raises(ParseError, match=f"{field}.*\\[0\\]: "):
                loads_scenario(json.dumps(doc))

    @pytest.mark.parametrize("dim", [4.9, 4.5, "4", True])
    def test_dim_must_be_a_json_integer(self, canonical, dim):
        doc = scenario_to_dict(canonical)
        doc["dim"] = dim
        with pytest.raises(ParseError, match="field 'dim': missing or not an integer"):
            loads_scenario(json.dumps(doc))

    def test_purify_then_certify_canonical(self, canonical):
        # mixed-state entry point reproduces the ideal certification
        from tempcert.certify import certify
        mixed = Scenario(DensityMatrix(canonical.density()), canonical.observables)
        report = certify(mixed)
        assert report.fidelity >= 1 - 1e-10
