import time

import numpy as np
import pytest

from tempcert.errors import BadTransformId
from tempcert.inequality import (
    CLASSICAL_BOUND,
    QUANTUM_BOUND,
    apply_symmetry,
    classical_bound,
    eval_INC,
    eval_IT,
    eval_IT_scenario,
    symmetry_residual,
)
from tempcert.robustness import Depolarizing, apply_noise
from tempcert.scenario import (
    PAULI_I,
    PAULI_X,
    Observable,
    Scenario,
    random_pure_state,
    random_scenario,
    random_unitary,
)
from tempcert.seqcorr import CorrelationSet, correlations

from conftest import commuting_triple_scenario, rng_from


class TestEvalIT:
    def test_canonical_is_five(self, canonical):
        it = eval_IT(correlations(canonical, "analytic"))
        assert abs(it.value - 5.0) <= 1e-12
        assert it.classical_bound == CLASSICAL_BOUND
        assert it.quantum_bound == QUANTUM_BOUND
        assert abs(it.deficit) <= 1e-12

    def test_zero_correlators(self):
        c = CorrelationSet(0, 0, 0, 0, 0, 0, 0)
        assert eval_IT(c).value == 0.0

    def test_depolarized_closed_form(self, canonical):
        noisy = apply_noise(canonical, Depolarizing(0.01))
        it = eval_IT(correlations(noisy, "analytic"))
        assert abs(it.value - 4.97) <= 1e-12

    def test_quantum_scenarios_never_exceed_bound(self):
        rng = rng_from(30)
        for _ in range(100):
            s = random_scenario(4, rng)
            assert eval_IT_scenario(s).value <= QUANTUM_BOUND + 1e-9

    def test_deterministic_diagonal_scenarios_respect_classical_bound(self):
        # diagonal observables with a basis state = a deterministic assignment
        rng = rng_from(31)
        for _ in range(100):
            obs = [Observable(np.diag(rng.choice([-1.0, 1.0], size=4)))
                   for _ in range(6)]
            amps = np.zeros(4)
            amps[rng.integers(4)] = 1.0
            from tempcert.scenario import PureState
            s = Scenario(PureState(amps), obs)
            assert eval_IT_scenario(s).value <= CLASSICAL_BOUND + 1e-12


class TestEvalINC:
    def test_canonical(self, canonical):
        value, report = eval_INC(canonical)
        assert abs(value - 5.0) <= 1e-12
        assert report.compatible
        assert report.max_norm <= 1e-14

    def test_incompatible_flagged(self, canonical):
        broken = canonical.with_observable(6, Observable(np.kron(PAULI_X, PAULI_I)))
        _, report = eval_INC(broken)
        assert not report.compatible

    def test_matches_eval_it_for_commuting_realizations(self):
        # all six observables diagonal in one shared basis: every context commutes
        rng = rng_from(32)
        for _ in range(20):
            w = random_unitary(4, rng)
            obs = [Observable((w * rng.choice([-1.0, 1.0], size=4)) @ w.conj().T)
                   for _ in range(6)]
            s = Scenario(random_pure_state(4, rng), obs)
            value, report = eval_INC(s)
            assert report.compatible
            assert abs(value - eval_IT_scenario(s).value) <= 1e-10


class TestClassicalBound:
    def test_bound_is_three(self):
        t0 = time.perf_counter()
        bound, argmax = classical_bound()
        assert time.perf_counter() - t0 < 1.0
        assert bound == 3

    def test_all_plus_is_a_maximizer(self):
        bound, argmax = classical_bound()
        a = (1, 1, 1, 1, 1, 1)
        v = a[0] * a[1] * a[2] + a[3] * a[4] * a[5] + a[0] * a[3] + a[1] * a[4] - a[2] * a[5]
        assert v == 3
        assert a in argmax

    def test_maximizer_count_fixture(self):
        _, argmax = classical_bound()
        assert len(argmax) == 20

    def test_independent_enumeration(self):
        # brute-force oracle written separately from the library path
        import itertools
        values = [
            a1 * a2 * a3 + a4 * a5 * a6 + a1 * a4 + a2 * a5 - a3 * a6
            for a1, a2, a3, a4, a5, a6 in itertools.product((1, -1), repeat=6)
        ]
        assert max(values) == classical_bound()[0]
        assert values.count(max(values)) == len(classical_bound()[1])


class TestSymmetries:
    def test_exact_invariance_of_1_and_4(self):
        rng = rng_from(33)
        for _ in range(30):
            s = random_scenario(4, rng)
            v0 = eval_IT_scenario(s).value
            for tid in (1, 4):
                v1 = eval_IT_scenario(apply_symmetry(s, tid)).value
                assert abs(v1 - v0) <= 1e-12

    def test_conditional_invariance_of_2_and_3(self):
        rng = rng_from(34)
        for _ in range(30):
            s = commuting_triple_scenario(rng)
            for tid in (2, 3):
                assert abs(symmetry_residual(s, tid)) <= 1e-10

    def test_partial_commutation_suffices_for_2(self):
        # only [A1,A3] = 0 and [A4,A6] = 0 are needed for transform 2
        rng = rng_from(35)
        for _ in range(10):
            w1, w2 = random_unitary(4, rng), random_unitary(4, rng)
            def diag_in(w):
                return Observable((w * rng.choice([-1.0, 1.0], size=4)) @ w.conj().T)
            from tempcert.scenario import random_involution
            obs = [diag_in(w1), random_involution(4, rng), diag_in(w1),
                   diag_in(w2), random_involution(4, rng), diag_in(w2)]
            s = Scenario(random_pure_state(4, rng), obs)
            assert abs(symmetry_residual(s, 2)) <= 1e-10

    def test_generic_residual_regression(self):
        s = random_scenario(4, rng_from(2024))
        assert abs(symmetry_residual(s, 2) - 0.09833782551530446) <= 1e-10
        assert abs(symmetry_residual(s, 3) - 0.22661149010815862) <= 1e-10

    def test_canonical_preserved_by_all_four(self, canonical):
        for tid in (1, 2, 3, 4):
            v = eval_IT_scenario(apply_symmetry(canonical, tid)).value
            assert abs(v - 5.0) <= 1e-12

    def test_transforms_are_involutions(self):
        s = random_scenario(4, rng_from(36))
        for tid in (1, 2, 3, 4):
            s2 = apply_symmetry(apply_symmetry(s, tid), tid)
            for a, b in zip(s.observables, s2.observables):
                assert np.array_equal(a.matrix, b.matrix)

    def test_bad_transform_id(self, canonical):
        with pytest.raises(BadTransformId):
            apply_symmetry(canonical, 5)
        with pytest.raises(BadTransformId):
            symmetry_residual(canonical, 0)

    def test_canonical_residual_zero(self, canonical):
        assert abs(symmetry_residual(canonical, 2)) <= 1e-12
        assert abs(symmetry_residual(canonical, 3)) <= 1e-12


class TestTermTableGuards:
    """The constants every module derives from the term table, pinned to the
    expression as the paper writes it."""

    def test_context_pairs(self):
        from tempcert.inequality import CONTEXT_PAIRS
        assert set(CONTEXT_PAIRS) == {
            (1, 4), (2, 5), (3, 6), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6),
        }
        assert len(CONTEXT_PAIRS) == 9

    def test_certify_pair_families(self, canonical):
        from tempcert.certify import ANTICOMMUTING_PAIRS, STATE_CONSTRAINTS, algebra_residuals
        assert tuple(ANTICOMMUTING_PAIRS) == ((1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 5))
        assert tuple(STATE_CONSTRAINTS) == (
            ((1, 2, 3), 1), ((1, 3, 2), 1), ((2, 1, 3), 1),
            ((2, 3, 1), 1), ((3, 1, 2), 1), ((3, 2, 1), 1),
            ((4, 5, 6), 1), ((4, 6, 5), 1), ((5, 4, 6), 1),
            ((5, 6, 4), 1), ((6, 4, 5), 1), ((6, 5, 4), 1),
            ((1, 4), 1), ((4, 1), 1), ((2, 5), 1), ((5, 2), 1), ((3, 6), -1), ((6, 3), -1),
        )
        comm, _, _ = algebra_residuals(canonical, np.eye(4))
        assert list(comm) == ["A1A2", "A1A3", "A2A3", "A4A5", "A4A6", "A5A6",
                              "A1A4", "A2A5", "A3A6"]

    def test_robustness_bound_names(self, canonical):
        from tempcert.robustness import check_robustness_bounds
        noisy = apply_noise(canonical, Depolarizing(0.01))
        assert [c.name for c in check_robustness_bounds(noisy)] == [
            "triple_123>=1-2eps", "triple_213>=1-2eps", "triple_456>=1-2eps",
            "triple_546>=1-2eps", "pair_14>=1-eps", "pair_25>=1-eps", "-pair_36>=1-eps",
            "norm(A1-A2A3)<=4sqrt(eps)", "norm(A1-A3A2)<=4sqrt(eps)",
            "norm(A2-A1A3)<=4sqrt(eps)", "norm(A2-A3A1)<=4sqrt(eps)",
            "norm(A3-A1A2)<=4sqrt(eps)", "norm(A3-A2A1)<=4sqrt(eps)",
            "norm(A4-A5A6)<=4sqrt(eps)", "norm(A4-A6A5)<=4sqrt(eps)",
            "norm(A5-A4A6)<=4sqrt(eps)", "norm(A5-A6A4)<=4sqrt(eps)",
            "norm(A6-A4A5)<=4sqrt(eps)", "norm(A6-A5A4)<=4sqrt(eps)",
            "norm(A1-A4)<=2sqrt(eps)", "norm(A2-A5)<=2sqrt(eps)", "norm(A3+A6)<=2sqrt(eps)",
            "norm({A1,A5})<=14sqrt(eps)", "norm({A1,A6})<=14sqrt(eps)",
            "norm({A2,A4})<=14sqrt(eps)", "norm({A2,A6})<=14sqrt(eps)",
            "norm({A3,A4})<=14sqrt(eps)", "norm({A3,A5})<=14sqrt(eps)",
        ]

    def test_simulate_combined_stderr(self, canonical, tmp_path, capsys):
        from tempcert.cli import main
        from tempcert.scenario import save_scenario
        noisy = apply_noise(canonical, Depolarizing(0.1))
        path = tmp_path / "noisy.json"
        save_scenario(noisy, path)
        assert main(["simulate", "--scenario", str(path), "--shots", "10000",
                     "--seed", "9"]) == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("I_T")][0]
        se = correlations(noisy, "sampled", shots=10000, rng_seed=9).stderr
        weights = {"triple_123": 0.5, "triple_213": 0.5, "triple_456": 0.5,
                   "triple_546": 0.5, "pair_14": 1.0, "pair_25": 1.0, "pair_36": 1.0}
        combined = np.sqrt(sum((w * se[n]) ** 2 for n, w in weights.items()))
        assert combined > 0
        assert f"+- {combined:.2e}   " in line

    def test_eval_it_is_the_context_sum_on_assignments(self):
        import itertools
        assignments = list(itertools.product((1, -1), repeat=6))
        values = []
        for a1, a2, a3, a4, a5, a6 in assignments:
            c = CorrelationSet(a1 * a2 * a3, a2 * a1 * a3, a4 * a5 * a6, a5 * a4 * a6,
                               a1 * a4, a2 * a5, a3 * a6)
            context_sum = a1 * a2 * a3 + a4 * a5 * a6 + a1 * a4 + a2 * a5 - a3 * a6
            assert eval_IT(c).value == context_sum
            values.append(context_sum)
        bound, argmax = classical_bound()
        assert bound == max(values) and isinstance(bound, int)
        assert argmax == [a for a, v in zip(assignments, values) if v == bound]
