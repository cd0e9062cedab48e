import functools
import hashlib
import json
import warnings

import numpy as np
import pytest

from tempcert import linalg, optimize, scenario
from tempcert.errors import (
    DegenerateCoefficientWarning,
    NonInvolution,
    NonSquare,
    NotHermitian,
    ShapeMismatch,
)
from tempcert.inequality import eval_IT_scenario
from tempcert.linalg import acomm, hermitian_part
from tempcert.optimize import (
    SLOT_PAIRS,
    WORDS,
    SeesawConfig,
    SeesawTrace,
    _bell_from_matrices,
    bell_operator,
    coefficient_operator,
    expression_value,
    optimal_observable,
    optimal_state,
    seesaw,
)
from tempcert.scenario import (
    Observable,
    PureState,
    Scenario,
    dumps_scenario,
    random_density,
    random_hermitian,
    random_involution,
    random_pure_state,
    random_scenario,
)
from tempcert.seqcorr import TERMS

from conftest import rng_from

# best value the d=2 seesaw finds; numerically 3(1 + sqrt(3))/2, recorded as
# an empirical fixture with no optimality claim
D2_FIXTURE = 4.098076211353316

# sha256 of the trace JSON and of dumps_scenario(best.scenario) (numpy 2.4,
# OpenBLAS). The batch reproduces the per-seed loop through the per-scenario
# API bit for bit (test_matches_per_seed_loop). The hashes
# hold the exact bits of the BLAS and LAPACK kernels, which may be picked
# per CPU: on a new platform, a mismatch here with test_matches_per_seed_loop
# passing is a platform difference, not a change of semantics.
GOLDEN = [
    (dict(dim=4, seeds=20, rng_seed=0),
     "cf51422e3a80304573e6b88d07f0fc88cb0982084a18b38770114cab49c2f2c0",
     "7929bc736ad66f6eb085d8d3209f33b6e92a2a2126d3caf111e8c2225e540e70"),
    (dict(dim=2, seeds=20, rng_seed=1, max_sweeps=400),
     "16ae5bb1f83ecb5d225ba90af816086eda37c3db552165e2e369c27a8d918a76",
     "5dd45293ba1c68f1451158764e0838b6195caa716dc5f5794ba833f102d8dcb4"),
]


def trace_json(best, traces) -> str:
    return json.dumps({
        "best_seed": best.seed_index,
        "traces": [{"seed": t.seed_index, "values": t.values, "converged": t.converged,
                    "degenerate_steps": t.degenerate_steps} for t in traces],
    }, indent=1)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def anticommutator_bell(mats) -> np.ndarray:
    """Oracle: the Bell operator as nested anticommutators, an n-slot term of
    TERMS being w tr(rho {A_x, {A_y, ...}}) / 2^(n-1)."""
    a = (None, *mats)
    b = 0
    for _, (x, y, *z), w in TERMS:
        b = b + w * acomm(a[x], acomm(a[y], a[z[0]]) if z else a[y]) / 2 ** (1 + len(z))
    return hermitian_part(b)


def adjoint_coefficient(mats, rho, slot: int) -> np.ndarray:
    """Oracle: the coefficient operator of `slot` from the adjoint identities
    tr(rho {A, K}) = tr(A {K, rho}) and tr(rho {K, {A, L}}) = tr(A {L, {K, rho}}),
    term by term over TERMS."""
    a = (None, *mats)
    g = 0
    for _, (x, y, *z), w in TERMS:
        if slot == x:    # tr(rho {A, K}) with K = A_y or {A_y, A_z}
            g = g + w * acomm(acomm(a[y], a[z[0]]) if z else a[y], rho) / 2 ** (1 + len(z))
        elif slot == y:  # tr(rho {x, A}) or tr(rho {x, {A, z}}) = tr(A {z, {x, rho}})
            g = g + w * (acomm(a[z[0]], acomm(a[x], rho)) / 4 if z else acomm(a[x], rho) / 2)
        elif z and slot == z[0]:  # tr(rho {x, {y, A}}) = tr(A {y, {x, rho}})
            g = g + w * acomm(a[y], acomm(a[x], rho)) / 4
    return hermitian_part(g)


def per_seed_seesaw(config):
    """The multi-start seesaw one seed at a time through the per-scenario API:
    a state step, then each pair of SLOT_PAIRS, both slots' steps taken on the
    same scenario."""
    traces = []
    for k, child in enumerate(np.random.SeedSequence(config.rng_seed).spawn(config.seeds)):
        rng = np.random.Generator(np.random.PCG64(child))
        state = random_pure_state(config.dim, rng)
        s = Scenario(state, [random_involution(config.dim, rng) for _ in range(6)])
        trace = SeesawTrace(seed_index=k)
        previous = expression_value(s)
        for _ in range(config.max_sweeps):
            s = s.with_state(optimal_state(s.observables))
            for pair in SLOT_PAIRS:  # both slots' steps on one scenario, then both set
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", DegenerateCoefficientWarning)
                    steps = [(slot, optimal_observable(s, slot)) for slot in pair]
                for slot, a in steps:
                    s = s.with_observable(slot, a)
                trace.degenerate_steps += len(caught)
            value = expression_value(s)
            trace.values.append(value)
            if value - previous < config.tol:
                trace.converged = True
                break
            previous = value
        trace.scenario = s
        traces.append(trace)
    return max(traces, key=lambda t: (t.best_value, -t.seed_index)), traces


def words_bell(mats) -> np.ndarray:
    """Reference: the Hermitian part of the sum of w * A_w1 A_w2 ... over WORDS,
    word by word, each product formed left to right."""
    a = (None, *mats)
    b = 0
    for word, w in WORDS:
        b = b + w * functools.reduce(np.matmul, [a[k] for k in word])
    return hermitian_part(b)


class TestBellOperator:
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_matches_word_by_word_sum(self, dim):
        rng = rng_from(60 + dim)
        for _ in range(10):
            mats = random_scenario(dim, rng).matrices()
            assert linalg.op_norm(_bell_from_matrices(mats) - words_bell(mats)) <= 1e-14

    def test_canonical_top_eigenpair(self, canonical):
        b = bell_operator(canonical)
        w, v = np.linalg.eigh(b)
        assert abs(w[-1] - 5.0) <= 1e-12
        phi = canonical.state.amplitudes
        assert abs(abs(phi.conj() @ v[:, -1]) - 1.0) <= 1e-12

    def test_identity_observables(self, canonical):
        obs = [np.eye(4)] * 6
        b = _bell_from_matrices(obs)
        assert np.allclose(b, 3 * np.eye(4), atol=1e-14)

    def test_matches_correlator_assembly(self):
        rng = rng_from(40)
        for _ in range(30):
            s = random_scenario(4, rng)
            via_b = expression_value(s)
            via_corr = eval_IT_scenario(s).value
            assert abs(via_b - via_corr) <= 1e-10

    def test_hermitian(self):
        s = random_scenario(4, rng_from(41))
        b = bell_operator(s)
        assert np.linalg.norm(b - b.conj().T, 2) <= 1e-14


class TestOptimalState:
    def test_canonical_recovers_phi_plus(self, canonical):
        state = optimal_state(canonical.observables)
        phi = canonical.state.amplitudes
        assert abs(abs(phi.conj() @ state.amplitudes) - 1.0) <= 1e-12

    def test_variational_dominance(self):
        rng = rng_from(42)
        obs = [random_involution(4, rng) for _ in range(6)]
        b = _bell_from_matrices([o.matrix for o in obs])
        state = optimal_state(obs)
        achieved = float((state.amplitudes.conj() @ (b @ state.amplitudes)).real)
        for _ in range(100):
            rho = random_density(4, rng).matrix
            assert achieved >= float(np.trace(rho @ b).real) - 1e-10

    def test_non_hermitian_raw_matrices_raise(self):
        # the operator form holds only for Hermitian observables
        rng = rng_from(48)
        with pytest.raises(NotHermitian):
            optimal_state([rng.standard_normal((4, 4)) for _ in range(6)])

    def test_mixed_dimensions_raise_shape_mismatch(self):
        with pytest.raises(ShapeMismatch) as caught:
            optimal_state([np.eye(4)] * 5 + [np.eye(2)])
        assert not isinstance(caught.value, NonSquare)

    def test_five_observables_raise(self, canonical):
        with pytest.raises(ShapeMismatch, match="need 6 observables, got 5"):
            optimal_state(canonical.observables[:5])

    def test_non_square_matrices_raise(self):
        with pytest.raises(NonSquare):
            optimal_state([np.ones((4, 3))] * 6)

    def test_observables_are_not_checked_again(self, monkeypatch, canonical):
        # an Observable was checked when it was built; only raw matrices are
        # checked here, in one stacked call
        calls = []
        require_hermitian = linalg.require_hermitian

        def counting(m, what):
            calls.append(np.shape(m))
            return require_hermitian(m, what)

        monkeypatch.setattr(linalg, "require_hermitian", counting)
        state = optimal_state(canonical.observables)
        assert calls == []
        raw = [canonical.observable(k) for k in range(1, 6)] + [canonical.observable(6).matrix]
        assert np.array_equal(optimal_state(raw).amplitudes, state.amplitudes)
        assert optimal_state(iter(canonical.observables)).dim == 4
        assert calls == [(1, 4, 4)]

    def test_raw_matrix_among_observables_is_checked(self, canonical):
        rng = rng_from(49)
        obs = list(canonical.observables)
        with pytest.raises(NotHermitian):
            optimal_state(obs[:5] + [rng.standard_normal((4, 4))])
        with pytest.raises(ShapeMismatch):
            optimal_state(obs[:5] + [np.eye(2)])

    def test_diagonal_case_gives_basis_state(self):
        rng = rng_from(43)
        obs = [Observable(np.diag(rng.choice([-1.0, 1.0], size=4))) for _ in range(6)]
        state = optimal_state(obs)
        # diagonal operator form: the maximizer is a computational basis state
        assert np.sum(np.abs(state.amplitudes) > 1e-12) == 1


class TestCoefficientOperator:
    def test_linearity_identity(self):
        # value(A_slot = M) - value(A_slot = 0) == Re tr(M G) for random M,
        # on pure and on mixed states
        rng = rng_from(44)
        for k in range(20):
            s = random_scenario(4, rng)
            if k % 2:
                s = s.with_state(random_density(4, rng))
            rho = s.density()
            for slot in range(1, 7):
                g = coefficient_operator(s, slot)
                m = random_hermitian(4, rng)
                mats = list(s.matrices())
                mats[slot - 1] = m
                v_m = float(np.trace(rho @ _bell_from_matrices(mats)).real)
                mats[slot - 1] = np.zeros((4, 4))
                v_0 = float(np.trace(rho @ _bell_from_matrices(mats)).real)
                assert abs((v_m - v_0) - float(np.trace(m @ g).real)) <= 1e-10

    @pytest.mark.parametrize("slot, error", [(2.0, TypeError), (True, TypeError),
                                             (0, ShapeMismatch), (7, ShapeMismatch)])
    def test_slot_is_checked_as_scenario_checks_it(self, canonical, slot, error):
        # a bool would otherwise pass as slot 1
        with pytest.raises(error, match="slot must be"):
            coefficient_operator(canonical, slot)
        assert np.array_equal(coefficient_operator(canonical, np.int64(2)),
                              coefficient_operator(canonical, 2))

    def test_hermitian(self):
        s = random_scenario(4, rng_from(45))
        for slot in range(1, 7):
            g = coefficient_operator(s, slot)
            assert np.linalg.norm(g - g.conj().T, 2) <= 1e-14

    def test_slot_pairs_share_no_word(self):
        # the first perfect matching in slot order of the 6-cycle 1-5-3-4-2-6
        assert SLOT_PAIRS == ((1, 5), (2, 6), (3, 4))
        assert sorted(sum(SLOT_PAIRS, ())) == [1, 2, 3, 4, 5, 6]
        assert not [(pair, word) for pair in SLOT_PAIRS for word, _ in WORDS
                    if set(pair) <= set(word)]

    def test_pair_slots_do_not_enter_each_others_operator(self):
        # so the pair's joint argmax is its two single-slot argmaxes
        rng = rng_from(50)
        s = random_scenario(4, rng).with_state(random_density(4, rng))
        for x, y in SLOT_PAIRS:
            moved = s.with_observable(x, random_involution(4, rng))
            assert np.array_equal(coefficient_operator(moved, y), coefficient_operator(s, y))


class TestOptimalObservable:
    def test_canonical_fixed_point(self, canonical):
        for slot in range(1, 7):
            s2 = canonical.with_observable(slot, optimal_observable(canonical, slot))
            assert abs(expression_value(s2) - 5.0) <= 1e-10

    def test_never_decreases(self):
        rng = rng_from(46)
        for _ in range(10):
            s = random_scenario(4, rng)
            before = expression_value(s)
            for slot in range(1, 7):
                s = s.with_observable(slot, optimal_observable(s, slot))
                after = expression_value(s)
                assert after >= before - 1e-12
                before = after

    def test_beats_random_replacements(self):
        rng = rng_from(47)
        s = random_scenario(4, rng)
        for slot in (2, 5):
            s_opt = s.with_observable(slot, optimal_observable(s, slot))
            best = expression_value(s_opt)
            for _ in range(50):
                s_rand = s.with_observable(slot, random_involution(4, rng))
                assert expression_value(s_rand) <= best + 1e-10

    def test_degenerate_flagged_and_still_involution(self):
        # diagonal scenario with a basis state: G has near-zero eigenvalues
        obs = [Observable(np.diag([1.0, 1.0, -1.0, -1.0])) for _ in range(6)]
        s = Scenario(PureState([1, 0, 0, 0]), obs)
        with pytest.warns(DegenerateCoefficientWarning):
            a = optimal_observable(s, 1)
        assert a.involution_residual <= 1e-12


class TestSeesaw:
    def test_reaches_quantum_bound_d4(self):
        best, traces = seesaw(SeesawConfig(dim=4, seeds=5, rng_seed=0))
        assert best.best_value >= 5.0 - 1e-8
        assert best.scenario is not None

    def test_monotone_sweeps(self):
        """Property: every sweep gains at least -1e-12, and no seesaw passes
        the quantum bound, over generated configurations. The iterates are
        not checked inside the loop, so this holds them at the outcome."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.given(dim=st.integers(2, 6), seeds=st.integers(1, 4),
                          rng_seed=st.integers(0, 2**32 - 1))
        def check(dim, seeds, rng_seed):
            best, traces = seesaw(SeesawConfig(dim=dim, seeds=seeds, rng_seed=rng_seed))
            for t in traces:
                assert all(b - a >= -1e-12 for a, b in zip(t.values, t.values[1:]))
            assert best.best_value <= 5.0 + 1e-9

        check()

    def test_soundness_across_dims(self):
        for dim, seed in ((2, 2), (3, 3), (4, 4), (6, 5)):
            best, _ = seesaw(SeesawConfig(dim=dim, seeds=3, rng_seed=seed, max_sweeps=100))
            assert best.best_value <= 5.0 + 1e-9

    def test_d2_fixture(self):
        best, _ = seesaw(SeesawConfig(dim=2, seeds=20, rng_seed=1, max_sweeps=400))
        assert abs(best.best_value - D2_FIXTURE) <= 1e-9
        assert best.best_value < 5.0 - 0.5

    def test_deterministic_given_seed(self):
        a, ta = seesaw(SeesawConfig(dim=4, seeds=3, rng_seed=9))
        b, tb = seesaw(SeesawConfig(dim=4, seeds=3, rng_seed=9))
        assert a.values == b.values
        assert all(x.values == y.values for x, y in zip(ta, tb))

    def test_maximizer_is_certifiable(self):
        from tempcert.certify import certify
        best, _ = seesaw(SeesawConfig(dim=4, seeds=5, rng_seed=0))
        if best.best_value >= 5.0 - 1e-10:
            report = certify(best.scenario)
            assert report.fidelity >= 1 - 1e-4

    @pytest.mark.parametrize("config, trace_sha, best_sha", GOLDEN, ids=["dim4", "dim2"])
    def test_golden_fingerprints(self, config, trace_sha, best_sha):
        best, traces = seesaw(SeesawConfig(**config))
        assert sha256(trace_json(best, traces)) == trace_sha
        assert sha256(dumps_scenario(best.scenario)) == best_sha

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_per_seed_loop(self, dim):
        # at d = 3, rng_seed 3 has tied eigenvalues under the pair iteration; 2 has none
        config = SeesawConfig(dim=dim, seeds=6, rng_seed=3 if dim == 3 else 2, max_sweeps=60)
        best, traces = seesaw(config)
        ref_best, ref_traces = per_seed_seesaw(config)
        if dim == 3:  # odd dimensions exercise the degenerate tie-break
            assert sum(t.degenerate_steps for t in ref_traces) > 0
        assert trace_json(best, traces) == trace_json(ref_best, ref_traces)
        assert [dumps_scenario(t.scenario) for t in traces] == [
            dumps_scenario(t.scenario) for t in ref_traces]

    @pytest.mark.parametrize("dim", [3, 4])
    def test_seed_independence(self, dim):
        # a seed's trace does not depend on which other seeds share the batch
        _, many = seesaw(SeesawConfig(dim=dim, seeds=20, rng_seed=7, max_sweeps=60))
        if dim == 3:  # odd dimensions exercise the degenerate tie-break
            assert sum(t.degenerate_steps for t in many) > 0
        for k in (1, 6):
            _, few = seesaw(SeesawConfig(dim=dim, seeds=k, rng_seed=7, max_sweeps=60))
            for a, b in zip(many[:k], few, strict=True):
                assert (a.values, a.converged, a.degenerate_steps) == (
                    b.values, b.converged, b.degenerate_steps)
                assert dumps_scenario(a.scenario) == dumps_scenario(b.scenario)

    def test_trace_fields(self):
        _, traces = seesaw(SeesawConfig(dim=4, seeds=4, rng_seed=2, max_sweeps=3))
        assert [t.seed_index for t in traces] == [0, 1, 2, 3]
        for t in traces:
            assert 1 <= len(t.values) <= 3
            assert t.converged == (len(t.values) < 3 or t.values[-1] - t.values[-2] < 1e-13)
            assert abs(expression_value(t.scenario) - t.values[-1]) <= 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SeesawConfig(dim=1)
        with pytest.raises(ValueError):
            SeesawConfig(dim=4, max_sweeps=0)
        with pytest.raises(ValueError):
            SeesawConfig(dim=4, tol=0.0)
        with pytest.raises(ValueError, match="rng_seed must be >= 0"):
            SeesawConfig(dim=4, rng_seed=-1)
        for tol in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                SeesawConfig(dim=4, tol=tol)
        for field, value in (("dim", 4.5), ("seeds", 2.0), ("max_sweeps", "10"),
                             ("rng_seed", 1.5), ("seeds", True)):
            with pytest.raises(TypeError, match=f"{field} must be an integer"):
                SeesawConfig(**{"dim": 4, field: value})
        SeesawConfig(dim=np.int64(4), seeds=np.int32(2))

    def test_final_iterates_checked_once_as_a_stack(self, monkeypatch):
        """The loop checks nothing: however many sweeps run, the seesaw makes
        one observable check, on all seeds' final observables at once."""
        calls = []
        check = scenario.require_observables

        def counting(m):
            calls.append(m.shape)
            check(m)

        monkeypatch.setattr(scenario, "require_observables", counting)
        counts = []
        for sweeps in (2, 40):
            calls.clear()
            _, traces = seesaw(SeesawConfig(dim=4, seeds=5, rng_seed=3, max_sweeps=sweeps))
            counts.append(list(calls))
        assert max(len(t.values) for t in traces) > 2
        assert counts == [[(5, 6, 4, 4)]] * 2

    def test_four_eigensolves_per_sweep(self, eigh_calls, monkeypatch):
        """After the start's one rounding, each batch sweep makes one stacked
        eigensolve for the state step and one per pair of SLOT_PAIRS. Only the
        rounding and the state steps sort and phase-fix their eigenvectors."""
        canonical = []
        eig = linalg.eig_exact_hermitian

        def counting(h):
            canonical.append(h.shape)
            return eig(h)

        monkeypatch.setattr(linalg, "eig_exact_hermitian", counting)
        _, traces = seesaw(SeesawConfig(dim=4, seeds=5, rng_seed=3))
        sweeps = max(len(t.values) for t in traces)
        calls = eigh_calls
        assert calls[0] == (5, 6, 4, 4)  # the random starts, rounded
        assert len(calls) - 1 == 4 * sweeps
        assert calls[1:5] == [(5, 4, 4)] + [(5, 2, 4, 4)] * 3  # the first sweep
        assert canonical == [calls[0]] + calls[1::4]

    def test_checks_once_at_the_constructors(self, hermitian_checks):
        # the starts, steps and Bell operators are Hermitian by construction;
        # the final iterates are checked once, as one stack, by `observables`
        seesaw(SeesawConfig(dim=4, seeds=2))
        assert hermitian_checks == ["observables"]

    def test_bad_iterate_raises_at_the_final_check(self, monkeypatch):
        sign_step = optimize._sign_step

        def scaled(g):  # the first running seed's rounding is 1.5 times an involution
            a, w = sign_step(g)
            a[0] *= 1.5
            return a, w

        monkeypatch.setattr(optimize, "_sign_step", scaled)
        with pytest.raises(NonInvolution, match="involution residual 1.250e"):
            seesaw(SeesawConfig(dim=4, seeds=3, rng_seed=0, max_sweeps=3))
