import hashlib
import itertools
import math

import numpy as np
import pytest

from tempcert import linalg, seqcorr
from tempcert.errors import (
    NonInvolution,
    NotHermitian,
    ShapeMismatch,
)
from tempcert.scenario import (
    CANONICAL_MATRICES,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    Observable,
    PureState,
    Scenario,
    canonical_scenario,
    conjugate_scenario,
    random_density,
    random_involution,
    random_pure_state,
    random_scenario,
    random_unitary,
)
from tempcert.robustness import Depolarizing, apply_noise
from tempcert.seqcorr import (
    MAX_SHOTS,
    PRODUCTS,
    SIGNS,
    TERMS,
    TERMS_BY_LENGTH,
    CorrelationSet,
    OutcomeDistribution,
    correlations,
    exact_sequence_distribution,
    pair_corr,
    sample_sequences,
    triple_corr,
)

from conftest import rng_from


# ---------------------------------------------------------------------------
# Reference: the per-term, per-outcome loops that the stacked chains replaced,
# each observable made an exact involution by one Newton–Schulz step taken on
# its own, each branch grown on the state factor R (rho = R R†, from the
# scenario's state or, for a raw rho, from DensityMatrix(rho).factor()) with
# probability ||C R||_F^2. The stacked code must reproduce them bit for bit;
# the step itself is held to project_involution's rounding in
# test_properties.py, and ||C R||_F^2 to tr(C rho C†) there too.
# reference_sampled is the independent form of sampling: it walks the chain,
# renormalizing each branch by sqrt(q) and multiplying the conditional
# probabilities q into a weight. Those products telescope to ||C R||_F^2, the
# weights the stacked code draws from, so they agree to ulps; both snap them to
# the grid of 2^-40 before the draw, which absorbs the ulps, and the counts
# below agree bit for bit. Its variance is the closed form shots (1 - est^2) /
# (shots - 1) of the +-1 products, which TestSampling holds to the sum of
# squared deviations. reference_correlations draws the seven terms in TERMS
# order from one generator.
# ---------------------------------------------------------------------------

def reference_matrices(seq):
    mats = []
    for obs in seq:
        if obs.involution_residual > 1e-8:
            raise NonInvolution("reference: involution residual too large")
        m = obs.matrix
        mats.append(linalg.hermitian_part(m @ (3 * np.eye(len(m)) - m @ m) / 2))
    return mats


def squared_norm(branch):
    return float((branch.real ** 2 + branch.imag ** 2).sum())


def reference_exact(r, seq):
    mats = reference_matrices(seq)
    eye = np.eye(r.shape[0])
    projectors = [((eye + m) / 2, (eye - m) / 2) for m in mats]
    probs = {}
    for outcomes in itertools.product((1, -1), repeat=len(seq)):
        branch = r
        for (plus, minus), a in zip(projectors, outcomes):
            branch = (plus if a == 1 else minus) @ branch
        probs[outcomes] = squared_norm(branch)
    return probs


def reference_sampled(r, seq, shots, rng):
    mats = reference_matrices(seq)
    eye = np.eye(r.shape[0])
    branches = [((), r, 1.0)]
    for m in mats:
        plus, minus = (eye + m) / 2, (eye - m) / 2
        grown = []
        for outcomes, branch, p in branches:
            for a, proj in ((1, plus), (-1, minus)):
                post = proj @ branch
                q = squared_norm(post)
                if q <= 0.0:
                    continue
                grown.append((outcomes + (a,), post / np.sqrt(q), p * q))
        branches = grown
    weights = np.array([b[2] for b in branches])
    grid = np.rint(2.0 ** 40 * weights / weights.sum())
    branches = [b for b, g in zip(branches, grid) if g > 0]
    counts = rng.multinomial(shots, grid[grid > 0] / grid.sum())
    values = np.array([np.prod(b[0]) for b in branches], dtype=float)
    estimate = float(counts @ values) / shots
    var = shots * max(1 - estimate ** 2, 0.0) / (shots - 1)
    probs = {b[0]: c / shots for b, c in zip(branches, counts)}
    return probs, estimate, (var / shots) ** 0.5


def reference_correlations(s, mode, shots=None, rng_seed=None):
    r = s.state.factor()
    values, stderr = {}, {}
    rng = np.random.default_rng(rng_seed) if mode == "sampled" else None
    for name, slots, _ in TERMS:
        seq = [s.observable(k) for k in slots]
        if mode == "exact-sum":
            probs = reference_exact(r, seq)
            values[name] = float(sum(np.prod(o) * p for o, p in probs.items()))
        else:
            _, values[name], stderr[name] = reference_sampled(r, seq, shots, rng)
    return values, stderr or None


#: See TestStackedChains.test_golden_fingerprint.
GOLDEN_MODES_SHA256 = "76f865b2f272a911ab9e46f90cd2820117474bcce5a6443f455469a045567dbd"

#: See TestSnappedDraws.test_conjugated_canonical_golden.
GOLDEN_CONJUGATED_SHA256 = "68c42db3cbae7e8be123fda4198e6f0d80345cbf3501eed1393724c517f23e61"


def scenario_of(d, seed, pure):
    rng = rng_from(seed)
    s = random_scenario(d, rng)
    return s if pure else s.with_state(random_density(d, rng))


class TestPairCorr:
    def test_canonical_14(self, canonical):
        rho = canonical.density()
        assert abs(pair_corr(rho, canonical.observable(1), canonical.observable(4)) - 1) <= 1e-14

    def test_canonical_36(self, canonical):
        rho = canonical.density()
        assert abs(pair_corr(rho, canonical.observable(3), canonical.observable(6)) + 1) <= 1e-14

    def test_repeated_observable_gives_one(self):
        rng = rng_from(20)
        for _ in range(10):
            rho = random_density(4, rng).matrix
            a = random_involution(4, rng)
            assert abs(pair_corr(rho, a, a) - 1) <= 1e-12

    def test_shape_mismatch(self, canonical):
        with pytest.raises(ShapeMismatch):
            pair_corr(np.eye(2) / 2, canonical.observable(1), canonical.observable(4))


class TestTripleCorr:
    def test_canonical_123(self, canonical):
        rho = canonical.density()
        obs = [canonical.observable(k) for k in (1, 2, 3)]
        assert abs(triple_corr(rho, *obs) - 1) <= 1e-14

    def test_repeated_inner_collapses(self):
        # {B, B} = 2, so the nest collapses to tr(rho A)
        rng = rng_from(21)
        for _ in range(10):
            rho = random_density(4, rng).matrix
            a, b = random_involution(4, rng), random_involution(4, rng)
            expect = float(np.trace(rho @ a.matrix).real)
            assert abs(triple_corr(rho, a, b, b) - expect) <= 1e-12

    def test_order_sensitivity_witness(self):
        # regression fixture: order reversal changes the value for this seed
        s = random_scenario(4, rng_from(5))
        rho = s.density()
        fwd = triple_corr(rho, s.observable(1), s.observable(2), s.observable(3))
        rev = triple_corr(rho, s.observable(3), s.observable(2), s.observable(1))
        assert abs(fwd - (-0.04656681463046719)) <= 1e-12
        assert abs(rev - (-0.13329500377293274)) <= 1e-12
        assert abs(fwd - rev) > 0.05


class TestExactDistribution:
    def test_canonical_pair_14(self, canonical):
        dist = exact_sequence_distribution(
            canonical.density(), [canonical.observable(1), canonical.observable(4)]
        )
        p = dist.probabilities
        assert abs(p[(1, 1)] - 0.5) <= 1e-12
        assert abs(p[(-1, -1)] - 0.5) <= 1e-12
        assert abs(p[(1, -1)]) <= 1e-12
        assert abs(p[(-1, 1)]) <= 1e-12

    def test_repeated_measurement_consistency(self):
        rng = rng_from(22)
        rho = random_density(4, rng).matrix
        a = random_involution(4, rng)
        p = exact_sequence_distribution(rho, [a, a]).probabilities
        assert abs(p[(1, -1)]) <= 1e-12
        assert abs(p[(-1, 1)]) <= 1e-12

    def test_maximally_mixed_uniform(self, canonical):
        dist = exact_sequence_distribution(
            np.eye(4) / 4, [canonical.observable(1), canonical.observable(4)]
        )
        for v in dist.probabilities.values():
            assert abs(v - 0.25) <= 1e-12

    def test_sequence_length_validation(self, canonical):
        with pytest.raises(ShapeMismatch):
            exact_sequence_distribution(canonical.density(), [canonical.observable(1)])

    def test_probabilities_are_required(self):
        with pytest.raises(TypeError):
            OutcomeDistribution((1, 2))
        dist = OutcomeDistribution((1, 2), {(1, 1): 0.75, (-1, 1): 0.25})
        assert dist.correlator() == 0.5

    @pytest.mark.parametrize("sequence, probabilities", [
        ((1, 2), {(1, 1): 0.5, (5, 5): 0.5}),        # not +-1: its correlator would read 13
        ((1, 2), {(1, 1): 0.5, (1, 0): 0.5}),
        ((1, 2), {(1, 1): 0.5, (1, -1, 1): 0.5}),
        ((1, 2), {1: 1.0}),
        ((1, 2, 3), {(1, 1): 1.0}),                  # one outcome short of each step
    ])
    def test_keys_must_be_outcome_tuples_of_the_sequence(self, sequence, probabilities):
        with pytest.raises(ValueError, match=f"not a tuple of {len(sequence)} outcomes"):
            OutcomeDistribution(sequence, probabilities)

    def test_nan_probability_rejected(self):
        # NaN fails every comparison, so each check is written as `not ... <=`
        with pytest.raises(ValueError, match="nan"):
            OutcomeDistribution((1, 2), {(1, 1): 1.0, (-1, 1): float("nan")})


class TestFormulaOperationalEquivalence:
    def test_pairs_and_triples_match_exact_sums(self):
        # anticommutator formulas against the Lüders sums, random scenarios
        rng = rng_from(23)
        for _ in range(50):
            s = random_scenario(4, rng)
            analytic = correlations(s, "analytic")
            summed = correlations(s, "exact-sum")
            for name in analytic.as_dict():
                assert abs(getattr(analytic, name) - getattr(summed, name)) <= 1e-10

    def test_mixed_state_agreement(self, canonical):
        rng = rng_from(24)
        rho = DensityMatrix(random_density(4, rng).matrix)
        s = Scenario(rho, canonical.observables)
        a = correlations(s, "analytic")
        b = correlations(s, "exact-sum")
        for name in a.as_dict():
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-10

    def test_correlators_bounded(self):
        rng = rng_from(25)
        for _ in range(50):
            s = random_scenario(4, rng)
            for v in correlations(s, "analytic").as_dict().values():
                assert abs(v) <= 1 + 1e-12


class TestSampling:
    def test_deterministic_given_seed(self, canonical):
        rho = np.eye(4) / 4
        seq = [canonical.observable(1), canonical.observable(4)]
        d1, e1, s1 = sample_sequences(rho, seq, 10**5, 123)
        d2, e2, s2 = sample_sequences(rho, seq, 10**5, 123)
        assert e1 == e2 and s1 == s2
        assert d1.probabilities == d2.probabilities

    def test_canonical_perfect_correlation(self, canonical):
        seq = [canonical.observable(1), canonical.observable(4)]
        _, est, se = sample_sequences(canonical.density(), seq, 10**6, 42)
        assert est == 1.0
        assert se == 0.0

    def test_maximally_mixed_near_zero(self, canonical):
        seq = [canonical.observable(1), canonical.observable(4)]
        _, est, se = sample_sequences(np.eye(4) / 4, seq, 10**6, 42)
        assert se > 0
        assert abs(est) <= 5 * se

    def test_sampling_consistency_bulk(self):
        # >= 99% of estimates within 4 standard errors of the exact values
        rng = rng_from(26)
        total, within = 0, 0
        for k in range(50):
            s = random_scenario(4, rng)
            exact = correlations(s, "analytic")
            sampled = correlations(s, "sampled", shots=10**5, rng_seed=9000 + k)
            for name in exact.as_dict():
                total += 1
                err = abs(getattr(sampled, name) - getattr(exact, name))
                if err <= 4 * max(sampled.stderr[name], 1e-12):
                    within += 1
        assert within / total >= 0.99

    def test_stderr_scale(self, canonical):
        # stderr ~ 1/sqrt(shots) on a fair-coin correlator
        seq = [canonical.observable(1), canonical.observable(4)]
        _, _, se = sample_sequences(np.eye(4) / 4, seq, 10**4, 7)
        assert 0.5e-2 <= se <= 2e-2

    def test_shots_validation(self, canonical):
        # the multinomial draw would truncate a fractional count while the
        # estimate divides by it, biasing every correlator; it is refused
        seq = [canonical.observable(1), canonical.observable(4)]
        for shots, match in ((0, ">= 1"), (2.9, "whole number"), (1000.5, "whole number"),
                             (float("nan"), "whole number")):
            with pytest.raises(ValueError, match=match):
                sample_sequences(canonical.density(), seq, shots, 1)
            with pytest.raises(ValueError, match=match):
                correlations(canonical, "sampled", shots=shots, rng_seed=0)
        # a value that is no real number is refused by type, naming shots, before
        # the % of the whole-number test can raise its own message
        for shots in ("100", [100], 3 + 0j):
            with pytest.raises(TypeError, match="^shots must be a real number, got "):
                sample_sequences(canonical.density(), seq, shots, 1)
            with pytest.raises(TypeError, match="^shots must be a real number, got "):
                correlations(canonical, "sampled", shots=shots, rng_seed=1)

    def test_bool_shots_are_refused(self, canonical):
        seq = [canonical.observable(1), canonical.observable(4)]
        for shots in (True, np.bool_(True)):
            with pytest.raises(ValueError, match="whole number"):
                sample_sequences(canonical.density(), seq, shots, 1)
            with pytest.raises(ValueError, match="whole number"):
                correlations(canonical, "sampled", shots=shots, rng_seed=1)

    @pytest.mark.parametrize("seed, error", [(True, TypeError), (1.5, TypeError),
                                             (1.0, TypeError), (-1, ValueError),
                                             (np.random.SeedSequence(5), TypeError)])
    def test_sampled_seed_is_checked(self, canonical, seed, error):
        # a bool passed as 0 or 1 and a float failed inside numpy; a negative
        # seed is refused here, before SeedSequence sees it; both routes take
        # integers only
        with pytest.raises(error, match="rng_seed must be"):
            correlations(canonical, "sampled", shots=100, rng_seed=seed)
        with pytest.raises(error, match="rng_seed must be"):
            sample_sequences(canonical.state, canonical.observables[:2], 100, seed)

    def test_numpy_integer_seed_is_accepted(self, canonical):
        a = correlations(canonical, "sampled", shots=100, rng_seed=np.int64(5))
        b = correlations(canonical, "sampled", shots=100, rng_seed=5)
        assert (a.as_dict(), a.stderr) == (b.as_dict(), b.stderr)
        seq = [canonical.observable(1), canonical.observable(2), canonical.observable(3)]
        draw, again = (sample_sequences(canonical.state, seq, 1000, seed)
                       for seed in (5, np.int64(5)))
        assert again[1:] == draw[1:]
        assert again[0].probabilities == draw[0].probabilities

    def test_whole_shot_counts_of_any_type_agree(self):
        s = scenario_of(4, 905, False)
        seq = [s.observable(k) for k in (1, 2, 3)]
        expect = correlations(s, "sampled", shots=10**6, rng_seed=4)
        draw = sample_sequences(s.state, seq, 10**6, 4)
        for shots in (1e6, np.int64(10**6)):
            c = correlations(s, "sampled", shots=shots, rng_seed=4)
            assert (c.as_dict(), c.stderr) == (expect.as_dict(), expect.stderr)
            assert sample_sequences(s.state, seq, shots, 4)[1:] == draw[1:]

    @pytest.mark.parametrize("shots", [np.iinfo(np.int64).max + 1, 10**20])
    def test_shots_beyond_int64_are_rejected(self, canonical, shots):
        # the multinomial draw takes int64 counts; larger shots would overflow there
        with pytest.raises(ValueError, match="shots must be at most"):
            sample_sequences(canonical.density(),
                             [canonical.observable(1), canonical.observable(4)], shots, 1)
        with pytest.raises(ValueError, match="shots must be at most"):
            correlations(canonical, "sampled", shots=shots, rng_seed=0)

    def test_stderr_is_the_closed_form_of_the_sample_variance(self, canonical):
        # the outcome products are +-1, so the squared deviations from the
        # estimate sum to shots (1 - estimate^2): each form carries a few ulps
        # of rounding on a value at most 1, the sum about one per outcome
        cases = [(canonical, (1, 4)), (canonical, (1, 2)), (scenario_of(4, 905, False), (1, 2, 3)),
                 (scenario_of(5, 906, True), (4, 5, 6)), (scenario_of(3, 907, True), (3, 6))]
        for (s, slots), shots, seed in itertools.product(cases, (10, 1000, 10**6), (0, 1)):
            dist, est, se = sample_sequences(s.state, [s.observable(k) for k in slots], shots, seed)
            counts = np.rint(np.array(list(dist.probabilities.values())) * shots)
            values = np.array([np.prod(o) for o in dist.probabilities], dtype=float)
            spread = float(counts @ (values - est) ** 2) / shots
            assert abs(se ** 2 * (shots - 1) - spread) <= 16 * np.finfo(float).eps

    def test_stderr_at_max_shots_is_finite_and_non_negative(self, canonical):
        # past 2^53 shots the float estimate can round to 1 + 2^-52, where the
        # closed form's 1 - estimate^2 is negative; the variance is clamped at 0
        for s in (canonical, scenario_of(4, 905, False)):
            c = correlations(s, "sampled", shots=MAX_SHOTS, rng_seed=0)
            assert all(math.isfinite(se) and se >= 0 for se in c.stderr.values())
        a, b, ab = (Observable(np.kron(x, y)) for x, y in
                    ((PAULI_Z, PAULI_I), (PAULI_I, PAULI_Z), (PAULI_Z, PAULI_Z)))
        psi = random_pure_state(4, np.random.default_rng(3))
        _, est, se = sample_sequences(psi, [a, b, ab], MAX_SHOTS, 44)
        assert (est, se) == (1 + 2 ** -52, 0.0)


class TestCorrelations:
    def test_canonical_analytic(self, canonical):
        c = correlations(canonical, "analytic")
        expected = dict(triple_123=1, triple_213=1, triple_456=1, triple_546=1,
                        pair_14=1, pair_25=1, pair_36=-1)
        for name, v in expected.items():
            assert abs(getattr(c, name) - v) <= 1e-12

    def test_maximally_mixed_state(self, canonical):
        # triples are state-independent (products are the identity), pairs traceless
        s = Scenario(DensityMatrix(np.eye(4) / 4), canonical.observables)
        c = correlations(s, "analytic")
        for name in ("triple_123", "triple_213", "triple_456", "triple_546"):
            assert abs(getattr(c, name) - 1) <= 1e-12
        for name in ("pair_14", "pair_25", "pair_36"):
            assert abs(getattr(c, name)) <= 1e-12

    def test_sampled_mode_has_stderr(self, canonical):
        c = correlations(canonical, "sampled", shots=1000, rng_seed=0)
        assert c.source == "sampled"
        assert set(c.stderr) == set(c.as_dict())

    def test_sampled_deterministic(self, canonical):
        a = correlations(canonical, "sampled", shots=1000, rng_seed=3)
        b = correlations(canonical, "sampled", shots=1000, rng_seed=3)
        assert a.as_dict() == b.as_dict()

    def test_unknown_mode(self, canonical):
        with pytest.raises(ValueError):
            correlations(canonical, "guess")

    def test_out_of_range_rejected(self):
        for v in (1.1, float("nan")):
            with pytest.raises(ValueError):
                CorrelationSet(v, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("deviation", [0.99e-12, -0.99e-12])
    def test_state_at_the_norm_tolerance_is_evaluated(self, canonical, deviation):
        # PureState accepts ||psi|| within NORM_TOL of 1, which moves correlators
        # and outcome sums by up to (1 + NORM_TOL)^2 - 1
        s = canonical.with_state(PureState(canonical.state.amplitudes * (1 + deviation)))
        for mode in ("analytic", "exact-sum"):
            assert abs(abs(correlations(s, mode).triple_123) - 1) > 1.9e-12
        dist = exact_sequence_distribution(s.state, s.observables[:3])
        assert abs(sum(dist.probabilities.values()) - 1) > 1.9e-12
        with pytest.raises(ValueError, match="outside"):
            CorrelationSet(1.01, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="sum to"):
            OutcomeDistribution((1, 2), {(1, 1): 1.01})

    def test_non_hermitian_operands_raise(self):
        # the vector form is exact for Hermitian operands only, so a raw rho
        # is checked at the edge, as a density matrix
        y = Observable(np.array([[0.0, -1j], [1j, 0.0]]))
        with pytest.raises(NotHermitian):
            pair_corr(np.array([[0.5, 0.2j], [0.0, 0.5]]), y, y)


class TestStackedChains:
    """exact-sum and sampled against the per-outcome reference loops."""

    @staticmethod
    def assert_correlations_match_reference(s, k):
        exact = correlations(s, "exact-sum")
        assert (exact.as_dict(), exact.stderr) == reference_correlations(s, "exact-sum")
        sampled = correlations(s, "sampled", shots=10**5, rng_seed=k)
        assert (sampled.as_dict(), sampled.stderr) == reference_correlations(
            s, "sampled", 10**5, k)

    @staticmethod
    def assert_distributions_match_reference(s):
        # a raw rho is taken through DensityMatrix: d columns even for a pure state
        rho = s.density()
        r = DensityMatrix(rho).factor()
        for _, slots, _ in TERMS:
            seq = [s.observable(k) for k in slots]
            assert exact_sequence_distribution(rho, seq).probabilities == reference_exact(r, seq)
            empirical, est, se = sample_sequences(rho, seq, 1000, 11)
            assert (empirical.probabilities, est, se) == reference_sampled(
                r, seq, 1000, np.random.default_rng(11))

    @pytest.mark.parametrize("pure", [True, False])
    @pytest.mark.parametrize("d", range(2, 7))
    def test_correlations_match_reference_bit_for_bit(self, d, pure):
        for k in range(3):
            self.assert_correlations_match_reference(scenario_of(d, 700 + 10 * d + k, pure), k)

    @pytest.mark.parametrize("pure", [True, False])
    @pytest.mark.parametrize("d", range(2, 7))
    def test_distributions_match_reference_bit_for_bit(self, d, pure):
        self.assert_distributions_match_reference(scenario_of(d, 800 + d, pure))

    @pytest.mark.parametrize("noise", [None, Depolarizing(0.1)], ids=["canonical", "depolarized"])
    def test_impossible_outcomes_match_reference_bit_for_bit(self, noise):
        # random scenarios have no impossible outcome; here every triple's chain has
        # outcomes of weight 0, the last in outcome order among them, so the q > 0
        # mask that the draw loop carries is held to reference_sampled's pruning
        s = canonical_scenario() if noise is None else apply_noise(canonical_scenario(), noise)
        for slots in [slots for _, slots, _ in TERMS if len(slots) == 3]:
            probs = exact_sequence_distribution(s.state, [s.observable(k) for k in slots])
            assert probs.probabilities[(-1, -1, -1)] == 0.0
            assert sum(p == 0.0 for p in probs.probabilities.values()) == 4
        for k in range(3):
            self.assert_correlations_match_reference(s, k)
        self.assert_distributions_match_reference(s)

    def test_length_tables_list_the_terms_in_order(self):
        # built once at import: each length's names and 0-based slots, triples then pairs
        rows = [(n, name, tuple(slots.tolist()))
                for n, (names, index) in TERMS_BY_LENGTH.items()
                for name, slots in zip(names, index + 1, strict=True)]
        assert rows == [(len(slots), name, slots) for name, slots, _ in TERMS]
        assert {n: p.tolist() for n, p in PRODUCTS.items()} == {n: list(s) for n, s in SIGNS.items()}

    @pytest.mark.parametrize("pure", [True, False])
    def test_scenario_operands_are_not_checked_again(self, pure, monkeypatch):
        # a Scenario checked its state and observables when it was built, so
        # exact-sum and sampled hand its factor and matrices to the Lüders kernel
        # directly; the raw-rho routes still take the one operand check
        s = scenario_of(4, 900, pure)
        checks = []
        original = seqcorr.require_operands
        monkeypatch.setattr(seqcorr, "require_operands",
                            lambda *args: checks.append(args) or original(*args))
        correlations(s, "exact-sum")
        correlations(s, "sampled", shots=100, rng_seed=0)
        assert checks == []
        exact_sequence_distribution(s.state, s.observables[:2])
        sample_sequences(s.density(), s.observables[:3], 100, 0)
        assert len(checks) == 2

    def test_zero_probability_branches_are_pruned(self, canonical):
        # at the canonical point half of the outcome tuples of every term are
        # impossible, of weight exactly 0; the multinomial draw leaves them out
        rho = canonical.density()
        for _, slots, _ in TERMS:
            seq = [canonical.observable(k) for k in slots]
            empirical, est, se = sample_sequences(rho, seq, 1000, 1)
            assert len(empirical.probabilities) == 2 ** (len(slots) - 1)
            assert (empirical.probabilities, est, se) == reference_sampled(
                DensityMatrix(rho).factor(), seq, 1000, np.random.default_rng(1))

    def test_golden_fingerprint(self):
        # sha256 of all three modes on fixed-seed random_scenario(4) inputs:
        # sampled as recorded from the per-term, per-outcome loops before the
        # chains were stacked, exact-sum as recorded once its outcome
        # probabilities became ||C R||_F^2 on the state factor instead of
        # tr(C rho C†) (34 of its 42 values moved, by at most 5.0e-16; the
        # sampled and analytic bits did not move), analytic as recorded from its
        # vector form on the unit-norm state factor (12 of the mixed inputs'
        # values moved by at most 2.2e-16 when DensityMatrix began to scale
        # its factor; no exact-sum or sampled bit moved), and sampled again
        # once the seven terms drew from one PCG64 stream over snapped outcome
        # probabilities (all 42 values moved, the estimates by at most 3.2e-3
        # and the stderrs by at most 1.5e-6; no analytic or exact-sum bit
        # moved), and all three once the roundings and density factors took
        # eigh as it comes and the sampled variance its closed form (analytic
        # and exact-sum values by at most 3.3e-16, sampled stderrs by at most
        # 2.2e-19, no sampled estimate), numpy 2.4, OpenBLAS.
        # Like the seesaw fingerprints it holds the bits of the BLAS and LAPACK
        # kernels, which may differ per CPU; the reference tests above check
        # the same property in-process.
        rng = rng_from(2010)
        out = []
        for k in range(6):
            s = random_scenario(4, rng)
            if k % 2:
                s = s.with_state(random_density(4, rng))
            for c in (correlations(s, "analytic"), correlations(s, "exact-sum"),
                      correlations(s, "sampled", shots=10**6, rng_seed=k)):
                out.append((c.source, c.as_dict(), c.stderr))
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == GOLDEN_MODES_SHA256

    @pytest.mark.parametrize("mode", ["exact-sum", "sampled"])
    def test_one_stacked_rounding_per_call(self, eigh_calls, mode):
        # Observables, near or exact involutions, are made exact by the
        # Newton–Schulz step without an eigensolve. A state object takes no
        # eigensolve; a raw rho takes DensityMatrix's one
        s = scenario_of(4, 901, True)
        exact = Scenario(s.state, [Observable(m) for m in CANONICAL_MATRICES])
        seq = [s.observable(k) for k in (1, 2, 3)]
        eigh_calls.clear()
        correlations(s, mode, shots=100, rng_seed=0)
        correlations(exact, mode, shots=100, rng_seed=0)
        assert eigh_calls == []
        if mode == "exact-sum":
            exact_sequence_distribution(s.density(), seq)
        else:
            sample_sequences(s.density(), seq, 100, 0)
        assert eigh_calls == [(4, 4)]

    def test_correlations_never_form_a_density_matrix(self, monkeypatch, canonical):
        # every mode works on the state factor R: rho = R R† is never formed
        calls = []
        for cls in (PureState, DensityMatrix):
            def counting(state, _original=cls.density, _name=cls.__name__):
                calls.append(_name)
                return _original(state)

            monkeypatch.setattr(cls, "density", counting)
        for s in (scenario_of(4, 904, True), scenario_of(4, 904, False), canonical):
            for mode in ("analytic", "exact-sum", "sampled"):
                correlations(s, mode, shots=100, rng_seed=0)
        assert calls == []
        canonical.density()  # the counter itself works
        assert calls == ["PureState"]

    @pytest.mark.parametrize("mode", ["exact-sum", "sampled"])
    def test_fresh_scenario_takes_no_svd(self, svd_calls, mode):
        # Observables are not checked again: the Newton–Schulz step takes
        # matrix products only
        s = random_scenario(4, rng_from(902))
        svd_calls.clear()
        correlations(s, mode, shots=100, rng_seed=0)
        assert svd_calls == []


#: The seven terms' sequences and three more, two of them anticommuting pairs.
SEQUENCES = [slots for _, slots, _ in TERMS] + [(5, 1), (2, 6), (3, 4, 5)]


def conjugated_canonicals(n, seed):
    """n canonical scenarios conjugated by Haar unitaries drawn from seed."""
    rng = rng_from(seed)
    return [conjugate_scenario(canonical_scenario(), random_unitary(4, rng)) for _ in range(n)]


class TestSnappedDraws:
    """Counts that BLAS rounding cannot move: each row of outcome weights is
    snapped to the grid of 2^-40 before its multinomial draw."""

    def test_counts_survive_one_ulp_in_the_weights(self, monkeypatch):
        # at symmetric points two possible outcomes are equally likely, and
        # numpy's multinomial switches between drawing with p and with 1 - p at
        # p = 1/2 exactly, so an ulp across 1/2 swapped two counts; 40 scenarios
        # x 10 sequences x 5 seeds, each weight moved by one ulp up or down
        draws = [([s.observable(k) for k in slots], s.state, seed)
                 for s in conjugated_canonicals(40, 50) for slots in SEQUENCES for seed in range(5)]

        def sampled():
            return [(d.probabilities, est, se) for d, est, se in
                    (sample_sequences(state, seq, 10**6, seed) for seq, state, seed in draws)]

        before = sampled()
        weights, nudge = seqcorr._weights, np.random.default_rng(51)

        def perturbed(r, proj):
            w = weights(r, proj)
            return np.nextafter(w, np.where(nudge.random(w.shape) < 0.5, -np.inf, np.inf))

        monkeypatch.setattr(seqcorr, "_weights", perturbed)
        after = sampled()
        assert sum(a != b for a, b in zip(before, after)) == 0

    def test_residue_outcomes_are_impossible(self, canonical):
        # conjugated, the four impossible outcomes of [A1, A2, A3] keep weights
        # of about 1e-33 from rounding; snapped they are 0, and the draw is the
        # unconjugated scenario's
        s = conjugate_scenario(canonical, random_unitary(4, np.random.default_rng(3)))
        residues = sorted(exact_sequence_distribution(s.state, s.observables[:3])
                          .probabilities.values())[:4]
        assert max(residues) < 1e-30
        plain = sample_sequences(canonical.state, canonical.observables[:3], 10**6, 8)
        conjugated = sample_sequences(s.state, s.observables[:3], 10**6, 8)
        assert len(conjugated[0].probabilities) == len(plain[0].probabilities) == 4
        assert conjugated[0].probabilities == plain[0].probabilities
        assert conjugated[1:] == plain[1:]

    def test_conjugated_canonical_golden(self):
        # sha256 of sampled correlators and of SEQUENCES' sample_sequences draws
        # on canonical scenarios conjugated by Haar unitaries, every other one
        # depolarized; symmetric points whose counts used to hang on the last
        # bits of the BLAS kernels, now fixed by the snap; re-recorded when the
        # variance took its closed form (18 stderrs moved by at most 2.2e-19)
        out = []
        for k, s in enumerate(conjugated_canonicals(6, 52)):
            if k % 2:
                s = apply_noise(s, Depolarizing(0.2))
            c = correlations(s, "sampled", shots=10**6, rng_seed=k)
            out.append((c.as_dict(), c.stderr))
            for slots in SEQUENCES:
                d, est, se = sample_sequences(s.state, [s.observable(j) for j in slots], 10**6, k)
                out.append(({o: float(p) for o, p in d.probabilities.items()}, est, se))
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == GOLDEN_CONJUGATED_SHA256

    def test_one_generator_per_call_and_no_distribution_per_term(self, monkeypatch):
        """A sampled call seeds one PCG64 and spawns no SeedSequence children,
        and an exact-sum call builds no OutcomeDistribution."""
        calls = []
        pcg64 = np.random.PCG64

        def counting_pcg64(seed):
            calls.append("PCG64")
            return pcg64(seed)

        class CountingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                calls.append("spawn")
                return super().spawn(n_children)

        def counting_check(dist, _original=OutcomeDistribution.__post_init__):
            calls.append("OutcomeDistribution")
            _original(dist)

        s = scenario_of(4, 906, False)
        monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        monkeypatch.setattr(OutcomeDistribution, "__post_init__", counting_check)
        correlations(s, "sampled", shots=100, rng_seed=7)
        assert calls == ["PCG64"]
        calls.clear()
        correlations(s, "exact-sum")
        assert calls == []
        exact_sequence_distribution(s.state, s.observables[:2])  # the counters themselves work
        np.random.SeedSequence(7).spawn(2)
        assert calls == ["OutcomeDistribution", "spawn"]


class TestErrorPaths:
    """Each error the sequential routes raise, pinned before the chains were
    stacked."""

    @pytest.mark.parametrize("raw_rho", [False, True])
    def test_mixed_dimensions_raise_shape_mismatch(self, canonical, raw_rho):
        seq = [canonical.observable(1), Observable(PAULI_Z)]
        rho = canonical.density() if raw_rho else canonical.state
        with pytest.raises(ShapeMismatch):
            exact_sequence_distribution(rho, seq)
        with pytest.raises(ShapeMismatch):
            sample_sequences(rho, seq, 100, 0)

    def test_state_dimension_mismatch(self, canonical):
        seq = [Observable(PAULI_X), Observable(PAULI_Z)]
        with pytest.raises(ShapeMismatch):
            exact_sequence_distribution(canonical.density(), seq)
        with pytest.raises(ShapeMismatch):
            sample_sequences(canonical.density(), seq, 100, 0)

    @pytest.mark.parametrize("kwargs", [{"shots": 100}, {"rng_seed": 0}, {}])
    def test_sampled_mode_needs_shots_and_seed(self, canonical, kwargs):
        with pytest.raises(ValueError, match="needs shots and rng_seed"):
            correlations(canonical, "sampled", **kwargs)

    def test_raw_non_hermitian_matrix_raises(self, canonical):
        # a raw rho is checked as DensityMatrix checks it: Hermitian, trace one
        rho = canonical.density()
        cases = [
            (np.array([[0.5, 0.2j], [0.0, 0.5]]), [Observable(PAULI_X), Observable(PAULI_Z)],
             NotHermitian),
            (2 * rho, [canonical.observable(1), canonical.observable(4)], ValueError),
        ]
        for state, seq, error in cases:
            with pytest.raises(error):
                exact_sequence_distribution(state, seq)
            with pytest.raises(error):
                sample_sequences(state, seq, 100, 0)
