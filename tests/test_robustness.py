import concurrent.futures
import sys
import threading

import numpy as np
import pytest

from tempcert import robustness
from tempcert.errors import NotAViolation, ShapeMismatch
from tempcert.inequality import eval_IT_scenario
from tempcert.robustness import (
    JITTER_SPLIT_DIM,
    SWEEP_CSV_HEADER,
    TILT_EIGENSYSTEM,
    TILT_GENERATORS,
    Depolarizing,
    ObservableTilt,
    UnitaryJitter,
    _state_norm_checks,
    apply_noise,
    check_robustness_bounds,
    fit_loglog_slope,
    sweep,
    sweep_csv,
    sweep_report,
)
from tempcert import linalg
from tempcert.scenario import Observable, canonical_scenario, random_hermitian

from conftest import conjugated_embedding, rng_from


class TestApplyNoise:
    def test_zero_depolarizing_is_identity(self, canonical):
        assert apply_noise(canonical, Depolarizing(0.0)) is canonical

    def test_zero_tilt_is_identity(self, canonical):
        assert apply_noise(canonical, ObservableTilt(5, 0.0)) is canonical

    def test_zero_jitter_is_identity(self, canonical):
        assert apply_noise(canonical, UnitaryJitter(0.0)) is canonical

    def test_unknown_noise_model_rejected(self, canonical):
        with pytest.raises(TypeError, match="unknown noise model 'bogus'"):
            apply_noise(canonical, "bogus")

    def test_depolarizing_closed_form(self, canonical):
        for p in np.geomspace(1e-6, 1e-2, 9):
            noisy = apply_noise(canonical, Depolarizing(p))
            v = eval_IT_scenario(noisy).value
            assert abs(v - (5 - 3 * p)) <= 1e-12

    def test_tilt_preserves_involutions(self, canonical):
        noisy = apply_noise(canonical, ObservableTilt(5,
0.37))
        assert noisy.observable(5).involution_residual <= 1e-12

    def test_jitter_seeded(self, canonical):
        a = apply_noise(canonical, UnitaryJitter(1e-2, rng_seed=3))
        b = apply_noise(canonical, UnitaryJitter(1e-2, rng_seed=3))
        for x, y in zip(a.observables, b.observables):
            assert np.array_equal(x.matrix, y.matrix)

    @pytest.mark.parametrize("slot", range(1, 7))
    def test_tilt_matches_exponentiating_its_generator(self, canonical, slot):
        # the import-time eigensystem gives the bits of a per-row expi_hermitian
        # of the slot's generator, conjugation and Observable alike
        m = canonical.observable(slot).matrix
        for angle in (-0.45, -1e-9, 1e-12, 1e-4, 0.3, 0.45, 3.0):
            u = linalg.expi_hermitian(TILT_GENERATORS[slot], angle)
            expected = Observable(linalg.hermitian_part(u @ m @ u.conj().T)).matrix
            tilted = apply_noise(canonical, ObservableTilt(slot, angle)).observable(slot)
            assert tilted.matrix.tobytes() == expected.tobytes(), angle

    def test_tilt_eigensystem_is_a_read_only_table(self):
        w, v = TILT_EIGENSYSTEM
        assert w.shape == (6, 4) and v.shape == (6, 4, 4)
        assert not w.flags.writeable and not v.flags.writeable
        for slot, generator in TILT_GENERATORS.items():
            w_ref, v_ref = linalg.eig_hermitian(generator)
            assert w[slot - 1].tobytes() == w_ref.tobytes()
            assert v[slot - 1].tobytes() == v_ref.tobytes()

    def test_tilt_requires_dim4(self, canonical):
        from conftest import conjugated_embedding
        s = conjugated_embedding(canonical, 8, rng_from(60))
        with pytest.raises(ShapeMismatch):
            apply_noise(s, ObservableTilt(5, 0.1))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Depolarizing(1.5)
        with pytest.raises(ValueError):
            ObservableTilt(7, 0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="tilt angle must be finite"):
            ObservableTilt(2, bad)
        with pytest.raises(ValueError, match="jitter strength must be finite"):
            UnitaryJitter(bad)
        with pytest.raises(ValueError, match="jitter strength must be finite"):
            UnitaryJitter(bad, rng_seed=3)

    @pytest.mark.parametrize("bad", [1.0, 2.5, True, "1", None])
    def test_non_integer_fields_rejected(self, bad):
        # 1.0 passes the slot lookup (1.0 == 1) and True would tilt slot 1,
        # so the type is checked when the model is built
        with pytest.raises(TypeError, match="slot must be an integer"):
            ObservableTilt(bad, 0.1)
        with pytest.raises(TypeError, match="rng_seed must be an integer"):
            UnitaryJitter(0.1, rng_seed=bad)

    def test_numpy_integer_fields_accepted(self, canonical):
        for noise, same in ((ObservableTilt(np.int64(2), 0.1), ObservableTilt(2, 0.1)),
                            (UnitaryJitter(0.1, rng_seed=np.uint64(7)), UnitaryJitter(0.1, rng_seed=7))):
            assert np.array_equal(apply_noise(canonical, noise).matrices(),
                                  apply_noise(canonical, same).matrices())

    def test_negative_jitter_seed_rejected(self):
        with pytest.raises(ValueError, match="jitter seed must be >= 0"):
            UnitaryJitter(0.01, rng_seed=-1)

    @pytest.mark.parametrize("dim", [4, 16])
    def test_jitter_matches_per_slot_loop(self, canonical, dim):
        """One stacked eigensolve gives the per-slot loop's observables: each
        generator normalized by its largest |eigenvalue|, then exponentiated
        from the same eigendecomposition."""
        from conftest import conjugated_embedding
        s = conjugated_embedding(canonical, dim, rng_from(dim))
        rng = np.random.Generator(np.random.PCG64(9))
        expected = []
        for o in s.observables:
            w, v = np.linalg.eigh(random_hermitian(dim, rng))  # ascending
            u = linalg.expi_eig(w / max(w[-1], -w[0]), v, 0.05)
            expected.append(linalg.hermitian_part(u @ o.matrix @ u.conj().T))
        noisy = apply_noise(s, UnitaryJitter(0.05, rng_seed=9))
        for o, m in zip(noisy.observables, expected):
            assert np.array_equal(o.matrix, m)

    @pytest.mark.parametrize("dim", [4, 16, 64])
    @pytest.mark.parametrize("strength", [0.05, 0.3])
    def test_jitter_matches_operator_norm_normalization(self, canonical, dim, strength):
        """Oracle for the eigenvalue normalization: the jittered observables
        agree with generators normalized by their SVD operator norm and
        exponentiated by their own eigensolve, to 1e-13 entrywise."""
        from conftest import conjugated_embedding
        s = conjugated_embedding(canonical, dim, rng_from(dim + 1))
        rng = np.random.Generator(np.random.PCG64(5))
        noisy = apply_noise(s, UnitaryJitter(strength, rng_seed=5))
        for o, n in zip(s.observables, noisy.observables):
            h = random_hermitian(dim, rng)
            u = linalg.expi_hermitian(h / linalg.op_norm(h), strength)
            expected = linalg.hermitian_part(u @ o.matrix @ u.conj().T)
            assert np.max(np.abs(n.matrix - expected)) <= 1e-13


def serial_jitter(s, noise):
    """The reference for a jitter row: one draw of six generators from the stream, one
    stacked eigensolve, `expi_eig`, the conjugation and one `hermitian_part`."""
    rng = np.random.Generator(np.random.PCG64(noise.rng_seed))
    w, v = np.linalg.eigh(random_hermitian(s.dim, rng, 6))
    u = linalg.expi_eig(w / np.maximum(w[:, -1:], -w[:, :1]), v, noise.strength)
    return linalg.hermitian_part(u @ s.matrices() @ np.conj(np.swapaxes(u, -1, -2), order="C"))


class TestJitterSplit:
    """A jitter row of d >= JITTER_SPLIT_DIM with two or more usable CPUs runs its first
    three generators on a second thread; the CPU count is monkeypatched, so both
    branches run on any host."""

    @pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(robustness.os, "sched_getaffinity",
                            lambda pid: set(range(request.param)))
        return request.param

    @pytest.fixture
    def pools(self, monkeypatch):
        """The thread pools apply_noise opens."""
        opened, pool_type = [], concurrent.futures.ThreadPoolExecutor

        def opening(*args, **kwargs):
            opened.append(pool_type(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", opening)
        return opened

    @pytest.mark.parametrize("dim", sorted({31, 32, JITTER_SPLIT_DIM - 1, JITTER_SPLIT_DIM, 64}))
    def test_both_branches_give_the_serial_chains_bits(self, canonical, dim, cpus, pools):
        s = conjugated_embedding(canonical, dim, rng_from(dim))
        baseline = threading.active_count()
        for strength, seed in [(0.02, 0), (0.3, 11)]:
            noise = UnitaryJitter(strength, rng_seed=seed)
            assert apply_noise(s, noise).matrices().tobytes() == serial_jitter(s, noise).tobytes()
        split = dim >= JITTER_SPLIT_DIM and cpus >= 2
        assert len(pools) == (2 if split else 0)
        assert threading.active_count() == baseline

    def test_halves_keep_their_bits_under_a_short_switch_interval(self, canonical, pools,
                                                                    monkeypatch):
        """The halves share only disjoint slices of one result and the read-only matrices:
        forced thread switches every microsecond change no bit."""
        monkeypatch.setattr(robustness.os, "sched_getaffinity", lambda pid: {0, 1})
        s = conjugated_embedding(canonical, JITTER_SPLIT_DIM, rng_from(5))
        noise = UnitaryJitter(0.1, rng_seed=4)
        expected, interval = serial_jitter(s, noise).tobytes(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [apply_noise(s, noise).matrices().tobytes() for _ in range(8)]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8 and len(pools) == 8

    @pytest.mark.parametrize("failing", [{"worker", "main"}, {"worker"}, {"main"}])
    def test_an_eigensolver_error_propagates_as_it_does_serially(self, canonical, pools,
                                                                 monkeypatch, failing):
        """A LinAlgError of either half leaves apply_noise as the serial chain's one
        eigensolve's does; with both halves failing, the first half's is raised. No
        thread outlives apply_noise."""
        monkeypatch.setattr(robustness.os, "sched_getaffinity", lambda pid: {0, 1})
        s = conjugated_embedding(canonical, JITTER_SPLIT_DIM, rng_from(3))
        eigh = np.linalg.eigh

        def failing_eigh(h):
            half = "main" if threading.current_thread() is threading.main_thread() else "worker"
            if half in failing:
                raise np.linalg.LinAlgError(half)
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        baseline = threading.active_count()
        raised = "worker" if "worker" in failing else "main"
        with pytest.raises(np.linalg.LinAlgError, match=f"^{raised}$"):
            apply_noise(s, UnitaryJitter(0.05, rng_seed=2))
        assert len(pools) == 1 and threading.active_count() == baseline


class TestRobustnessBounds:
    def test_ideal_point_all_hold(self, canonical):
        checks = check_robustness_bounds(canonical)
        assert len(checks) == 28
        assert all(c.holds for c in checks)

    def test_depolarized_all_hold(self, canonical):
        checks = check_robustness_bounds(apply_noise(canonical, Depolarizing(0.005)))
        assert all(c.holds for c in checks)

    def test_jittered_family_all_hold(self, canonical):
        rng = rng_from(61)
        for k in range(100):
            strength = float(rng.uniform(1e-5, 3e-2))
            noisy = apply_noise(canonical, UnitaryJitter(strength, rng_seed=7000 + k))
            eps = 5 - eval_IT_scenario(noisy).value
            assert eps <= 0.01
            assert all(c.holds for c in check_robustness_bounds(noisy))

    @pytest.mark.parametrize("miss, holds", [(5e-10, True), (5e-8, False)])
    def test_guard_forgives_rounding_not_a_miss(self, canonical, miss, holds):
        # CHECK_GUARD = 1e-9 pinned from both sides: each state-norm bound, taken
        # at the deficit that puts its rhs `miss` below its lhs, holds at a miss
        # of 5e-10 and fails at one of 5e-8
        noisy = apply_noise(canonical, UnitaryJitter(0.02, rng_seed=1))
        for k, unit in enumerate(_state_norm_checks(noisy, 1.0)):  # rhs: the factor
            assert unit.lhs > 1e-4
            check = _state_norm_checks(noisy, ((unit.lhs - miss) / unit.rhs) ** 2)[k]
            assert abs(check.lhs - check.rhs - miss) <= 1e-15
            assert check.holds is holds, check

    def test_check_names_cover_families(self, canonical):
        names = {c.name for c in check_robustness_bounds(canonical)}
        assert "triple_123>=1-2eps" in names
        assert "-pair_36>=1-eps" in names
        assert "norm(A1-A2A3)<=4sqrt(eps)" in names
        assert "norm(A3+A6)<=2sqrt(eps)" in names
        assert "norm({A1,A5})<=14sqrt(eps)" in names

    def test_not_a_violation(self, canonical):
        # flipping the sign of A3 collapses the value to 1, deficit 4 > 2
        flipped = canonical.with_observable(
            3, Observable(-canonical.observable(3).matrix)
        )
        assert eval_IT_scenario(flipped).value <= 1 + 1e-12
        with pytest.raises(NotAViolation):
            check_robustness_bounds(flipped)


class TestSweep:
    def test_depolarizing_sweep(self, canonical):
        grid = list(np.geomspace(1e-5, 1e-2, 7))
        rows = sweep(canonical, lambda p: Depolarizing(p), grid)
        assert [r.param for r in rows] == sorted(grid)
        for r in rows:
            assert not r.failed
            assert abs(r.epsilon - 3 * r.param) <= 1e-12
            assert r.bounds_all_hold

    def test_csv_format(self, canonical):
        rows = sweep(canonical, lambda p: Depolarizing(p), [1e-4, 1e-3])
        text = sweep_csv(rows)
        lines = text.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        assert text.endswith("\n")
        assert lines[1].endswith(",true")

    def test_csv_deterministic(self, canonical):
        grid = [1e-4, 1e-3]
        a = sweep_csv(sweep(canonical, lambda p: Depolarizing(p), grid))
        b = sweep_csv(sweep(canonical, lambda p: Depolarizing(p), grid))
        assert a == b

    def test_row_failure_does_not_stop_sweep(self, canonical):
        from conftest import conjugated_embedding
        s8 = conjugated_embedding(canonical, 8, rng_from(62))
        rows = sweep(s8, lambda t: ObservableTilt(5, t), [0.0, 0.01])
        assert rows[0].failed is False  # zero tilt short-circuits to identity
        assert rows[1].failed is True
        assert "ShapeMismatch" in rows[1].error

    def test_report_sidecar(self, canonical):
        rows = sweep(canonical, lambda p: Depolarizing(p), [1e-3])
        doc = sweep_report(rows)
        assert doc["rows"][0]["bounds"]
        assert all(b["holds"] for b in doc["rows"][0]["bounds"])

    def test_empty_grid_rejected(self, canonical):
        with pytest.raises(ValueError):
            sweep(canonical, lambda p: Depolarizing(p), [])


class TestSlopeFits:
    def test_pure_power_law(self):
        xs = np.geomspace(1e-6, 1e-2, 20)
        assert abs(fit_loglog_slope(xs, xs ** 0.5) - 0.5) <= 1e-12
        assert abs(fit_loglog_slope(xs, 3 * xs) - 1.0) <= 1e-12

    def test_window_excludes_floor_and_ceiling(self):
        # corrupt the extreme decades; the middle-two-decade fit should hold
        xs = np.geomspace(1e-8, 1e-0, 33)
        ys = xs ** 0.5
        ys[xs < 1e-7] = 1e-4      # machine floor
        ys[xs > 1e-1] = 0.3       # saturation
        assert abs(fit_loglog_slope(xs, ys) - 0.5) <= 0.05

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0], [1.0])

    def test_needs_two_distinct_x(self, capfd):
        # least squares on one x has no slope; it is refused before LAPACK sees it
        for xs in ([1.0, 1.0, 1.0], [1.0, 1.0, -2.0], [2.0, 2.0, 3.0]):
            with pytest.raises(ValueError, match="distinct x"):
                fit_loglog_slope(xs, [1.0, 2.0, 0.0])
        # the middle two decades may hold a single x: then all points enter
        xs, ys = [1.0, 100.0, 100.0, 1e4], [1.0, 10.0, 10.0, 100.0]
        assert abs(fit_loglog_slope(xs, ys) - 0.5) <= 1e-12
        assert capfd.readouterr().err == ""

    def test_tilt_distance_slope_slot5(self, canonical):
        thetas = np.geomspace(5e-4, 5e-2, 9)
        rows = sweep(canonical, lambda t: ObservableTilt(5, t), list(thetas))
        eps = [r.epsilon for r in rows]
        dist = [r.max_operator_distance for r in rows]
        slope = fit_loglog_slope(eps, dist)
        assert 0.25 <= slope <= 0.75

    def test_tilt_fidelity_deficit_slope_slot1(self, canonical):
        thetas = np.geomspace(5e-4, 5e-2, 9)
        rows = sweep(canonical, lambda t: ObservableTilt(1, t), list(thetas))
        eps = [r.epsilon for r in rows]
        deficit = [1 - r.fidelity for r in rows]
        slope = fit_loglog_slope(eps, deficit)
        assert 0.4 <= slope <= 1.1

    def test_fidelity_sandwich(self, canonical):
        # deficit >= 0 and <= 20 sqrt(eps) on every tested family at eps <= 1e-3
        rng = rng_from(63)
        cases = [Depolarizing(1e-4), Depolarizing(3e-4),
                 ObservableTilt(1, 5e-3), ObservableTilt(2, 5e-3),
                 ObservableTilt(5, 5e-3),
                 UnitaryJitter(3e-3, rng_seed=11), UnitaryJitter(1e-2, rng_seed=12)]
        from tempcert.certify import certify
        for noise in cases:
            report = certify(apply_noise(canonical, noise))
            eps = report.violation.deficit
            assert eps <= 1e-3
            deficit = 1 - report.fidelity
            assert -1e-12 <= deficit <= 20 * np.sqrt(max(eps, 0.0))
