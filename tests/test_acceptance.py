"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines. Every tolerance is the one stated in the criterion; the only
additions are absolute floating-point guards (1e-12 on sampled-vs-exact
comparisons, 1e-9 inside the bound checker) that sit far below any quantity
the criteria measure.
"""

import itertools
import time

import numpy as np

from tempcert.certify import certify
from tempcert.cli import main
from tempcert.inequality import (
    apply_symmetry,
    classical_bound,
    eval_INC,
    eval_IT,
    eval_IT_scenario,
    symmetry_residual,
)
from tempcert.optimize import SeesawConfig, seesaw
from tempcert.robustness import (
    Depolarizing,
    ObservableTilt,
    UnitaryJitter,
    apply_noise,
    check_robustness_bounds,
    fit_loglog_slope,
    sweep,
)
from tempcert.scenario import canonical_scenario, random_scenario
from tempcert.seqcorr import correlations

from conftest import commuting_triple_scenario, conjugated_embedding, rng_from


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_01_classical_bound(capsys):
    t0 = time.perf_counter()
    bound, argmax = classical_bound()
    enumerated = max(
        a[0] * a[1] * a[2] + a[3] * a[4] * a[5] + a[0] * a[3] + a[1] * a[4] - a[2] * a[5]
        for a in itertools.product((1, -1), repeat=6)
    )
    code = main(["classical-bound"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    ok = (bound == 3 and enumerated == 3 and code == 0
          and out.splitlines()[0] == "3" and elapsed < 1.0)
    with capsys.disabled():
        _verdict(1, ok, f"bound={bound}, enumeration={enumerated}, "
                        f"{len(argmax)} maximizers, {elapsed:.3f}s")


def test_criterion_02_quantum_maximum():
    t0 = time.perf_counter()
    s = canonical_scenario()
    it = eval_IT(correlations(s, "analytic"))
    inc, compat = eval_INC(s)
    elapsed = time.perf_counter() - t0
    ok = (abs(it.value - 5.0) <= 1e-12 and abs(inc - 5.0) <= 1e-12
          and compat.max_norm <= 1e-14 and elapsed < 1.0)
    _verdict(2, ok, f"I_T={it.value!r}, I_NC={inc!r}, "
                    f"max commutator={compat.max_norm:.2e}, {elapsed:.3f}s")


def test_criterion_03_formula_operational_equivalence():
    t0 = time.perf_counter()
    rng = rng_from(300)
    worst = 0.0
    for _ in range(500):
        s = random_scenario(4, rng)
        analytic = correlations(s, "analytic")
        summed = correlations(s, "exact-sum")
        for name in analytic.as_dict():
            worst = max(worst, abs(getattr(analytic, name) - getattr(summed, name)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _verdict(3, ok, f"500 scenarios, worst |analytic - exact-sum| = {worst:.2e}, "
                    f"{elapsed:.1f}s")


def test_criterion_04_sampling_oracle():
    t0 = time.perf_counter()
    s = canonical_scenario()
    exact = correlations(s, "analytic")
    reps_ok = 0
    for rep in range(100):
        sampled = correlations(s, "sampled", shots=10**6, rng_seed=40_000 + rep)
        hit = all(
            abs(getattr(sampled, name) - getattr(exact, name))
            <= 5 * sampled.stderr[name] + 1e-12
            for name in exact.as_dict()
        )
        reps_ok += hit
    elapsed = time.perf_counter() - t0
    ok = reps_ok >= 99 and elapsed < 300.0
    _verdict(4, ok, f"{reps_ok}/100 repetitions within 5 stderr at 1e6 shots, "
                    f"{elapsed:.1f}s")


def test_criterion_05_optimization_attainability():
    t0 = time.perf_counter()
    best, traces = seesaw(SeesawConfig(dim=4, seeds=20, rng_seed=0))
    elapsed = time.perf_counter() - t0
    hits = sum(1 for t in traces if t.best_value >= 5.0 - 1e-8)
    overshoot = max(max(t.values) for t in traces)
    ok = (hits >= 14 and overshoot <= 5.0 + 1e-9 and elapsed < 300.0)
    _verdict(5, ok, f"{hits}/20 seeds reached 5-1e-8, max value {overshoot!r}, "
                    f"{elapsed:.1f}s")


def test_criterion_06_exact_self_testing():
    t0 = time.perf_counter()
    rng = rng_from(600)
    base = canonical_scenario()
    worst_fid, worst_resid, worst_leak = 1.0, 0.0, 0.0
    for k in range(100):
        dim = (4, 8, 16)[k % 3]
        report = certify(conjugated_embedding(base, dim, rng))
        worst_fid = min(worst_fid, report.fidelity)
        worst_resid = max(worst_resid,
                          max(report.commutator_residuals.values()),
                          max(report.anticommutator_residuals.values()))
        worst_leak = max(worst_leak, max(report.leakage))
    elapsed = time.perf_counter() - t0
    ok = (worst_fid >= 1 - 1e-8 and worst_resid <= 1e-7 and worst_leak <= 1e-7
          and elapsed < 120.0)
    _verdict(6, ok, f"100 embeddings d in (4,8,16): min fidelity {worst_fid:.12f}, "
                    f"max residual {worst_resid:.2e}, max leakage {worst_leak:.2e}, "
                    f"{elapsed:.1f}s")


def test_criterion_07_depolarizing_closed_form():
    s = canonical_scenario()
    worst = 0.0
    for p in np.geomspace(1e-6, 1e-2, 13):
        value = eval_IT_scenario(apply_noise(s, Depolarizing(p))).value
        worst = max(worst, abs(value - (5 - 3 * p)))
    ok = worst <= 1e-12
    _verdict(7, ok, f"max |I_T - (5 - 3p)| = {worst:.2e} over p in [1e-6, 1e-2]")


def test_criterion_08_robustness_bound_suite():
    t0 = time.perf_counter()
    s = canonical_scenario()
    rng = rng_from(800)
    satisfied, total, eps_max = 0, 0, 0.0

    def noisy_scenarios():
        for k in range(250):
            yield apply_noise(s, UnitaryJitter(float(rng.uniform(1e-5, 3e-2)),
                                               rng_seed=80_000 + k))
        for _ in range(250):
            yield apply_noise(s, Depolarizing(float(rng.uniform(1e-6, 3e-3))))
        for _ in range(250):
            slot = int(rng.integers(1, 7))
            yield apply_noise(s, ObservableTilt(slot, float(rng.uniform(1e-4, 4e-2))))
        for k in range(250):
            mixed = apply_noise(s, Depolarizing(float(rng.uniform(1e-6, 1e-3))))
            yield apply_noise(mixed, UnitaryJitter(float(rng.uniform(1e-5, 2e-2)),
                                                   rng_seed=90_000 + k))

    for noisy in noisy_scenarios():
        eps = 5.0 - eval_IT_scenario(noisy).value
        assert eps <= 0.01, "generator produced a deficit outside the criterion range"
        eps_max = max(eps_max, eps)
        checks = check_robustness_bounds(noisy)
        total += len(checks)
        satisfied += sum(c.holds for c in checks)
    elapsed = time.perf_counter() - t0
    ok = satisfied == total and elapsed < 600.0
    _verdict(8, ok, f"1000 noisy scenarios (max eps {eps_max:.4f}): "
                    f"{satisfied}/{total} bound checks hold, {elapsed:.1f}s")


def test_criterion_09_scaling_windows():
    t0 = time.perf_counter()
    s = canonical_scenario()
    thetas = list(np.geomspace(5e-4, 5e-2, 13))
    rows = sweep(s, lambda t: ObservableTilt(1, t), thetas)
    eps = [r.epsilon for r in rows]
    dist_slope = fit_loglog_slope(eps, [r.max_operator_distance for r in rows])
    fid_slope = fit_loglog_slope(eps, [1 - r.fidelity for r in rows])
    elapsed = time.perf_counter() - t0
    ok = (min(eps) <= 2e-6 and max(eps) >= 5e-3
          and 0.25 <= dist_slope <= 0.75 and 0.4 <= fid_slope <= 1.1
          and elapsed < 300.0)
    _verdict(9, ok, f"tilt sweep eps in [{min(eps):.1e}, {max(eps):.1e}]: "
                    f"distance slope {dist_slope:.3f}, fidelity-deficit slope "
                    f"{fid_slope:.3f}, {elapsed:.1f}s")


def test_criterion_10_symmetry_suite():
    t0 = time.perf_counter()
    rng = rng_from(1000)
    worst_14 = 0.0
    for _ in range(200):
        s = random_scenario(4, rng)
        v0 = eval_IT_scenario(s).value
        for tid in (1, 4):
            v1 = eval_IT_scenario(apply_symmetry(s, tid)).value
            worst_14 = max(worst_14, abs(v1 - v0))
    worst_23 = 0.0
    for _ in range(200):
        s = commuting_triple_scenario(rng)
        for tid in (2, 3):
            worst_23 = max(worst_23, abs(symmetry_residual(s, tid)))
    canon = canonical_scenario()
    worst_canon = max(
        abs(eval_IT_scenario(apply_symmetry(canon, tid)).value - 5.0)
        for tid in (1, 2, 3, 4)
    )
    elapsed = time.perf_counter() - t0
    ok = (worst_14 <= 1e-12 and worst_23 <= 1e-10 and worst_canon <= 1e-12
          and elapsed < 60.0)
    _verdict(10, ok, f"transforms 1/4 shift {worst_14:.1e}, transforms 2/3 "
                     f"residual {worst_23:.1e} (commuting triples), canonical "
                     f"shift {worst_canon:.1e}, {elapsed:.1f}s")
