"""The three benchmark workloads.

Each workload turns the benchmark seed into a fixed list of ops in `setup`,
runs op `i` with `op(i)` (the list repeats when a run outlasts it), checks an
op's output with `check` and reduces it to a `fingerprint` that must be
bit-identical between traced and untraced runs. Calls into tempcert go
through module attributes, so the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from tempcert import cli, inequality, robustness, scenario, seqcorr
from tempcert.inequality import QUANTUM_BOUND


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _stratified_log(rng, lo: float, hi: float, n: int) -> list:
    """n values, one log-uniform draw in each of n equal log-width strata, so
    every seed covers the range the same way."""
    u = (np.arange(n) + rng.random(n)) / n
    return [float(lo * (hi / lo) ** x) for x in u]


class SeesawD4:
    """`tempcert optimize --dim 4 --seeds 20` run in-process through cli.main,
    with the artifacts read back. optimize, eig_hermitian and Observable do
    nearly all the work; seqcorr and certify do none."""

    name = "seesaw-d4"
    seeds_per_op = 20
    list_length = 64
    traced_ops = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out = os.path.join(workdir, "best.json")
        self.trace = os.path.join(workdir, "trace.json")

    def setup(self):
        rng = _rng(self.seed)
        self.masters = [int(k) for k in rng.integers(0, 2**31, size=self.list_length)]

    def op(self, i):
        argv = ["optimize", "--dim", "4", "--seeds", str(self.seeds_per_op),
                "--seed", str(self.masters[i % self.list_length]),
                "--out", self.out, "--trace", self.trace]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli.main returned exit code {code}")
        best = scenario.load_scenario(self.out)
        with open(self.trace, encoding="utf-8") as fh:
            return best, json.load(fh)

    def check(self, out):
        best, doc = out
        value = inequality.eval_IT(seqcorr.correlations(best, "analytic")).value
        if not QUANTUM_BOUND - 1e-8 <= value <= QUANTUM_BOUND + 1e-9:
            return f"best scenario has I_T = {value!r}"
        if len(doc["traces"]) != self.seeds_per_op:
            return f"trace holds {len(doc['traces'])} seeds, expected {self.seeds_per_op}"
        return None

    def fingerprint(self, out):
        best, doc = out
        return scenario.dumps_scenario(best), json.dumps(doc)


class CorrelatorsD4:
    """One pre-generated random_scenario(4) through all three correlator modes
    plus eval_IT on each. The random observables are near-involutions, so
    exact-sum and sampled re-round them through project_involution and
    Observable validation; seqcorr and scenario dominate."""

    name = "correlators-d4"
    shots = 10**6
    list_length = 200
    traced_ops = 200

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        rng = _rng(self.seed)
        self.inputs = [(scenario.random_scenario(4, rng), int(rng.integers(0, 2**63)))
                       for _ in range(self.list_length)]

    def op(self, i):
        s, shot_seed = self.inputs[i % self.list_length]
        sets = (
            seqcorr.correlations(s, "analytic"),
            seqcorr.correlations(s, "exact-sum"),
            seqcorr.correlations(s, "sampled", shots=self.shots, rng_seed=shot_seed),
        )
        return sets, tuple(inequality.eval_IT(c).value for c in sets)

    def check(self, out):
        (analytic, summed, sampled), _ = out
        for name in seqcorr.CORRELATOR_FIELDS:
            a, e, m = getattr(analytic, name), getattr(summed, name), getattr(sampled, name)
            if not abs(a - e) <= 1e-10:
                return f"{name}: analytic {a!r} and exact-sum {e!r} differ"
            if not abs(m - a) <= 5 * sampled.stderr[name]:
                return f"{name}: sampled {m!r} is over 5 stderr from {a!r}"
        return None

    def fingerprint(self, out):
        sets, values = out
        return [(c.as_dict(), c.stderr) for c in sets], values


def _embed(s, dim: int, rng):
    """Direct sum of `s` with a random involution block on the extra
    dimensions, conjugated by a Haar unitary; the state stays on `s`'s block."""
    pad = dim - s.dim
    obs = []
    for o in s.observables:
        m = np.zeros((dim, dim), dtype=complex)
        m[:s.dim, :s.dim] = o.matrix
        m[s.dim:, s.dim:] = scenario.random_involution(pad, rng).matrix
        obs.append(scenario.Observable(m))
    amps = np.zeros(dim, dtype=complex)
    amps[:s.dim] = s.state.amplitudes
    embedded = scenario.Scenario(scenario.PureState(amps), obs)
    return scenario.conjugate_scenario(embedded, scenario.random_unitary(dim, rng))


class CertifySweep:
    """Single-row robustness.sweep calls: three quarters on the canonical d=4
    base (depolarizing, purified to d=16; one-slot tilt; unitary jitter),
    one quarter under jitter on conjugated d=64 embeddings. Parameters run up
    to where certify refuses. The small rows set op_p50_ms (per-call
    overhead), the d=64 rows op_p90_ms (flops)."""

    name = "certify-sweep"
    strata = 16          # rows per family in the op list
    big_dim = 64
    big_bases = 4
    list_length = 4 * strata
    traced_ops = list_length

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        rng = _rng(self.seed)
        base = scenario.canonical_scenario()
        bigs = [_embed(base, self.big_dim, rng) for _ in range(self.big_bases)]
        p_dep = _stratified_log(rng, 1e-6, 0.3, self.strata)
        tilt = _stratified_log(rng, 1e-4, 0.45, self.strata)
        slots = [int(k) for k in rng.integers(1, 7, size=self.strata)]
        jit = _stratified_log(rng, 1e-4, 0.45, self.strata)
        jit_big = _stratified_log(rng, 1e-4, 0.3, self.strata)
        seeds = [int(k) for k in rng.integers(0, 2**31, size=2 * self.strata)]
        order = [int(k) for k in rng.permutation(self.strata)]
        # Interleave families so every stretch of the list has the same mix.
        self.rows = []
        for n, j in enumerate(order):
            self.rows += [
                (base, lambda p: robustness.Depolarizing(p), p_dep[j]),
                (base, lambda a, slot=slots[j]: robustness.ObservableTilt(slot, a), tilt[j]),
                (base, lambda x, k=seeds[j]: robustness.UnitaryJitter(x, rng_seed=k), jit[j]),
                (bigs[n % self.big_bases],
                 lambda x, k=seeds[self.strata + j]: robustness.UnitaryJitter(x, rng_seed=k),
                 jit_big[j]),
            ]

    def op(self, i):
        base, family, param = self.rows[i % self.list_length]
        return robustness.sweep(base, family, [param])

    def check(self, rows):
        (row,) = rows
        # sweep turns only TempcertError into a failed row: a refusal, not an error.
        if not row.failed and row.epsilon <= 0.01 and not row.bounds_all_hold:
            return f"param {row.param!r}: a bound fails at epsilon {row.epsilon!r}"
        return None

    def fingerprint(self, rows):
        return robustness.sweep_csv(rows)


WORKLOADS = {w.name: w for w in (SeesawD4, CorrelatorsD4, CertifySweep)}
