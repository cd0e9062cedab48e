"""Noise models and sweeps that exercise the quantitative robustness bounds.

The deficit epsilon is always computed from the achieved violation, never
from the noise parameter: the bounds are statements about the observed
value. Bound checks carry a small absolute guard (1e-9) against floating
noise at the ideal point; the inequalities themselves have generous
constants.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import linalg, seqcorr
from .errors import NotAViolation, ShapeMismatch, TempcertError
from .inequality import QUANTUM_BOUND, eval_IT
from .scenario import (
    PAULI_I,
    PAULI_Y,
    DensityMatrix,
    Observable,
    Scenario,
    observables,
    random_hermitian,
    require_integer,
)
from .seqcorr import ANTICOMMUTING_PAIRS, CONTEXTS, TERMS, CorrelationSet, correlations
from .certify import PAIR_CONTEXTS, extract

#: Deficits beyond this make every bound vacuous; refuse to "check" them.
EPSILON_CEILING = 2.0

#: Absolute guard added to the satisfied side of each bound check.
CHECK_GUARD = 1e-9

#: Tilt generators, one documented Pauli string per slot: first-factor slots
#: (1, 3, 5) rotate under Y(x)1, second-factor slots (2, 4, 6) under 1(x)Y.
#: Defined for dimension-4 scenarios.
TILT_GENERATORS = {k: np.kron(PAULI_Y, PAULI_I) if k % 2 else np.kron(PAULI_I, PAULI_Y)
                   for k in range(1, 7)}

#: `eig_hermitian` (w, v) of the TILT_GENERATORS stack, slot k at index k - 1, taken
#: once at import, read-only: a tilt row exponentiates with `expi_eig` on it.
TILT_EIGENSYSTEM = linalg.eig_hermitian(np.array(list(TILT_GENERATORS.values())))
TILT_EIGENSYSTEM[0].setflags(write=False)
TILT_EIGENSYSTEM[1].setflags(write=False)


@dataclass(frozen=True)
class Depolarizing:
    """rho -> (1 - p) rho + p 1/d."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing p must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class ObservableTilt:
    """Conjugate one observable by exp(-1j angle H) with the slot's fixed
    generator from TILT_GENERATORS."""

    slot: int
    angle: float

    def __post_init__(self):
        require_integer("slot", self.slot)
        if self.slot not in TILT_GENERATORS:
            raise ValueError(f"tilt slot must be in 1..6, got {self.slot}")
        if not math.isfinite(self.angle):
            raise ValueError(f"tilt angle must be finite, got {self.angle}")


@dataclass(frozen=True)
class UnitaryJitter:
    """Conjugate all six observables by independent small random unitaries
    exp(-1j strength H_k), H_k seeded Gaussian Hermitian."""

    strength: float
    rng_seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.strength):
            raise ValueError(f"jitter strength must be finite, got {self.strength}")
        require_integer("rng_seed", self.rng_seed)
        if self.rng_seed < 0:
            raise ValueError(f"jitter seed must be >= 0, got {self.rng_seed}")


NoiseModel = Depolarizing | ObservableTilt | UnitaryJitter

#: Smallest d at which `apply_noise` runs half of a jitter row's generators on a second thread.
JITTER_SPLIT_DIM = 48


def _jitter(h, mats, strength):
    """Overwrite each H of h (n, d, d) with hermitian_part(U A U†), A its matrix of mats, U the
    `expi_eig` of strength H / max|eig H| built in place: at most three (n, d, d) arrays live."""
    w, v = np.linalg.eigh(h)
    vh = np.conj(np.swapaxes(v, -1, -2), order="C")
    v *= np.exp(-1j * strength * (w / np.maximum(w[:, -1:], -w[:, :1])))[..., None, :]
    u = v @ vh
    del v
    uh = np.conj(np.swapaxes(u, -1, -2), out=vh)
    m = u @ mats
    np.matmul(m, uh, out=u)
    del m, vh, uh
    linalg.hermitian_part(u, h)


def apply_noise(s: Scenario, n: NoiseModel) -> Scenario:
    if isinstance(n, Depolarizing):
        if n.p == 0.0:
            return s
        rho = (1 - n.p) * s.density() + n.p * np.eye(s.dim) / s.dim
        return s.with_state(DensityMatrix.from_exact(linalg.hermitian_part(rho)))
    if isinstance(n, ObservableTilt):
        if n.angle == 0.0:
            return s
        if s.dim != 4:
            raise ShapeMismatch(
                f"tilt generators are two-qubit Pauli strings; scenario dim is {s.dim}"
            )
        w, v = TILT_EIGENSYSTEM
        u = linalg.expi_eig(w[n.slot - 1], v[n.slot - 1], n.angle)
        m = u @ s.observable(n.slot).matrix @ u.conj().T
        return s.with_observable(n.slot, Observable(linalg.hermitian_part(m)))
    if isinstance(n, UnitaryJitter):
        if n.strength == 0.0:
            return s
        rng = np.random.Generator(np.random.PCG64(n.rng_seed))
        mats = s.matrices()
        if (s.dim < JITTER_SPLIT_DIM or not hasattr(os, "sched_getaffinity")
                or len(os.sched_getaffinity(0)) < 2):
            _jitter(out := random_hermitian(s.dim, rng, len(mats)), mats, n.strength)
            return Scenario(s.state, observables(out))
        # two draws of 3 are the stream's one draw of 6, and each matrix of a stack gets the
        # bits of its own call: the first half on a second thread gives the same bits
        from concurrent.futures import ThreadPoolExecutor  # imports logging: only this branch pays
        out = np.empty_like(mats)
        with ThreadPoolExecutor(max_workers=1) as pool:
            out[:3] = random_hermitian(s.dim, rng, 3)
            first = pool.submit(_jitter, out[:3], mats[:3], n.strength)
            try:
                out[3:] = random_hermitian(s.dim, rng, 3)
                _jitter(out[3:], mats[3:], n.strength)
            finally:
                first.result()  # raises the first half's error, as the serial order would
        return Scenario(s.state, observables(out))
    raise TypeError(f"unknown noise model {n!r}")


@dataclass
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    holds: bool

    def __post_init__(self):
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        self.holds = bool(self.holds)


#: The correlator floors sign(w) c >= 1 - eps/|w|, one per term of TERMS:
#: (label, name, sign(w), |w|).
_FLOOR_CHECKS = tuple(
    (f"{'-' if w < 0 else ''}{name}>=1-{'' if abs(w) == 1 else format(1 / abs(w), 'g')}eps",
     name, 1 if w > 0 else -1, abs(w))
    for name, _, w in TERMS)

#: The state-norm families on the unit-norm state factor R, one (label, factor of
#: sqrt(eps), a, b, sign) per check, triple contexts first: the block is images[a] -
#: sign * images[b] over the stack of the images A_k R (index k - 1), then A_j A_k R
#: (index 6 j + k - 1).
_NORM_LABELS, _NORM_FACTORS, _NORM_A, _NORM_B, _NORM_SIGNS = zip(
    *[(f"norm(A{i}-A{j}A{k})<=4sqrt(eps)", 4, i - 1, 6 * j + k - 1, 1) for context in CONTEXTS
      if len(context) == 3 for i, j, k in itertools.permutations(context)],
    *[(f"norm(A{i}{'-' if sign > 0 else '+'}A{j})<=2sqrt(eps)", 2, i - 1, j - 1, sign)
      for i, j, sign in PAIR_CONTEXTS],
    *[(f"norm({{A{i},A{j}}})<=14sqrt(eps)", 14, 6 * i + j - 1, 6 * j + i - 1, -1)
      for i, j in ANTICOMMUTING_PAIRS])
_NORM_A, _NORM_B = np.array(_NORM_A), np.array(_NORM_B)
_NORM_SIGNS = np.array(_NORM_SIGNS, dtype=float)[:, None, None]


def _state_norm_checks(s: Scenario, eps: float, images=None):
    """The state-norm checks at deficit eps >= 0: one gather and one subtraction over
    the stacked images (s's `state_images` unless given), the norms in one call."""
    single, double = images or seqcorr.state_images(s.matrices(), s.state.factor())
    images = np.concatenate([single, double.reshape(-1, *single.shape[1:])])
    blocks = images[_NORM_A] - _NORM_SIGNS * images[_NORM_B]
    lhs = linalg.vec_norms(blocks.reshape(len(blocks), -1))
    root = np.sqrt(eps)
    return [BoundCheck(label, v, factor * root, v <= factor * root + CHECK_GUARD)
            for label, factor, v in zip(_NORM_LABELS, _NORM_FACTORS, lhs)]


def check_robustness_bounds(s: Scenario, *, corr: CorrelationSet | None = None, images=None):
    """Verify every robustness bound at the scenario's achieved deficit.

    Mixed states take the pure path on their unit-norm factor. Returns a list of
    BoundCheck records: correlator floors sign(w) c >= 1 - eps/|w| for each
    term of weight w (triples >= 1 - 2 eps, pairs >= 1 - eps with the sign
    on the 3-6 pair), the state-norm families at 4 sqrt(eps) and
    2 sqrt(eps), and the anticommutator family at 14 sqrt(eps). Raises
    NotAViolation when eps > 2.

    `corr` and `images`, when given, must be the analytic CorrelationSet and the
    `state_images` of s; `sweep` passes the ones it formed once for the row.
    """
    if corr is None:
        corr = correlations(s, "analytic")
    eps = QUANTUM_BOUND - eval_IT(corr).value
    if eps > EPSILON_CEILING:
        raise NotAViolation(f"deficit {eps:.3f} exceeds {EPSILON_CEILING}; bounds are vacuous")
    eps = max(eps, 0.0)

    checks = []
    for label, name, sign, weight in _FLOOR_CHECKS:
        # eps = sum |w| (1 - sign(w) c) over the terms, each summand >= 0
        v, floor = sign * getattr(corr, name), 1 - eps / weight
        checks.append(BoundCheck(label, v, floor, v >= floor - CHECK_GUARD))
    return checks + _state_norm_checks(s, eps, images)


@dataclass
class SweepRow:
    param: float
    epsilon: float = float("nan")
    value: float = float("nan")
    fidelity: float = float("nan")
    max_operator_distance: float = float("nan")
    bound_checks: list = field(default_factory=list)
    failed: bool = False
    error: str | None = None

    @property
    def bounds_all_hold(self) -> bool:
        return bool(self.bound_checks) and all(c.holds for c in self.bound_checks)


def sweep(base: Scenario, family, grid) -> list:
    """Evaluate a one-parameter noise family over a grid.

    `family` maps a grid parameter to a NoiseModel. Each row applies the
    noise, computes the analytic correlators once, recomputes the deficit from
    the achieved violation and hands the correlators to the bound suite. For the
    fidelity and the operator distance it runs certify's extraction stage
    (`extract`), not the full certification: no row reports the residuals, the
    leakage or the witnesses. All of it works on the state's unit-norm factor,
    never purified. Per-row errors, a refusal of `extract` among them, mark the
    row failed; rows come back sorted by parameter.
    """
    grid = sorted(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    rows = []
    for param in grid:
        row = SweepRow(param=float(param))
        try:
            noisy = apply_noise(base, family(param))
            images = seqcorr.state_images(noisy.matrices(), noisy.state.factor())
            corr = seqcorr.analytic_correlations(*images)
            row.value = eval_IT(corr).value
            row.epsilon = QUANTUM_BOUND - row.value
            stage = extract(noisy)
            row.fidelity = stage.fidelity
            row.max_operator_distance = max(stage.alignment.distances)
            row.bound_checks = check_robustness_bounds(noisy, corr=corr, images=images)
        except TempcertError as exc:
            row.failed = True
            row.error = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


SWEEP_CSV_HEADER = "param,epsilon,I_T,fidelity,max_op_distance,bounds_all_hold"


def sweep_csv(rows) -> str:
    """Render sweep rows as CSV (fixed header, newline-terminated rows)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER.split(","))
    for r in rows:
        numbers = (r.param, r.epsilon, r.value, r.fidelity, r.max_operator_distance)
        writer.writerow([*(repr(float(x)) for x in numbers), str(r.bounds_all_hold).lower()])
    return buf.getvalue()


def _json_number(x: float):
    """x, or None (JSON null) for NaN and infinities, which JSON has no number for."""
    return x if math.isfinite(x) else None


def sweep_report(rows) -> dict:
    """Sidecar document with full bound detail per row; a refused row's NaNs are null."""
    return {
        "rows": [
            {
                "param": _json_number(r.param),
                "epsilon": _json_number(r.epsilon),
                "I_T": _json_number(r.value),
                "fidelity": _json_number(r.fidelity),
                "max_op_distance": _json_number(r.max_operator_distance),
                "failed": r.failed,
                "error": r.error,
                "bounds": [asdict(c) for c in r.bound_checks],
            }
            for r in rows
        ]
    }


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log10(y) against log10(x).

    Only the middle two decades of the x range enter the fit, which keeps
    machine-precision floors and large-parameter breakdown out of the
    estimate. Pairs with a non-positive coordinate are dropped; fewer than two
    distinct x among the rest raise ValueError.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    mask = (xs > 0) & (ys > 0)
    if np.unique(xs[mask]).size < 2:
        raise ValueError("need positive points at two or more distinct x for a slope fit")
    lx, ly = np.log10(xs[mask]), np.log10(ys[mask])
    lo, hi = lx.min(), lx.max()
    if hi - lo > 2.0:
        mid = (lo + hi) / 2
        window = (lx >= mid - 1.0) & (lx <= mid + 1.0)
        if np.unique(lx[window]).size >= 2:
            lx, ly = lx[window], ly[window]
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)
