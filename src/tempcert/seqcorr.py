"""Sequential correlators: two independent oracles and seeded sampling.

Closed-form anticommutator expressions on the images of a state factor
(`analytic`) and exact outcome sums over the Lüders chain of each
observable's exact involution, one Newton–Schulz step away (`exact-sum`),
are oracles for one another: for exact involutions they agree to machine
precision. `sampled` draws seeded multinomial counts from exact-sum's own
outcome weights, snapped to a grid of 2^-40, so its estimates converge to both.

Every route works on the unit-norm state factor R, rho = R R†, never on rho
itself: a chain C of projectors takes R to the branch C R, and the outcome's
probability tr(C rho C†) is ||C R||_F^2, real and >= 0 by construction. A raw
rho enters once, through DensityMatrix's checks, at the edge (`_operands`).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ShapeMismatch
from .scenario import (
    INVOLUTION_TOL,
    PROBABILITY_TOL,
    DensityMatrix,
    Observable,
    PureState,
    Scenario,
    observable_matrices,
    require_integer,
    round_to_involutions,
)

#: The temporal expression I_T = sum of weight * correlator, one row
#: (name, 1-based slots, first-measured first; weight) per term in written
#: order. Every other description of the expression is derived from it.
TERMS = (
    ("triple_123", (1, 2, 3), 0.5),
    ("triple_213", (2, 1, 3), 0.5),
    ("triple_456", (4, 5, 6), 0.5),
    ("triple_546", (5, 4, 6), 0.5),
    ("pair_14", (1, 4), 1.0),
    ("pair_25", (2, 5), 1.0),
    ("pair_36", (3, 6), -1.0),
)

CORRELATOR_FIELDS = tuple(name for name, _, _ in TERMS)

#: The five measurement contexts (sorted slots, table order), each mapped to
#: its terms' summed weight, its sign: for commuting observables and for
#: deterministic assignments, I_T = sum of sign * <product of the context>.
CONTEXTS = {
    context: int(sum(w for _, slots, w in TERMS if tuple(sorted(slots)) == context))
    for context in dict.fromkeys(tuple(sorted(slots)) for _, slots, _ in TERMS)
}

#: The slot pairs within a context; compatible contexts make them commute.
CONTEXT_PAIRS = tuple(pair for context in CONTEXTS
                      for pair in itertools.combinations(context, 2))

#: The six slot pairs that share no context; they anticommute at maximal violation.
ANTICOMMUTING_PAIRS = tuple(pair for pair in itertools.combinations(range(1, 7), 2)
                            if pair not in CONTEXT_PAIRS)

#: The bound |c| <= CORRELATOR_BOUND that CorrelationSet checks: a correlator pairs images of
#: the state factor R, ||R||_F^2 <= 1 + PROBABILITY_TOL, through at most three Observables,
#: each of norm at most sqrt(1 + INVOLUTION_TOL) since ||A^2 - 1|| <= INVOLUTION_TOL.
CORRELATOR_BOUND = (1 + INVOLUTION_TOL) ** 1.5 * (1 + PROBABILITY_TOL)


def _operands(rho, seq):
    """The one edge for raw input: the unit-norm factor R (d, c) of rho (a state, or a raw
    matrix through DensityMatrix's checks) and seq's `observable_matrices` of dimension d."""
    state = rho if isinstance(rho, (PureState, DensityMatrix)) else DensityMatrix(rho)
    return state.factor(), observable_matrices(seq, state.dim)


def state_images(mats: np.ndarray, r: np.ndarray):
    """The images A_k R (..., n, d, c) and A_j A_k R (..., n, n, d, c), [j, k]
    entry A_j applied to A_k R, of state factors R (..., d, c), rho = R R†,
    under matrices (..., n, d, d). For Hermitian A_k, tr(rho A_j A_k) = <A_j R, A_k R>."""
    single = mats @ r[..., None, :, :]
    return single, mats[..., :, None, :, :] @ single[..., None, :, :, :]


def _correlator(single: np.ndarray, double: np.ndarray, slots) -> float:
    """Re<A_x R, A_y R> for 1-based slots (x, y), and
    Re<A_x R, (A_y A_z + A_z A_y) R>/2 for (x, y, z), from `state_images`."""
    x, y, *z = slots
    image = (double[y - 1, z[0] - 1] + double[z[0] - 1, y - 1]) / 2 if z else single[y - 1]
    return float(np.vdot(single[x - 1], image).real)


@dataclass
class CorrelationSet:
    """The seven sequential correlators entering the temporal expression. `source`
    records how they were produced; `stderr` has one standard error per entry
    for sampled sets."""

    triple_123: float
    triple_213: float
    triple_456: float
    triple_546: float
    pair_14: float
    pair_25: float
    pair_36: float
    source: str = "analytic"
    stderr: dict | None = None

    def __post_init__(self):
        for name in CORRELATOR_FIELDS:
            v = getattr(self, name)
            if not abs(v) <= CORRELATOR_BOUND:
                raise ValueError(f"{name} = {v!r} lies outside [-1, 1]")

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CORRELATOR_FIELDS}


#: The outcome tuples of 2 and 3 steps in outcome order, and the product of each.
OUTCOMES = {n: tuple(itertools.product((1, -1), repeat=n)) for n in (2, 3)}
SIGNS = {n: tuple(map(math.prod, outcomes)) for n, outcomes in OUTCOMES.items()}


@dataclass
class OutcomeDistribution:
    """Joint distribution over +-1 outcome tuples of a measurement sequence."""

    sequence: tuple
    probabilities: dict

    def __post_init__(self):
        """Raise ValueError unless each key is a tuple of len(sequence) outcomes +-1 and
        the probabilities are >= -PROBABILITY_TOL and sum to 1 within PROBABILITY_TOL;
        NaN fails both `not` tests."""
        n, total = len(self.sequence), 0.0
        for outcome, p in self.probabilities.items():
            if not (isinstance(outcome, tuple) and len(outcome) == n
                    and all(x in (1, -1) for x in outcome)):
                raise ValueError(f"outcome {outcome!r} is not a tuple of {n} outcomes +-1")
            if not p >= -PROBABILITY_TOL:
                raise ValueError(f"probability {p!r} for outcome {outcome} is not >= 0")
            total += p
        if not abs(total - 1.0) <= PROBABILITY_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def correlator(self) -> float:
        """Expectation of the product of outcomes."""
        return float(sum(math.prod(o) * p for o, p in self.probabilities.items()))


def _checked_correlator(rho, seq) -> float:
    """`_correlator` of `_operands`, whose Hermiticity check makes the vector form exact."""
    r, mats = _operands(rho, seq)
    return _correlator(*state_images(mats, r), range(1, len(seq) + 1))


def pair_corr(rho, a, b) -> float:
    """Two-step sequential correlator Re tr(rho {a, b}) / 2, symmetric in a and b."""
    return _checked_correlator(rho, (a, b))


def triple_corr(rho, a, b, c) -> float:
    """Three-step sequential correlator Re tr(rho {a, {b, c}}) / 4; a is measured first."""
    return _checked_correlator(rho, (a, b, c))


def newton_schulz_step(mats: np.ndarray) -> np.ndarray:
    """(B + B†)/2, B = A(3 - A²)/2, for each A of a stack (..., d, d): one Newton–Schulz
    step for the matrix sign function (Higham, Functions of Matrices, §5.3). It
    gives sign(A) to rounding error once ||A² - 1|| <= INVOLUTION_TOL, and A if A² = 1."""
    return linalg.hermitian_part(mats @ (3 * np.eye(mats.shape[-1]) - mats @ mats) / 2)


def _projectors(rho, seq):
    """`_operands`' state factor and the projector pairs (n, 2, d, d), Pi_+ then Pi_-
    = (1 +- A)/2, of each observable's exact involution, one `newton_schulz_step` away.
    Raw matrices that are no near-involution are eigen-sign rounded first."""
    r, mats = _operands(rho, seq)
    eye = np.eye(r.shape[0])
    raw = [k for k, obs in enumerate(seq) if not isinstance(obs, Observable)]
    if raw:
        far = np.array(raw)[linalg.op_norm_exceeds(mats[raw] @ mats[raw] - eye, INVOLUTION_TOL)]
        if far.size:
            mats[far] = round_to_involutions(linalg.hermitian_part(mats[far]))[0]
    mats = newton_schulz_step(mats)
    return r, np.stack([(eye + mats) / 2, (eye - mats) / 2], axis=1)


def _sequence_of(rho, seq, labels):
    """`_projectors` of 2 or 3 observables, and one label per step: 1..n unless given."""
    seq = list(seq)
    labels = tuple(range(1, len(seq) + 1) if labels is None else labels)
    if len(seq) not in (2, 3) or len(labels) != len(seq):
        raise ShapeMismatch(f"need 2 or 3 steps, one label each; got {len(seq)}, {len(labels)} labels")
    return (*_projectors(rho, seq), labels)


def _weights(r: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """The outcome weights ||C R||_F^2 (..., 2^n), in outcome order, of the state
    factor r (d, c) under every chain C = Pi_{a_n} ... Pi_{a_1} of the projector
    pairs proj (..., n, 2, d, d): tr(C rho C†), real and >= 0. The branches C R
    are grown by one stacked product per step."""
    branches = r[None]
    for j in range(proj.shape[-4]):
        branches = proj[..., j, None, :, :, :] @ branches[..., None, :, :]
        branches = branches.reshape(*proj.shape[:-4], -1, *r.shape)
    return (branches.real ** 2 + branches.imag ** 2).sum(axis=(-2, -1))


def exact_sequence_distribution(rho, seq, labels=None) -> OutcomeDistribution:
    """Exact Lüders outcome distribution for a sequence of 2 or 3 observables.

    P(a_1, ..., a_n) = ||Pi_{a_n} ... Pi_{a_1} R||_F^2, which is
    tr(Pi_{a_n} ... Pi_{a_1} rho Pi_{a_1} ... Pi_{a_n}) for rho = R R†, with
    projectors Pi_{+-} = (1 +- A)/2 of each observable's exact involution (see
    `_projectors`). rho is a state or a raw density matrix, checked as
    DensityMatrix checks it. `labels`, one per step, default to 1..n.
    """
    r, proj, labels = _sequence_of(rho, seq, labels)
    probs = _weights(r, proj).tolist()
    return OutcomeDistribution(labels, dict(zip(OUTCOMES[len(labels)], probs)))


def _sampled(weights: np.ndarray, shots: int, rng: np.random.Generator):
    """One multinomial draw of `shots` per row of n-step outcome weights (m, 2^n), in row
    order from the one generator rng, over the row snapped to a grid: q = rint(2^40 w / sum w),
    p = q / sum q moves by at most 2^-41 (about 4.5e-13), so a weight's last bits move no
    count, and the possible outcomes are those of q > 0. Per row: their outcome tuples and
    counts, the mean outcome product and its standard error."""
    if isinstance(shots, (bool, np.bool_)) or shots % 1:  # NaN % 1 is NaN, which is truthy
        raise ValueError(f"shots must be a whole number, got {shots!r}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots > np.iinfo(np.int64).max:
        raise ValueError(f"shots must be at most {np.iinfo(np.int64).max}, got {shots}")
    n = weights.shape[-1].bit_length() - 1
    outcomes, products = OUTCOMES[n], np.array(SIGNS[n], dtype=float)
    q = np.rint(2.0 ** 40 * weights / weights.sum(axis=-1, keepdims=True))
    draws = []
    for q_row, p_row in zip(q, q / q.sum(axis=-1, keepdims=True)):
        possible = q_row > 0
        counts = rng.multinomial(shots, p_row[possible])
        values = products[possible]
        estimate = float(counts @ values) / shots
        var = float(counts @ (values - estimate) ** 2) / (shots - 1) if shots > 1 else 0.0
        draws.append((list(itertools.compress(outcomes, possible)), counts, estimate,
                      (var / shots) ** 0.5))
    return draws


def sample_sequences(rho, seq, shots: int, rng_seed, labels=None):
    """Seeded Monte-Carlo sampling of a measurement sequence.

    Draws from the Lüders outcome distribution that `exact_sequence_distribution`
    gives for the state factor R of rho (a state, or a raw density matrix
    checked as DensityMatrix checks it), snapped to a grid of 2^-40 (see `_sampled`):
    each p moves by at most 2^-41, about 4.5e-13, and an outcome below that is
    impossible. One multinomial draw of the shots, a whole number, reproduces the
    per-shot process exactly and is deterministic given `rng_seed`, an integer >= 0
    (a bool or other type raises TypeError) or a numpy SeedSequence, seeding numpy's
    PCG64. `labels` are as for `exact_sequence_distribution`. Returns the empirical
    OutcomeDistribution, the mean of the outcome products, and its standard error
    (sample standard deviation / sqrt(shots)).
    """
    if not isinstance(rng_seed, np.random.SeedSequence):
        require_integer("rng_seed", rng_seed, 0)
    r, proj, labels = _sequence_of(rho, seq, labels)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    ((outcomes, counts, estimate, stderr),) = _sampled(_weights(r, proj)[None], shots, rng)
    return OutcomeDistribution(labels, dict(zip(outcomes, counts / shots))), estimate, stderr


def correlations(s: Scenario, mode: str = "analytic", shots: int | None = None,
                 rng_seed=None) -> CorrelationSet:
    """All seven correlators of a scenario in the requested mode.

    mode is one of "analytic", "exact-sum", or "sampled"; the latter needs
    `shots`, a whole number >= 1, and `rng_seed`, an integer >= 0 (a bool or
    any other type raises TypeError). The sampled terms draw in `TERMS` order from one
    PCG64 stream seeded with `rng_seed`, each from its outcome distribution snapped to
    a grid of 2^-40: p moves by at most 2^-41 (about 4.5e-13), and an outcome below
    that is impossible. exact-sum sums as OutcomeDistribution.correlator does, same bits.
    """
    values, stderr = {}, None
    if mode == "analytic":
        # the scenario's checked matrices share its state's dimension
        single, double = state_images(np.array(s.matrices()), s.state.factor())
        for name, slots, _ in TERMS:
            values[name] = _correlator(single, double, slots)
    elif mode in ("exact-sum", "sampled"):
        if mode == "sampled":
            if shots is None or rng_seed is None:
                raise ValueError("sampled mode needs shots and rng_seed")
            require_integer("rng_seed", rng_seed, 0)
            stderr, rng = {}, np.random.Generator(np.random.PCG64(rng_seed))
        r, proj = _projectors(s.state, s.observables)
        for n in (3, 2):  # the terms of one length as one stack, in TERMS order
            terms = [(name, slots) for name, slots, _ in TERMS if len(slots) == n]
            weights = _weights(r, proj[np.subtract([slots for _, slots in terms], 1)])
            if mode == "exact-sum":
                # no probability check: weights are squared norms, each row sums to ||R||_F^2
                for (name, _), row in zip(terms, weights.tolist()):  # sign * p in outcome order
                    values[name] = sum(map(operator.mul, SIGNS[n], row))
            else:
                for (name, _), (*_, estimate, se) in zip(terms, _sampled(weights, shots, rng)):
                    values[name], stderr[name] = estimate, se
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return CorrelationSet(source=mode, stderr=stderr, **values)
