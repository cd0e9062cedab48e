"""Seesaw maximization of the temporal expression.

The expression is linear in the state and in each observable separately, so
each step has an exact maximizer: the state step takes the top eigenvector of
the expression's operator form, and an observable step the eigen-sign of the
slot's Hermitian coefficient operator. Two slots that share no word are absent
from each other's coefficient operators, so one joint argmax updates both: a
sweep is a state step, then three pair steps, one per pair of SLOT_PAIRS.
Every step is an exact argmax, which makes the per-sweep values monotone.

The Bell operator comes from TERMS, the coefficient operators from WORDS,
TERMS with each triple split into its two orders; both act on state factors
R, rho = R R†, pure or mixed, over arrays with leading batch axes: one
scenario's (6, d, d) observables and (d, c) factor, or all running seeds'
(S, 6, d, d) and (S, d, 1). GATHER gathers a slot's or a pair's coefficient
operators from one image stack. Products that share a right operand are
row-stacked, [A; A'] @ B, which gives each block the bits of its own product; a
matrix-vector product stays one, as a matrix-matrix product rounds differently.

Input is checked at the edges: the public functions take Observables only, and
`seesaw` checks its final iterates once, as one (S, 6, d, d) stack of observables
and one (S, d) stack of states. In between, both operators are Hermitian parts,
exactly Hermitian by construction, handed straight to the eigensolver: a sign
rounding, the starts' included, depends on neither the order nor the phases of the
eigenvectors, so only the state steps, whose top eigenvector is the final PureState,
phase-fix one column, with `linalg.phase_fixed`.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DegenerateCoefficientWarning, ShapeMismatch
from .inequality import QUANTUM_BOUND
from .scenario import (
    Observable,
    PureState,
    Scenario,
    _require_slot,
    require_integer,
    require_observables,
    require_operands,
    round_eig_to_signs,
    round_to_involutions,
)
from .seqcorr import TERMS

#: Coefficient-operator eigenvalues below this have no preferred sign.
DEGENERATE_EIGENVALUE = 1e-12

#: I_T = sum of w * Re<R, A_w1 A_w2 ... R> over (word, w): a pair (x, y) is one word, a triple
#: (x, y, z) the words (x, y, z) and (x, z, y) at w/2, as `seqcorr`'s correlators split it.
WORDS = tuple(word for _, (x, *rest), w in TERMS
              for word in ([((x, *rest), w)] if len(rest) == 1
                           else [((x, *rest), w / 2), ((x, *rest[::-1]), w / 2)]))


@dataclass
class SeesawConfig:
    dim: int
    max_sweeps: int = 200
    tol: float = 1e-13
    seeds: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        for name, minimum in (("dim", 2), ("max_sweeps", 1), ("seeds", 1), ("rng_seed", 0)):
            require_integer(name, getattr(self, name), minimum)
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


@dataclass
class SeesawTrace:
    values: list = field(default_factory=list)
    scenario: Scenario | None = None
    converged: bool = False
    seed_index: int = 0
    degenerate_steps: int = 0

    @property
    def best_value(self) -> float:
        return self.values[-1] if self.values else float("-inf")


#: TERMS as 0-based index arrays: every term's first and second slot, the third slot of
#: the triples, which TERMS lists first, and the weights.
TERM_SLOTS = tuple(np.array([s[i] - 1 for _, s, _ in TERMS if len(s) > i]) for i in range(3))
TERM_WEIGHTS = np.array([w for _, _, w in TERMS])


def _bell_from_matrices(mats) -> np.ndarray:
    """Bell operator of observables (..., 6, d, d) in 9 products: the Hermitian part of the
    sum over TERMS of w * A_x Herm(A_y A_z) for a triple (x, y, z), its two words of WORDS
    at w/2, row-stacked as [A_y; A_y'] A_z for two triples that share z, and of w * A_x A_y."""
    a = np.asarray(mats, dtype=complex)
    first, second, third = TERM_SLOTS
    n, lead, d = len(third), a.shape[:-3], a.shape[-1]
    triples = a[..., second[:n], :, :].reshape(*lead, n // 2, 2 * d, d) @ a[..., third[::2], :, :]
    right = np.concatenate([linalg.hermitian_part(triples.reshape(*lead, n, d, d)),
                            a[..., second[n:], :, :]], axis=-3)
    return linalg.hermitian_part(np.add.reduce(
        TERM_WEIGHTS[:, None, None] * (a[..., first, :, :] @ right), axis=-3, initial=0))


#: The slot pairs that share no word, as the first perfect matching in slot order: the words
#: join slots 1-2-3, 4-5-6, 1-4, 2-5 and 3-6, a prism whose complement is the 6-cycle
#: 1-5-3-4-2-6, so this is ((1, 5), (2, 6), (3, 4)).
SLOT_PAIRS = next(m for m in itertools.combinations(
    [pair for pair in itertools.combinations(range(1, 7), 2)
     if not any(set(pair) <= set(word) for word, _ in WORDS)], 3) if len(set(sum(m, ()))) == 6)


def _gather(slots: tuple):
    """Gather table of `slots`: (j, k) of the double images A_j A_k R their words
    need, and for each slot's five words L A_slot M the positions (n, 5) of M R
    and L† R in the images (R, A_1 R, ..., A_6 R, the doubles), and the weights."""
    splits = [[(w, word[:i][::-1], word[i + 1:])  # L reversed: L† for Hermitian A
               for word, w in WORDS for i, k in enumerate(word) if k == slot] for slot in slots]
    doubles = list(dict.fromkeys(p for s in splits for _, l, m in s for p in (l, m) if len(p) == 2))
    position = {(): 0, **{(k,): k for k in range(1, 7)}, **{p: i for i, p in enumerate(doubles, 7)}}
    right, left = (np.array([[position[part[i]] for part in s] for s in splits]) for i in (2, 1))
    weights = np.array([[w for w, _, _ in s] for s in splits])
    return (*np.subtract(doubles, 1).T, right, left, weights)


#: `_gather` of each single slot (k,) and of each pair of SLOT_PAIRS.
GATHER = {slots: _gather(slots) for slots in (*((k,) for k in range(1, 7)), *SLOT_PAIRS)}


def _apply(mats, r) -> np.ndarray:
    """Images A_k R (..., n, d, c) under matrices (..., n, d, d) of state factors
    r (..., d, c), from one row-stacked product (..., n d, d) @ (..., d, c)."""
    return (mats.reshape(*mats.shape[:-3], -1, mats.shape[-1]) @ r).reshape(*mats.shape[:-1], -1)


def _coefficients(mats, r, single, slots: tuple) -> np.ndarray:
    """Coefficient operators (..., n, d, d) of the n `slots`, a key of GATHER, for
    observables (..., 6, d, d), state factors (..., d, c) and their `_apply`
    images: each the Hermitian part of sum_w w (M R)(L† R)†, from one product."""
    j, k, right, left, weights = GATHER[slots]
    images = np.concatenate([r[..., None, :, :], single,
                             mats[..., j, :, :] @ single[..., k, :, :]], axis=-3)
    # (..., n, d, 5 c): each slot's five gathered blocks side by side
    shape = (*r.shape[:-2], len(slots), r.shape[-2], -1)
    m_r = images[..., right, :, :].swapaxes(-3, -2).reshape(shape)
    l_r = (weights[..., None, None] * images[..., left, :, :]).swapaxes(-3, -2).reshape(shape)
    return linalg.hermitian_part(m_r @ l_r.conj().swapaxes(-1, -2))


def _values(r, b) -> np.ndarray:
    """Re tr(R† B R) = tr(rho B) for each leading index."""
    return np.sum(r.conj() * (b @ r), axis=(-2, -1)).real


def _top_factors(b) -> np.ndarray:
    """Exact state step for a stack of exactly Hermitian operator forms: factors
    (..., d, 1), `linalg.eig_hermitian`'s first column, bit for bit, as w's
    first maximum is the stable descending sort's first; only it is phase-fixed."""
    w, v = np.linalg.eigh(b)
    return linalg.phase_fixed(np.take_along_axis(v, w.argmax(axis=-1)[..., None, None], -1))


def _sign_step(g):
    """Exact observable step for a stack of exactly Hermitian coefficient
    operators: their eigen-sign roundings, ties broken to +1, straight from
    eigh's eigenvectors, whose order and phases the rounding does not see,
    and their eigenvalues, ascending."""
    w, v = np.linalg.eigh(g)
    return round_eig_to_signs(w, v, DEGENERATE_EIGENVALUE), w


def bell_operator(s: Scenario) -> np.ndarray:
    """Hermitian operator B with tr(rho B) equal to the temporal value.

    B = ({A1,{A2,A3}} + {A2,{A1,A3}} + {A4,{A5,A6}} + {A5,{A4,A6}})/8
        + ({A1,A4} + {A2,A5} - {A3,A6})/2
    """
    return _bell_from_matrices(s.matrices())


def expression_value(s: Scenario) -> float:
    """Re tr(R† B R) for the state factor R, pure or mixed; equals the
    correlator assembly to machine precision."""
    return float(_values(s.state.factor(), bell_operator(s)))


def optimal_state(observables) -> PureState:
    """Exact state step: top eigenvector of the operator form.

    The expression is linear in rho, so the maximum over all states is
    attained at the top eigenvector; the achieved value is the top
    eigenvalue. The six observables are Observables of one dimension
    (`require_operands`); a raw matrix raises TypeError.
    """
    observables = list(observables)
    if len(observables) != 6:
        raise ShapeMismatch(f"need 6 observables, got {len(observables)}")
    mats = [o.matrix for o in require_operands(None, observables)]
    return PureState(_top_factors(_bell_from_matrices(mats))[..., 0])


def coefficient_operator(s: Scenario, slot: int) -> np.ndarray:
    """Hermitian G with value = Re tr(A_slot G) + const, other slots fixed.

    Each word of WORDS contains a slot at most once, so the expression is
    linear in its observable A: a word L A M adds w * Re<L† R, A M R> =
    w * Re tr(A (M R)(L† R)†), where R is the state factor, pure or mixed,
    and M R and L† R are among its images R, A_k R and A_j A_k R.
    """
    _require_slot(slot)
    m, r = s.matrices(), s.state.factor()
    return _coefficients(m, r, _apply(m, r), (int(slot),))[0]


def optimal_observable(s: Scenario, slot: int) -> Observable:
    """Exact observable step: eigen-sign of the coefficient operator.

    Over Hermitian involutions, Re tr(A G) is maximized by
    A = sum_k sign(lambda_k(G)) v_k v_k†. Eigenvalues of magnitude at most
    1e-12 get sign +1 (deterministic tie-break) and raise a
    DegenerateCoefficientWarning.
    """
    a, w = _sign_step(coefficient_operator(s, slot))
    degenerate = int((np.abs(w) <= DEGENERATE_EIGENVALUE).sum())
    if degenerate:
        warnings.warn(f"slot {slot}: {degenerate} coefficient eigenvalue(s) below 1e-12, "
                      "sign tie-broken to +1", DegenerateCoefficientWarning, stacklevel=2)
    return Observable(a)


def seesaw(config: SeesawConfig):
    """Multi-start seesaw. Returns (best trace, all traces).

    Each seed draws its random start, a state and its six generators, with one
    call on its own PCG64 stream, spawned from config.rng_seed; the starts are
    sign-rounded in one stacked call. The seeds run as one batch. A sweep is a
    state step, then one step per pair of SLOT_PAIRS, in order: four stacked
    eigensolves over the running seeds. A seed leaves the batch, with its
    iterates, when its sweep gain falls below config.tol, and its trace does not
    depend on the other seeds. `degenerate_steps` counts a seed's slot steps,
    two per pair step, with a coefficient eigenvalue of magnitude at most 1e-12.
    The final iterates are checked once, as two stacks (observables, then state norms),
    and each seed's scenario holds views of both. Best is the highest final value,
    lowest seed on ties.
    """
    d, seeds = config.dim, config.seeds
    # each seed's stream: the start state's 2 d normals, then its generators' 12 d^2
    draws = np.array([np.random.Generator(np.random.PCG64(child)).standard_normal(2 * d * (1 + 6 * d))
                      for child in np.random.SeedSequence(config.rng_seed).spawn(seeds)])
    v, g = draws[:, :d] + 1j * draws[:, d:2 * d], draws[:, 2 * d:].reshape(seeds, 6, 2, d, d)
    r = (v / linalg.vec_norms(v)[:, None])[..., None]  # (S, d, 1) state factors
    obs = round_to_involutions(linalg.hermitian_part(g[..., 0, :, :] + 1j * g[..., 1, :, :]))[0]
    degenerate, sweeps = np.zeros((2, seeds), dtype=int)  # sweeps: the one a seed leaves at, or 0

    b = _bell_from_matrices(obs)  # the running seeds' Bell operators
    last = _values(r, b)          # each seed's latest value
    rows, active, o = [], np.arange(seeds), obs
    for sweep in range(1, config.max_sweeps + 1):
        p = _top_factors(b)
        single, w = _apply(o, p), []
        for pair in SLOT_PAIRS:
            a, wp = _sign_step(_coefficients(o, p, single, pair))  # (n, 2, d, d), (n, 2, d)
            o[:, np.subtract(pair, 1)] = a
            if pair != SLOT_PAIRS[-1]:  # the next pair steps read the two new images
                single[:, np.subtract(pair, 1)] = _apply(a, p)
            w.append(wp)
        degenerate[active] += (np.abs(np.concatenate(w, -2)) <= DEGENERATE_EIGENVALUE).any(-1).sum(-1)
        b = _bell_from_matrices(o)  # gives this sweep's values and the next state step
        values = _values(p, b)
        done = values - last[active] < config.tol
        last[active] = values
        rows.append(last.copy())
        if done.any():  # the seeds that leave the batch take their iterates along
            leaving, keep = active[done], ~done
            obs[leaving], r[leaving], sweeps[leaving] = o[done], p[done], sweep
            active, o, p, b = active[keep], o[keep], p[keep], b[keep]
            if not active.size:
                break
    obs[active], r[active] = o, p
    require_observables(obs)  # the final iterates once, as stacks: observables, then states
    PureState._require_unit_norms(r[..., 0])

    cols, counts = np.array(rows).T.tolist(), zip(sweeps.tolist(), degenerate.tolist())
    traces = [SeesawTrace(cols[k][:n or len(rows)], Scenario._of(PureState._of(x), final),
                          n > 0, k, m)
              for k, ((n, m), x, final) in enumerate(zip(counts, r[..., 0], obs))]
    best = max(traces, key=lambda t: (t.best_value, -t.seed_index))
    if best.best_value > QUANTUM_BOUND + 1e-9:
        raise AssertionError(f"seesaw exceeded the quantum bound: {best.best_value!r}")
    return best, traces
