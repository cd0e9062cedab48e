"""Seesaw maximization of the temporal expression.

The expression is linear in the state and in each observable separately, so
both half-steps have exact maximizers: the state update takes the top
eigenvector of the expression's operator form, and each observable update
takes the eigen-sign of its Hermitian coefficient operator. Every half-step
is an exact argmax, which makes the per-sweep values monotone.

The algebra is written once, over arrays with leading batch axes: the
per-scenario functions below pass one scenario's (6, d, d) observables, and
the multi-start seesaw passes all running seeds as (S, 6, d, d).
"""

from __future__ import annotations

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
    random_hermitian,
    random_pure_state,
    round_to_involutions,
    round_to_signs,
)
from .seqcorr import TERMS

#: Coefficient-operator eigenvalues below this have no preferred sign.
DEGENERATE_EIGENVALUE = 1e-12


def _terms_of_length(n: int):
    """The n-slot terms of TERMS as (divisor, ((sign, slots), ...)): an n-slot
    correlator is tr(rho {A_x, {A_y, ...}}) / 2^(n-1), so a term of weight w
    is sign(w) times its anticommutator over 2^(n-1)/|w|, one divisor per n."""
    terms = [(slots, w) for _, slots, w in TERMS if len(slots) == n]
    (divisor,) = {2 ** (n - 1) / abs(w) for _, w in terms}
    return divisor, tuple((1 if w > 0 else -1, slots) for slots, w in terms)


#: Operator form of the temporal expression: each group summed, then divided.
TRIPLES, PAIRS = _terms_of_length(3), _terms_of_length(2)


@dataclass
class SeesawConfig:
    dim: int
    max_sweeps: int = 200
    tol: float = 1e-13
    seeds: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {self.seeds}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


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


def _signed_sum(terms):
    """Sum of (sign, term) pairs, left to right in the written order."""
    (sign, total), *rest = terms
    total = total if sign > 0 else -total
    for sign, t in rest:
        total = total + t if sign > 0 else total - t
    return total


def _slots(mats) -> tuple:
    """1-based views A1..A6 of observables stacked as (..., 6, d, d)."""
    a = np.asarray(mats)
    return (None,) + tuple(a[..., k, :, :] for k in range(6))


def _bell_from_matrices(mats) -> np.ndarray:
    """Bell operator of observables stacked as (..., 6, d, d)."""
    a = _slots(mats)
    (t_div, triples), (p_div, pairs) = TRIPLES, PAIRS
    b = (
        _signed_sum([(sign, linalg.acomm(a[x], linalg.acomm(a[y], a[z])))
                     for sign, (x, y, z) in triples]) / t_div
        + _signed_sum([(sign, linalg.acomm(a[x], a[y])) for sign, (x, y) in pairs]) / p_div
    )
    return linalg.hermitize(b)


def _coefficient_from_matrices(mats, rho, slot: int) -> np.ndarray:
    """Coefficient operator of `slot` for observables (..., 6, d, d) and
    states (..., d, d), from the adjoint identities term by term."""
    a = _slots(mats)
    (t_div, triples), (p_div, pairs) = TRIPLES, PAIRS
    terms = []
    for sign, (x, y, z) in triples:
        if slot == x:    # tr(rho {A, {y, z}}) = tr(A {{y, z}, rho})
            terms.append((sign, linalg.acomm(linalg.acomm(a[y], a[z]), rho)))
        elif slot == y:  # tr(rho {x, {A, z}}) = tr(A {z, {x, rho}})
            terms.append((sign, linalg.acomm(a[z], linalg.acomm(a[x], rho))))
        elif slot == z:  # tr(rho {x, {y, A}}) = tr(A {y, {x, rho}})
            terms.append((sign, linalg.acomm(a[y], linalg.acomm(a[x], rho))))
    for sign, (x, y) in pairs:
        if slot in (x, y):  # tr(rho {x, A}) = tr(A {x, rho})
            pair = (sign, linalg.acomm(a[y] if slot == x else a[x], rho) / p_div)
    g = _signed_sum([(1, _signed_sum(terms) / t_div), pair])
    return linalg.hermitize(g)


def _values(rho, b) -> np.ndarray:
    """tr(rho B) for each leading index."""
    return np.trace(rho @ b, axis1=-2, axis2=-1).real


def _densities(psi) -> np.ndarray:
    """|psi><psi| for state vectors stacked as (..., d)."""
    return psi[..., :, None] * psi.conj()[..., None, :]


def _top_eigenvectors(b) -> np.ndarray:
    """Exact state half-step for a stack of operator forms."""
    _, v = linalg.eig_hermitian(b)
    return v[..., :, 0]


def bell_operator(s: Scenario) -> np.ndarray:
    """Hermitian operator B with tr(rho B) equal to the temporal value.

    B = ({A1,{A2,A3}} + {A2,{A1,A3}} + {A4,{A5,A6}} + {A5,{A4,A6}})/8
        + ({A1,A4} + {A2,A5} - {A3,A6})/2
    """
    return _bell_from_matrices(s.matrices())


def expression_value(s: Scenario) -> float:
    """tr(rho B); equals the correlator assembly to machine precision."""
    return float(_values(s.density(), bell_operator(s)))


def optimal_state(observables) -> PureState:
    """Exact state half-step: top eigenvector of the operator form.

    The expression is linear in rho, so the maximum over all states is
    attained at the top eigenvector; the achieved value is the top
    eigenvalue.
    """
    mats = [o.matrix if isinstance(o, Observable) else linalg.as_matrix(o)
            for o in observables]
    if len(mats) != 6:
        raise ShapeMismatch(f"need 6 observables, got {len(mats)}")
    return PureState(_top_eigenvectors(_bell_from_matrices(mats)))


def coefficient_operator(s: Scenario, slot: int) -> np.ndarray:
    """Hermitian G with value = Re tr(A_slot G) + const, other slots fixed.

    Each of the seven terms contains a given slot at most once, so the
    expression is linear in that slot's observable. The adjoint identities
    tr(rho {A, K}) = tr(A {K, rho}) and
    tr(rho {K, {A, L}}) = tr(A {L, {K, rho}}) give G directly.
    """
    if not 1 <= slot <= 6:
        raise ShapeMismatch(f"slot must be in 1..6, got {slot}")
    return _coefficient_from_matrices(s.matrices(), s.density(), slot)


def optimal_observable(s: Scenario, slot: int) -> Observable:
    """Exact observable half-step: eigen-sign of the coefficient operator.

    Over Hermitian involutions, Re tr(A G) is maximized by
    A = sum_k sign(lambda_k(G)) v_k v_k†. Eigenvalues of magnitude at most
    1e-12 get sign +1 (deterministic tie-break) and raise a
    DegenerateCoefficientWarning.
    """
    a, w = round_to_signs(coefficient_operator(s, slot), DEGENERATE_EIGENVALUE)
    degenerate = np.abs(w) <= DEGENERATE_EIGENVALUE
    if np.any(degenerate):
        warnings.warn(
            f"slot {slot}: {int(degenerate.sum())} coefficient eigenvalue(s) "
            "below 1e-12, sign tie-broken to +1",
            DegenerateCoefficientWarning,
            stacklevel=2,
        )
    return Observable(a)


def seesaw(config: SeesawConfig):
    """Multi-start seesaw. Returns (best trace, all traces).

    Each seed draws its random start from its own PCG64 stream, spawned from
    config.rng_seed; all starts are sign-rounded in one stacked call. The
    seeds then run as one batch: each half-step is one stacked eigensolve
    over the running seeds, and a seed leaves the batch when its sweep gain
    falls below config.tol. Seeds never mix, so a seed's trace does not
    depend on the other seeds. The iterates are eigen-sign roundings and
    eigenvectors, exact to rounding error, and are not checked in the loop:
    each seed's final iterate is checked when its Observable and PureState
    are built at the end, so a bad iterate raises there, not mid-loop. Best
    is the highest final value, lowest seed on ties.
    """
    children = np.random.SeedSequence(config.rng_seed).spawn(config.seeds)
    states, draws = [], []
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        states.append(random_pure_state(config.dim, rng).amplitudes)
        draws.append([random_hermitian(config.dim, rng) for _ in range(6)])
    psi = np.array(states)                          # (S, d)
    obs = round_to_involutions(np.array(draws))     # (S, 6, d, d)
    traces = [SeesawTrace(seed_index=k) for k in range(config.seeds)]

    b = _bell_from_matrices(obs)  # the running seeds' Bell operators
    previous = _values(_densities(psi), b)
    active = np.arange(config.seeds)
    for _ in range(config.max_sweeps):
        o = obs[active]
        p = _top_eigenvectors(b)
        rho = _densities(p)
        for slot in range(1, 7):
            a, w = round_to_signs(_coefficient_from_matrices(o, rho, slot), DEGENERATE_EIGENVALUE)
            o[:, slot - 1] = a
            for k in active[(np.abs(w) <= DEGENERATE_EIGENVALUE).any(axis=-1)]:
                traces[k].degenerate_steps += 1
        b = _bell_from_matrices(o)  # gives this sweep's values and the next state step
        values = _values(rho, b)
        obs[active], psi[active] = o, p
        for k, value in zip(active, values):
            traces[k].values.append(float(value))
        done = values - previous[active] < config.tol
        for k in active[done]:
            traces[k].converged = True
        previous[active] = values
        active, b = active[~done], b[~done]
        if not active.size:
            break

    for t in traces:
        k = t.seed_index
        t.scenario = Scenario(PureState(psi[k]), [Observable(m) for m in obs[k]])
    best = max(traces, key=lambda t: (t.best_value, -t.seed_index))
    if best.best_value > QUANTUM_BOUND + 1e-9:
        raise AssertionError(
            f"seesaw exceeded the quantum bound: {best.best_value!r}"
        )
    return best, traces
