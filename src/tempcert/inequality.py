"""The temporal and compatibility-assuming expressions, their bounds, and the
four relabeling symmetries.

The temporal expression needs no commutation assumptions; the companion
expression I_NC assumes the five measurement contexts commute, which this
module checks rather than assumes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, seqcorr
from .errors import BadTransformId
from .scenario import Observable, Scenario
from .seqcorr import CONTEXT_PAIRS, CONTEXTS, TERMS, CorrelationSet, correlations

#: Maximum of the expression over deterministic +-1 assignments. Stored as a
#: constant but recomputed by classical_bound(); tests cross-check the two.
CLASSICAL_BOUND = 3.0

#: Algebraic maximum over quantum realizations (each correlator is bounded by
#: one). Never hard-trusted: the optimizer soundness tests re-derive it.
QUANTUM_BOUND = 5.0

#: Largest context commutator norm at which the contexts count as compatible.
COMPATIBILITY_TOL = 1e-8


@dataclass
class InequalityValue:
    value: float
    classical_bound: float = CLASSICAL_BOUND
    quantum_bound: float = QUANTUM_BOUND
    deficit: float = 0.0


@dataclass
class CompatibilityReport:
    """Operator norms of the nine context commutators."""

    commutator_norms: dict

    @property
    def compatible(self) -> bool:
        return max(self.commutator_norms.values()) <= COMPATIBILITY_TOL

    @property
    def max_norm(self) -> float:
        return max(self.commutator_norms.values())


def eval_IT(c: CorrelationSet) -> InequalityValue:
    """Temporal expression value: the weighted sum of the correlators over TERMS.

    value = (triple_123 + triple_213 + triple_456 + triple_546)/2
            + pair_14 + pair_25 - pair_36
    """
    value = 0.0
    for name, _, weight in TERMS:
        value += weight * getattr(c, name)
    return InequalityValue(value=float(value), deficit=QUANTUM_BOUND - float(value))


def eval_IT_scenario(s: Scenario) -> InequalityValue:
    return eval_IT(correlations(s, "analytic"))


def eval_INC(s: Scenario):
    """Compatibility-assuming expression plus a commutator report.

    value = <A1A2A3> + <A4A5A6> + <A1A4> + <A2A5> - <A3A6> with plain
    operator products under Re tr(rho .), as inner products of the state
    factor's images. Always evaluated, even for incompatible observables; the
    report flags when the result is not physically meaningful (some context
    commutator norm above 1e-8), and does not depend on the state.
    """
    a = s.matrices()
    single, double = seqcorr.state_images(a, s.state.factor())
    value = 0.0
    for context, sign in CONTEXTS.items():
        i, j, *k = (x - 1 for x in context)  # Re tr(rho A_i A_j ...) = Re<A_i R, A_j ... R>
        value += sign * float(np.vdot(single[i], double[j, k[0]] if k else single[j]).real)
    norms = linalg.largest_singular_values(np.array([a[i - 1] @ a[j - 1] - a[j - 1] @ a[i - 1]
                                                     for i, j in CONTEXT_PAIRS]))
    return value, CompatibilityReport(dict(zip(CONTEXT_PAIRS, norms.tolist())))


def classical_bound():
    """Enumerate all 64 deterministic assignments and maximize the expression,
    which for them is the signed sum of the CONTEXTS products.

    Returns the bound (an integer) and every maximizing assignment
    (a1, ..., a6).
    """
    values = {a: sum(sign * math.prod(a[k - 1] for k in ctx) for ctx, sign in CONTEXTS.items())
              for a in itertools.product((1, -1), repeat=6)}
    best = max(values.values())
    return best, [a for a, v in values.items() if v == best]


#: Each relabeling symmetry's id -> the signed source slot of slots 1..6: slot k
#: takes sign(x) * A_|x| for the k-th entry x. Each of the four is an involution.
SYMMETRIES = {
    1: (2, 1, 3, 5, 4, 6),
    2: (3, 2, 1, -6, 5, -4),
    3: (1, -3, -2, 4, 6, 5),
    4: (4, 5, 6, 1, 2, 3),
}


def apply_symmetry(s: Scenario, tid: int) -> Scenario:
    """Relabel and sign-flip the observables of a scenario by symmetry `tid`
    (BadTransformId unless 1..4); state unchanged."""
    try:
        sources = SYMMETRIES[tid]
    except KeyError:
        raise BadTransformId(f"transform id must be 1..4, got {tid!r}") from None
    return Scenario(s.state, [s.observable(x) if x > 0 else Observable(-s.observable(-x).matrix)
                              for x in sources])


def symmetry_residual(s: Scenario, tid: int) -> float:
    """Change of the temporal value under symmetry `tid` (BadTransformId unless 1..4).

    Symmetries 1 and 4 are exact operator identities of the expression, so
    their residual is rounding alone; 2 and 3 shift it by double-commutator
    expectations that vanish when the triple observables pairwise commute.
    """
    after = eval_IT_scenario(apply_symmetry(s, tid)).value
    return after - eval_IT_scenario(s).value
