import sys

import numpy as np
import pytest

from tempcert import linalg
from tempcert.scenario import (
    Observable,
    PureState,
    Scenario,
    canonical_scenario,
    conjugate_scenario,
    random_involution,
    random_pure_state,
    random_unitary,
)

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Property tests draw the same examples on every run and keep no example
    # database, so tier-1 stays deterministic.
    settings.register_profile("tempcert", derandomize=True, database=None, deadline=None,
                              max_examples=20)
    settings.load_profile("tempcert")


@pytest.fixture
def canonical():
    return canonical_scenario()


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the np.linalg.svd calls made while the fixture is active."""
    calls = []
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the np.linalg.eigh calls made while the fixture is active."""
    calls = []
    original = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.fixture
def phase_fixing_calls(monkeypatch):
    """Shapes of the eigenvector stacks (..., d, k) that linalg.phase_fixed rotates
    while the fixture is active: one call per sorted and phase-fixed eigensolve,
    `eig_hermitian`'s or the seesaw's state step's."""
    calls = []
    original = linalg.phase_fixed

    def counting(v):
        calls.append(np.shape(v))
        return original(v)

    monkeypatch.setattr(linalg, "phase_fixed", counting)
    return calls


#: The constructors that check their input: where a Hermiticity check belongs.
CONSTRUCTORS = {"Observable.__init__", "observables", "DensityMatrix.__init__"}


@pytest.fixture
def hermitian_checks(monkeypatch):
    """For each linalg.require_hermitian call made while the fixture is active,
    the qualified name of the function that asked for it, looking through
    `require_observables`, the check that Observable and `observables` share."""
    calls = []
    original = linalg.require_hermitian

    def counting(m, what):
        frame = sys._getframe(1)
        while frame.f_code.co_name == "require_observables":
            frame = frame.f_back
        calls.append(frame.f_code.co_qualname)
        return original(m, what)

    monkeypatch.setattr(linalg, "require_hermitian", counting)
    return calls


def rng_from(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def embed_scenario(s: Scenario, dim: int, rng: np.random.Generator) -> Scenario:
    """Direct-sum a scenario with a random junk block on dim - s.dim extra
    dimensions; the state stays supported on the original block."""
    pad = dim - s.dim
    if pad == 0:
        return s
    obs = []
    for o in s.observables:
        m = np.zeros((dim, dim), dtype=complex)
        m[: s.dim, : s.dim] = o.matrix
        m[s.dim :, s.dim :] = random_involution(pad, rng).matrix
        obs.append(Observable(m))
    amps = np.zeros(dim, dtype=complex)
    amps[: s.dim] = s.state.amplitudes
    return Scenario(PureState(amps), obs)


def conjugated_embedding(s: Scenario, dim: int, rng: np.random.Generator) -> Scenario:
    return conjugate_scenario(embed_scenario(s, dim, rng), random_unitary(dim, rng))


def commuting_triple_scenario(rng: np.random.Generator, dim: int = 4) -> Scenario:
    """Random scenario whose triples {A1,A2,A3} and {A4,A5,A6} each share an
    eigenbasis (pairwise commuting within each triple)."""
    obs = []
    for _ in range(2):
        w = random_unitary(dim, rng)
        for _ in range(3):
            signs = rng.choice([-1.0, 1.0], size=dim)
            obs.append(Observable((w * signs) @ w.conj().T))
    return Scenario(random_pure_state(dim, rng), obs)
