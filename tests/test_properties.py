"""Properties of the engine over generated scenarios (hypothesis, with the
derandomized profile registered in conftest.py)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from tempcert.scenario import random_density, random_scenario
from tempcert.seqcorr import correlations

from conftest import rng_from


@st.composite
def scenarios(draw, dims=st.integers(2, 6)):
    """random_scenario(d) from a drawn seed: near-involution observables on a
    pure state, or on a random full-rank mixed state."""
    d, seed, pure = draw(dims), draw(st.integers(0, 2**32 - 1)), draw(st.booleans())
    rng = rng_from(seed)
    s = random_scenario(d, rng)
    return s if pure else s.with_state(random_density(d, rng))


@given(s=scenarios(), shot_seed=st.integers(0, 2**32 - 1))
def test_correlator_routes_agree(s, shot_seed):
    """analytic and exact-sum agree to 1e-10; sampled lies within 5 stderr."""
    analytic = correlations(s, "analytic").as_dict()
    summed = correlations(s, "exact-sum").as_dict()
    sampled = correlations(s, "sampled", shots=10**5, rng_seed=shot_seed)
    for name, a in analytic.items():
        assert abs(summed[name] - a) <= 1e-10
        # a correlator of exactly +-1 has stderr 0; its sampled value is exact
        assert abs(getattr(sampled, name) - a) <= 5 * sampled.stderr[name] + 1e-10
