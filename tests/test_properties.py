"""Properties of the engine over generated scenarios and matrices
(hypothesis, with the derandomized profile registered in conftest.py)."""

import functools
import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from tempcert import certify
from tempcert.certify import extract
from tempcert.errors import NotHermitian, TempcertError, ZeroEigenvalue
from tempcert.inequality import (
    CLASSICAL_BOUND,
    QUANTUM_BOUND,
    SYMMETRIES,
    apply_symmetry,
    eval_INC,
    eval_IT,
    eval_IT_scenario,
    symmetry_residual,
)
from tempcert.linalg import (
    STRUCTURAL_TOL,
    acomm,
    eig_hermitian,
    expi_eig,
    expi_hermitian,
    hermitian_part,
    inv_sqrt_psd,
    op_norm,
    op_norm_exceeds,
    op_norms,
    require_hermitian,
    vec_norms,
)
from tempcert.optimize import (
    DEGENERATE_EIGENVALUE,
    GATHER,
    SLOT_PAIRS,
    _bell_from_matrices,
    _apply,
    _coefficients,
    _sign_step,
    bell_operator,
    coefficient_operator,
)
from tempcert.robustness import (
    CHECK_GUARD,
    EPSILON_CEILING,
    BoundCheck,
    Depolarizing,
    ObservableTilt,
    UnitaryJitter,
    _state_norm_checks,
    apply_noise,
    check_robustness_bounds,
)
from tempcert.scenario import (
    INVOLUTION_TOL,
    NORM_TOL,
    PROBABILITY_TOL,
    SIGN_CUTOFF,
    DensityMatrix,
    Observable,
    PureState,
    Scenario,
    canonical_scenario,
    conjugate_scenario,
    dumps_scenario,
    loads_scenario,
    observables,
    purify_scenario,
    random_density,
    random_hermitian,
    random_pure_state,
    random_scenario,
    random_unitary,
    round_eig_to_signs,
    round_to_involutions,
)
from tempcert.seqcorr import (
    ANTICOMMUTING_PAIRS,
    CONTEXTS,
    TERMS,
    _projectors,
    _weights,
    correlations,
    exact_sequence_distribution,
    newton_schulz_step,
    sample_sequences,
    state_images,
)

from conftest import conjugated_embedding, rng_from
from test_optimize import adjoint_coefficient, anticommutator_bell
from test_seqcorr import reference_correlations


@st.composite
def scenarios(draw, dims=st.integers(2, 8)):
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


@st.composite
def tilted_canonicals(draw):
    """The canonical scenario with one observable tilted by a drawn angle
    (0 included): the tilt changes which outcomes of which terms are
    impossible, so the terms stacked in one draw leave out different outcomes."""
    slot, angle = draw(st.integers(1, 6)), draw(st.floats(-0.5, 0.5))
    return apply_noise(canonical_scenario(), ObservableTilt(slot, angle))


@given(s=st.one_of(scenarios(), tilted_canonicals()), shot_seed=st.integers(0, 2**32 - 1))
def test_stacked_walks_match_per_term_reference(s, shot_seed):
    """exact-sum and sampled, each growing the branches of all terms of one
    length at once, equal the per-term, per-outcome reference loops (for
    sampled, the normalized branch walk) bit for bit."""
    exact = correlations(s, "exact-sum")
    assert (exact.as_dict(), exact.stderr) == reference_correlations(s, "exact-sum")
    sampled = correlations(s, "sampled", shots=10**5, rng_seed=shot_seed)
    assert (sampled.as_dict(), sampled.stderr) == reference_correlations(
        s, "sampled", 10**5, shot_seed)


def recorded_multinomial_p(mp) -> list:
    """Patch numpy's Generator, within the MonkeyPatch mp, so that each
    multinomial draw records its p in the returned list."""
    drawn, generator = [], np.random.Generator

    class Recording:
        def __init__(self, bit_generator):
            self.rng = generator(bit_generator)

        def multinomial(self, n, pvals):
            drawn.append(np.array(pvals))
            return self.rng.multinomial(n, pvals)

    mp.setattr(np.random, "Generator", Recording)
    return drawn


@given(s=st.one_of(scenarios(), tilted_canonicals()), shot_seed=st.integers(0, 2**32 - 1))
def test_sampled_draws_from_the_exact_distribution(s, shot_seed):
    """The multinomial p of sampled, in correlations and in sample_sequences,
    is exact_sequence_distribution's probabilities snapped to the grid of
    2^-40, q = rint(2^40 p / sum p), its nonzero q / sum q, bit for bit: one
    set of outcome weights serves both modes."""
    seqs = [[s.observable(k) for k in slots] for _, slots, _ in TERMS]
    expected = []
    for seq in seqs:
        p = np.array(list(exact_sequence_distribution(s.state, seq).probabilities.values()))
        q = np.rint(2.0 ** 40 * p / p.sum())
        expected.append(q[q > 0] / q.sum())
    with pytest.MonkeyPatch.context() as mp:
        drawn = recorded_multinomial_p(mp)
        correlations(s, "sampled", shots=1000, rng_seed=shot_seed)
        for seq in seqs:
            sample_sequences(s.state, seq, 1000, shot_seed)
    assert len(drawn) == 2 * len(TERMS)  # correlations draws the terms in TERMS order
    for got, want in zip(drawn, expected * 2):
        assert np.array_equal(got, want)


@given(s=scenarios())
def test_vector_path_matches_matrix_form(s):
    """The analytic correlators, inner products of the state factor's images,
    match the matrix form tr(rho {A_x, {A_y, A_z}}) / 2^(n-1), and eval_INC's
    value the signed sum of Re tr(rho A_i A_j ...), to 1e-13."""
    rho, a = s.density(), s.matrices()
    analytic = correlations(s, "analytic")
    for name, slots, _ in TERMS:
        m = [a[k - 1] for k in slots]
        x = m[-1]
        for outer in reversed(m[:-1]):
            x = acomm(outer, x)
        oracle = np.trace(rho @ x).real / 2 ** (len(m) - 1)
        assert abs(getattr(analytic, name) - oracle) <= 1e-13
    oracle = sum(sign * np.trace(rho @ functools.reduce(np.matmul, [a[k - 1] for k in c])).real
                 for c, sign in CONTEXTS.items())
    assert abs(eval_INC(s)[0] - oracle) <= 1e-13


@given(s=scenarios(), seed=st.integers(0, 2**32 - 1))
def test_correlators_are_unitarily_invariant(s, seed):
    """The analytic and exact-sum correlators of conjugate_scenario(s, u), u a
    Haar unitary, equal those of s to 1e-13, and I_T <= 5 + 1e-12 on both."""
    t = conjugate_scenario(s, random_unitary(s.dim, rng_from(seed)))
    for mode in ("analytic", "exact-sum"):
        before, after = correlations(s, mode), correlations(t, mode)
        for name, value in before.as_dict().items():
            assert abs(getattr(after, name) - value) <= 1e-13
        assert max(eval_IT(before).value, eval_IT(after).value) <= QUANTUM_BOUND + 1e-12


@st.composite
def commuting_scenarios(draw, dims=st.integers(2, 8)):
    """Six observables with drawn signs in one shared Haar eigenbasis, on a
    random pure or full-rank mixed state."""
    d, seed, pure = draw(dims), draw(st.integers(0, 2**32 - 1)), draw(st.booleans())
    rng = rng_from(seed)
    w = random_unitary(d, rng)
    obs = [Observable((w * rng.choice([-1.0, 1.0], size=d)) @ w.conj().T) for _ in range(6)]
    return Scenario(random_pure_state(d, rng) if pure else random_density(d, rng), obs)


@given(s=commuting_scenarios())
def test_commuting_observables_respect_the_classical_bound(s):
    """Jointly diagonal observables are a mixture of deterministic assignments:
    I_T <= CLASSICAL_BOUND + 1e-12, and eval_INC, whose report finds every
    context compatible, equals I_T to 1e-10."""
    it = eval_IT_scenario(s).value
    value, report = eval_INC(s)
    assert it <= CLASSICAL_BOUND + 1e-12
    assert report.compatible and abs(value - it) <= 1e-10


@given(s=scenarios())
def test_symmetries_1_and_4_are_exact_and_each_undoes_itself(s):
    """Symmetries 1 and 4 are operator identities of the expression, so their
    residual is rounding alone, within 1e-14. Applying any of the four twice
    gives back every matrix bit for bit."""
    for tid in (1, 4):
        assert abs(symmetry_residual(s, tid)) <= 1e-14
    for tid in SYMMETRIES:
        twice = apply_symmetry(apply_symmetry(s, tid), tid)
        assert twice.state is s.state
        assert all(a.tobytes() == b.tobytes() for a, b in zip(s.matrices(), twice.matrices()))


@given(s=st.one_of(scenarios(), tilted_canonicals()))
def test_branch_norms_match_density_form(s):
    """Each exact-sum outcome probability, ||C R||_F^2 of the state factor's
    branch, matches the density form tr(C rho C†) of the same projector chain
    C = Pi_{a_n} ... Pi_{a_1} to 1e-14."""
    rho, eye = s.density(), np.eye(s.dim)
    mats = newton_schulz_step(np.array(s.matrices()))
    for _, slots, _ in TERMS:
        dist = exact_sequence_distribution(s.state, [s.observable(k) for k in slots])
        for outcomes, p in dist.probabilities.items():
            chain = eye
            for k, a in zip(slots, outcomes):
                chain = (eye + a * mats[k - 1]) / 2 @ chain
            assert abs(p - np.trace(chain @ rho @ chain.conj().T).real) <= 1e-14


@given(strength=st.floats(1e-4, 0.05), seed=st.integers(0, 2**32 - 1), dim=st.integers(6, 8))
def test_certify_survives_embedding(strength, seed, dim):
    """A jittered d = 4 realization, embedded into d = 6-8 beside a random
    involution block and Haar-conjugated, certifies to the same fidelity,
    distances and residuals, and leaks nothing out of V."""
    s = apply_noise(canonical_scenario(), UnitaryJitter(strength, rng_seed=seed))
    small = certify(s)
    big = certify(conjugated_embedding(s, dim, rng_from(seed)))
    assert abs(big.fidelity - small.fidelity) <= 1e-9
    assert abs(big.max_operator_distance - small.max_operator_distance) <= 1e-9
    for field in ("commutator_residuals", "anticommutator_residuals", "constraint_residuals"):
        a, b = getattr(small, field), getattr(big, field)
        assert a.keys() == b.keys()
        assert max(abs(a[k] - b[k]) for k in a) <= 1e-9
    assert max(big.leakage) <= 1e-9


@st.composite
def mixed_embeddings(draw):
    """Conjugated embeddings (d = 4, 6 or 8) of the canonical scenario whose state
    mixes the embedded PHI_PLUS with a random_density of rank 1..d at a drawn
    weight (1: the random state alone), under depolarizing noise or jitter."""
    d, weight = draw(st.sampled_from([4, 6, 8])), draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0]))
    rank = draw(st.integers(1, d))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    s = conjugated_embedding(canonical_scenario(), d, rng)
    rho = (1 - weight) * s.density() + weight * random_density(d, rng, rank=rank).matrix
    noise = draw(st.one_of(st.builds(Depolarizing, st.floats(0, 0.5)),
                           st.builds(UnitaryJitter, st.floats(0, 0.2), st.integers(0, 2**31))))
    return apply_noise(s.with_state(DensityMatrix(hermitian_part(rho))), noise)


def _outcome(f, s):
    """f(s), or the text of the TempcertError it raises."""
    try:
        return f(s)
    except TempcertError as exc:
        return f"{type(exc).__name__}: {exc}"


def _max_difference(a, b) -> float:
    """The largest |a - b| over the numbers of two JSON-ready documents of one
    structure; any other leaf must be equal."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        return max((_max_difference(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list):
        assert len(a) == len(b)
        return max((_max_difference(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, float):
        return abs(a - b)
    assert a == b
    return 0.0


@given(s=mixed_embeddings())
def test_mixed_path_matches_its_purification(s):
    """correlations, certify and the bound suite on a mixed state's factor give
    what they give on purify_scenario(s): the correlators and every bound's name,
    rhs and verdict bit for bit where d is a multiple of 4, each report field to
    1e-13 with equal signs, and a refusal with the same text. At d = 6 the lifted
    products of the purified path sum their nonzeros in another order, so the
    correlators and rhs there agree to 1e-15."""
    pure, tol = purify_scenario(s), 0.0 if s.dim % 4 == 0 else 1e-15
    a, b = correlations(s, "analytic").as_dict(), correlations(pure, "analytic").as_dict()
    assert all(abs(a[k] - b[k]) <= tol for k in a)
    new, ref = _outcome(certify, s), _outcome(certify, pure)
    if isinstance(new, str) or isinstance(ref, str):
        assert new == ref
    else:
        assert (new.sign3, new.sign6) == (ref.sign3, ref.sign6)
        assert _max_difference(new.to_dict(), ref.to_dict()) <= 1e-13
    new, ref = _outcome(check_robustness_bounds, s), _outcome(check_robustness_bounds, pure)
    if isinstance(new, str) or isinstance(ref, str):
        assert new == ref
    else:
        assert [(c.name, c.holds) for c in new] == [(c.name, c.holds) for c in ref]
        assert all(abs(c.rhs - r.rhs) <= tol for c, r in zip(new, ref))


def reference_bound_checks(s, eps):
    """The bound checks of s at deficit eps >= 0 written out check by check: the
    correlator floors, then each state-norm block a difference or sum of the
    images A_k R and A_j A_k R, the blocks' norms in one vec_norms call."""
    corr, checks = correlations(s, "analytic"), []
    for name, _, weight in TERMS:
        sign = 1 if weight > 0 else -1
        v = sign * getattr(corr, name)
        floor = 1 - eps / abs(weight)
        factor = "" if abs(weight) == 1 else f"{1 / abs(weight):g}"
        label = f"{'-' if sign < 0 else ''}{name}>=1-{factor}eps"
        checks.append(BoundCheck(label, v, floor, v >= floor - CHECK_GUARD))
    single, double = state_images(np.array(s.matrices()), s.state.factor())
    blocks = []  # (label, factor of sqrt(eps), block)
    for context, sign in CONTEXTS.items():
        if len(context) == 3:
            for i, j, k in itertools.permutations(context):
                blocks.append((f"norm(A{i}-A{j}A{k})<=4sqrt(eps)", 4,
                               single[i - 1] - double[j - 1, k - 1]))
        else:
            i, j = context
            blocks.append((f"norm(A{i}{'-' if sign > 0 else '+'}A{j})<=2sqrt(eps)", 2,
                           single[i - 1] - sign * single[j - 1]))
    for i, j in ANTICOMMUTING_PAIRS:
        blocks.append((f"norm({{A{i},A{j}}})<=14sqrt(eps)", 14,
                       double[i - 1, j - 1] + double[j - 1, i - 1]))
    lhs = vec_norms(np.array([block.reshape(-1) for _, _, block in blocks]))
    root = np.sqrt(eps)
    return checks + [BoundCheck(label, v, factor * root, v <= factor * root + CHECK_GUARD)
                     for (label, factor, _), v in zip(blocks, lhs)]


@given(s=st.one_of(scenarios(), mixed_embeddings(), tilted_canonicals()))
def test_bound_check_table_matches_the_check_by_check_form(s):
    """check_robustness_bounds reads its labels, factors, image indices and signs
    from tables built at import and gathers every state-norm block at once: each
    check's name, rhs and verdict equal the check-by-check form's, and its lhs
    bit for bit. Past EPSILON_CEILING, where the suite refuses, the state-norm
    checks are compared on their own."""
    eps = max(QUANTUM_BOUND - eval_IT(correlations(s, "analytic")).value, 0.0)
    new = check_robustness_bounds(s) if eps <= EPSILON_CEILING else _state_norm_checks(s, eps)
    ref = reference_bound_checks(s, eps)[-len(new):]
    assert [(c.name, c.rhs, c.holds) for c in new] == [(c.name, c.rhs, c.holds) for c in ref]
    assert [c.lhs.hex() for c in new] == [c.lhs.hex() for c in ref]


@st.composite
def noisy_rows(draw):
    """Sweep rows: the canonical scenario under a drawn one-slot tilt, unitary
    jitter or depolarizing noise, the last two also on a Haar-conjugated
    embedding into d = 6 or 8."""
    kind = draw(st.sampled_from(["tilt", "jitter", "depolarizing"]))
    s = canonical_scenario()
    if kind != "tilt" and draw(st.booleans()):
        s = conjugated_embedding(s, draw(st.sampled_from([6, 8])),
                                 rng_from(draw(st.integers(0, 2**32 - 1))))
    noise = {"tilt": st.builds(ObservableTilt, st.integers(1, 6), st.floats(-0.5, 0.5)),
             "jitter": st.builds(UnitaryJitter, st.floats(0, 0.3), st.integers(0, 2**31)),
             "depolarizing": st.builds(Depolarizing, st.floats(0, 0.9))}[kind]
    return apply_noise(s, draw(noise))


@given(s=noisy_rows())
def test_extracted_state_passes_the_pure_state_check(s):
    """extract builds its PureState without the constructor's checks, since it
    has just normalized the vector: on every row it does not refuse, the
    extracted vector is finite with norm within NORM_TOL of 1, as PureState
    demands, and read-only, and PureState gives back its bits."""
    try:
        amplitudes = extract(s).extracted_state.amplitudes
    except TempcertError:
        return
    assert np.isfinite(amplitudes).all() and not amplitudes.flags.writeable
    assert abs(np.linalg.norm(amplitudes) - 1) <= NORM_TOL
    assert PureState(amplitudes).amplitudes.tobytes() == amplitudes.tobytes()


@given(s=scenarios())
def test_operators_match_anticommutator_oracles(s):
    """The Bell and coefficient operators from the word table match the
    nested-anticommutator and adjoint-identity forms to 1e-13 per entry. Each
    pair of SLOT_PAIRS, gathered as one stack, gives its two slots'
    single-slot operators bit for bit."""
    a, rho = s.matrices(), s.density()
    assert np.abs(bell_operator(s) - anticommutator_bell(a)).max() <= 1e-13
    for pair in SLOT_PAIRS:
        r = s.state.factor()
        stacked = _coefficients(a, r, _apply(a, r), pair)
        for slot, g in zip(pair, stacked, strict=True):
            assert np.array_equal(g, coefficient_operator(s, slot))
            assert np.abs(g - adjoint_coefficient(a, rho, slot)).max() <= 1e-13


@given(d=st.integers(2, 8), k=st.integers(2, 7), c=st.sampled_from(["vector", "matrix"]),
       seed=st.integers(0, 2**32 - 1))
def test_row_stacked_products_match_per_matrix_products(d, k, c, seed):
    """The BLAS fact the seesaw's products rest on: stacking k left operands row-wise,
    (k d, d) @ (d, c), gives each (d, c) block the bits of its own product, for
    matrix-vector (c = 1) and matrix-matrix (c = d) products alike. On a platform
    where a seesaw golden fails and this does too, the kernel's premise is gone."""
    rng = rng_from(seed)
    shape = (2, d, 1 if c == "vector" else d)
    a = rng.standard_normal((2, k, d, d)) + 1j * rng.standard_normal((2, k, d, d))
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stacked = _apply(a, b)
    assert stacked.shape == (2, k, *b.shape[1:])
    for s, i in itertools.product(range(2), range(k)):
        assert stacked[s, i].tobytes() == (a[s, i] @ b[s]).tobytes()
    assert (a.reshape(2, k * d, d) @ b).tobytes() == stacked.tobytes()


@st.composite
def operator_batches(draw):
    """Observables (*batch, 6, d, d), d = 2-8, with one or two leading batch
    axes, and unit-norm state factors (*batch, d, c), pure (c = 1) or mixed
    (c = d)."""
    d = draw(st.integers(2, 8))
    batch = draw(st.sampled_from([(3,), (2, 2)]))
    c = draw(st.sampled_from([1, d]))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    draws = np.array([random_hermitian(d, rng) for _ in range(6 * math.prod(batch))])
    mats = round_to_involutions(draws)[0].reshape(*batch, 6, d, d)
    r = rng.standard_normal((*batch, d, c)) + 1j * rng.standard_normal((*batch, d, c))
    return mats, r / np.linalg.norm(r, axis=(-2, -1), keepdims=True)


@given(batch=operator_batches())
def test_batched_operators_match_oracles_and_single_calls(batch):
    """The stacked Bell operator and the gathered coefficient operators match
    the anticommutator and adjoint-identity oracles to 1e-12 per entry, and
    each entry of a batched call is that entry's single call, bit for bit."""
    mats, r = batch
    lead = list(np.ndindex(mats.shape[:-3]))
    b = _bell_from_matrices(mats)
    for i in lead:
        assert np.array_equal(b[i], _bell_from_matrices(mats[i]))
        assert np.abs(b[i] - anticommutator_bell(mats[i])).max() <= 1e-12
    for slots in GATHER:  # each single slot and each pair
        g = _coefficients(mats, r, _apply(mats, r), slots)
        for i in lead:
            assert np.array_equal(g[i], _coefficients(mats[i], r[i], _apply(mats[i], r[i]), slots))
            rho = r[i] @ r[i].conj().T
            for slot, g_slot in zip(slots, g[i], strict=True):
                assert np.abs(g_slot - adjoint_coefficient(mats[i], rho, slot)).max() <= 1e-12


@st.composite
def hermitian_stacks(draw):
    """(3, d, d) Hermitian stacks, d = 2-64, scaled by 1e-6, 1 or 1e6, each
    matrix with a Haar eigenbasis and eigenvalues of random sign: magnitudes
    spread over 0.1-3, or, for a near-degenerate spectrum, within about 1e-12
    of 1."""
    d = draw(st.integers(2, 64))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    near_degenerate = draw(st.booleans())
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(3):
        signs = rng.choice([-1.0, 1.0], size=d)
        if near_degenerate:
            w = signs * (1 + 1e-12 * rng.standard_normal(d))
        else:
            w = signs * rng.uniform(0.1, 3.0, size=d)
        u = random_unitary(d, rng)
        stack.append((u * (scale * w)) @ u.conj().T)
    return hermitian_part(np.array(stack))


@given(m=hermitian_stacks())
def test_rounding_and_top_eigenvector_pass_the_constructors(m):
    """The seesaw, certify.align and the sequential correlators use eigen-sign
    roundings and top eigenvectors without checking them again: Observable
    accepts every rounding and PureState every top eigenvector."""
    for a in (*round_to_involutions(m)[0],
              *round_eig_to_signs(*eig_hermitian(m), DEGENERATE_EIGENVALUE)):
        Observable(a)
    for v in eig_hermitian(m)[1][..., :, 0]:
        PureState(v)


@st.composite
def coefficient_stacks(draw):
    """Exactly Hermitian stacks as the sign steps see them, d = 2-16: the six
    coefficient operators of a random pure or mixed scenario; multiples c*1 of
    the identity, c = 0 included; those of the all-identity point on a pure
    state, c*rho with c = 2, 2, 0, 2, 2, 0, whose zero eigenvalue is tied; or
    the canonical observables, each eigenvalue +-1 twice."""
    kinds = ["scenario", "identity", "ones", "canonical"]
    d, kind = draw(st.integers(2, 16)), draw(st.sampled_from(kinds))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    if kind == "canonical":
        return canonical_scenario().matrices().copy()
    if kind == "identity":
        return np.array([c * np.eye(d, dtype=complex) for c in (0.0, 1.0, -2.5, 1e-13)])
    s = draw(scenarios(dims=st.just(d))) if kind == "scenario" else Scenario(
        random_pure_state(d, rng), [Observable(np.eye(d))] * 6)
    return np.array([coefficient_operator(s, slot) for slot in range(1, 7)])


@given(g=coefficient_stacks())
def test_sign_step_on_raw_eigh_matches_the_canonical_rounding(g):
    """Every spectral function takes eigh's ascending, unphased eigenvectors: the
    seesaw's sign step, `round_to_involutions`, `inv_sqrt_psd`, the jitter
    exponential and RR† of the DensityMatrix factor are each within 1e-14 in
    operator norm of the same function of the sorted, phase-fixed ones, with the
    same eigenvalues and so the same ties and refusals."""
    ref_w, ref_v = eig_hermitian(g)
    a, w = _sign_step(g)
    assert op_norms(a - round_eig_to_signs(ref_w, ref_v, DEGENERATE_EIGENVALUE)).max() <= 1e-14
    assert np.array_equal(w, ref_w[..., ::-1])

    if np.abs(ref_w).min() > SIGN_CUTOFF:
        rounded, w, _ = round_to_involutions(g)
        assert op_norms(rounded - round_eig_to_signs(ref_w, ref_v, SIGN_CUTOFF)).max() <= 1e-14
        assert np.array_equal(w, ref_w[..., ::-1])
    else:
        with pytest.raises(ZeroEigenvalue):
            round_to_involutions(g)

    # the jitter normalization by the largest |eigenvalue|, 1 for a zero matrix
    w, v = np.linalg.eigh(g)
    scale = np.maximum(w[..., -1:], -w[..., :1])
    assert np.array_equal(scale, np.maximum(ref_w[..., :1], -ref_w[..., -1:]))
    scale[scale == 0] = 1.0
    assert op_norms(expi_eig(w / scale, v, 0.7) - expi_eig(ref_w / scale, ref_v, 0.7)).max() <= 1e-14

    # positive definite, and as a state: ties wherever g has them
    psd = hermitian_part(g @ g + np.eye(g.shape[-1]))
    for h in psd:
        h_w, h_v = eig_hermitian(h)
        assert op_norm(inv_sqrt_psd(h) - (h_v / h_w ** 0.5) @ h_v.conj().T) <= 1e-14
        r = DensityMatrix.from_exact(hermitian_part(h / np.trace(h).real)).factor()
        ref = h_v * np.sqrt(h_w)
        ref = ref / vec_norms(ref.reshape(-1))
        assert op_norm(r @ r.conj().T - ref @ ref.conj().T) <= 1e-14


@st.composite
def near_involution_stacks(draw, n=4):
    """(n, d, d) stacks of Observables, d = 2-16: U diag(s_k sqrt(1 + eps u_k)) U†
    with a Haar eigenbasis U, random signs s_k and u_k uniform in [-1, 1], so
    ||A² - 1|| <= eps for a drawn eps up to (nearly) INVOLUTION_TOL, each
    with or without a skew-Hermitian defect of norm 8e-11, which Observable
    accepts."""
    d, eps = draw(st.integers(2, 16)), draw(st.floats(0.0, 0.98 * INVOLUTION_TOL))
    skew = draw(st.sampled_from([0.0, 4e-11]))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(n):
        w = rng.choice([-1.0, 1.0], size=d) * np.sqrt(1 + eps * rng.uniform(-1, 1, size=d))
        u, k = random_unitary(d, rng), random_hermitian(d, rng)
        stack.append(Observable((u * w) @ u.conj().T + 1j * skew * k / op_norm(k)).matrix)
    return np.array(stack)


@given(m=near_involution_stacks())
def test_newton_schulz_step_matches_eigen_sign_rounding(m):
    """One Newton–Schulz step, the sequential correlators' rounding of an
    Observable, agrees with the eigen-sign rounding of its Hermitian part, as
    project_involution takes it, to 1e-14 per entry, and its involution
    residual is at most 1e-14."""
    step = newton_schulz_step(m)
    assert np.abs(step - round_to_involutions(hermitian_part(m))[0]).max() <= 1e-14
    assert op_norms(step @ step - np.eye(m.shape[-1])).max() <= 1e-14


@st.composite
def edge_scenarios(draw):
    """Scenarios at the edges of what the constructors accept: six observables of
    `near_involution_stacks`, ||A² - 1|| up to (nearly) INVOLUTION_TOL, on a pure
    state whose norm is 1 - 0.99 NORM_TOL, 1 or 1 + 0.99 NORM_TOL, or on a random
    mixed state."""
    stack = draw(near_involution_stacks(n=6))
    d, rng = stack.shape[-1], rng_from(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1 - 0.99 * NORM_TOL, 1.0, 1 + 0.99 * NORM_TOL, None]))
    state = (random_density(d, rng) if scale is None
             else PureState(random_pure_state(d, rng).amplitudes * scale))
    return Scenario(state, observables(stack))


@given(s=edge_scenarios())
def test_exact_sum_weights_are_probabilities_at_the_tolerance_edges(s):
    """exact-sum takes its outcome weights unchecked: at the INVOLUTION_TOL and
    NORM_TOL edges every weight row, stacked per term length as `correlations`
    stacks it, is >= 0 and sums to 1 within PROBABILITY_TOL, and every mode's
    correlators stay inside CorrelationSet's bound."""
    r, proj = s.state.factor(), _projectors(np.array(s.matrices()))
    for n in (3, 2):
        slots = [slots for _, slots, _ in TERMS if len(slots) == n]
        for row in _weights(r, proj[np.subtract(slots, 1)]).tolist():
            assert min(row) >= 0
            assert abs(sum(row) - 1) <= PROBABILITY_TOL
    for mode in ("analytic", "exact-sum"):
        correlations(s, mode)
    correlations(s, "sampled", shots=100, rng_seed=0)


#: align's threshold on ||{A1, A5}|| and on each of its three second-factor checks.
ALIGN_THRESHOLD = 0.5


@st.composite
def rounding_pairs(draw, d):
    """Pairs (A, B) of d x d Hermitian matrices, d even, as align rounds them: B is
    U diag(s) U†, U Haar or 1, and A is, in that frame, one of an involution that
    anticommutes with B, s balanced, tilted by exp(-i t H) for ||H|| = 1 and t up
    to 0.4; an involution commuting with B, s any signature from all +1 to all -1;
    or a random Hermitian matrix. Both are offset by a random Hermitian matrix of
    norm 0, 1e-9 or 1e-3."""
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["partner", "commuting", "random"]))
    plus = d // 2 if kind == "partner" else draw(st.integers(0, d))
    u = random_unitary(d, rng) if draw(st.booleans()) else np.eye(d)
    signs = np.where(np.arange(d) < plus, 1.0, -1.0)
    b = (u * signs) @ u.conj().T
    if kind == "partner":
        half = random_unitary(d // 2, rng)
        partner = np.block([[np.zeros_like(half), half], [half.conj().T, np.zeros_like(half)]])
        h = random_hermitian(d, rng)
        tilt = expi_hermitian(h / op_norm(h), draw(st.floats(0, 0.4)))
        a = tilt @ u @ partner @ u.conj().T @ tilt.conj().T
    elif kind == "random":
        a = random_hermitian(d, rng)
    else:
        a = (u * rng.choice([-1.0, 1.0], size=d)) @ u.conj().T
    offset = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    noise = random_hermitian(d, rng, 2)
    return hermitian_part(np.array([a, b]) + offset * noise / op_norms(noise)[:, None, None])


@given(pair=rounding_pairs(4))
def test_align_anticommutator_check_forces_a_balanced_split(pair):
    """align reads two columns off the rounded slot 5's +1 eigenspace without
    counting them: where ||{A1r, A5r}|| <= ALIGN_THRESHOLD, the spectrum of A5r
    splits 2-2, and the Loewdin Gram of [e, A1r e] has lambda_min >= 3/4."""
    (a1r, a5r), w, v = round_to_involutions(pair)
    if op_norm(acomm(a1r, a5r)) > ALIGN_THRESHOLD:
        return
    e = v[1][:, w[1] > 0]
    assert e.shape[1] == 2
    w0 = np.column_stack([e, a1r @ e])
    assert eig_hermitian(hermitian_part(w0.conj().T @ w0))[0][-1] >= 0.75 - 1e-12


@given(pair=rounding_pairs(2))
def test_second_factor_checks_bound_the_off_diagonal_element(pair):
    """align divides by c = <m+, O m-> without testing it: where its three
    second-factor checks pass at ALIGN_THRESHOLD, |c| >= sqrt(15)/4."""
    (m_r, o_r), _, (vm, _) = round_to_involutions(pair)
    if (op_norms([pair[0] - m_r, pair[1] - o_r, acomm(m_r, o_r)]) > ALIGN_THRESHOLD).any():
        return
    c = vm[:, 0].conj() @ o_r @ vm[:, 1]
    assert abs(c) >= math.sqrt(15) / 4 - 1e-12


@st.composite
def file_scenarios(draw):
    """Pure or mixed scenarios, d = 2-8, some Haar-conjugated, some with -0.0
    in every off-diagonal entry, real and imaginary part, of the observables
    and the state."""
    d, pure = draw(st.integers(2, 8)), draw(st.booleans())
    signed_zeros, conjugated = draw(st.booleans()), draw(st.booleans())
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    if signed_zeros:
        obs = [Observable(-np.diag(rng.choice([-1.0, 1.0], size=d)).astype(complex))
               for _ in range(6)]
        p = rng.dirichlet(np.ones(d))
        state = (PureState(-np.eye(d, dtype=complex)[0]) if pure
                 else DensityMatrix(-np.diag(-p).astype(complex)))
        s = Scenario(state, obs)
    else:
        s = random_scenario(d, rng)
        if not pure:
            s = s.with_state(random_density(d, rng))
    return conjugate_scenario(s, random_unitary(d, rng)) if conjugated else s


@given(s=file_scenarios())
def test_save_load_is_bit_exact(s):
    """loads_scenario(dumps_scenario(s)) gives back every matrix and the state
    bit for bit, -0.0 included, and dumps again to the same text."""
    text = dumps_scenario(s)
    t = loads_scenario(text)
    assert t.is_pure() == s.is_pure()
    key = "amplitudes" if s.is_pure() else "matrix"
    assert getattr(t.state, key).tobytes() == getattr(s.state, key).tobytes()
    for a, b in zip(s.matrices(), t.matrices()):
        assert a.tobytes() == b.tobytes()
    assert dumps_scenario(t) == text


def _as_layout(a: np.ndarray, layout: str) -> np.ndarray:
    """a's values as a C-ordered array, a read-only one, a view of a transposed
    copy, or a reversed-stride view such as a reversal v[..., ::-1] of eigh's columns."""
    if layout == "transposed":
        return np.swapaxes(np.ascontiguousarray(np.swapaxes(a, -1, -2)), -1, -2)
    if layout == "reversed":
        return np.ascontiguousarray(a[..., ::-1])[..., ::-1]
    a = np.array(a)
    a.setflags(write=layout != "read-only")
    return a


@st.composite
def kernel_stacks(draw):
    """Complex stacks (..., d, d), d = 1-64 with 0-2 leading axes: Hermitian,
    Hermitian up to a defect of 1e-13 to 1e-8 in scale, or general, in one of
    the `_as_layout` layouts."""
    d = draw(st.sampled_from([1, 2, 4, 16, 64]) | st.integers(1, 64))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    g = rng_from(draw(st.integers(0, 2**32 - 1))).standard_normal((2, *lead, d, d))
    a = g[0] + 1j * g[1]
    kind = draw(st.sampled_from(["hermitian", "near", "general"]))
    if kind != "general":
        h = (a + np.swapaxes(a.conj(), -1, -2)) / 2
        a = h if kind == "hermitian" else h + 10 ** draw(st.floats(-13, -8)) * a
    return _as_layout(a, draw(st.sampled_from(["C", "read-only", "transposed", "reversed"])))


@given(a=kernel_stacks(), scale=st.floats(-3, 3), layout=st.sampled_from(
    ["C", "read-only", "transposed", "reversed"]))
def test_adjoint_kernels_match_their_strided_forms(a, scale, layout):
    """hermitian_part, require_hermitian and expi_eig form the adjoint C-ordered
    and work in place; their results equal the strided forms they replace bit
    for bit on every layout, and hermitian_part returns a C-ordered array."""
    part = hermitian_part(a)
    assert part.flags.c_contiguous and part.flags.writeable
    assert part.tobytes() == ((a + np.swapaxes(a.conj(), -1, -2)) / 2).tobytes()

    defect = a - np.swapaxes(a.conj(), -1, -2)
    expected = (f"matrix deviates from Hermitian by {op_norms(defect).max():.3e}"
                if op_norm_exceeds(defect, STRUCTURAL_TOL).any() else None)
    try:
        require_hermitian(a, "matrix")
        message = None
    except NotHermitian as exc:
        message = str(exc)
    assert message == expected

    w, v = eig_hermitian(part)
    v = _as_layout(v, layout)
    if layout == "reversed":  # as a reversal of eigh's ascending (w, v) hands both out
        w = _as_layout(w, layout)
    strided = (v * np.exp(-1j * scale * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    u = expi_eig(w, v, scale)
    assert u.tobytes() == strided.tobytes()

    # apply_noise's jitter conjugation U A U† takes U† C-ordered too
    conjugated = u @ part @ np.conj(np.swapaxes(u, -1, -2), order="C")
    assert conjugated.tobytes() == (u @ part @ np.swapaxes(u.conj(), -1, -2)).tobytes()


@given(s=st.one_of(scenarios(), mixed_embeddings()), p=st.floats(0, 1))
def test_depolarized_state_passes_the_density_matrix_check(s, p):
    """apply_noise builds the depolarized DensityMatrix without a copy and
    without the constructor's Hermiticity and trace checks, since its matrix
    is a hermitian_part of trace (1 - p) tr(rho) + p: the matrix is read-only,
    exactly Hermitian, its trace within PROBABILITY_TOL of 1, and DensityMatrix
    gives back its matrix and factor bit for bit."""
    state = apply_noise(s, Depolarizing(p)).state
    if p == 0.0:
        assert state is s.state
        return
    m = state.matrix
    assert not m.flags.writeable and np.array_equal(m, m.conj().T)
    assert abs(np.trace(m) - 1) <= PROBABILITY_TOL
    checked = DensityMatrix(m)
    assert checked.matrix.tobytes() == m.tobytes()
    assert checked.factor().tobytes() == state.factor().tobytes()
