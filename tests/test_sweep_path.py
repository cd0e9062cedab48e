"""The sweep path against the per-row reference it replaced.

`sweep` computes each row's analytic correlators once, hands them to
`check_robustness_bounds` and reads the fidelity and operator distance from
certify's extraction stage, `extract`; these and `certify` form their vectors
as stacked products and take their operator and vector norms as stacked calls.
The reference below is the per-row path written out: three analytic passes per
row, the full certification, each vector formed one matrix-vector product at a
time, one `op_norm` or `np.linalg.norm` call per matrix or vector. Both use the vector forms: inner
products and norms of A_k R and A_j A_k R for a state factor R, compressions
(A_i basis)† (A_j basis), and the leakage basis† A_k (1 - P), P = basis basis†
the projection onto V, as (A_k basis)† - projected_k basis†. The arithmetic is
the same, so outputs must be bit-equal. Oracle tests below form P from the
report's basis and hold the leakage to the (d c) x (d c) form P A_k (1 - P),
and tests/test_properties.py holds the correlators to the matrix form
tr(rho {A_x, {A_y, A_z}}) / 4.
"""

import hashlib
import importlib
import itertools
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from tempcert import linalg, robustness, seqcorr
from tempcert.certify import (
    STATE_CONSTRAINTS,
    TARGET_MATRICES,
    CertificationReport,
    align,
    build_subspace,
)
from tempcert.errors import NotAViolation, TempcertError
from tempcert.inequality import QUANTUM_BOUND, InequalityValue, eval_IT
from tempcert.robustness import (
    CHECK_GUARD,
    EPSILON_CEILING,
    BoundCheck,
    Depolarizing,
    ObservableTilt,
    SweepRow,
    UnitaryJitter,
    apply_noise,
    sweep,
    sweep_csv,
)
from tempcert.scenario import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHI_PLUS,
    Observable,
    PureState,
    Scenario,
    canonical_scenario,
    purify_scenario,
)
from tempcert.seqcorr import ANTICOMMUTING_PAIRS, CONTEXT_PAIRS, CONTEXTS, TERMS, CorrelationSet

from conftest import conjugated_embedding, rng_from

certify_module = importlib.import_module("tempcert.certify")


# -- the per-row reference ----------------------------------------------------

def reference_correlations(s) -> CorrelationSet:
    r = s.state.factor()
    values = {}
    for name, slots, _ in TERMS:
        m = [s.observable(k).matrix for k in slots]
        if len(m) == 2:  # Re<A_x R, A_y R>
            values[name] = float(np.vdot(m[0] @ r, m[1] @ r).real)
        else:  # Re<A_x R, (A_y A_z + A_z A_y) R> / 2
            inner = m[1] @ (m[2] @ r) + m[2] @ (m[1] @ r)
            values[name] = float(np.vdot(m[0] @ r, inner / 2).real)
    return CorrelationSet(**values)


def reference_algebra_residuals(s, basis):
    mats = s.matrices()
    r = s.state.factor()
    blocks = [m @ basis for m in mats]

    def compressed(i, j):  # basis† A_i A_j basis
        return blocks[i - 1].conj().T @ blocks[j - 1]

    comm = {f"A{i}A{j}": linalg.op_norm(compressed(i, j) - compressed(j, i))
            for i, j in CONTEXT_PAIRS}
    acomm = {f"A{i}A{j}": linalg.op_norm(compressed(i, j) + compressed(j, i))
             for i, j in ANTICOMMUTING_PAIRS}
    constraints = {}
    for slots, sign in STATE_CONSTRAINTS:
        vec = r
        for k in reversed(slots):
            vec = mats[k - 1] @ vec
        name = "".join(f"A{k}" for k in slots) + ("-1" if sign == 1 else "+1")
        constraints[name] = float(np.linalg.norm(vec - sign * r))
    return comm, acomm, constraints


def reference_certify(s) -> CertificationReport:
    s = purify_scenario(s)
    violation = eval_IT(reference_correlations(s))
    psi = s.state
    basis, gram = build_subspace(psi, s.observable(1), s.observable(5))
    comm, acomm, constraints = reference_algebra_residuals(s, basis)
    bd = basis.conj().T
    blocks = [m @ basis for m in s.matrices()]
    projected = [bd @ b for b in blocks]
    leakage = [linalg.op_norm(b.conj().T - p @ bd) for b, p in zip(blocks, projected)]
    psi_v = basis.conj().T @ psi.amplitudes
    psi_v = psi_v / float(np.linalg.norm(psi_v))

    result = align(projected)
    u = result.unitary
    aligned = [u @ m @ u.conj().T for m in projected]
    distances = [linalg.op_norm(a - t) for a, t in zip(aligned, TARGET_MATRICES)]

    extracted = u @ psi_v
    overlap = complex(PHI_PLUS.conj() @ extracted)
    if abs(overlap) > 1e-12:
        extracted = extracted * (overlap.conjugate() / abs(overlap))
    extracted = extracted / float(np.linalg.norm(extracted))
    ev = lambda op: (extracted.conj() @ (op @ extracted)).real
    witness = float((1 + ev(np.kron(PAULI_X, PAULI_X)) + ev(np.kron(PAULI_Z, PAULI_Z))
                     - ev(np.kron(PAULI_Y, PAULI_Y))) / 4)
    return CertificationReport(
        violation=violation, subspace_basis=basis, gram=gram,
        projected_observables=projected, leakage=leakage, commutator_residuals=comm,
        anticommutator_residuals=acomm, constraint_residuals=constraints,
        alignment_unitary=u, aligned_observables=aligned, sign3=result.sign3,
        sign6=result.sign6, extracted_state=PureState(extracted),
        fidelity=float(abs(PHI_PLUS.conj() @ extracted) ** 2),
        operator_distances=distances, fidelity_witness=witness,
        fidelity_lower_bound=certify_module._witness_lower_bound(aligned, distances, extracted),
    )


def reference_bounds(s):
    s = purify_scenario(s)
    corr = reference_correlations(s)
    eps = QUANTUM_BOUND - eval_IT(corr).value
    if eps > EPSILON_CEILING:
        raise NotAViolation(f"deficit {eps:.3f} exceeds {EPSILON_CEILING}; bounds are vacuous")
    eps = max(eps, 0.0)
    checks = []
    for name, _, weight in TERMS:
        sign = 1 if weight > 0 else -1
        v = sign * getattr(corr, name)
        floor = 1 - eps / abs(weight)
        factor = "" if abs(weight) == 1 else f"{1 / abs(weight):g}"
        label = f"{'-' if sign < 0 else ''}{name}>=1-{factor}eps"
        checks.append(BoundCheck(label, v, floor, v >= floor - CHECK_GUARD))
    mats, r = s.matrices(), s.state.factor()
    root = np.sqrt(eps)
    for context, sign in CONTEXTS.items():
        if len(context) == 3:
            for i, j, k in itertools.permutations(context):
                lhs = float(np.linalg.norm(mats[i - 1] @ r - mats[j - 1] @ (mats[k - 1] @ r)))
                checks.append(BoundCheck(f"norm(A{i}-A{j}A{k})<=4sqrt(eps)", lhs, 4 * root,
                                         lhs <= 4 * root + CHECK_GUARD))
        else:
            i, j = context
            lhs = float(np.linalg.norm(mats[i - 1] @ r - sign * (mats[j - 1] @ r)))
            checks.append(BoundCheck(f"norm(A{i}{'-' if sign > 0 else '+'}A{j})<=2sqrt(eps)",
                                     lhs, 2 * root, lhs <= 2 * root + CHECK_GUARD))
    for i, j in ANTICOMMUTING_PAIRS:
        lhs = float(np.linalg.norm(mats[i - 1] @ (mats[j - 1] @ r) + mats[j - 1] @ (mats[i - 1] @ r)))
        checks.append(BoundCheck(f"norm({{A{i},A{j}}})<=14sqrt(eps)", lhs, 14 * root,
                                 lhs <= 14 * root + CHECK_GUARD))
    return checks


def reference_sweep(base, family, grid):
    rows = []
    for param in sorted(grid):
        row = SweepRow(param=float(param))
        try:
            noisy = purify_scenario(apply_noise(base, family(param)))
            row.value = eval_IT(reference_correlations(noisy)).value
            row.epsilon = QUANTUM_BOUND - row.value
            report = reference_certify(noisy)
            row.fidelity = report.fidelity
            row.max_operator_distance = report.max_operator_distance
            row.bound_checks = reference_bounds(noisy)
        except TempcertError as exc:
            row.failed = True
            row.error = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


# -- fixed rows -----------------------------------------------------------------

def fixed_rows():
    """(id, base, family, param): depolarizing, tilt and jitter at d = 4, jitter
    on a conjugated d = 16 embedding, a row certify refuses and a row whose
    bounds are vacuous."""
    base = canonical_scenario()
    big = conjugated_embedding(base, 16, rng_from(71))
    return [
        ("depolarizing", base, Depolarizing, 2e-3),
        ("tilt", base, lambda a: ObservableTilt(2, a), 0.05),
        ("jitter", base, lambda x: UnitaryJitter(x, rng_seed=7), 0.02),
        ("jitter-d16", big, lambda x: UnitaryJitter(x, rng_seed=11), 0.01),
        ("refused", base, lambda x: UnitaryJitter(x, rng_seed=1), 0.3),
        ("vacuous", base, lambda a: ObservableTilt(3, a), 0.8),
    ]


ROWS = fixed_rows()
CERTIFIED = [r for r in ROWS if r[0] != "refused"]

#: Jitter on a conjugated d = 64 embedding, compared with the reference like
#: the fixed rows; it is not part of the golden digest below.
BIG_ROW = ("jitter-d64", conjugated_embedding(canonical_scenario(), 64, rng_from(73)),
           lambda x: UnitaryJitter(x, rng_seed=13), 0.01)
COMPARED = ROWS + [BIG_ROW]
COMPARED_CERTIFIED = CERTIFIED + [BIG_ROW]

#: sha256 of the sweep CSV of every fixed row, then the certify JSON of every
#: fixed row that certify accepts, recorded with jitter generators normalized
#: by their eigenvalues, every per-scenario quantity in its vector form, the
#: alignment unitary's global phase fixed, its bases read from the roundings,
#: the witness summed over the pair contexts and no projector field in the
#: report, so the JSON is the earlier one with that key deleted (the reference
#: above gives the same bytes), and the spectral functions taking eigh as it
#: comes (every number within 3.3e-15; the depolarized row's basis rows follow
#: the new column order of its state factor).
GOLDEN_SWEEP_SHA256 = "0868c718d942f77b0d37d1eb04edd6adedc2f950fb7c9f3d0c892e07681d0165"


def bits(v):
    """A value reduced to something whose equality is bit equality."""
    if isinstance(v, np.ndarray):
        return v.shape, v.dtype.str, v.tobytes()
    if isinstance(v, PureState):
        return bits(v.amplitudes)
    if isinstance(v, InequalityValue):
        return bits(asdict(v))
    if isinstance(v, dict):
        return [(k, bits(x)) for k, x in v.items()]
    if isinstance(v, (list, tuple)):
        return [bits(x) for x in v]
    return type(v).__name__, float(v).hex()


def ulps(a: float, b: float) -> float:
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


@pytest.mark.parametrize("row", COMPARED, ids=[r[0] for r in COMPARED])
def test_sweep_matches_per_row_reference(row):
    _, base, family, param = row
    (new,) = sweep(base, family, [param])
    (ref,) = reference_sweep(base, family, [param])
    assert sweep_csv([new]) == sweep_csv([ref])
    assert new.error == ref.error
    assert [(c.name, c.rhs, c.holds) for c in new.bound_checks] == \
        [(c.name, c.rhs, c.holds) for c in ref.bound_checks]
    for c, r in zip(new.bound_checks, ref.bound_checks):
        assert ulps(c.lhs, r.lhs) <= 4


@pytest.mark.parametrize("row", COMPARED_CERTIFIED, ids=[r[0] for r in COMPARED_CERTIFIED])
def test_certify_report_matches_per_row_reference(row):
    # the reference purifies a mixed row; certify takes it as it is, on its
    # state factor, or purified, and both give the reference's bits
    _, base, family, param = row
    noisy = apply_noise(base, family(param))
    ref = reference_certify(noisy)
    for s in (noisy, purify_scenario(noisy)):
        new = certify_module.certify(s)
        for field in CertificationReport.__dataclass_fields__:
            assert bits(getattr(new, field)) == bits(getattr(ref, field)), field


def test_golden_sweep_and_certify_outputs():
    parts = []
    for _, base, family, param in ROWS:
        parts.append(sweep_csv(sweep(base, family, [param])))
    for _, base, family, param in CERTIFIED:
        parts.append(certify_module.certify(apply_noise(base, family(param))).to_json())
    digest = hashlib.sha256("".join(parts).encode()).hexdigest()
    assert digest == GOLDEN_SWEEP_SHA256


# -- call counts ------------------------------------------------------------------

@pytest.fixture
def analytic_calls(monkeypatch):
    """Count analytic `correlations` calls made through any tempcert module."""
    calls = []
    original = seqcorr.correlations

    def counting(s, mode="analytic", *args, **kwargs):
        if mode == "analytic":
            calls.append(s)
        return original(s, mode, *args, **kwargs)

    for name in ("tempcert.seqcorr", "tempcert.certify", "tempcert.robustness",
                 "tempcert.inequality"):
        monkeypatch.setattr(importlib.import_module(name), "correlations", counting)
    return calls


@pytest.fixture
def image_calls(monkeypatch):
    """Count `seqcorr.state_images` calls, made through the module that holds it."""
    calls = []
    original = seqcorr.state_images

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(seqcorr, "state_images", counting)
    return calls


def test_one_analytic_pass_per_sweep_row(image_calls):
    # a row forms the images A_k R and A_j A_k R once, for its analytic correlators
    # and for its state-norm checks alike
    for _, base, family, param in ROWS:
        before = len(image_calls)
        sweep(base, family, [param, 2 * param])
        assert len(image_calls) - before == 2


@pytest.fixture
def purification_calls(monkeypatch):
    """Count calls of purify_scenario, the one purification, made through any
    tempcert module that holds it."""
    calls = []
    for module in ("tempcert", "tempcert.scenario", "tempcert.seqcorr", "tempcert.certify",
                   "tempcert.robustness", "tempcert.inequality", "tempcert.optimize"):
        module = importlib.import_module(module)
        if hasattr(module, "purify_scenario"):
            original = module.purify_scenario

            def counting(*args, _original=original, **kwargs):
                calls.append("purify_scenario")
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "purify_scenario", counting)
    return calls


def test_mixed_rows_are_never_purified(purification_calls):
    # a sweep row of each family, and certify and the bound suite on a mixed
    # scenario, all work on the state factor: no lift, no purified vector
    for _, base, family, param in ROWS:
        sweep(base, family, [param])
    mixed = apply_noise(canonical_scenario(), Depolarizing(2e-3))
    certify_module.certify(mixed)
    robustness.check_robustness_bounds(mixed)
    assert purification_calls == []


@pytest.fixture
def stage_calls(monkeypatch):
    """Names of the certify stages (`build_subspace`, `algebra_residuals`, `align`)
    called while the fixture is active, in call order."""
    calls = []
    for name in ("build_subspace", "algebra_residuals", "align"):
        original = getattr(certify_module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(certify_module, name, counting)
    return calls


#: A base whose subspace generators are dependent (A5 = A1): a sweep row on it
#: is refused by `build_subspace` and never reaches `align`.
DEGENERATE = canonical_scenario().with_observable(5, canonical_scenario().observable(1))


def test_a_sweep_row_runs_only_the_extraction_stage(stage_calls):
    # no row reports the residuals: each row builds its subspace once and aligns
    # once if the subspace exists, with no algebra_residuals call
    rows = [(base, family, param) for _, base, family, param in ROWS]
    for base, family, param in rows + [(DEGENERATE, Depolarizing, 2e-3)]:
        stage_calls.clear()
        (row,) = sweep(base, family, [param])
        degenerate = row.error is not None and row.error.startswith("SubspaceDegenerate")
        assert stage_calls == ["build_subspace"] + ([] if degenerate else ["align"]), row.error
    assert degenerate


def test_certify_runs_each_stage_once(stage_calls):
    noisy = apply_noise(canonical_scenario(), UnitaryJitter(0.02, rng_seed=7))
    certify_module.certify(noisy)
    assert sorted(stage_calls) == ["algebra_residuals", "align", "build_subspace"]


@pytest.mark.parametrize("base, family, param", [
    (canonical_scenario(), lambda x: UnitaryJitter(x, rng_seed=1), 0.3),
    (DEGENERATE, Depolarizing, 2e-3),
    (canonical_scenario().with_observable(2, Observable(np.kron(PAULI_Z, PAULI_Z))),
     lambda x: UnitaryJitter(x, rng_seed=3), 1e-3),
    (Scenario(PureState(np.array([1, 0, 0], dtype=complex)), [Observable(np.eye(3))] * 6),
     Depolarizing, 0.0),
], ids=["anticommutator", "degenerate", "factorization", "shape"])
def test_a_refused_row_carries_certifys_refusal(base, family, param):
    # the extraction stage holds every refusal of certify, type and message
    noisy = apply_noise(base, family(param))
    with pytest.raises(TempcertError) as refusal:
        certify_module.certify(noisy)
    (row,) = sweep(base, family, [param])
    assert row.failed and row.error == f"{type(refusal.value).__name__}: {refusal.value}"


def test_one_argument_calls_compute_their_own_correlators(analytic_calls):
    noisy = apply_noise(canonical_scenario(), UnitaryJitter(0.02, rng_seed=7))
    certify_module.certify(noisy)
    robustness.check_robustness_bounds(noisy)
    assert len(analytic_calls) == 2


def test_certify_takes_few_singular_value_calls(svd_calls):
    noisy = apply_noise(canonical_scenario(), UnitaryJitter(0.02, rng_seed=7))
    svd_calls.clear()
    certify_module.certify(noisy)
    assert 1 <= len(svd_calls) <= 8


@pytest.mark.parametrize("row", [
    BIG_ROW,
    ("depolarizing-d4", canonical_scenario(), Depolarizing, 2e-3),
    ("depolarizing-embedded-d16", conjugated_embedding(canonical_scenario(), 16, rng_from(75)),
     Depolarizing, 2e-3),
], ids=lambda r: r[0])
def test_no_sweep_row_svd_sees_a_matrix_larger_than_4(row, svd_calls):
    # jitter generators are normalized by their eigenvalues and leakage is
    # taken on the 4 x (d c) compression, so every SVD on the path has a side
    # of at most 4: align's three norm groups, no residual or leakage SVD, as a
    # row runs only the extraction stage, and no residual SVD of the jittered
    # observables, as no one reads those norms; a depolarized row's factor R
    # (d x d) is never lifted, so no observable is built for it
    _, base, family, param = row
    (result,) = sweep(base, family, [param])
    assert not result.failed and result.bounds_all_hold
    assert len(svd_calls) == 3
    assert all(min(shape[-2:]) <= 4 for shape in svd_calls), svd_calls


#: The eigensolves of the extraction stage on a d = 4 row: the Gram inverse square root,
#: the six-observable rounding, the Loewdin correction and the second-factor rounding.
EXTRACTION_EIGENSOLVES = [(4, 4), (6, 4, 4), (4, 4), (2, 2, 2)]


@pytest.mark.parametrize("family, param, noise_eigensolves", [
    (lambda a: ObservableTilt(2, a), 0.05, []),
    (Depolarizing, 2e-3, [(4, 4)]),
    (lambda x: UnitaryJitter(x, rng_seed=7), 0.02, [(6, 4, 4)]),
], ids=["tilt", "depolarizing", "jitter"])
def test_eigensolves_per_sweep_row(family, param, noise_eigensolves, eigh_calls,
                                  phase_fixing_calls):
    # a tilt row exponentiates the import-time eigensystem of its generator, so
    # only the depolarized state's factor and the jitter generators take one;
    # every one is a spectral function, so none sorts or phase-fixes
    (row,) = sweep(canonical_scenario(), family, [param])
    assert not row.failed
    assert eigh_calls == noise_eigensolves + EXTRACTION_EIGENSOLVES
    assert phase_fixing_calls == []


@pytest.mark.parametrize("dim, noise", [pytest.param(d, None, id=str(d)) for d in (4, 16, 64)]
                         + [pytest.param(16, Depolarizing(0.01), id="depolarized-16")])
def test_leakage_matches_full_projector_form(dim, noise):
    """Oracle for the 4 x (d c) leakage: the operator norms of P (m (x) 1_c) (1 - P)
    with P = basis basis† formed here, each a (d c) x (d c) SVD, agree to 1e-13.
    The depolarized row has c = d, so P is 256 x 256."""
    base = conjugated_embedding(canonical_scenario(), dim, rng_from(dim + 2))
    noisy = apply_noise(base, noise or UnitaryJitter(0.02, rng_seed=dim))
    report = certify_module.certify(noisy)
    basis = report.subspace_basis
    p = basis @ basis.conj().T
    c = len(p) // dim
    full = linalg.op_norms([p @ np.kron(m, np.eye(c)) @ (np.eye(len(p)) - p)
                            for m in noisy.matrices()])
    assert np.max(np.abs(np.array(report.leakage) - full)) <= 1e-13


#: Bound on the tracemalloc peak of one BIG_ROW sweep row above its inputs, in
#: complex (6, d, d) stacks: the jitter unitaries, their product with the
#: observables, the re-checked stack and the noisy scenario's own stack are
#: freed or kept as they are needed, not all at once.
BIG_ROW_PEAK_STACKS = 5


def test_a_d64_jitter_row_stays_within_its_allocation_budget():
    _, base, family, param = BIG_ROW
    sweep(base, family, [param])  # first-call allocations do not count
    stack = 6 * base.dim ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        (row,) = sweep(base, family, [param])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not row.failed
    assert peak - start <= BIG_ROW_PEAK_STACKS * stack


def test_matrices_is_one_read_only_stack_kept_by_the_scenario():
    _, base, family, param = BIG_ROW
    for s in (base, apply_noise(base, family(param)), canonical_scenario()):
        mats = s.matrices()
        assert mats is s.matrices()
        assert not mats.flags.writeable and mats.flags.c_contiguous
        assert mats.shape == (6, s.dim, s.dim)
        assert all(m.tobytes() == o.matrix.tobytes() for m, o in zip(mats, s.observables))
        with pytest.raises(ValueError):
            mats[0, 0, 0] = 0
