"""Self-testing extraction: subspace, algebra residuals, alignment, fidelity.

Pipeline: from a scenario's unit-norm state factor R (d x c, rho = R R†; c = 1
for a pure state) build the four-generator subspace V, orthonormalize it with
the Gram-matrix inverse square root, project the six observables onto V,
construct the alignment unitary from the projected operator algebra, and read
off the extracted state and its overlap with the maximally entangled target.
V is kept as its orthonormal basis, (d c) x 4, laid out as `purify_scenario`'s
vector, where A (x) 1 acts as A on R; the projection onto V is basis @ basis†.
So a mixed state's V lies in system (x) purifier, and `fidelity`, that vector's
overlap, reads 1 for the depolarized canonical scenario at every p: it does
not bound what an isometry on the device alone extracts.

Convention note: the alignment unitary U maps V-coordinates to the reference
frame, acting as A -> U A U† on operators and psi -> U psi on the state.
This is the unique pairing under which the extracted state and the aligned
observables reproduce the observed correlations; reported distances are
unchanged if U is read in the opposite (daggered) role, since the operator
norm is unitarily invariant.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import linalg, seqcorr
from .errors import (
    AnticommutatorTooLarge,
    FactorizationFailure,
    RankDeficient,
    ShapeMismatch,
    SubspaceDegenerate,
    ZeroEigenvalue,
)
from .inequality import InequalityValue, eval_IT
from .scenario import (
    CANONICAL_MATRICES,
    PHI_PLUS,
    PureState,
    Scenario,
    atomic_write_text,
    complex_pairs,
    require_operands,
    round_to_involutions,
)
from .seqcorr import ANTICOMMUTING_PAIRS, CONTEXT_PAIRS, CONTEXTS, correlations

#: Reference observables on C^2 (x) C^2, slots 1..6: the canonical
#: realization, whose state PHI_PLUS is the reference state, stacked (6, 4, 4)
#: once at import, read-only.
TARGET_MATRICES = np.array(CANONICAL_MATRICES)
TARGET_MATRICES.setflags(write=False)

#: Stabilizer-style state constraints at maximal violation: for each entry
#: (slots, sign), the product of the slots applied to psi equals sign * psi.
#: They are the orderings of each context with the context's sign.
STATE_CONSTRAINTS = tuple((perm, sign) for context, sign in CONTEXTS.items()
                          for perm in itertools.permutations(context))

#: The pair contexts (i, j, sign): (1, 4, +1), (2, 5, +1) and (3, 6, -1). On
#: the targets, sign * T_i T_j is XX, ZZ and -YY, the stabilizers of PHI_PLUS.
PAIR_CONTEXTS = tuple((*context, sign) for context, sign in CONTEXTS.items()
                      if len(context) == 2)


def build_subspace(state, a1=None, a5=None):
    """Orthonormal basis for V = span{R, A1 R, A5 R, A1 A5 R}, R the unit-norm
    factor (d x c) of a PureState or DensityMatrix.

    Each generator is a d x c block flattened row-major as `purify_scenario`
    lays out R, (A (x) 1) vec(R) = vec(A R). Their Gram matrix is inverted
    through its square root, phi_m = sum_n [Gamma^{-1/2}]_{nm} g_n, so the basis
    depends smoothly on the generators (symmetric orthogonalization). A Gram eigenvalue
    at or below linalg.INV_SQRT_CUTOFF means the generators are linearly
    dependent and a 4-dimensional certification target cannot be extracted.

    a1 and a5 are Observables of the state's dimension (`require_operands`, which
    refuses a raw state or matrix with TypeError); a Scenario brings its own, checked.
    Returns (basis, gram): basis columns are the phi_m, (d c) x 4, and gram is the
    generators' 4 x 4 Gram matrix.
    """
    if isinstance(state, Scenario):
        m1, m5, state = state.matrices()[0], state.matrices()[4], state.state
    else:
        m1, m5 = (o.matrix for o in require_operands(state, (a1, a5)))
    r = state.factor()
    if r.size < 4:
        raise ShapeMismatch(f"dimension {r.size} < 4 cannot hold the subspace")
    gens = np.column_stack([g.reshape(-1) for g in (r, m1 @ r, m5 @ r, m1 @ (m5 @ r))])
    gram = linalg.hermitian_part(gens.conj().T @ gens)
    try:
        inv_sqrt = linalg.inv_sqrt_psd(gram)
    except RankDeficient as exc:
        raise SubspaceDegenerate(f"subspace generators are linearly dependent: {exc}") from exc
    return gens @ inv_sqrt, gram


def algebra_residuals(s: Scenario, basis: np.ndarray):
    """Residuals of the algebraic relations that hold at maximal violation.

    Returns three dicts: operator norms of the nine context commutators and
    six anticommutators compressed to V (basis† [.,.] basis), and the norms
    ||(A_i A_j ... -+ 1) R||_F on the state's unit-norm factor R (d x c) for
    every stabilizer-style constraint including permutations. The basis is
    `build_subspace`'s, (d c) x 4; any other shape raises ShapeMismatch.
    """
    r = s.state.factor()
    if np.shape(basis) != (r.size, 4):
        raise ShapeMismatch(f"basis shape {np.shape(basis)} is not ({r.size}, 4)")
    mats = s.matrices()
    # basis† A_i A_j basis = (A_i basis)† (A_j basis), the norms in one SVD call; as
    # (d, 4 c) the basis is its four d x c blocks interleaved, and A_i (x) 1 acts as A_i
    blocks = (mats @ basis.reshape(s.dim, -1)).reshape(6, -1, 4)
    g = np.swapaxes(blocks.conj(), -1, -2)[:, None] @ blocks[None]
    norms = linalg.largest_singular_values(np.array(
        [g[i - 1, j - 1] - g[j - 1, i - 1] for i, j in CONTEXT_PAIRS]
        + [g[i - 1, j - 1] + g[j - 1, i - 1] for i, j in ANTICOMMUTING_PAIRS]
    )).tolist()
    n = len(CONTEXT_PAIRS)
    comm = {f"A{i}A{j}": v for (i, j), v in zip(CONTEXT_PAIRS, norms[:n])}
    acomm = {f"A{i}A{j}": v for (i, j), v in zip(ANTICOMMUTING_PAIRS, norms[n:])}

    _, double = seqcorr.state_images(mats, r)
    # each A_j A_k R is an image; STATE_CONSTRAINTS lists the twelve triples first, two
    # per first slot in slot order, so A_i (A_j A_k R) is one broadcast product
    j, k = np.array([slots[-2:] for slots, _ in STATE_CONSTRAINTS]).T - 1
    images = double[j, k]
    images[:12] = (mats[:, None] @ images[:12].reshape(6, 2, *r.shape)).reshape(12, *r.shape)
    residuals = images - np.array([sign for _, sign in STATE_CONSTRAINTS])[:, None, None] * r
    names = ["".join(f"A{x}" for x in slots) + ("-1" if sign == 1 else "+1")
             for slots, sign in STATE_CONSTRAINTS]
    constraints = dict(zip(names, linalg.vec_norms(residuals.reshape(len(names), -1)).tolist()))
    return comm, acomm, constraints


@dataclass
class AlignmentResult:
    unitary: np.ndarray
    aligned_observables: list
    sign3: float
    sign6: float
    distances: list


def align(projected_observables) -> AlignmentResult:
    """Construct the alignment unitary from the projected observables.

    The six 4x4 inputs are rounded to exact involutions, which are then used
    for the exact basis algebra; the reported aligned observables and
    distances use the raw inputs, so all approximation stays visible. A (6, 4, 4)
    complex array, such as `extract`'s, is read without a copy; other input is copied.

    Steps: (i) split the space along the +1 eigenspace {e1, e2} of the
    rounded slot-5 operator and its slot-1 images f_i = A1 e_i, giving
    A5 -> Z(x)1 and A1 -> X(x)1; (ii) read the second-factor operators of
    slots 2 and 4 and rotate them to Z and X; (iii) record the residual signs
    of slots 3 and 6 against the +-X(x)Z and +-Z(x)X forms. Distances are
    always measured against the +1-sign targets, which is the sign choice the
    stabilizer constraints enforce at maximal violation. The bases of (i) and
    (ii) are the eigenvectors the two roundings take, as eigh gives them.

    No basis of an eigenspace is preferred: mixing e1, e2 by a 2x2 unitary G
    gives w -> w (1(x)G) and u2 -> G† u2 times a phase, and phases on M's
    eigenvectors give u2 a phase, so U -> phase * U; the pivot removes it.
    """
    raw = projected_observables
    if isinstance(raw, np.ndarray) and raw.dtype == complex and raw.shape == (6, 4, 4):
        linalg.require_finite(raw)
    else:
        raw = tuple(raw)
        if len(raw) != 6 or any(np.shape(m) != (4, 4) for m in raw):
            list(map(linalg.as_matrix, raw))  # an entry that is no finite matrix raises its own
            raise ShapeMismatch("align expects six 4x4 projected observables")
        raw = linalg.as_matrices(raw)

    try:
        rounded, w6, v6 = round_to_involutions(linalg.hermitian_part(raw))
    except ZeroEigenvalue as exc:
        raise AnticommutatorTooLarge(
            f"projected observable cannot be rounded to an involution: {exc}"
        ) from exc
    a1r, a5r = rounded[0], rounded[4]
    ac15 = linalg.acomm(a1r, a5r)
    if linalg.op_norm_exceeds(ac15, 0.5):  # the SVD norm is taken for the message alone
        norm = linalg.largest_singular_values(ac15)
        raise AnticommutatorTooLarge(f"||{{A1, A5}}|| = {norm:.3f} after rounding exceeds 0.5")

    # two columns: A1 A5 A1 + A5 = A1 {A1, A5}, so by Weyl an unbalanced split needs norm >= 2
    e = v6[4][:, w6[4] > 0]
    f = a1r @ e
    w0 = np.column_stack([e, f])
    # Loewdin correction: with finite anticommutator residue the columns are
    # only approximately orthonormal. Their Gram is 1 off e† A1 e = e† {A1, A5} e / 2,
    # of norm <= 1/4, so its lambda_min >= 3/4 and inv_sqrt_psd does not refuse it.
    w = w0 @ linalg.inv_sqrt_psd(linalg.hermitian_part(w0.conj().T @ w0))

    # slots 2 and 4 in the frame w are close to 1 (x) M and 1 (x) O
    frames = w.conj().T @ rounded[[1, 3]] @ w
    second = linalg.hermitian_part((frames[:, :2, :2] + frames[:, 2:, 2:]) / 2)
    m_op, o_op = second
    try:
        (m_r, o_r), _, (vm, _) = round_to_involutions(second)
    except ZeroEigenvalue as exc:
        raise FactorizationFailure(
            f"second-factor operator has no involution rounding: {exc}"
        ) from exc
    defects = np.array([m_op - m_r, o_op - o_r, linalg.acomm(m_r, o_r)])
    if linalg.op_norm_exceeds(defects, 0.5).any():
        raise FactorizationFailure(
            "second-factor operators are not close to anticommuting involutions"
        )
    # M's eigenvectors, ascending: the checks above leave M one -1 and one +1
    m_minus, m_plus = vm[:, 0], vm[:, 1]
    # |c| >= sqrt(15)/4: in M's eigenbasis O = [[a, c], [c*, -a]], a^2 + |c|^2 = 1, 2|a| <= 0.5
    c = complex(m_plus.conj() @ (o_r @ m_minus))
    u2 = np.column_stack([m_plus, m_minus * (c.conjugate() / abs(c))])

    one_u2 = np.zeros((4, 4), dtype=complex)  # 1 (x) u2
    one_u2[:2, :2] = one_u2[2:, 2:] = u2
    unitary = one_u2.conj().T @ w.conj().T
    # global phase: U's first entry above 1e-12 in magnitude, row-major, real positive
    pivot = complex(unitary.flat[np.argmax(np.abs(unitary) > 1e-12)])
    unitary = unitary * (pivot.conjugate() / abs(pivot))
    aligned = unitary @ raw @ unitary.conj().T

    sign3 = 1.0 if np.trace(aligned[2] @ TARGET_MATRICES[2]).real >= 0 else -1.0
    sign6 = 1.0 if np.trace(aligned[5] @ TARGET_MATRICES[5]).real >= 0 else -1.0
    distances = linalg.largest_singular_values(aligned - TARGET_MATRICES).tolist()
    return AlignmentResult(unitary, list(aligned), sign3, sign6, distances)


@dataclass
class Extraction:
    """`extract`'s result: V's (d c) x 4 basis and the generators' Gram matrix, the
    six blocks A_k basis (6, d c, 4), their compressions basis† A_k basis (6, 4, 4),
    the alignment of the compressions, and the extracted state with its fidelity."""

    basis: np.ndarray
    gram: np.ndarray
    blocks: np.ndarray
    projected: np.ndarray
    alignment: AlignmentResult
    extracted_state: PureState
    fidelity: float


def extract(s: Scenario) -> Extraction:
    """certify's extraction stage, what a `sweep` row reads: `build_subspace`, the
    projected observables, `align` and the extracted state, with their refusals.

    The extracted state is the alignment image of vec(R) projected onto V and
    normalized, its global phase fixed so its overlap with the reference state is
    real nonnegative; `fidelity` is that overlap squared.
    """
    basis, gram = build_subspace(s)
    # as (d, 4 c) the basis is its four d x c blocks interleaved, and A_k (x) 1 acts as A_k
    blocks = (s.matrices() @ basis.reshape(s.dim, -1)).reshape(6, -1, 4)
    bd = basis.conj().T
    projected = bd @ blocks

    psi_v = bd @ s.state.factor().reshape(-1)
    psi_v = psi_v / linalg.vec_norms(psi_v)

    alignment = align(projected)
    extracted = alignment.unitary @ psi_v
    overlap = complex(PHI_PLUS.conj() @ extracted)
    if abs(overlap) > 1e-12:
        extracted = extracted * (overlap.conjugate() / abs(overlap))
    extracted = extracted / linalg.vec_norms(extracted)
    fidelity = float(abs(PHI_PLUS.conj() @ extracted) ** 2)
    # extracted is finite with unit norm by construction: no PureState re-check
    return Extraction(basis, gram, blocks, projected, alignment, PureState._of(extracted), fidelity)


@dataclass
class CertificationReport:
    violation: InequalityValue
    subspace_basis: np.ndarray
    gram: np.ndarray
    projected_observables: list
    leakage: list
    commutator_residuals: dict
    anticommutator_residuals: dict
    constraint_residuals: dict
    alignment_unitary: np.ndarray
    aligned_observables: list
    sign3: float
    sign6: float
    extracted_state: PureState
    fidelity: float
    operator_distances: list
    fidelity_witness: float
    fidelity_lower_bound: float

    @property
    def max_operator_distance(self) -> float:
        return max(self.operator_distances)

    def to_dict(self) -> dict:
        """The fields in order, JSON-ready; complex arrays as [re, im] pairs."""
        doc = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, InequalityValue):
                v = asdict(v)
            elif isinstance(v, PureState):
                v = complex_pairs(v.amplitudes)
            elif np.ndim(v) >= 2:  # a matrix or a list of matrices
                v = complex_pairs(v)
            elif isinstance(v, (dict, list)):
                v = v.copy()
            doc[f.name] = v
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    def save(self, path) -> None:
        atomic_write_text(path, self.to_json() + "\n")


def _witness_value(psi4: np.ndarray) -> float:
    """Overlap with the maximally entangled target, via the stabilizer form
    (1 + sum of <s T_i T_j> over the pair contexts (i, j, s))/4, which is
    (1 + <XX> + <ZZ> - <YY>)/4."""
    t = TARGET_MATRICES
    return float(sum((s * (psi4.conj() @ (t[i - 1] @ t[j - 1] @ psi4)).real
                      for i, j, s in PAIR_CONTEXTS), 1) / 4)


def _witness_lower_bound(aligned, distances, psi4: np.ndarray) -> float:
    """Certified witness lower bound assembled from operator distances.

    Each stabilizer expectation of a pair context (i, j, s) obeys
    <s T_i T_j> = 1 - ||(T_i - s T_j) psi||^2/2, and the triangle chain
    through the aligned observables bounds that norm by
    d_i + ||(A_i - s A_j) psi|| + d_j.
    """
    spans = linalg.vec_norms(np.array([(aligned[i - 1] - s * aligned[j - 1]) @ psi4
                                       for i, j, s in PAIR_CONTEXTS])).tolist()
    chains = [distances[i - 1] + v + distances[j - 1] for (i, j, _), v in zip(PAIR_CONTEXTS, spans)]
    return float(max(sum((max(1 - t * t / 2, -1.0) for t in chains), 1) / 4, 0.0))


def certify(s: Scenario) -> CertificationReport:
    """Run the full extraction pipeline on a scenario: `extract`, then the algebra
    residuals, the leakage and the two witnesses that only the report carries.

    Pure and mixed states share one path on the unit-norm factor R (for what
    `fidelity` means for a mixed state, see the module docstring). No array it
    forms is larger than (d c) x 4: V enters only through its basis.
    """
    violation = eval_IT(correlations(s, "analytic"))
    stage = extract(s)
    comm, acomm, constraints = algebra_residuals(s, stage.basis)
    # ||P A_k (1 - P)|| = ||(A_k basis)† - projected_k basis†|| for P = basis basis†, as
    # basis has orthonormal columns: all from the six (d c) x 4 blocks A_k basis
    leakage = linalg.largest_singular_values(np.swapaxes(stage.blocks.conj(), -1, -2)
                                             - stage.projected @ stage.basis.conj().T).tolist()
    result, extracted = stage.alignment, stage.extracted_state
    return CertificationReport(
        violation=violation,
        subspace_basis=stage.basis,
        gram=stage.gram,
        projected_observables=list(stage.projected),
        leakage=leakage,
        commutator_residuals=comm,
        anticommutator_residuals=acomm,
        constraint_residuals=constraints,
        alignment_unitary=result.unitary,
        aligned_observables=result.aligned_observables,
        sign3=result.sign3,
        sign6=result.sign6,
        extracted_state=extracted,
        fidelity=stage.fidelity,
        operator_distances=result.distances,
        fidelity_witness=_witness_value(extracted.amplitudes),
        fidelity_lower_bound=_witness_lower_bound(
            result.aligned_observables, result.distances, extracted.amplitudes
        ),
    )
