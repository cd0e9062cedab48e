"""States, observables, six-observable scenarios, and the canonical realization.

Basis convention: qubit ordering |00>, |01>, |10>, |11>, first factor leftmost
in every Kronecker product. This convention is load-bearing for the scenario
file format, which stores matrices row-major in exactly this basis.
"""

from __future__ import annotations

import json
import numbers
import os
import tempfile

import numpy as np

from . import linalg
from .errors import (
    NonInvolution,
    NotHermitian,
    ParseError,
    ShapeMismatch,
    ZeroEigenvalue,
)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: The maximally violating two-qubit realization, slots 1..6:
#: A1 = X(x)1, A2 = 1(x)Z, A3 = X(x)Z, A4 = 1(x)X, A5 = Z(x)1, A6 = Z(x)X.
CANONICAL_MATRICES = (
    np.kron(PAULI_X, PAULI_I),
    np.kron(PAULI_I, PAULI_Z),
    np.kron(PAULI_X, PAULI_Z),
    np.kron(PAULI_I, PAULI_X),
    np.kron(PAULI_Z, PAULI_I),
    np.kron(PAULI_Z, PAULI_X),
)

#: The maximally entangled state (|00> + |11>)/sqrt(2).
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)

#: Default acceptance tolerance for deviation from A @ A == 1. Noise models
#: and optimizer iterates are near-involutions; exactness is not demanded.
INVOLUTION_TOL = 1e-8

#: Cutoff below which an eigenvalue has no well-defined sign.
SIGN_CUTOFF = 1e-8

#: Tolerance for deviation of a state vector's norm from 1.
NORM_TOL = 1e-12

#: Tolerance for deviation from 1 of a total probability (a density matrix's trace, an
#: outcome distribution's sum, a correlator's bound |c| <= 1): a PureState's squared norm
#: lies within (1 + NORM_TOL)^2 - 1 of 1, and the sums round well inside a further NORM_TOL.
PROBABILITY_TOL = (1 + NORM_TOL) ** 2 - 1 + NORM_TOL


def require_observables(m: np.ndarray) -> None:
    """The one observable check, of a coerced matrix or stack (..., d, d):
    squareness, Hermiticity and that the deviation of ``m @ m`` from the
    identity (operator norm) does not exceed the fixed INVOLUTION_TOL, each
    a single stacked call that a Frobenius bound settles without an SVD
    whenever it can. A NonInvolution names the residual of the first
    matrix of the stack that fails."""
    linalg.require_square(m)
    linalg.require_hermitian(m, "observable")
    residual = m @ m
    residual -= np.eye(m.shape[-1])  # in place: no second (..., d, d) temporary
    over = linalg.op_norm_exceeds(residual, INVOLUTION_TOL).reshape(-1)
    if over.any():
        first = residual.reshape(-1, *residual.shape[-2:])[over.argmax()]
        raise NonInvolution(f"involution residual {linalg.op_norm(first):.3e} "
                            f"exceeds {INVOLUTION_TOL:.1e}")


class Observable:
    """Hermitian matrix intended as a +-1-outcome projective measurement.

    Construction runs `require_observables` on the matrix; `observables`
    builds one Observable per matrix of a stack from a single run.
    ``involution_residual`` takes one matmul and one SVD.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = linalg.as_matrix(matrix)
        require_observables(m)
        m.setflags(write=False)
        self.matrix = m

    @property
    def involution_residual(self) -> float:
        """||matrix @ matrix - 1||, operator norm, taken on each read."""
        return linalg.op_norm(self.matrix @ self.matrix - np.eye(self.dim))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"Observable(dim={self.dim}, involution_residual={self.involution_residual:.2e})"


def observables(matrices) -> list:
    """One Observable per matrix of a stack (..., d, d), nested in lists along
    the leading axes: the matrices, checks and errors of building each on its
    own, from one `require_observables` call on the whole stack. Each matrix
    is a read-only view of one coerced copy of the stack."""
    m = linalg.as_matrices(matrices)
    require_observables(m)
    m.setflags(write=False)

    def build(x):
        if x.ndim > 2:
            return [build(y) for y in x]
        o = Observable.__new__(Observable)
        o.matrix = x
        return o

    return build(m)


class PureState:
    """Normalized state vector: 1-d (else ShapeMismatch), finite, with norm
    within NORM_TOL of 1 (else ValueError)."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        if np.ndim(amplitudes) != 1:
            raise ShapeMismatch(f"state vector must be 1-d, got ndim {np.ndim(amplitudes)}")
        v = linalg.as_vector(amplitudes)
        deviation = np.abs(np.linalg.norm(v, axis=-1) - 1.0)
        if not deviation <= NORM_TOL:
            raise ValueError(f"state norm deviates from 1 by {deviation!r}, "
                             f"more than {NORM_TOL:.1e}")
        v.setflags(write=False)
        self.amplitudes = v

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def factor(self) -> np.ndarray:
        return self.amplitudes[:, None]  # (d, 1), density() = R R†

    def __repr__(self):
        return f"PureState(dim={self.dim})"


class DensityMatrix:
    """Trace-one positive-semidefinite Hermitian matrix. Construction takes
    one Hermiticity check and one eigh of the Hermitian part, which serves the
    PSD check and the unit-norm factor."""

    __slots__ = ("matrix", "_factor")

    def __init__(self, matrix):
        m = linalg.as_matrix(matrix)
        linalg.require_square(m)
        linalg.require_hermitian(m, "density matrix")
        self._factor = DensityMatrix.from_exact(linalg.hermitian_part(m))._factor
        tr = np.trace(m)
        if abs(tr - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1")
        m.setflags(write=False)
        self.matrix = m

    @classmethod
    def from_exact(cls, h: np.ndarray) -> "DensityMatrix":
        """The DensityMatrix of h, exactly Hermitian with unit trace by construction
        (a `hermitian_part`): h itself, made read-only, after the PSD test alone."""
        w, v = np.linalg.eigh(h)  # ascending: w[0] is the most negative
        if w[0] < -linalg.STRUCTURAL_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
        new = cls.__new__(cls)
        h.setflags(write=False)
        new.matrix = h
        r = v * np.sqrt(np.clip(w, 0.0, None))
        new._factor = r / linalg.vec_norms(r.reshape(-1))
        new._factor.setflags(write=False)
        return new

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def density(self) -> np.ndarray:
        return np.array(self.matrix)

    def factor(self) -> np.ndarray:
        """R = v sqrt(max(w, 0)) of eigh's (w, v), columns ascending, scaled to ||R||_F = 1."""
        return self._factor

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def require_integer(name: str, value, minimum: int | None = None) -> None:
    """Raise TypeError, naming the field, unless value is an integer (numpy's
    included) and not a bool, and ValueError if it is below `minimum`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _require_slot(slot: int) -> None:
    require_integer("slot", slot)
    if not 1 <= slot <= 6:
        raise ShapeMismatch(f"slot must be in 1..6, got {slot}")


def require_operands(state, observables) -> tuple:
    """The one check of the engine's operands: a state that is a PureState or
    DensityMatrix, or None, and observables that are Observables (else TypeError),
    all of the state's dimension, or of the first observable's without a state
    (else ShapeMismatch). Returns the observables as a tuple. Each operand's own
    checks ran when it was built; a raw matrix goes through its constructor."""
    if state is not None and not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError("state must be a PureState or DensityMatrix instance")
    obs = tuple(observables)
    if not all(isinstance(o, Observable) for o in obs):
        raise TypeError("observables must be Observable instances")
    d = obs[0].dim if state is None else state.dim
    for k, o in enumerate(obs, start=1):
        if o.dim != d:
            raise ShapeMismatch(f"observable {k} has dimension {o.dim}, expected {d}")
    return obs


class Scenario:
    """One state (PureState or DensityMatrix) plus six observables A1..A6 on a
    common d-dimensional space, their matrices stacked once, read-only, as
    `matrices`; consumers form the images A_k R and A_j A_k R of the factor R."""

    __slots__ = ("state", "observables", "dim", "_matrices")

    def __init__(self, state, observables):
        obs = require_operands(state, observables)
        if len(obs) != 6:
            raise ShapeMismatch(f"a scenario needs exactly 6 observables, got {len(obs)}")
        self.state = state
        self.observables = obs
        self.dim = state.dim
        self._matrices = np.stack([o.matrix for o in obs])
        self._matrices.setflags(write=False)

    def observable(self, slot: int) -> Observable:
        """1-based access: slot in 1..6."""
        _require_slot(slot)
        return self.observables[slot - 1]

    def matrices(self) -> np.ndarray:
        return self._matrices

    def density(self) -> np.ndarray:
        return self.state.density()

    def is_pure(self) -> bool:
        return isinstance(self.state, PureState)

    def with_state(self, state) -> "Scenario":
        return Scenario(state, self.observables)

    def with_observable(self, slot: int, obs: Observable) -> "Scenario":
        """A copy with the observable in `slot` (1..6) replaced."""
        _require_slot(slot)
        new = list(self.observables)
        new[slot - 1] = obs
        return Scenario(self.state, new)

    def __repr__(self):
        kind = "pure" if self.is_pure() else "mixed"
        return f"Scenario(dim={self.dim}, state={kind})"


def canonical_scenario() -> Scenario:
    """The maximally violating two-qubit realization: CANONICAL_MATRICES on
    the maximally entangled state PHI_PLUS."""
    return Scenario(PureState(PHI_PLUS), tuple(Observable(m) for m in CANONICAL_MATRICES))


def round_eig_to_signs(w: np.ndarray, v: np.ndarray, cutoff: float) -> np.ndarray:
    """Eigen-sign rounding sum_k s_k v_k v_k†, s_k = sign(lambda_k) or +1 where
    |lambda_k| <= cutoff, from eigenvalues w (..., d) and eigenvectors v
    (..., d, d) of Hermitian matrices in any order and phases, unchecked: one
    matrix or a stack, the result exactly Hermitian."""
    signs = np.where(w < -cutoff, -1.0, 1.0)  # +1 wherever |w| <= cutoff
    return linalg.hermitian_part((v * signs[..., None, :]) @ v.conj().swapaxes(-1, -2))


def round_to_involutions(h: np.ndarray):
    """`project_involution`'s rounding, unchecked, of an exactly Hermitian complex
    matrix or stack (..., d, d), such as a `hermitian_part`: the `round_eig_to_signs`
    of its eigh (w, v), returned with w and v as eigh gives them, columns ascending; no
    Observable is built. An eigenvalue of magnitude at most SIGN_CUTOFF raises
    ZeroEigenvalue, naming the first matrix of the stack that has no rounding."""
    w, v = np.linalg.eigh(h)
    smallest = np.abs(w).min(axis=-1).reshape(-1)  # per matrix, in stack order
    if smallest.min() <= SIGN_CUTOFF:
        raise ZeroEigenvalue(f"eigenvalue of magnitude {smallest[smallest <= SIGN_CUTOFF][0]:.3e} "
                             f"inside cutoff {SIGN_CUTOFF:.1e}")
    return round_eig_to_signs(w, v, SIGN_CUTOFF), w, v


def project_involution(m) -> Observable:
    """Round a Hermitian matrix to the nearest involution: `round_to_involutions`
    of the Hermitian part of m, checked as a square (NonSquare), Hermitian
    (NotHermitian) matrix first. Returns sum_k sign(lambda_k) v_k v_k†, the
    closest involution in operator norm among functions of m. Eigenvalues of
    magnitude at most SIGN_CUTOFF have no sign and raise :class:`ZeroEigenvalue`.
    """
    a = linalg.as_matrix(m)
    linalg.require_square(a)
    linalg.require_hermitian(a, "matrix")
    return Observable(round_to_involutions(linalg.hermitian_part(a))[0])


def purify_scenario(s: Scenario) -> Scenario:
    """The equivalent pure-state scenario: s itself if pure, else the standard
    purification on the doubled space (dimension d^2), the one purification and
    the reference the mixed-state path is tested against.

    The purifying factor is the second one, so each observable lifts to A (x) 1_d.
    Psi is the unit-norm factor R row-major, Psi[i*d + k] = R[i, k], so
    (A (x) 1) Psi = vec(A R), with no further division: s and its purification
    give the same correlators.
    """
    if s.is_pure():
        return s
    psi = PureState(s.state.factor().reshape(-1))
    return Scenario(psi, [Observable(np.kron(o.matrix, np.eye(s.dim))) for o in s.observables])


# ---------------------------------------------------------------------------
# Seeded random constructions. All randomness in the package flows through
# numpy Generator objects backed by PCG64 (see README for the policy).
# ---------------------------------------------------------------------------

def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    r = rank if rank is not None else dim
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = g @ g.conj().T
    return DensityMatrix(linalg.hermitian_part(m / np.trace(m).real))


def random_hermitian(dim: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Hermitian part of a complex Gaussian matrix, or n of them (n, d, d) from one
    draw and one Hermitian part, bit for bit the n matrices of n calls in turn."""
    g = rng.standard_normal((*(() if n is None else (n,)), 2, dim, dim))
    return linalg.hermitian_part(g[..., 0, :, :] + 1j * g[..., 1, :, :])


def random_involution(dim: int, rng: np.random.Generator) -> Observable:
    """Sign-rounded Gaussian Hermitian matrix: Haar-like eigenbasis coverage."""
    return Observable(round_to_involutions(random_hermitian(dim, rng))[0])


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_scenario(dim: int, rng: np.random.Generator) -> Scenario:
    """A random pure state, then six `random_involution`s drawn as one
    `random_hermitian` block, rounded and checked as one stack: the same
    scenario, bit for bit, as six `random_involution` calls in turn."""
    state = random_pure_state(dim, rng)
    rounded, _, _ = round_to_involutions(random_hermitian(dim, rng, 6))
    return Scenario(state, observables(rounded))


def conjugate_scenario(s: Scenario, u: np.ndarray) -> Scenario:
    """Rotate the whole realization by a unitary: A -> U A U†, psi -> U psi."""
    obs = observables(linalg.hermitian_part(u @ s.matrices() @ u.conj().T))
    if s.is_pure():
        state = PureState(u @ s.state.amplitudes)
    else:
        state = DensityMatrix(linalg.hermitian_part(u @ s.state.matrix @ u.conj().T))
    return Scenario(state, obs)


# ---------------------------------------------------------------------------
# Scenario file format: a UTF-8 JSON document.
#
#   dim          integer
#   state        {"vector": [[re, im], ...]} or {"density": [[re, im], ...]}
#   observables  {"A1": [[re, im], ...], ..., "A6": ...}
#
# Matrices are row-major flat lists of [re, im] pairs. Numbers are written
# with Python's shortest round-trip repr (<= 17 significant digits), so a
# save/load cycle reproduces matrices bit-exactly.
# ---------------------------------------------------------------------------

def complex_pairs(a) -> list:
    """[re, im] pairs nested in the shape of a complex array (or list of them)."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()

def _array_from_pairs(pairs, what: str) -> np.ndarray:
    """A list of [re, im] pairs of JSON numbers (int or float, not bool) as a vector."""
    if not isinstance(pairs, list):
        raise ParseError(f"{what}: expected a list of [re, im] pairs")
    out = np.empty(len(pairs), dtype=complex)
    for i, p in enumerate(pairs):
        if (not isinstance(p, list)) or len(p) != 2:
            raise ParseError(f"{what}[{i}]: expected an [re, im] pair")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in p):
            raise ParseError(f"{what}[{i}]: entries must be JSON numbers")
        try:
            out[i] = complex(float(p[0]), float(p[1]))
        except OverflowError as exc:
            raise ParseError(f"{what}[{i}]: number too large for a float") from exc
    return out


def scenario_to_dict(s: Scenario) -> dict:
    if s.is_pure():
        state = {"vector": complex_pairs(s.state.amplitudes)}
    else:
        state = {"density": complex_pairs(s.state.matrix.reshape(-1))}
    return {
        "dim": s.dim,
        "state": state,
        "observables": {
            f"A{k}": complex_pairs(o.matrix.reshape(-1))
            for k, o in enumerate(s.observables, start=1)
        },
    }


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError("field 'dim': missing or not an integer")
    if dim < 2:
        raise ParseError(f"field 'dim': must be >= 2, got {dim}")

    state_doc = doc.get("state")
    if not isinstance(state_doc, dict):
        raise ParseError("field 'state': missing or not an object")
    try:
        if "vector" in state_doc:
            v = _array_from_pairs(state_doc["vector"], "state.vector")
            if v.shape[0] != dim:
                raise ParseError(f"state.vector: length {v.shape[0]} != dim {dim}")
            state = PureState(v)
        elif "density" in state_doc:
            m = _array_from_pairs(state_doc["density"], "state.density")
            if m.shape[0] != dim * dim:
                raise ParseError(f"state.density: length {m.shape[0]} != dim^2")
            state = DensityMatrix(m.reshape(dim, dim))
        else:
            raise ParseError("field 'state': needs 'vector' or 'density'")
    except (ValueError, NotHermitian, ShapeMismatch) as exc:
        raise ParseError(f"invalid state: {exc}") from exc

    obs_doc = doc.get("observables")
    if not isinstance(obs_doc, dict):
        raise ParseError("field 'observables': missing or not an object")
    obs = []
    for k in range(1, 7):
        key = f"A{k}"
        if key not in obs_doc:
            raise ParseError(f"observables.{key}: missing")
        m = _array_from_pairs(obs_doc[key], f"observables.{key}")
        if m.shape[0] != dim * dim:
            raise ParseError(f"observables.{key}: length {m.shape[0]} != dim^2")
        try:
            obs.append(Observable(m.reshape(dim, dim)))
        except (ValueError, NotHermitian, NonInvolution, ShapeMismatch) as exc:
            raise ParseError(f"observables.{key}: {exc}") from exc
    return Scenario(state, obs)


def dumps_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=1)


def loads_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(doc)


def atomic_write_text(path, text: str) -> None:
    """Write-temp-then-rename so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_scenario(s: Scenario, path) -> None:
    atomic_write_text(path, dumps_scenario(s) + "\n")


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"scenario file is not UTF-8 text: {exc}") from exc
    return loads_scenario(text)
