"""Dense complex matrix kernel for dimensions up to 64.

The checked functions are the edge: `as_matrices`, `as_matrix`, `as_vector`,
`op_norm`, `op_norms`, `eig_hermitian` and `expi_hermitian` coerce
array_like input to a fresh complex128 array and reject what they cannot take,
and `require_finite`, `require_square` and `require_hermitian` check arrays already built.
Hermitian means ||m - m†|| <= STRUCTURAL_TOL = 1e-10 in operator norm, and
`require_hermitian` is the one test. The rest are unchecked kernels for complex
arrays that their caller built or checked, such as operators Hermitian by
construction; the eigen-kernels want exactly Hermitian input, a `hermitian_part`.
A spectral function sum_k f(lambda_k) v_k v_k† sees neither the order nor the phases
of its eigenvectors, so each one takes eigh's ascending, unphased (w, v) as it comes;
only eigenvectors that leave the engine as data are sorted and phase-fixed.
A function that takes a stack (..., d, d) of matrices, or `vec_norms` (..., n)
of vectors, gives each member the result it gets on its own, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import NonSquare, NotHermitian, RankDeficient, ShapeMismatch

#: Tolerance for structural checks (Hermiticity, unitarity).
STRUCTURAL_TOL = 1e-10

#: Relative margin by which a computed Frobenius norm must sit below a
#: tolerance to settle an operator-norm check without an SVD. It covers the
#: rounding of both norms with room to spare at these dimensions.
FROBENIUS_SLACK = 1e-9

#: Eigenvalue cutoff for :func:`inv_sqrt_psd`. The ideal Gram matrix
#: downstream is the identity, so anything at this scale is genuine
#: degeneracy, not noise.
INV_SQRT_CUTOFF = 1e-12


def as_matrices(m) -> np.ndarray:
    """Coerce input to a complex128 stack of matrices, shape (..., r, c),
    rejecting non-finite entries. A single matrix is a stack with no leading
    axes."""
    a = np.array(m, dtype=complex)
    if a.ndim < 2:
        raise ShapeMismatch(f"expected a matrix or a stack of matrices, got ndim {a.ndim}")
    return require_finite(a)


def require_finite(a: np.ndarray) -> np.ndarray:
    """a, a complex matrix or stack already built, unless an entry is NaN or Inf (ValueError)."""
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-d complex128 array, rejecting non-finite entries."""
    a = as_matrices(m)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def as_vector(v) -> np.ndarray:
    """Coerce input to a 1-d complex128 array, rejecting non-finite entries."""
    a = np.array(v, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise ValueError("vector contains NaN or Inf entries")
    return a


def require_square(a: np.ndarray) -> None:
    """Raise NonSquare unless a matrix, or each of a stack (..., r, c), is square."""
    if a.shape[-2] != a.shape[-1]:
        raise NonSquare(f"matrix is {a.shape[-2]}x{a.shape[-1]}")


def hermitian_part(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(a + a†)/2 of a square complex array or of each of a stack, unchecked, as a new C-ordered
    array or into `out`, which must not overlap `a`. Exactly Hermitian; equals `a` when `a` is."""
    h = np.conj(a.swapaxes(-1, -2), out=out, order="C")  # a† in one pass, then in place
    return np.divide(np.add(a, h, out=h), 2, out=h)


def largest_singular_values(a: np.ndarray) -> np.ndarray:
    """`op_norms`' kernel, unchecked: the largest singular value of each matrix of a
    complex stack, as ``np.linalg.norm(a, 2, axis=(-2, -1))`` gives it without its axis handling."""
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def op_norm(m) -> float:
    """Largest singular value."""
    return float(largest_singular_values(as_matrix(m)))


def op_norms(m) -> np.ndarray:
    """Largest singular value of each matrix of a stack (..., r, c): one SVD
    call for the stack, each value the one op_norm gives on its own."""
    return largest_singular_values(as_matrices(m))


def op_norm_exceeds(m: np.ndarray, tol: float) -> np.ndarray:
    """Whether each matrix of a stack (..., r, c) has operator norm above tol.

    The verdict is the one ``op_norm(m) > tol`` gives. Since
    ||m||_2 <= ||m||_F, a Frobenius norm below tol accepts without an SVD;
    only the matrices it does not accept get one. The computed norms carry
    rounding: for rank one, where the two are equal, the SVD value can come
    out a few ulps above the Frobenius one, and the summed squares carry up
    to r*c ulps, so the Frobenius test keeps a relative slack of
    FROBENIUS_SLACK. A matrix with a NaN or Inf entry, which ``op_norm``
    rejects, counts as above tol.
    """
    a = np.ascontiguousarray(m, dtype=complex).reshape(-1, *m.shape[-2:])
    parts = a.view(np.float64).reshape(len(a), -1)
    frobenius = np.sqrt(np.einsum("ki,ki->k", parts, parts))
    # NaN fails every comparison, so non-finite matrices are undecided too
    over = ~(frobenius <= tol / (1 + FROBENIUS_SLACK))
    if over.any():
        undecided = a[over]
        norms = np.full(len(undecided), np.inf)
        finite = np.isfinite(undecided).all(axis=(-2, -1))
        norms[finite] = largest_singular_values(undecided[finite])
        over[over] = norms > tol
    return over.reshape(m.shape[:-2])


def require_hermitian(m: np.ndarray, what: str) -> None:
    """Raise NotHermitian unless m - m† has operator norm at most
    STRUCTURAL_TOL, as `op_norm_exceeds` decides it, for each matrix of a
    square stack m (..., d, d); the SVD norm is taken only for the message."""
    defect = np.conj(np.swapaxes(m, -1, -2), order="C")
    np.subtract(m, defect, out=defect)
    if op_norm_exceeds(defect, STRUCTURAL_TOL).any():
        norm = largest_singular_values(defect).max()
        raise NotHermitian(f"{what} deviates from Hermitian by {norm:.3e}")


def vec_norms(a: np.ndarray) -> np.ndarray:
    """2-norm of each vector of a complex stack (..., n), unchecked.

    The squares are summed as ``np.linalg.norm`` sums a single complex vector,
    with one BLAS dot product for the real parts and one for the imaginary
    parts, so each value is the one ``np.linalg.norm`` gives on its own.
    """
    re, im = a.real[..., None, :], a.imag[..., None, :]
    squares = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(squares[..., 0, 0])


def acomm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Anticommutator ab + ba of checked arrays, matrices or stacks."""
    return a @ b + b @ a


def eig_hermitian(m):
    """Eigendecomposition of Hermitian matrices with deterministic output.

    Parameters
    ----------
    m : array_like
        Square matrix, or a stack of them with shape (..., d, d), each
        Hermitian as `require_hermitian` means it: ||m - m†|| at most
        STRUCTURAL_TOL. Its Hermitian part (m + m†)/2 is decomposed.

    Returns
    -------
    w : ndarray of float, shape (..., d)
        Eigenvalues in descending order.
    v : ndarray of complex, shape (..., d, d)
        Eigenvectors as columns, matching `w`. Each column's first component
        of magnitude above 1e-12 is rotated to be real positive so that
        repeated runs give identical output; a unit column of length d has
        an entry of magnitude at least 1/sqrt(d), so every column has one.
        Every matrix of a stack gets exactly the result it gets on its own.
    """
    a = as_matrices(m)
    require_square(a)
    require_hermitian(a, "matrix")
    w, v = np.linalg.eigh(hermitian_part(a))
    # A stable sort of -w, not a reversal: tied eigenvalues keep eigh's order.
    *lead, _ = np.indices(w.shape, sparse=True)
    order = np.argsort(-w, axis=-1, kind="stable")
    return w[(*lead, order)], phase_fixed(v.swapaxes(-1, -2)[(*lead, order)].swapaxes(-1, -2))


def phase_fixed(v: np.ndarray) -> np.ndarray:
    """Columns of v (..., d, k), each rotated so that its first entry of magnitude
    above 1e-12 is real positive; a unit column of length d has an entry of
    magnitude at least 1/sqrt(d). Unchecked: `eig_hermitian`'s phase convention."""
    *lead, cols = np.indices((*v.shape[:-2], v.shape[-1]), sparse=True)
    phase = v[(*lead, (np.abs(v) > 1e-12).argmax(axis=-2), cols)][..., None, :]
    # hypot rounds like the scalar abs() of a complex number; numpy's array
    # abs does not always.
    return v * (phase.conj() / np.hypot(phase.real, phase.imag))


def inv_sqrt_psd(h: np.ndarray) -> np.ndarray:
    """Inverse square root sum_k lambda_k^{-1/2} v_k v_k† of an exactly
    Hermitian positive-definite complex matrix, such as a `hermitian_part`,
    from eigh's (w, v); unchecked otherwise.

    An eigenvalue at or below INV_SQRT_CUTOFF, a negative one included, raises
    :class:`RankDeficient` naming the largest such eigenvalue.
    """
    w, v = np.linalg.eigh(h)
    if w[0] <= INV_SQRT_CUTOFF:  # w ascends: one test refuses, the last low one is named
        low = w[w <= INV_SQRT_CUTOFF][-1]
        raise RankDeficient(f"eigenvalue {low:.3e} at or below cutoff {INV_SQRT_CUTOFF:.1e}")
    return (v / w ** 0.5) @ v.conj().T


def expi_eig(w: np.ndarray, v: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Unitary exp(-1j * scale * m) from an eigendecomposition (w, v) of
    Hermitian m, in any order and phases, one matrix or a stack."""
    return (v * np.exp(-1j * scale * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2), order="C")


def expi_hermitian(m, scale: float = 1.0) -> np.ndarray:
    """Unitary exp(-1j * scale * m) for Hermitian m, one matrix or a stack
    (..., d, d), via one eigendecomposition call."""
    return expi_eig(*eig_hermitian(m), scale)
