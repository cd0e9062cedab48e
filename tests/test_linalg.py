import numpy as np
import pytest

from tempcert import linalg
from tempcert.errors import NonSquare, NotHermitian, RankDeficient, ShapeMismatch
from tempcert.scenario import PAULI_X, PAULI_Z

from conftest import rng_from


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


class TestHermitize:
    """`hermitian_part`, the Hermitian part (m + m†)/2."""

    def test_fixed_point_on_hermitian(self):
        h = random_hermitian(4, rng_from(0))
        assert np.array_equal(linalg.hermitian_part(h), h)

    def test_kills_anti_hermitian(self):
        assert np.array_equal(linalg.hermitian_part(1j * PAULI_X), np.zeros((2, 2)))

    def test_result_is_hermitian(self):
        rng = rng_from(1)
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            r = linalg.hermitian_part(g)
            assert np.array_equal(r, r.conj().T)


def gaussian_stack(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestStackedProducts:
    """hermitian_part and acomm on (S, 6, d, d) stacks give every matrix exactly
    the result of the 2-d formula on it alone."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_hermitize_matches_per_matrix(self, d):
        m = gaussian_stack((3, 6, d, d), rng_from(40 + d))
        out = linalg.hermitian_part(m)
        assert out.shape == m.shape
        for idx in np.ndindex(3, 6):
            assert np.array_equal(out[idx], (m[idx] + m[idx].conj().T) / 2)
            assert np.array_equal(out[idx], linalg.hermitian_part(m[idx]))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_comm_and_acomm_match_per_matrix(self, d):
        rng = rng_from(50 + d)
        a, b = gaussian_stack((3, 6, d, d), rng), gaussian_stack((3, 6, d, d), rng)
        anticommutators = linalg.acomm(a, b)
        for idx in np.ndindex(3, 6):
            x, y = a[idx], b[idx]
            assert np.array_equal(anticommutators[idx], x @ y + y @ x)
            assert np.array_equal(anticommutators[idx], linalg.acomm(x, y))


class TestEigHermitian:
    def test_pauli_z(self):
        w, _ = linalg.eig_hermitian(PAULI_Z)
        assert np.allclose(w, [1, -1])

    def test_pauli_x_eigenvectors(self):
        w, v = linalg.eig_hermitian(PAULI_X)
        assert np.allclose(w, [1, -1])
        assert np.allclose(v[:, 0], np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(v[:, 1], np.array([1, -1]) / np.sqrt(2))

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_reconstruction(self, d):
        rng = rng_from(d)
        for _ in range(250):
            h = random_hermitian(d, rng)
            w, v = linalg.eig_hermitian(h)
            rebuilt = (v * w) @ v.conj().T
            assert linalg.op_norm(rebuilt - h) <= 1e-10
            assert linalg.op_norm(v.conj().T @ v - np.eye(d)) <= 1e-10
            assert np.all(np.diff(w) <= 1e-12)

    def test_deterministic_phases(self):
        h = random_hermitian(6, rng_from(3))
        w1, v1 = linalg.eig_hermitian(h)
        w2, v2 = linalg.eig_hermitian(h.copy())
        assert np.array_equal(v1, v2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_stack_rejects_one_non_hermitian(self):
        stack = np.array([np.eye(2), [[0, 1], [0, 0]]], dtype=complex)
        with pytest.raises(NotHermitian):
            linalg.eig_hermitian(stack)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, np.nan)])
    def test_stack_rejects_non_finite(self, entry):
        stack = np.zeros((3, 6, 4, 4), dtype=complex)
        stack[2, 5, 0, 1] = entry
        with pytest.raises(ValueError):
            linalg.eig_hermitian(stack)

    def test_stack_rejects_non_square(self):
        with pytest.raises(NonSquare):
            linalg.eig_hermitian(np.zeros((3, 6, 4, 3)))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_stack_matches_per_column_loop(self, d):
        # every matrix of a stack, and every 2-d call, gives bit for bit the
        # result of the per-column phase-fix loop
        mats = stack_inputs(d, rng_from(100 + d))
        ws, vs = linalg.eig_hermitian(np.array(mats))
        for k, h in enumerate(mats):
            w_ref, v_ref = reference_eig_hermitian(h)
            w, v = linalg.eig_hermitian(h)
            assert w.tobytes() == w_ref.tobytes() == ws[k].tobytes()
            assert v.tobytes() == v_ref.tobytes() == vs[k].tobytes()

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_distinct_and_tied_stacks_match_per_column_loop(self, d):
        # a stack whose spectra are all distinct, and the same stack with one
        # tied spectrum among them, give every matrix the per-column reference
        rng = rng_from(200 + d)
        distinct = [random_hermitian(d, rng) for _ in range(12)]
        tied = np.diag(rng.choice([-1.0, 1.0], size=d - 1).repeat([2] + [1] * (d - 2)))
        mixed = distinct[:6] + [tied.astype(complex)] + distinct[6:]
        for mats in (distinct, mixed):
            ws, vs = linalg.eig_hermitian(np.array(mats))
            for k, h in enumerate(mats):
                w_ref, v_ref = reference_eig_hermitian(h)
                assert ws[k].tobytes() == w_ref.tobytes()
                assert vs[k].tobytes() == v_ref.tobytes()

    def test_stack_with_leading_axes(self):
        mats = np.array(stack_inputs(3, rng_from(99))[:12]).reshape(3, 4, 3, 3)
        w, v = linalg.eig_hermitian(mats)
        assert w.shape == (3, 4, 3) and v.shape == (3, 4, 3, 3)
        w2, v2 = linalg.eig_hermitian(mats[2, 1])
        assert w[2, 1].tobytes() == w2.tobytes() and v[2, 1].tobytes() == v2.tobytes()


def reference_eig_hermitian(h):
    """eig_hermitian written as a loop over columns with the scalar abs()."""
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        phase = col[nz[0] if nz.size else int(np.argmax(np.abs(col)))]
        v[:, k] = col * (phase.conjugate() / abs(phase))
    return w, v


def stack_inputs(d, rng, n=120):
    """Hermitian matrices of six kinds: random; diagonal with tied
    eigenvalues; diagonal with ~1e-17 imaginary off-diagonal entries;
    involutions in a random basis, whose degenerate eigenspaces give
    eigenvectors with complex pivots; the same perturbed by 1e-13; and
    permuted block-diagonal, whose pivot is often not the first component."""
    from tempcert.scenario import random_unitary

    def involution():
        u = random_unitary(d, rng)
        return (u * rng.choice([-1.0, 1.0], size=d)) @ u.conj().T

    def permuted_block():
        h = np.zeros((d, d), dtype=complex)
        h[0, 0] = 2.0
        h[1:, 1:] = random_hermitian(d - 1, rng)
        p = rng.permutation(d)
        return h[np.ix_(p, p)]

    kinds = [
        lambda: random_hermitian(d, rng),
        lambda: np.diag(rng.choice([-1.0, 0.0, 1.0], size=d)).astype(complex),
        lambda: np.diag(rng.standard_normal(d)) + 1e-17j * (
            np.triu(np.ones((d, d)), 1) - np.tril(np.ones((d, d)), -1)),
        involution,
        lambda: involution() + 1e-13 * random_hermitian(d, rng),
        permuted_block,
    ]
    mats = []
    for k in range(n):
        h = kinds[k % len(kinds)]()
        mats.append((h + h.conj().T) / 2)
    return mats


class TestInvSqrtPsd:
    def test_identity_fixed_point(self):
        assert np.allclose(linalg.inv_sqrt_psd(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        r = linalg.inv_sqrt_psd(np.diag([4.0, 1.0]))
        assert np.allclose(r, np.diag([0.5, 1.0]), atol=1e-14)

    def test_gram_sandwich(self):
        rng = rng_from(4)
        for _ in range(20):
            g = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
            gram = g.conj().T @ g
            s = linalg.inv_sqrt_psd(gram)
            assert linalg.op_norm(s @ gram @ s - np.eye(4)) <= 1e-9

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            linalg.inv_sqrt_psd(np.diag([1.0, 0.0]))

    def test_rejects_negative(self):
        # a negative eigenvalue lies below the cutoff too: one refusal for both
        with pytest.raises(RankDeficient, match="-1.000e"):
            linalg.inv_sqrt_psd(np.diag([1.0, -1.0]))

    def test_cutoff_pinned_by_value(self):
        # literal eigenvalues either side of INV_SQRT_CUTOFF = 1e-12: moving the
        # cutoff by a decade either way flips one of them
        r = linalg.inv_sqrt_psd(np.diag([1.0, 5e-12]).astype(complex))
        assert np.allclose(r, np.diag([1.0, 5e-12 ** -0.5]), rtol=1e-14, atol=0)
        with pytest.raises(RankDeficient, match="eigenvalue 5.000e-13 at or below cutoff 1.0e-12"):
            linalg.inv_sqrt_psd(np.diag([1.0, 5e-13]).astype(complex))

    def test_refusal_names_the_largest_low_eigenvalue(self):
        for low in ([3e-13, -2.0], [-2.0, 3e-13]):
            with pytest.raises(RankDeficient, match="eigenvalue 3.000e-13 at or below"):
                linalg.inv_sqrt_psd(np.diag([1.0, *low, 0.5]).astype(complex))


class TestNormsAndProducts:
    def test_op_norm_unitary(self):
        rng = rng_from(6)
        from tempcert.scenario import random_unitary
        for d in (2, 4, 8):
            u = random_unitary(d, rng)
            assert abs(linalg.op_norm(u) - 1.0) <= 1e-12

    def test_op_norm_variational_bound(self):
        rng = rng_from(7)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        nm = linalg.op_norm(m)
        for _ in range(100):
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            assert nm >= np.linalg.norm(m @ v) / np.linalg.norm(v) - 1e-12

    def test_op_norm_submultiplicative(self):
        rng = rng_from(8)
        for _ in range(50):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert linalg.op_norm(a @ b) <= linalg.op_norm(a) * linalg.op_norm(b) + 1e-12

    def test_vector_shape(self):
        with pytest.raises(ShapeMismatch):
            linalg.as_matrix(np.ones(3))

    def test_op_norm_exceeds_matches_svd_verdict(self):
        # rank-one matrices have equal Frobenius and operator norms, and the
        # computed SVD value is often a few ulps above the Frobenius one
        rng = rng_from(12)
        mats = [random_hermitian(4, rng) for _ in range(10)]
        for _ in range(30):
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            mats.append(np.outer(u, u.conj()))
        mats += [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(5)]
        stack = np.array(mats)
        for m in mats:
            nm = linalg.op_norm(m)
            assert nm == np.linalg.norm(m, 2)
            for tol in (nm, np.nextafter(nm, 0), np.nextafter(nm, 9), nm * 1.5, nm / 1.5,
                        np.linalg.norm(m)):
                assert bool(linalg.op_norm_exceeds(m, tol)) == (nm > tol)
                assert list(linalg.op_norm_exceeds(stack, tol)) == [
                    linalg.op_norm(x) > tol for x in mats]

    def test_op_norm_exceeds_puts_non_finite_over(self):
        # op_norm rejects these, so no tolerance may accept them
        good = np.zeros((2, 2), dtype=complex)
        for entry in (np.nan, np.inf, complex(0, np.nan)):
            bad = good.copy()
            bad[1, 0] = entry
            with pytest.raises(ValueError):
                linalg.op_norm(bad)
            assert bool(linalg.op_norm_exceeds(bad, 1e300))
            assert list(linalg.op_norm_exceeds(np.array([good, bad, good]), 1.0)) == [
                False, True, False]


class TestExpiHermitian:
    def test_unitary_output(self):
        rng = rng_from(9)
        h = random_hermitian(4, rng)
        u = linalg.expi_hermitian(h, 0.3)
        assert linalg.op_norm(u @ u.conj().T - np.eye(4)) <= 1e-12

    def test_is_expi_eig_of_the_eigendecomposition(self):
        h = np.array([random_hermitian(5, rng_from(k)) for k in (12, 13)])
        u = linalg.expi_hermitian(h, 0.7)
        assert np.array_equal(u, linalg.expi_eig(*linalg.eig_hermitian(h), 0.7))

    def test_zero_scale_is_identity(self):
        h = random_hermitian(3, rng_from(10))
        assert np.allclose(linalg.expi_hermitian(h, 0.0), np.eye(3), atol=1e-14)

    def test_matches_series_for_small_angle(self):
        h = random_hermitian(3, rng_from(11))
        t = 1e-5
        u = linalg.expi_hermitian(h, t)
        series = np.eye(3) - 1j * t * h - (t * t / 2) * (h @ h)
        assert linalg.op_norm(u - series) <= 1e-12
