"""Tests for the dense linear-algebra helpers."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qconc import hermitian_eig, sqrt_psd, takagi
from qconc.errors import NotHermitian, NotPSD, NotSymmetric
from qconc.linalg import HermitianEig, check_psd
from qconc.sampling import generator, haar_unitary


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_psd(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T


def test_hermitian_eig_reconstructs():
    rng = generator(11)
    for n in (2, 3, 5, 8):
        h = random_hermitian(n, rng)
        vals, vecs = hermitian_eig(h)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        np.testing.assert_allclose(recon, h, atol=1e-10)
        assert all(vals[k] >= vals[k + 1] for k in range(n - 1))


def test_hermitian_eig_sum_matches_trace():
    rng = generator(12)
    for _ in range(20):
        h = random_hermitian(4, rng)
        vals, _ = hermitian_eig(h)
        assert abs(sum(vals) - np.trace(h).real) < 1e-10


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian, match="square"):
        hermitian_eig(np.ones((2, 3)))


def test_sqrt_psd_squares_back():
    rng = generator(13)
    for n in (2, 3, 6):
        m = random_psd(n, rng)
        r = sqrt_psd(m)
        np.testing.assert_allclose(r @ r, m, atol=1e-9)
        np.testing.assert_allclose(r, r.conj().T, atol=1e-12)


def test_sqrt_psd_clamps_tiny_negative_eigenvalues():
    m = np.diag([1.0, -1e-14])
    r = sqrt_psd(m)
    assert r[1, 1] == 0.0


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPSD):
        sqrt_psd(np.diag([1.0, -0.5]))
    with pytest.raises(NotPSD):
        check_psd(HermitianEig(np.array([1.0, np.nan]), np.eye(2)))


def test_sqrt_psd_projector_is_idempotent_consistent():
    """The root of a projector is the projector itself."""
    rng = generator(14)
    u = haar_unitary(4, rng)
    p = u[:, :2] @ u[:, :2].conj().T
    np.testing.assert_allclose(sqrt_psd(p), p, atol=1e-9)


def test_takagi_swap_matrix():
    t = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u, vals = takagi(t)
    np.testing.assert_allclose(vals, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(u @ t @ u.T, np.diag(vals), atol=1e-9)


def test_takagi_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        takagi(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(NotSymmetric, match="square"):
        takagi(np.ones((2, 3)))


@pytest.mark.parametrize("func, error", [(hermitian_eig, NotHermitian), (sqrt_psd, NotHermitian), (takagi, NotSymmetric)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_nan_entries_fail_the_tolerance_test(func, error, where):
    """A NaN entry (on the diagonal or in a mirrored pair) or one infinite entry raises the check's InputError.

    Not NaN or identity output, a LinAlgError or a RuntimeWarning: an
    infinite off-diagonal entry once passed the relative test, whose
    scale max(||A||, 1) was infinite too.
    """
    for bad, cells in ((np.nan, (where, where[::-1])), (np.inf, (where,))):
        M = np.eye(3, dtype=complex)
        for cell in cells:
            M[cell] = bad
        with pytest.raises(error):
            func(M)


def random_symmetric(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g + g.T


def test_takagi_rank_deficient():
    """A large null space must not corrupt the unitary factor."""
    rng = generator(16)
    z = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    t = z.T @ z  # symmetric, rank 2
    u, vals = takagi(t)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-10)
    np.testing.assert_allclose(u @ t @ u.T, np.diag(vals), atol=1e-9)
    assert vals[2] < 1e-12


def test_takagi_factorization_fuzz():
    """U T U^T must be diagonal and the values must match singular values."""
    rng = generator(15)
    for trial in range(1000):
        n = int(rng.integers(1, 10))
        t = random_symmetric(n, rng)
        if trial % 3 == 0:
            # plant repeated singular values
            base = rng.random(n // 2 + 1) + 0.1
            s = np.sort(np.concatenate([base, base])[:n])[::-1]
            if trial % 6 == 0:
                s[n // 2 :] = 0.0  # and a null space
            w = haar_unitary(n, rng)
            t = w @ np.diag(s) @ w.T
        u, vals = takagi(t)
        np.testing.assert_allclose(u @ t @ u.T, np.diag(vals), atol=1e-9)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-10)
        sv = np.linalg.svd(t, compute_uv=False)
        np.testing.assert_allclose(vals, sv, atol=1e-10)
    for trial in range(300):
        # plant tiny singular values, 1e-13 to 1e-6, every other trial repeated
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n))
        s = rng.random(n) + 0.1
        s[:k] = 10.0 ** rng.uniform(-13.0, -6.0, k)
        if trial % 2:
            s[:k] = s[0]
        w = haar_unitary(n, rng)
        t = w @ np.diag(np.sort(s)[::-1]) @ w.T
        u, vals = takagi(t)
        np.testing.assert_allclose(u @ t @ u.T, np.diag(vals), atol=1e-9)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(vals, np.linalg.svd(t, compute_uv=False), atol=1e-10)


@given(
    n=st.integers(1, 6),
    entries=arrays(np.float64, (2, 6, 6), elements=st.floats(-1.0, 1.0)),
    planted=st.lists(st.sampled_from([0.0, 1e-14, 1e-12, 1e-9, 1e-6]), max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_takagi_contract(n, entries, planted, seed):
    """s descending and equal to the singular values, U unitary, U T U^T = diag(s).

    T is either drawn entry by entry and symmetrized, or W diag(s) W^T for
    a Haar unitary W with some values planted small (down to exact zeros).
    """
    if planted:
        s = np.concatenate([planted, generator(seed).random(n) + 0.1])[:n]
        W = haar_unitary(n, generator(seed, 1))
        T = W @ np.diag(s) @ W.T
        T = 0.5 * (T + T.T)
    else:
        G = entries[0, :n, :n] + 1j * entries[1, :n, :n]
        T = G + G.T
    U, s = takagi(T)
    assert np.all(np.diff(s) <= 0.0)
    np.testing.assert_allclose(s, np.linalg.svd(T, compute_uv=False), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(n), rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(U @ T @ U.T, np.diag(s), rtol=0.0, atol=1e-10)
