"""Dense complex matrix kernels.

Three primitives used everywhere else in the package: Hermitian
eigendecomposition with descending eigenvalues, the positive semidefinite
matrix square root (also from an eigendecomposition already at hand), and
the Takagi factorization of complex symmetric matrices.  All routines are
thin, validated wrappers over LAPACK via numpy; matrices here are small
(at most ~100 x 100).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, NotPSD, NotSymmetric

HERMITIAN_TOL = 1e-10
SYMMETRIC_TOL = 1e-10
PSD_CLAMP = 1e-10
NULL_TOL = 1e-12


@contextmanager
def lapack_errors():
    """Re-raise numpy's LinAlgError as ConvergenceFailure, a NumericalError."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


class HermitianEig(NamedTuple):
    """Eigendecomposition with eigenvalues sorted in descending order."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square_array(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {A.shape}")
    return A


def hermitian_eig(M) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    M : array_like
        Square matrix, Hermitian within relative tolerance 1e-10.

    Returns
    -------
    HermitianEig
        ``eigenvalues`` real and descending, ``eigenvectors`` unitary with
        columns matching the eigenvalue order, so that
        ``V @ diag(w) @ V.conj().T`` reconstructs ``M``.

    Raises
    ------
    NotHermitian
        If the symmetry check fails.
    ConvergenceFailure
        If the underlying iterative solver does not converge.
    """
    A = _as_square_array(M)
    scale = max(np.linalg.norm(A), 1.0)
    if np.linalg.norm(A - A.conj().T) > HERMITIAN_TOL * scale:
        raise NotHermitian("matrix is not Hermitian within 1e-10 relative tolerance")
    with lapack_errors():
        w, V = np.linalg.eigh(A)
    # eigh returns ascending order
    return HermitianEig(w[::-1].copy(), V[:, ::-1].copy())


def check_psd(eig: HermitianEig) -> HermitianEig:
    """Pass a PSD eigendecomposition through; eigenvalues below -1e-10 raise NotPSD."""
    if eig.eigenvalues[-1] < -PSD_CLAMP:
        raise NotPSD(f"minimum eigenvalue {eig.eigenvalues[-1]:.3e} below -1e-10")
    return eig


def psd_root(eig: HermitianEig) -> np.ndarray:
    """Hermitian root V sqrt(w) V^H from a checked eigendecomposition.

    Eigenvalues in [-1e-10, 0] are treated as exact zeros.
    """
    w, V = eig
    root = np.sqrt(np.clip(w, 0.0, None))
    R = (V * root) @ V.conj().T
    return 0.5 * (R + R.conj().T)


def sqrt_psd(M) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-1e-10, 0] are treated as exact zeros; anything more
    negative raises.  The result R is Hermitian PSD with ``R @ R = M``
    within 1e-9 Frobenius error.
    """
    return psd_root(check_psd(hermitian_eig(M)))


def takagi(T) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorization of a complex symmetric matrix.

    Finds a unitary U and nonnegative values s (descending) such that
    ``U @ T @ U.T = diag(s)``.  The values s coincide with the singular
    values of T.

    With T = A + iB (A, B real symmetric), a row u = x - iy of U solves
    T u = s conj(u), which is the real symmetric eigenproblem
    ``[[A, B], [B, -A]] (x, y) = s (x, y)``.  The embedding has eigenvalues
    +-s, and (x, y) -> (-y, x) maps the +s eigenspace onto the -s one, so
    rows taken from the top n eigenvectors are orthonormal, repeated values
    included.  Rows for values at or below 1e-12 * max(||T||_F, 1) are an
    orthonormal completion.  A final polar step restores unitarity where
    small values let the +s and -s eigenvectors mix.

    Raises
    ------
    NotSymmetric
        If ``T.T != T`` within 1e-10.
    """
    A = np.asarray(T, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {A.shape}")
    scale = max(np.linalg.norm(A), 1.0)
    if np.linalg.norm(A - A.T) > SYMMETRIC_TOL * scale:
        raise NotSymmetric("matrix is not complex symmetric within 1e-10")

    n = A.shape[0]
    H = 0.5 * (A + A.T)
    w, Z = np.linalg.eigh(np.block([[H.real, H.imag], [H.imag, -H.real]]))
    s = np.maximum(w[::-1][:n], 0.0)
    r = int(np.count_nonzero(s > NULL_TOL * scale))
    top = Z[:, ::-1][:, :r]
    U = (top[:n] - 1j * top[n:]).T
    if r < n:
        Q, _ = np.linalg.qr(U.conj().T, mode="complete")
        U = np.vstack([U, Q[:, r:].conj().T])
    L, _, R = np.linalg.svd(U)
    return L @ R, s
