"""Dense complex matrix kernels.

Three primitives used everywhere else in the package: Hermitian
eigendecomposition with descending eigenvalues, the positive semidefinite
matrix square root, and the Takagi factorization of complex symmetric
matrices.  All routines are thin, validated wrappers over LAPACK via
numpy; matrices here are small (at most ~100 x 100).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, NotPSD, NotSymmetric

HERMITIAN_TOL = 1e-10
SYMMETRIC_TOL = 1e-10
PSD_CLAMP = 1e-10
NULL_GROUP_TOL = 1e-12
DEGENERATE_TOL = 1e-8  # relative to the largest value; unitary eigenvalues have scale 1


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


def sqrt_psd(M) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-1e-10, 0] are treated as exact zeros; anything more
    negative raises.  The result R is Hermitian PSD with ``R @ R = M``
    within 1e-9 Frobenius error.
    """
    w, V = hermitian_eig(M)
    if w[-1] < -PSD_CLAMP:
        raise NotPSD(f"minimum eigenvalue {w[-1]:.3e} below -1e-10")
    root = np.sqrt(np.clip(w, 0.0, None))
    R = (V * root) @ V.conj().T
    return 0.5 * (R + R.conj().T)


def _degenerate_groups(s: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices of a descending value list, each group spanning at most tol."""
    groups: list[list[int]] = []
    start = 0
    for k in range(1, s.size + 1):
        if k == s.size or (s[start] - s[k]) > tol:
            groups.append(list(range(start, k)))
            start = k
    return groups


def _symmetric_unitary_sqrt(B: np.ndarray) -> np.ndarray:
    """Symmetric unitary Q with Q @ Q = B for a symmetric unitary B.

    B = C + iD with C, D real symmetric, and B^H B = I makes them commute,
    so one real orthogonal O diagonalizes both: the eigenvectors of C,
    rotated within each cluster of equal eigenvalues of C onto eigenvectors
    of D.  Then B = O diag(z) O^T and Q = O diag(sqrt(z/|z|)) O^T.
    """
    c, O = np.linalg.eigh(B.real)
    for g in _degenerate_groups(-c, DEGENERATE_TOL):
        if len(g) > 1:
            _, R = np.linalg.eigh(O[:, g].T @ B.imag @ O[:, g])
            O[:, g] = O[:, g] @ R
    z = np.einsum("ij,ik,kj->j", O, B, O)
    return (O * np.sqrt(z / np.abs(z))) @ O.T


def takagi(T) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorization of a complex symmetric matrix.

    Finds a unitary U and nonnegative values L (descending) such that
    ``U @ T @ U.T = diag(L)``.  The values L coincide with the singular
    values of T.

    The construction starts from the SVD ``T = V S W^H``.  Symmetry of T
    forces ``B = V^H conj(W)`` to be a symmetric unitary that is block
    diagonal over groups of equal singular values; a symmetric unitary
    square root of each block supplies the phase correction, giving
    ``U = (V B^{1/2})^H``.  Re-symmetrizing each block absorbs roundoff
    before the square root.

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

    V, s, Wh = np.linalg.svd(A)
    B = V.conj().T @ Wh.T  # V^H conj(W)
    # Null-space groups keep the identity block: nothing links the V and W
    # bases there, so B's block is a generic (non-symmetric) unitary.  The
    # block multiplies zero singular values, so no phase fix is needed.
    Q = np.eye(s.size, dtype=complex)
    for g in _degenerate_groups(s, DEGENERATE_TOL * s.max(initial=0.0)):
        if s[g[0]] > NULL_GROUP_TOL * scale:
            blk = B[np.ix_(g, g)]
            Q[np.ix_(g, g)] = _symmetric_unitary_sqrt(0.5 * (blk + blk.T))
    U = (V @ Q).conj().T
    return U, s.copy()
