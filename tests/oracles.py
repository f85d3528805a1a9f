"""Independent reference implementations used to cross-check library results.

These deliberately take different computational routes from the package:
the two-qubit concurrence goes through the spin-flipped product matrix
rho @ rho_tilde, the entanglement of formation goes through the
binary-entropy formula, and roof members are scored one at a time through
their own Schmidt spectra.
"""
import math

import numpy as np

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
YY = np.kron(SIGMA_Y, SIGMA_Y)


def _psd_root(rho):
    w, v = np.linalg.eigh(rho)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def wootters_concurrence(rho):
    """Two-qubit mixed-state concurrence via the spin-flip construction.

    The spin-flip roots are computed as singular values of
    sqrt(rho) (sy x sy) conj(sqrt(rho)); the textbook eigenvalue route
    through the non-Hermitian product rho @ rho_tilde squares them first
    and loses half the available precision on rank-deficient states.
    """
    rho = np.asarray(rho, dtype=complex)
    root = _psd_root(rho)
    roots = np.linalg.svd(root @ YY @ root.conj(), compute_uv=False)
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def binary_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof_from_concurrence(c):
    """Two-qubit entanglement of formation as a function of concurrence."""
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def entropy_bits(weights):
    """Shannon entropy of a nonnegative vector, in bits."""
    total = 0.0
    for w in weights:
        if w > 0.0:
            total -= w * math.log2(w)
    return total


def roof_member(w, N, objective, tol=1e-6):
    """p f(psi) of one subnormalized row through its own Schmidt spectrum.

    The per-member route the roof search used before its batched kernels:
    weight p = <w|w>, normalized coefficient matrix, descending eigenvalues
    of A A^H.  ``objective`` is "E" for the entropy in bits or an integer n
    for the (1, n) generalized concurrence n sqrt(lambda_1 ... lambda_n),
    +inf when an (n+1)-th value reaches ``tol``.
    """
    w = np.asarray(w, dtype=complex)
    p = float(np.vdot(w, w).real)
    if p <= 1e-14:
        return 0.0
    A = w.reshape(N, N) / math.sqrt(p)
    lam = np.clip(np.linalg.eigvalsh(A @ A.conj().T)[::-1], 0.0, None)
    if objective == "E":
        return p * entropy_bits(lam)
    n = objective
    if n < N and lam[n] >= tol:
        return math.inf
    return p * n * math.sqrt(math.prod(lam[:n]))


def lambda_spectra_dense(rho, N):
    """Top four singular values of sqrt(rho) S conj(sqrt(rho)) per canonical index.

    Dense N^2 x N^2 products, one per canonical index (i < j, p < q) in
    the package's canonical order, with S built entry by entry: +1 at
    ((i,p), (j,q)), -1 at ((i,q), (j,p)) and their transposes.
    """
    root = _psd_root(np.asarray(rho, dtype=complex))
    rows = []
    for i in range(N):
        for j in range(i + 1, N):
            for p in range(N):
                for q in range(p + 1, N):
                    S = np.zeros((N * N, N * N))
                    S[i * N + p, j * N + q] = S[j * N + q, i * N + p] = 1.0
                    S[i * N + q, j * N + p] = S[j * N + p, i * N + q] = -1.0
                    rows.append(np.linalg.svd(root @ S @ root.conj(), compute_uv=False)[:4])
    return np.array(rows)


def d_bound_dense(rho, N, m, n, clamp=True):
    """(mn/2) sqrt(sum of squared deficits) over ``lambda_spectra_dense``."""
    total = 0.0
    for lam in lambda_spectra_dense(rho, N):
        d = lam[0] - lam[1] - lam[2] - lam[3]
        total += max(d, 0.0) ** 2 if clamp else d * d
    return m * n / 2.0 * math.sqrt(total)
