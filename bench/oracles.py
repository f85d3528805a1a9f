"""Reference values computed with plain numpy, apart from qconc.

Each function takes a different route from the package: the two-qubit
concurrence through the spin-flip construction, entanglement through the
binary-entropy formula, pure-state bounds through the trace of the reduced
density, and roof values through the members' own reduced spectra.
"""

from __future__ import annotations

import math

import numpy as np

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)


def psd_root(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def wootters(rho: np.ndarray) -> float:
    """Two-qubit concurrence from the singular values of R (YxY) conj(R)."""
    root = psd_root(np.asarray(rho, dtype=complex))
    s = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return max(0.0, s[0] - s[1] - s[2] - s[3])


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof_two_value(d: float) -> float:
    """Entanglement of a two-value spectrum with concurrence d (m = 1)."""
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - d * d))))


def eof_arith3(d: float) -> float:
    """Entanglement of the spectrum (1/3 - v, 1/3, 1/3 + v) with concurrence d (m = 1).

    D = sqrt(1 - 9 v^2) / sqrt(3) inverts in closed form.
    """
    if d <= 0.0:
        return 0.0
    v = math.sqrt(max(0.0, 1.0 - 3.0 * d * d)) / 3.0
    return entropy_bits([1.0 / 3.0 - v, 1.0 / 3.0, 1.0 / 3.0 + v])


def entropy_bits(values) -> float:
    return -sum(x * math.log2(x) for x in values if x > 0.0)


def reduced_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of A A^H for a unit-norm coefficient matrix A."""
    A = np.asarray(coeffs, dtype=complex)
    return np.clip(np.linalg.eigvalsh(A @ A.conj().T)[::-1], 0.0, None)


def pure_bound(rho: np.ndarray, N: int) -> float:
    """2 sqrt((1 - tr rho_A^2) / 2) for a rank-one density."""
    rho_a = np.trace(rho.reshape(N, N, N, N), axis1=1, axis2=3)
    purity = float(np.vdot(rho_a, rho_a).real)
    return 2.0 * math.sqrt(max(0.0, (1.0 - purity) / 2.0))


def eigen_average_bound(rho: np.ndarray, N: int) -> float:
    """Average of 2 sqrt(e2) over the eigendecomposition: an upper bound on the D bound."""
    w, v = np.linalg.eigh(rho)
    total = 0.0
    for k in range(w.size):
        if w[k] > 1e-12:
            lam = reduced_spectrum(v[:, k].reshape(N, N))
            e2 = (1.0 - float(np.sum(lam * lam))) / 2.0
            total += w[k] * 2.0 * math.sqrt(max(e2, 0.0))
    return total


def partial_transpose_min_eig(rho: np.ndarray, N: int) -> float:
    pt = rho.reshape(N, N, N, N).swapaxes(1, 3).reshape(N * N, N * N)
    return float(np.linalg.eigvalsh(pt)[0])


def swap_parties(rho: np.ndarray, N: int) -> np.ndarray:
    """The density with the two subsystems exchanged."""
    return rho.reshape(N, N, N, N).transpose(1, 0, 3, 2).reshape(N * N, N * N)


def rebuild(members) -> np.ndarray:
    """sum_a p_a |psi_a><psi_a| from (weight, coefficient matrix) pairs."""
    out = None
    for p, coeffs in members:
        z = np.asarray(coeffs, dtype=complex).reshape(-1)
        term = p * np.outer(z, z.conj())
        out = term if out is None else out + term
    return out


def roof_value_e(members) -> float:
    return math.fsum(p * entropy_bits(reduced_spectrum(c)) for p, c in members)


def roof_value_d(members) -> float:
    """Average of 2 sqrt(lambda1 lambda2) for two-value (m = 1, n = 2) members."""
    total = []
    for p, c in members:
        lam = reduced_spectrum(c)
        total.append(p * 2.0 * math.sqrt(lam[0] * lam[1]))
    return math.fsum(total)
