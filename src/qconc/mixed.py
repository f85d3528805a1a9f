"""Mixed-state machinery: minor-extraction matrices, Lambda spectra, the
closed-form concurrence lower bound, its entanglement conversion, the
rows-2=3 example class at N = 3, and PPT checking.

For each canonical index quadruple (i, p, j, q) there is a sparse symmetric
N^2 x N^2 matrix S whose quadratic form on a state vector extracts twice one
2x2 minor of the coefficient matrix.  The four singular values of
``sqrt(rho) @ S @ conj(sqrt(rho))`` (the Lambda spectrum; the rank never
exceeds four) control how small the decomposition average of that minor can
be made, and combining all canonical indices yields a closed-form lower
bound on the decomposition-averaged generalized concurrence D.

A density owns one eigendecomposition, ``DensityMatrix.eig``
(validation's, for a density read from a file), and one factor F with
F^H F = rho, ``DensityMatrix.factor``, each taken on first use, kept and
read-only; every spectrum and deficit reads F and none rebuilds it.  On
a rank-deficient rho (rank r < N^2) F = conj(V) over the subnormalized
eigenvector rows V, and the spectrum is the singular values of the r x r
matrix tau_x = V[J]^H S4 conj(V[J]) (through its 4 x 4 QR core when
r > 4); at full rank F = sqrt(rho) and the spectrum comes from the 4 x 4
QR core of sqrt(rho)[:, J].  The cores are built
index-major: one gather F.take(J.T, axis=1) gives X = F[:, J] for all K
indices as (r, 4, K), ``_tau_cores`` returns (r, r, K), and every product
runs along the K indices.  Eigenvalues at or below RANK_EPS = 1e-12 count
as zero, which moves the bound by about that much.

The bound needs only each index's deficit Lambda1 - Lambda2 - Lambda3 -
Lambda4, and for r <= 3 that is a closed form in tau's entries
(``_index_deficits``): |tau| at r = 1, and at r = 2, for tau = [[a, b],
[b, c]] with f^2 = |a|^2 + |b|^2, sigma1 - sigma2 =
hypot(f^2 - |ac - b^2|, |conj(a) b + conj(b) c|) / f (|c| when f = 0),
because a Givens QR of tau's first column leaves [[f, g], [0, h]] with
f g = |conj(a) b + conj(b) c|, f h = |det tau| and sigma1 +- sigma2 =
hypot(f +- h, g).  At r = 3, with m = ||tau||^2 / 3, A = ||adj tau||^2
(sum of sigma_i^2 sigma_j^2, i < j) and D2 = |det tau|^2 = ||adj adj
tau||^2 / (3 m) (adj adj tau = det(tau) tau), lambda1 = sigma1^2 is the
largest root of x^3 - 3m x^2 + A x - D2, by the trigonometric cubic
(Smith, Commun. ACM 4, 168, 1961) m + 2 sqrt(p) cos(arccos(q / p^(3/2)) / 3),
with p = m^2 - A/3 and q = m (p - A/6) + D2/2; then (sigma2 + sigma3)^2 =
(A - D2/lambda1) / lambda1 + 2 sqrt(D2/lambda1).  |det tau| from adj adj
tau errs by about eps sigma1^2 sigma2 (by a cofactor expansion, eps
sigma1^3), which keeps near-rank-one cores accurate.  arccos loses
accuracy on a clustered spectrum and near lambda1 = lambda2 (Kopp, Int. J.
Mod. Phys. C 19, 523, 2008), so a core with p <= 0.1 m^2,
lambda2 >= 0.9 lambda1 or 0 < m <= 1e-60 gets the batched SVD, as does
every core of a stack of at most 16 (N = 3), where one SVD is faster; on
the other cores the deficit is within about 1.3e-14 sigma1 of the SVD's,
and it is 0 where ||tau||^2 underflows to 0 (tau = 0, or every entry
below about 1e-162).  For r >= 4, full rank included, the deficits come
from the batched SVD of the cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BadIndex,
    BadShape,
    BadTrace,
    DimensionMismatch,
    NonFinite,
    NotFormA,
    NumericalInconsistency,
    OutOfRange,
    UnsupportedFamily,
    ZeroState,
)
from .linalg import HermitianEig, check_hermitian, check_psd, hermitian_eig, psd_root
from .linalg import takagi as takagi_factor
from .purestate import PureState, from_coefficients, generalized_concurrence_D
from .spectra import eof_of_bound

DENSITY_TOL = 1e-10
FORM_A_TOL = 1e-9
RANK_EPS = 1e-12
MEMBER_DROP = 1e-14

# S restricted to its nonzero rows and columns J = (r1, c1, r2, c2).
_S4 = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]], dtype=float)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density operator on the N x N bipartite Hilbert space.

    ``matrix`` is N^2 x N^2, Hermitian, positive semidefinite and unit
    trace; basis ordering follows the PureState vectorization (row-major
    over coefficient-matrix indices).  The density owns one ``eig``, its
    ``hermitian_eig`` (NotHermitian there), and one ``factor``, the F with
    F^H F = rho of ``_factor`` (NotPSD there, on every access), each built
    on first use, kept and read-only.  The densities qconc builds have a
    read-only ``matrix``; one built directly must not be written into, or
    ``eig`` and ``factor`` go stale.
    """

    dim: int
    matrix: np.ndarray

    @cached_property
    def eig(self) -> HermitianEig:
        eig = hermitian_eig(self.matrix)
        eig.eigenvalues.flags.writeable = eig.eigenvectors.flags.writeable = False
        return eig

    @cached_property
    def factor(self) -> np.ndarray:
        F = _factor(self.eig)
        F.flags.writeable = False
        return F


@dataclass(frozen=True)
class SIndex:
    """Canonical index quadruple (i, p, j, q) with i < j, p < q, 1-based."""

    i: int
    p: int
    j: int
    q: int

    def __post_init__(self):
        if min(self.i, self.p, self.j, self.q) < 1:
            raise BadIndex(f"indices must be >= 1, got {self}")
        if not (self.i < self.j and self.p < self.q):
            raise BadIndex(f"canonical form needs i < j and p < q, got {self}")

    @classmethod
    def canonical(cls, i: int, p: int, j: int, q: int) -> "SIndex":
        """Canonicalize any ordered quadruple with i != j and p != q.

        The four orderings (i,p,j,q), (j,q,i,p), (i,q,j,p), (j,p,i,q) select
        the same minor up to sign; exactly one has both pairs increasing.
        """
        if i == j or p == q:
            raise BadIndex(f"need i != j and p != q, got {(i, p, j, q)}")
        if i > j:
            i, p, j, q = j, q, i, p
        if p > q:
            p, q = q, p
        return cls(i, p, j, q)

    def astuple(self) -> tuple[int, int, int, int]:
        return self.i, self.p, self.j, self.q


@dataclass(frozen=True)
class LambdaSpectrum:
    """Top four singular values (descending) of sqrt(rho) S conj(sqrt(rho))."""

    values: tuple[float, float, float, float]

    def deficit(self, clamp: bool = True) -> float:
        """Lambda1 - Lambda2 - Lambda3 - Lambda4, clamped at 0 by default."""
        v = self.values
        d = v[0] - v[1] - v[2] - v[3]
        return max(0.0, d) if clamp else d


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Weighted pure-state ensemble {(p_a, psi_a)} realizing a density matrix."""

    members: tuple[tuple[float, PureState], ...]

    def density(self) -> np.ndarray:
        return mix_pure_states(self.weights(), [psi for _, psi in self.members]).matrix.copy()

    def weights(self) -> np.ndarray:
        return np.array([p for p, _ in self.members])

    @classmethod
    def from_rows(cls, W: np.ndarray, N: int) -> "Decomposition":
        """Ensemble of the rows of W, read as subnormalized N x N states.

        Rows with squared norm at most MEMBER_DROP are dropped; weights sum
        to 1.  Raises BadShape unless W is 2-D with rows of length N^2,
        NonFinite when any row has a NaN or infinite entry, and ZeroState
        when no row is left, as for all-zero rows.
        """
        W = np.asarray(W)
        if W.ndim != 2 or W.shape[1] != N * N:
            raise BadShape(f"expected rows of length N^2 = {N * N}, got shape {W.shape}")
        if not np.isfinite(W).all():
            raise NonFinite("decomposition rows have NaN or infinite entries")
        members = []
        for w in W:
            p = float(np.vdot(w, w).real)
            if p > MEMBER_DROP:
                members.append((p, from_coefficients(w.reshape(N, N), renormalize=True)))
        if not members:
            raise ZeroState(f"no row has squared norm above {MEMBER_DROP}")
        total = math.fsum(p for p, _ in members)
        return cls(tuple((p / total, psi) for p, psi in members))


def validate_density(M, N: int) -> DensityMatrix:
    """Validate an N^2 x N^2 array as a density matrix.

    Hermiticity is tested by ``check_hermitian``, and positivity by
    ``check_psd`` on the ``eig`` of the returned (A + A^H) / 2, both on A over
    its largest real or imaginary part where that exceeds 1 (as in no
    density), so none overflows.

    Raises
    ------
    BadShape, NonFinite, NotHermitian, NotPSD, BadTrace
        For the respective violated property.
    """
    A = np.asarray(M, dtype=complex)
    if N < 2:
        raise BadShape(f"factor dimension must be >= 2, got {N}")
    if A.shape != (N * N, N * N):
        raise BadShape(f"expected shape {(N * N, N * N)}, got {A.shape}")
    if not np.isfinite(A).all():
        raise NonFinite("density matrix has NaN or infinite entries")
    big = max(float(np.abs(A.real).max()), float(np.abs(A.imag).max()), 1.0)
    B = check_hermitian(A / big)
    rho = _read_only_density(N, 0.5 * (B + B.conj().T))
    check_psd(rho.eig)
    tr = sum(A.diagonal().real.tolist())
    if abs(tr - 1.0) > DENSITY_TOL:
        raise BadTrace(f"trace {tr!r} differs from 1 by more than {DENSITY_TOL}")
    # A / 1.0 is A bit for bit; a scaled density can pass only at the trace tolerance's edge.
    return rho if big == 1.0 else _read_only_density(N, 0.5 * (A + A.conj().T))


def _read_only_density(N: int, M: np.ndarray) -> DensityMatrix:
    """The DensityMatrix of a fresh array M, marked read-only so that its cached eig and factor cannot go stale."""
    M.flags.writeable = False
    return DensityMatrix(N, M)


def pure_density(psi: PureState) -> DensityMatrix:
    """Rank-one density matrix of a pure state, ``mix_pure_states([1.0], [psi])`` bit for bit."""
    return mix_pure_states([1.0], [psi])


def mix_pure_states(weights, states) -> DensityMatrix:
    """Mixture of pure states of one N; finite weights >= 0, not all zero, normalized to sum 1.

    Weights whose sum overflows raise OutOfRange.
    """
    w = np.asarray(weights, dtype=float)
    if w.size != len(states) or not (np.isfinite(w).all() and (w >= 0.0).all() and w.any()):
        raise OutOfRange("weights must be finite, nonnegative and not all zero, one per state")
    dim = states[0].dim
    if any(psi.dim != dim for psi in states):
        raise DimensionMismatch("all mixed states need the same N")
    try:
        total = math.fsum(w.tolist())
    except OverflowError:
        raise OutOfRange("weights sum past the float range") from None
    w = w / total
    rho = np.zeros((dim * dim, dim * dim), dtype=complex)
    for wk, psi in zip(w, states):
        z = psi.vector()
        z = z / np.linalg.norm(z)
        rho += wk * np.outer(z, z.conj())
    return _read_only_density(dim, 0.5 * (rho + rho.conj().T))


def eigen_vectors_subnormalized(rho: DensityMatrix) -> np.ndarray:
    """Orthogonal eigenvectors scaled so that <v_k|v_k> = eigenvalue, as read-only rows.

    Returns a C-contiguous (r, N^2) array, eigenvalues descending; only
    eigenvalues above 1e-12 contribute.  The outer-product sum of the rows
    reconstructs rho within 1e-9.  The rows come from ``rho.eig``, the
    density's one eigendecomposition.  Eigenvalues below -1e-10 raise NotPSD.
    """
    V = _rows(check_psd(rho.eig))
    V.flags.writeable = False
    return V


def _rows(eig: HermitianEig) -> np.ndarray:
    """The rows sqrt(w_k) v_k^T of the eigenvalues w_k above RANK_EPS."""
    w, V = eig
    keep = w > RANK_EPS
    return np.ascontiguousarray((V[:, keep] * np.sqrt(w[keep])).T)


def _factor(eig: HermitianEig) -> np.ndarray:
    """The smallest factor F with F^H F = rho that rho's eigendecomposition gives; ``DensityMatrix.factor`` keeps it.

    Rank r < N^2: F = conj(V), the r x N^2 subnormalized eigenvector rows,
    so that F S F^T is tau.  Full rank: F = sqrt(rho).  Eigenvalues below
    -1e-10 raise NotPSD.
    """
    if check_psd(eig).eigenvalues[-1] > RANK_EPS:
        return psd_root(eig)
    return _rows(eig).conj()


def canonical_indices(N: int) -> list[SIndex]:
    """All canonical quadruples for factor dimension N, lexicographic."""
    return [
        SIndex(i, p, j, q)
        for i in range(1, N + 1)
        for j in range(i + 1, N + 1)
        for p in range(1, N + 1)
        for q in range(p + 1, N + 1)
    ]


def _quadruple_rows(i: int, p: int, j: int, q: int, N: int) -> list[int]:
    """0-based rows J = (r1, c1, r2, c2) of an ordered 1-based quadruple, where S places S4."""
    return [N * (i - 1) + p - 1, N * (j - 1) + q - 1, N * (i - 1) + q - 1, N * (j - 1) + p - 1]


def _support(idx: SIndex, N: int) -> list[int]:
    """The ``_quadruple_rows`` of a canonical index: S's nonzero rows and columns."""
    if max(idx.j, idx.q) > N:
        raise BadIndex(f"index {idx} outside 1..{N}")
    return _quadruple_rows(*idx.astuple(), N)


@lru_cache(maxsize=16)
def _support_table(N: int) -> np.ndarray:
    """Rows J of every canonical index, shape (C(N,2)^2, 4), in canonical order."""
    table = np.array([_support(idx, N) for idx in canonical_indices(N)])
    table.flags.writeable = False
    return table


def _tau_cores(X: np.ndarray) -> np.ndarray:
    """X S4 X^T, index-major: X is (r, 4, ...) and the cores are (r, r, ...); tau for X = conj(V[:, J]).

    The axes after the first two are index axes, such as the K indices of
    the one gather ``F.take(J.T, axis=1)``, so every product runs along
    them.  Formed elementwise as A + A^T with A = x0 x1^T - x2 x3^T over
    the columns x0 .. x3 of X, so the result is exactly symmetric.
    """
    x0, x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
    A = x0[:, None] * x1[None] - x2[:, None] * x3[None]
    return A + A.swapaxes(0, 1)


def _spectra(F: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Lambda spectra of the indices with rows J (shape (K, 4)); (K, 4), descending.

    F is the (r, N^2) ``DensityMatrix.factor``.  S = P S4 P^T with P the
    N^2 x 4 selection of the rows J, so F S F^T = X S4 X^T with X = F[:, J],
    whose nonzero singular values are the spectrum (Mintert, Kus,
    Buchleitner, PRL 92, 167902).  For r <= 4 the r x r core X S4 X^T is
    tau itself (F = conj(V)); for r > 4 the QR factorization X = Q Rx leaves
    the 4 x 4 core Rx S4 Rx^T.  X is one index-major gather (r, 4, K); the
    batched QR and SVD take its (K, ...) transposes.  Fewer than four values
    are padded with zeros.
    """
    X = F.take(J.T, axis=1)  # X[:, :, k] = F[:, J[k]]
    if len(X) > 4:
        X = np.linalg.qr(X.transpose(2, 0, 1), mode="r").transpose(1, 2, 0)
    lam = np.linalg.svd(_tau_cores(X).transpose(2, 0, 1), compute_uv=False)
    if lam.shape[1] < 4:
        lam = np.concatenate([lam, np.zeros((len(lam), 4 - lam.shape[1]))], axis=1)
    return lam


def _deficits(lam: np.ndarray) -> np.ndarray:
    return lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]


def _index_deficits(F: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Signed deficits Lambda1 - Lambda2 - Lambda3 - Lambda4 of the indices with rows J, (K,).

    F is the (r, N^2) ``DensityMatrix.factor``.  For r <= 3 the deficit is
    sigma1 - ... - sigma_r of the core tau in the module docstring's closed
    forms, with no LAPACK call (at r = 3, none for the cores the closed
    form resolves), on the index-major cores of one gather, where a, b
    and c are contiguous K-vectors at r = 2; there the only cancellation,
    f^2 - |det tau|, keeps the error at about eps ||tau||, as in an SVD.
    For r >= 4 it is ``_deficits`` of ``_spectra``.
    """
    if len(F) > 3:
        return _deficits(_spectra(F, J))
    X = F.take(J.T, axis=1)
    if len(F) == 1:
        x = X[0]
        return 2.0 * np.abs(x[0] * x[1] - x[2] * x[3])
    T = _tau_cores(X)
    if len(F) == 3:
        return _rank_three_deficits(T.transpose(2, 0, 1))
    a, b, c = T[0, 0], T[0, 1], T[1, 1]
    f = np.hypot(np.abs(a), np.abs(b))
    fg = np.abs(a.conj() * b + b.conj() * c)
    fh = np.abs(a * c - b * b)
    d = np.abs(c)  # f = 0: tau = [[0, 0], [0, c]]
    np.divide(np.hypot(f * f - fh, fg), f, out=d, where=f > 0.0)
    return d


# Row-major positions of M[i+1, j+1], M[i+2, j+2], M[i+1, j+2] and M[i+2, j+1]
# (indices mod 3) for each (i, j) of a 3 x 3 matrix M: the cofactor C_ij is
# the first product minus the second.
_COFACTOR_TERMS = np.array(
    [[3 * ((i + u) % 3) + (j + v) % 3 for i in range(3) for j in range(3)] for u, v in ((1, 1), (2, 2), (1, 2), (2, 1))]
)


def _cofactors(M: np.ndarray) -> np.ndarray:
    """Cofactor matrices of the row-major 3 x 3 matrices M, (K, 9)."""
    G = M[:, _COFACTOR_TERMS]
    return G[:, 0] * G[:, 1] - G[:, 2] * G[:, 3]


def _sq_norms(M: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of the rows of M, (K,)."""
    return np.einsum("ki,ki->k", M, M.conj()).real


def _rank_three_deficits(T: np.ndarray) -> np.ndarray:
    """sigma1 - sigma2 - sigma3 of each 3 x 3 core in T, (K,), by the module docstring's closed form.

    A core that form cannot resolve, and every core of a stack of at most
    16, where one SVD is faster, gets the batched SVD instead.
    """
    K = len(T)
    if K <= 16:
        lam = np.linalg.svd(T, compute_uv=False)
        return lam[:, 0] - lam[:, 1] - lam[:, 2]
    T9 = T.reshape(K, 9)
    C = _cofactors(T9)
    m = _sq_norms(T9) / 3.0
    A = _sq_norms(C)
    live = m > 1e-60  # below it, m^3 and p^(3/2) leave the normal floats
    D2 = np.divide(_sq_norms(_cofactors(C)), 3.0 * m, out=np.zeros(K), where=live)
    mm = m * m
    p = mm - A / 3.0
    pc = np.maximum(p, 0.1 * mm)  # p on every core kept below
    sp = np.sqrt(pc)
    x = np.divide(m * (p - A / 6.0) + 0.5 * D2, pc * sp, out=np.zeros(K), where=live)
    lam1 = m + 2.0 * sp * np.cos(np.arccos(np.clip(x, -1.0, 1.0)) / 3.0)
    u = np.divide(1.0, lam1, out=np.zeros(K), where=live)
    s2 = np.maximum(u * (A - D2 * u) + 2.0 * np.sqrt(D2 * u), 0.0)  # (sigma2 + sigma3)^2
    d = np.sqrt(lam1) - np.sqrt(s2)
    mu = 0.9 * lam1  # given the p test, the cubic is negative at mu iff lambda2 < mu
    # d = 0 where m underflows to 0, as at tau = 0.
    ok = (live & (p > 0.1 * mm) & (((mu - 3.0 * m) * mu + A) * mu < D2)) | (m == 0.0)
    bad = np.flatnonzero(~ok)
    if bad.size:
        lam = np.linalg.svd(T[bad], compute_uv=False)
        d[bad] = lam[:, 0] - lam[:, 1] - lam[:, 2]
    return d


def _deficit_norm(d: np.ndarray, clamp: bool) -> float:
    """sqrt of the summed squared deficits, each floored at 0 with ``clamp``."""
    if clamp:
        d = np.maximum(d, 0.0)
    return math.sqrt(math.fsum((d * d).tolist()))


def s_matrix_raw(i: int, p: int, j: int, q: int, N: int) -> np.ndarray:
    """Minor-extraction matrix for an ordered quadruple, no canonicalization.

    Entries +1 at (p + N(i-1), q + N(j-1)) and its transpose position, -1 at
    (q + N(i-1), p + N(j-1)) and its transpose position (1-based).  Swapping
    p and q (or i and j) negates the matrix; i = j or p = q gives zero.
    """
    for idx in (i, p, j, q):
        if not (1 <= idx <= N):
            raise BadIndex(f"index {idx} outside 1..{N}")
    S = np.zeros((N * N, N * N))
    J = _quadruple_rows(i, p, j, q, N)
    np.add.at(S, np.ix_(J, J), _S4)  # coinciding rows (i = j or p = q) cancel
    return S


def s_matrix(idx: SIndex, N: int) -> np.ndarray:
    """Minor-extraction matrix for a canonical index quadruple.

    The quadratic form satisfies  <psi| S |psi*> = 2 (a_ip a_jq - a_iq a_jp)*
    for any state with coefficient matrix a.
    """
    return s_matrix_raw(*idx.astuple(), N)


def d_ipjq_pure(psi: PureState, idx: SIndex) -> float:
    """|<psi| S |psi*>| for one canonical index, equal to 2 |minor|.

    Both evaluation routes (the matrix quadratic form and the direct 2x2
    minor of the coefficient matrix) are computed and cross-checked to
    1e-12.
    """
    i, p, j, q = idx.astuple()
    if max(j, q) > psi.dim:
        raise BadIndex(f"index {idx} outside 1..{psi.dim}")
    A = psi.coeffs
    minor = 2.0 * abs(A[i - 1, p - 1] * A[j - 1, q - 1] - A[i - 1, q - 1] * A[j - 1, p - 1])
    z = psi.vector()
    form = abs(np.vdot(z, s_matrix(idx, psi.dim) @ z.conj()))
    if abs(minor - form) > 1e-12:
        raise NumericalInconsistency(
            f"minor form {minor!r} and matrix form {form!r} disagree at {idx}"
        )
    return float(form)


def lambda_spectrum(rho: DensityMatrix, idx: SIndex) -> LambdaSpectrum:
    """Top four singular values of sqrt(rho) S conj(sqrt(rho)), descending.

    These coincide with the eigenvalues of
    sqrt( sqrt(rho) S rho* S sqrt(rho) ).  The matrix has rank at most four
    because S has only four nonzero rows.  They are taken from tau (see
    ``tau_matrix``) when rho is rank-deficient and from the 4 x 4 QR core of
    sqrt(rho)[:, J] at full rank; eigenvalues of rho at or below 1e-12 count
    as zero.

    Raises
    ------
    BadIndex
        If the quadruple does not fit the density's dimension.
    """
    lam = _spectra(rho.factor, np.array([_support(idx, rho.dim)]))
    return LambdaSpectrum(tuple(float(x) for x in lam[0]))


def _tau(V: np.ndarray, J) -> np.ndarray:
    """tau = V[J]^H S4 conj(V[J]) over the rows V of eigen_vectors_subnormalized."""
    return _tau_cores(V[:, J].conj())


def tau_matrix(rho: DensityMatrix, idx: SIndex) -> np.ndarray:
    """Complex symmetric matrix tau_kl = <v_k| S |v_l*> over eigenvectors.

    The v_k are the subnormalized eigenvectors of rho with eigenvalues above
    1e-12; tau's singular values equal the Lambda spectrum (padded with
    zeros), and on a rank-deficient rho they are how ``lambda_spectrum`` and
    ``d_lower_bound`` compute it.  Only the rows J of the eigenvectors
    enter: tau = V[J]^H S4 conj(V[J]).
    """
    return _tau(eigen_vectors_subnormalized(rho), _support(idx, rho.dim))


def optimal_index_decomposition(rho: DensityMatrix, idx: SIndex) -> Decomposition:
    """Decomposition making <w_k| S |w_l*> diagonal with entries Lambda_k.

    Takagi-factorizing tau gives a unitary U with U tau U^T diagonal; the
    ensemble |w_k> = sum_l conj(U_kl) |v_l> then realizes rho and carries the
    Lambda spectrum on its diagonal quadratic forms.
    """
    V = eigen_vectors_subnormalized(rho)
    U, _ = takagi_factor(_tau(V, _support(idx, rho.dim)))
    return Decomposition.from_rows(U.conj() @ V, rho.dim)


def d_lower_bound(rho: DensityMatrix, m: int, n: int, clamp: bool = True) -> float:
    """Closed-form lower bound on the decomposition-averaged concurrence D.

    Evaluates (mn/4) sqrt( sum over ordered quadruples of deficit^2 ) where
    deficit = Lambda1 - Lambda2 - Lambda3 - Lambda4 per index.  The four
    order-equivalent quadruples share one Lambda spectrum and quadruples
    with i = j or p = q vanish, so the sum runs over canonical indices with
    weight 4.  With ``clamp`` (the default) each deficit is floored at 0,
    which reproduces the established closed form at N = 2; disabling it
    evaluates the literal signed expression.  The squared deficits are
    added with compensated summation.  The deficits come from
    ``index_deficits`` (closed forms at rank <= 3, see the module
    docstring), with eigenvalues of rho at or below 1e-12 counted as zero,
    which moves the bound by about that much.

    The bound is unchanged by swapping the two subsystems, and by local
    unitaries U (x) V at N = 2 and on pure states.  For mixed states at
    N >= 3 the clamped per-index sum depends on the local basis, so
    ``qconc invariance`` on such a density can report a nonzero
    ``max_dev_D_bound``.

    Raises
    ------
    OutOfRange
        For a profile that no N x N pure state has (``check_profile``).
    """
    check_profile(m, n, rho.dim)
    return bound_from_deficits(index_deficits(rho), m, n, clamp)


def check_profile(m: int, n: int, N: int) -> None:
    """Raise OutOfRange unless an N x N pure state can have the (m, n) profile: m >= 1, n >= 2, m n <= N."""
    if m < 1 or n < 2 or m * n > N:
        raise OutOfRange(f"need m >= 1, n >= 2 and m*n <= N = {N}, got m={m} n={n}")


def index_deficits(rho: DensityMatrix) -> np.ndarray:
    """Signed deficits Lambda1 - Lambda2 - Lambda3 - Lambda4, one per canonical index.

    In ``canonical_indices`` order, from rho's ``eig``, by the module
    docstring's closed forms at rank <= 3 (with the batched SVD for the
    rank-3 cores they leave, and at N = 3) and the batched SVD of the cores
    above.
    """
    return _index_deficits(rho.factor, _support_table(rho.dim))


def bound_from_deficits(deficits: np.ndarray, m: int, n: int, clamp: bool = True) -> float:
    """The ``d_lower_bound`` of the ``index_deficits`` of a density."""
    if m < 1 or n < 2:
        raise OutOfRange(f"need m >= 1 and n >= 2, got m={m} n={n}")
    return float(m * n / 2.0) * _deficit_norm(deficits, clamp)


def eof_lower_bound(rho: DensityMatrix, m: int, n: int) -> float:
    """Entanglement-of-formation bound ``spectra.eof_of_bound`` of the clamped D bound.

    Raises
    ------
    UnsupportedFamily
        For n outside {2, 3}, before the bound is computed.
    OutOfRange
        If D exceeds the family's maximum beyond roundoff.
    """
    if n not in (2, 3):
        raise UnsupportedFamily(f"no spectrum family for n = {n}")
    return eof_of_bound(d_lower_bound(rho, m, n, clamp=True), m, n)


def ppt_check(rho: DensityMatrix) -> tuple[bool, float]:
    """Partial transpose on the second factor and its minimum eigenvalue.

    A negative eigenvalue below -1e-10 certifies entanglement; a
    nonnegative spectrum (is_ppt true) is necessary but not sufficient for
    separability.
    """
    N = rho.dim
    arr = rho.matrix.reshape(N, N, N, N)
    pt = arr.transpose(0, 3, 2, 1).reshape(N * N, N * N)
    w = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
    min_eig = float(w[0])
    return min_eig >= -1e-10, min_eig


def form_a_check(rho: DensityMatrix) -> bool:
    """Whether rho is supported on N = 3 states with equal rows 2 and 3.

    Every eigenvector with eigenvalue above 1e-12, read as a 3 x 3
    coefficient matrix, must have identical second and third rows within
    FORM_A_TOL = 1e-9; equivalently the support lies in the corresponding
    6-dimensional subspace.
    """
    if rho.dim != 3:
        raise DimensionMismatch(f"the rows-2=3 class lives at N = 3, got N = {rho.dim}")
    return _factor_form_a(rho.factor)


def _factor_form_a(F: np.ndarray) -> bool:
    """The form-(a) test of the eigenvector rows, read from their conjugates F below rank 9; no rank-9 density passes."""
    if len(F) == 9:
        return False
    for v in F:
        A = (v / np.linalg.norm(v)).reshape(3, 3)
        if np.linalg.norm(A[1] - A[2]) > FORM_A_TOL:
            return False
    return True


def _rank_two_support(V: np.ndarray, N: int) -> bool:
    """Whether rho_A or rho_B of the eigenvector rows V has rank <= 2, so every member of every decomposition has Schmidt rank <= 2.

    Rank <= 2 means that the third singular value s_3 of the N x (r N)
    stack of coefficient matrices (of their transposes for rho_B) has
    s_3^2 <= RANK_EPS; at N = 2 there is none.
    """
    A = V.reshape(-1, N, N)
    s = np.linalg.svd(np.stack([A.transpose(1, 0, 2), A.transpose(2, 0, 1)]).reshape(2, N, -1), compute_uv=False)
    return bool(s[:, 2:].max(axis=1, initial=0.0).min() ** 2 <= RANK_EPS)


FORM_A_INDICES = (SIndex(1, 1, 2, 2), SIndex(1, 1, 2, 3), SIndex(1, 2, 2, 3))
_FORM_A_SUPPORT = np.array([_support(idx, 3) for idx in FORM_A_INDICES])


def example_3x3_bound(rho: DensityMatrix, clamp: bool = True) -> float:
    """Three-term bound sqrt(2) sqrt(sum of squared deficits) on the rows-2=3 class.

    Only the three canonical indices with row pair (1, 2) contribute
    independently on this class: the row-(1,3) spectra duplicate them and
    the row-(2,3) spectra vanish, collapsing the full canonical sum of
    ``d_lower_bound(rho, 1, 2)`` to this expression.  Both must agree to
    1e-10.  The deficits come from the kernel of ``index_deficits``.

    Raises
    ------
    NotFormA
        If the support condition fails.
    """
    if rho.dim != 3 or not _factor_form_a(rho.factor):
        raise NotFormA("density is not supported on the rows-2=3 subspace")
    return float(math.sqrt(2.0) * _deficit_norm(_index_deficits(rho.factor, _FORM_A_SUPPORT), clamp))
