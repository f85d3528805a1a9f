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

Every spectrum comes from one eigendecomposition of rho.  On a
rank-deficient rho (rank r < N^2) it is the singular values of the r x r
matrix tau_x = V[J]^H S4 conj(V[J]) over the subnormalized eigenvectors V
(through its 4 x 4 QR core when r > 4); at full rank it comes from the 4 x 4
QR core of sqrt(rho)[:, J].  Eigenvalues at or below RANK_EPS = 1e-12 count
as zero, which moves the bound by about that much.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BadIndex,
    BadShape,
    BadTrace,
    DimensionMismatch,
    NonFinite,
    NotFormA,
    NotHermitian,
    NotPSD,
    NumericalInconsistency,
    OutOfRange,
    UnsupportedFamily,
)
from .linalg import HermitianEig, check_psd, hermitian_eig, psd_root
from .linalg import takagi as takagi_factor
from .purestate import PureState, from_coefficients, generalized_concurrence_D
from .spectra import eof_of_bound

DENSITY_TOL = 1e-10
RANK_EPS = 1e-12
MEMBER_DROP = 1e-14

# S restricted to its nonzero rows and columns J = (r1, c1, r2, c2).
_S4 = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]], dtype=float)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density operator on the N x N bipartite Hilbert space.

    ``matrix`` is N^2 x N^2, Hermitian, positive semidefinite and unit
    trace; basis ordering follows the PureState vectorization (row-major
    over coefficient-matrix indices).
    """

    dim: int
    matrix: np.ndarray


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
        return mix_pure_states(self.weights(), [psi for _, psi in self.members]).matrix

    def weights(self) -> np.ndarray:
        return np.array([p for p, _ in self.members])

    @classmethod
    def from_rows(cls, W: np.ndarray, N: int) -> "Decomposition":
        """Ensemble of the rows of W, read as subnormalized N x N states.

        Rows with squared norm at most MEMBER_DROP are dropped; weights sum to 1.
        """
        members = []
        for w in W:
            p = float(np.vdot(w, w).real)
            if p > MEMBER_DROP:
                members.append((p, from_coefficients(w.reshape(N, N), renormalize=True)))
        total = math.fsum(p for p, _ in members)
        return cls(tuple((p / total, psi) for p, psi in members))


def validate_density(M, N: int, tol: float = DENSITY_TOL) -> DensityMatrix:
    """Validate an N^2 x N^2 array as a density matrix.

    Raises
    ------
    BadShape, NonFinite, NotHermitian, NotPSD, BadTrace
        For the respective violated property (PSD allows eigenvalues down
        to ``-tol``; Hermiticity is relative to the Frobenius norm).
    """
    A = np.asarray(M, dtype=complex)
    if N < 2:
        raise BadShape(f"factor dimension must be >= 2, got {N}")
    if A.shape != (N * N, N * N):
        raise BadShape(f"expected shape {(N * N, N * N)}, got {A.shape}")
    if not np.isfinite(A).all():
        raise NonFinite("density matrix has NaN or infinite entries")
    scale = max(np.linalg.norm(A), 1.0)
    if np.linalg.norm(A - A.conj().T) > tol * scale:
        raise NotHermitian("density matrix is not Hermitian within tolerance")
    H = 0.5 * (A + A.conj().T)
    w = np.linalg.eigvalsh(H)
    if w[0] < -tol:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below {-tol}")
    tr = float(np.trace(H).real)
    if abs(tr - 1.0) > tol:
        raise BadTrace(f"trace {tr!r} differs from 1 by more than {tol}")
    return DensityMatrix(N, H)


def _projector(psi: PureState) -> np.ndarray:
    """|z><z| for the normalized vector z of psi."""
    z = psi.vector()
    z = z / np.linalg.norm(z)
    return np.outer(z, z.conj())


def pure_density(psi: PureState) -> DensityMatrix:
    """Rank-one density matrix of a pure state."""
    return DensityMatrix(psi.dim, _projector(psi))


def mix_pure_states(weights, states) -> DensityMatrix:
    """Convex mixture of pure states; weights are normalized to sum 1."""
    w = np.asarray(weights, dtype=float)
    if w.size != len(states) or np.any(w < 0.0):
        raise OutOfRange("weights must be nonnegative and match the state count")
    w = w / math.fsum(w.tolist())
    dim = states[0].dim
    rho = np.zeros((dim * dim, dim * dim), dtype=complex)
    for wk, psi in zip(w, states):
        rho += wk * _projector(psi)
    return DensityMatrix(dim, 0.5 * (rho + rho.conj().T))


def eigen_vectors_subnormalized(rho: DensityMatrix) -> np.ndarray:
    """Orthogonal eigenvectors scaled so that <v_k|v_k> = eigenvalue, as rows.

    Returns a C-contiguous (r, N^2) array, eigenvalues descending; only
    eigenvalues above 1e-12 contribute.  The outer-product sum of the rows
    reconstructs rho within 1e-9.
    """
    return _rows(hermitian_eig(rho.matrix))


def _rows(eig: HermitianEig) -> np.ndarray:
    """The rows sqrt(w_k) v_k^T of the eigenvalues w_k above RANK_EPS."""
    w, V = eig
    keep = w > RANK_EPS
    return np.ascontiguousarray((V[:, keep] * np.sqrt(w[keep])).T)


def _factor(eig: HermitianEig) -> np.ndarray:
    """The smallest factor F with F^H F = rho that rho's eigendecomposition gives.

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


def _support(idx: SIndex, N: int) -> list[int]:
    """0-based rows J = (r1, c1, r2, c2) of S's nonzero entries, in S4's order."""
    i, p, j, q = idx.astuple()
    if max(j, q) > N:
        raise BadIndex(f"index {idx} outside 1..{N}")
    return [N * (i - 1) + p - 1, N * (j - 1) + q - 1, N * (i - 1) + q - 1, N * (j - 1) + p - 1]


@lru_cache(maxsize=16)
def _support_table(N: int) -> np.ndarray:
    """Rows J of every canonical index, shape (C(N,2)^2, 4), in canonical order."""
    table = np.array([_support(idx, N) for idx in canonical_indices(N)])
    table.flags.writeable = False
    return table


def _tau_cores(X: np.ndarray) -> np.ndarray:
    """X S4 X^T for one (r, 4) matrix X or a stack of them; tau for X = conj(V[:, J])."""
    return X @ _S4 @ np.swapaxes(X, -1, -2)


def _spectra(F: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Lambda spectra of the indices with rows J (shape (K, 4)); (K, 4), descending.

    F is the (r, N^2) factor of ``_factor``.  S = P S4 P^T with P the
    N^2 x 4 selection of the rows J, so F S F^T = X S4 X^T with X = F[:, J],
    whose nonzero singular values are the spectrum (Mintert, Kus,
    Buchleitner, PRL 92, 167902).  For r <= 4 the r x r core X S4 X^T is
    tau itself (F = conj(V)); for r > 4 the QR factorization X = Q Rx leaves
    the 4 x 4 core Rx S4 Rx^T.  Fewer than four values are padded with zeros.
    """
    X = np.swapaxes(F.T[J], 1, 2)  # X[k] = F[:, J[k]]
    if X.shape[1] > 4:
        X = np.linalg.qr(X, mode="r")
    lam = np.linalg.svd(_tau_cores(X), compute_uv=False)
    if lam.shape[1] < 4:
        lam = np.concatenate([lam, np.zeros((len(lam), 4 - lam.shape[1]))], axis=1)
    return lam


def _deficits(lam: np.ndarray) -> np.ndarray:
    return lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]


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
    r1, c1 = N * (i - 1) + p - 1, N * (j - 1) + q - 1
    r2, c2 = N * (i - 1) + q - 1, N * (j - 1) + p - 1
    S[r1, c1] += 1.0
    S[c1, r1] += 1.0
    S[r2, c2] -= 1.0
    S[c2, r2] -= 1.0
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
    lam = _spectra(_factor(hermitian_eig(rho.matrix)), np.array([_support(idx, rho.dim)]))
    return LambdaSpectrum(tuple(float(x) for x in lam[0]))


def _tau(V: np.ndarray, J) -> np.ndarray:
    """tau = V[J]^H S4 conj(V[J]) over the rows V of eigen_vectors_subnormalized."""
    tau = _tau_cores(V[:, J].conj())
    return 0.5 * (tau + tau.T)


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
    added with compensated summation.  The spectra come from
    ``index_deficits``: from tau on a rank-deficient rho and from sqrt(rho)
    at full rank, with eigenvalues of rho at or below 1e-12 counted as zero,
    which moves the bound by about that much.

    The bound is unchanged by swapping the two subsystems, and by local
    unitaries U (x) V at N = 2 and on pure states.  For mixed states at
    N >= 3 the clamped per-index sum depends on the local basis, so
    ``qconc invariance`` on such a density can report a nonzero
    ``max_dev_D_bound``.
    """
    return bound_from_deficits(index_deficits(rho), m, n, clamp)


def index_deficits(rho: DensityMatrix) -> np.ndarray:
    """Signed deficits Lambda1 - Lambda2 - Lambda3 - Lambda4, one per canonical index.

    In ``canonical_indices`` order, from one eigendecomposition of rho.
    """
    return _deficits(_spectra(_factor(hermitian_eig(rho.matrix)), _support_table(rho.dim)))


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


def form_a_check(rho: DensityMatrix, tol: float = 1e-9) -> bool:
    """Whether rho is supported on N = 3 states with equal rows 2 and 3.

    Every eigenvector with eigenvalue above 1e-12, read as a 3 x 3
    coefficient matrix, must have identical second and third rows within
    ``tol``; equivalently the support lies in the corresponding
    6-dimensional subspace.
    """
    if rho.dim != 3:
        raise DimensionMismatch(f"the rows-2=3 class lives at N = 3, got N = {rho.dim}")
    return _rows_form_a(eigen_vectors_subnormalized(rho), tol)


def _rows_form_a(V: np.ndarray, tol: float = 1e-9) -> bool:
    for v in V:
        A = (v / np.linalg.norm(v)).reshape(3, 3)
        if np.linalg.norm(A[1] - A[2]) > tol:
            return False
    return True


FORM_A_INDICES = (SIndex(1, 1, 2, 2), SIndex(1, 1, 2, 3), SIndex(1, 2, 2, 3))
_FORM_A_SUPPORT = np.array([_support(idx, 3) for idx in FORM_A_INDICES])


def example_3x3_bound(rho: DensityMatrix, clamp: bool = True) -> float:
    """Three-term bound sqrt(2) sqrt(sum of squared deficits) on the rows-2=3 class.

    Only the three canonical indices with row pair (1, 2) contribute
    independently on this class: the row-(1,3) spectra duplicate them and
    the row-(2,3) spectra vanish, collapsing the full canonical sum of
    ``d_lower_bound(rho, 1, 2)`` to this expression.  Both must agree to
    1e-10.

    Raises
    ------
    NotFormA
        If the support condition fails.
    """
    eig = hermitian_eig(rho.matrix)
    if rho.dim != 3 or not _rows_form_a(_rows(eig)):
        raise NotFormA("density is not supported on the rows-2=3 subspace")
    lam = _spectra(_factor(eig), _FORM_A_SUPPORT)
    return float(math.sqrt(2.0) * _deficit_norm(_deficits(lam), clamp))
