"""Independent reference implementations used to cross-check library results.

These deliberately take different computational routes from the package:
the two-qubit concurrence goes through the spin-flipped product matrix
rho @ rho_tilde, the entanglement of formation goes through the
binary-entropy formula, roof members are scored one at a time through
their own Schmidt spectra, the D(1, 2) roof kernel is rebuilt on the
members' N^2-wide rows instead of the r x r cores, the tau cores
come from two batched matmuls with S4 instead of outer products, the
deficits of rank-one to rank-three cores come from a batched SVD instead
of the closed forms, the Lambda deficits and D(1, 2) cores are rebuilt
index by index on the (K, r, r) stacks the package used before it built
its cores index-major, and the roof search's skew-Hermitian basis is a
dense array of explicit matrices instead of an index map.
"""
import math

import numpy as np

from qconc.mixed import _rank_three_deficits

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


S4 = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]], dtype=float)


def tau_cores_matmul(X):
    """X S4 X^T for a stack of (r, 4) matrices X by two batched matmuls, the route of the package's old tau builder."""
    return X @ S4 @ np.swapaxes(X, -1, -2)


def core_deficits_svd(T):
    """sigma1 - sigma2 - sigma3 - sigma4 of each core in a (K, r, r) stack, by one batched SVD padded to four values."""
    lam = np.linalg.svd(T, compute_uv=False)
    lam = np.concatenate([lam, np.zeros((len(lam), max(0, 4 - lam.shape[1])))], axis=1)
    return lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]


def tau_cores_stacked(X):
    """X S4 X^T for a (K, r, 4) stack X, (K, r, r), by the package's old elementwise A + A^T over the last two axes."""
    x0, x1, x2, x3 = (X[..., i] for i in range(4))
    A = x0[..., :, None] * x1[..., None, :] - x2[..., :, None] * x3[..., None, :]
    return A + np.swapaxes(A, -1, -2)


def index_deficits_stacked(F, J):
    """The Lambda deficits of ``mixed._index_deficits`` on the (K, r, 4) gather F.T[J] and (K, r, r) cores.

    The same products and sums as the package, one index per stack entry:
    |tau| at rank 1, the rank-2 Givens closed form, ``_rank_three_deficits``
    at rank 3 and the batched SVD (after the 4 x 4 QR core above rank 4).
    """
    if len(F) == 1:
        x = F[0, J]
        return 2.0 * np.abs(x[:, 0] * x[:, 1] - x[:, 2] * x[:, 3])
    X = np.swapaxes(F.T[J], 1, 2)
    if len(F) > 4:
        X = np.linalg.qr(X, mode="r")
    T = tau_cores_stacked(X)
    if len(F) == 3:
        return _rank_three_deficits(T)
    if len(F) >= 4:
        lam = np.linalg.svd(T, compute_uv=False)
        return lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    a, b, c = T[:, 0, 0], T[:, 0, 1], T[:, 1, 1]
    f = np.hypot(np.abs(a), np.abs(b))
    fg = np.abs(a.conj() * b + b.conj() * c)
    fh = np.abs(a * c - b * b)
    d = np.abs(c)
    np.divide(np.hypot(f * f - fh, fg), f, out=d, where=f > 0.0)
    return d


def d12_cores_stacked(V, J):
    """The roof search's (r, K r) matrix [C_1 ... C_K] of cores C_x = V[:, J_x] S4 V[:, J_x]^T, from (K, r, r) stacks."""
    C = tau_cores_stacked(np.swapaxes(V.T[J], 1, 2))
    return np.ascontiguousarray(np.swapaxes(C, 0, 1).reshape(len(V), -1))


def minor_rows(N):
    """0-based rows (ip, jq, iq, jp) of every canonical index (i < j, p < q), in canonical order, (K, 4)."""
    return np.array([
        [i * N + p, j * N + q, i * N + q, j * N + p]
        for i in range(N) for j in range(i + 1, N) for p in range(N) for q in range(p + 1, N)
    ])


def minors(W, N):
    """All 2x2 minors a_ip a_jq - a_iq a_jp of each row's coefficient matrix, (t, K)."""
    X = W[:, minor_rows(N)]
    return X[..., 0] * X[..., 1] - X[..., 2] * X[..., 3]


def minor_jacobian(W, N):
    """The minors (t, K) of each row and their Jacobian d minor_x / dw, (t, K, N^2), zero off the rows J_x."""
    T = minor_rows(N)
    J = np.zeros((len(W), len(T), N * N), dtype=complex)
    J[:, np.arange(len(T))[:, None], T] = W[:, T] @ S4
    return minors(W, N), J


def d12_members(W, N):
    """D(1, 2) of rank-<=2 rows W (t, N^2), 2 ||minors||, and its row gradient G = 2 J^H u, u = minors / ||minors||.

    The roof search's kernel as it was before it moved onto the cores:
    a gather of every row at the minors' rows and a zero-filled Jacobian.
    """
    y, J = minor_jacobian(W, N)
    norms = np.linalg.norm(y, axis=1)
    u = y / np.where(norms > 0.0, norms, 1.0)[:, None]
    return 2.0 * norms, 2.0 * np.einsum("kx,kxi->ki", u, J.conj())


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


def skew_basis(t):
    """The roof search's orthonormal skew-Hermitian basis as a dense (t^2, t, t) array, built element by element.

    Over j <= l row by row: i e_jj, or (e_jl - e_lj) / sqrt 2 then
    i (e_jl + e_lj) / sqrt 2.  Its products with a t^2 x t^2 reshape are the
    coordinate maps that ``roofsearch`` reads through an index map instead.
    """
    out = []
    for j in range(t):
        for l in range(j, t):
            B = np.zeros((t, t), dtype=complex)
            if j == l:
                B[j, j] = 1j
                out.append(B)
                continue
            B[j, l], B[l, j] = 1.0, -1.0
            out.append(B / math.sqrt(2.0))
            B = np.zeros((t, t), dtype=complex)
            B[j, l] = B[l, j] = 1j
            out.append(B / math.sqrt(2.0))
    return np.array(out)


def probe_loop(value, Q, scan):
    """(F, Q') of the lowest two-row rotation exp(-eta B) Q, scored one at a time.

    The roof search's probe as it was before batching: eta = pi sqrt(2) j / scan
    for j = 1 .. scan - 1 along each two-row element of ``skew_basis``, ``value`` called once per
    point, and the first strict minimum kept.  None when t = 1.
    """
    best = None
    for B in [b for b in skew_basis(Q.shape[0]) if not b.diagonal().any()]:
        theta, U = np.linalg.eigh(1j * B)
        UhQ = U.conj().T @ Q
        for j in range(1, scan):
            Qn = (U * np.exp(1j * (math.pi * math.sqrt(2.0) * j / scan) * theta)) @ UhQ
            Fn = value(Qn)
            if best is None or Fn < best[0]:
                best = (Fn, Qn)
    return best


def scan_loop(value, Q, H, scan):
    """Index of the lowest of F(Q) and F(exp(-eta_j H) Q), eta_j = 2 pi j / (scan max|eig H|), one call each."""
    theta, U = np.linalg.eigh(1j * H)
    cap = math.pi / float(np.max(np.abs(theta)))
    UhQ = U.conj().T @ Q
    grid = [value(Q)] + [value((U * np.exp(1j * (2.0 * cap * j / scan) * theta)) @ UhQ) for j in range(1, scan)]
    return min(range(scan), key=grid.__getitem__)


def ball_lsq_projected(a, blocks, iterations=5000):
    """argmin ||a + sum_g B_g x_g|| subject to ||x_g|| <= 1, by projected gradient descent.

    All blocks move at once with step 1 / ||[B_1 ... B_g]||_2^2, and each
    block is then scaled back onto its unit ball; no SVD of a block and no
    secular equation.  Converges linearly when the stacked blocks have full
    column rank.
    """
    B = np.hstack(blocks)
    cuts = np.cumsum([b.shape[1] for b in blocks])[:-1]
    step = 1.0 / np.linalg.norm(B, 2) ** 2
    x = np.zeros(B.shape[1])
    for _ in range(iterations):
        x = x - step * (B.T @ (a + B @ x))
        x = np.concatenate([part / max(1.0, np.linalg.norm(part)) for part in np.split(x, cuts)])
    return np.split(x, cuts)
