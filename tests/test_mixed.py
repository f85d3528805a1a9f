"""Tests for mixed-state lower bounds via the minor-extraction spectra."""
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qconc import (
    Decomposition,
    DensityMatrix,
    SIndex,
    canonical_indices,
    d_ipjq_pure,
    d_lower_bound,
    eof_lower_bound,
    eof_pure,
    example_3x3_bound,
    form_a_check,
    from_coefficients,
    generalized_concurrence_D,
    index_deficits,
    lambda_spectrum,
    mix_pure_states,
    optimal_index_decomposition,
    ppt_check,
    pure_density,
    s_matrix,
    tau_matrix,
    validate_density,
)
from qconc.errors import (
    BadIndex,
    BadShape,
    BadTrace,
    DimensionMismatch,
    InputError,
    NonFinite,
    NotFormA,
    NotHermitian,
    NotPSD,
    NumericalInconsistency,
    OutOfRange,
    UnsupportedFamily,
)
from qconc import mixed
from qconc.linalg import hermitian_eig, sqrt_psd
from qconc.mixed import (
    RANK_EPS,
    _deficits,
    _factor,
    _index_deficits,
    _rank_two_support,
    _spectra,
    _support,
    _support_table,
    _tau_cores,
    bound_from_deficits,
    eigen_vectors_subnormalized,
    s_matrix_raw,
)
from qconc.roofopt import AverageD, RoofProblem, minimize_roof, transform_decomposition
from qconc.roofsearch import d12_cores
from qconc.sampling import (
    generator,
    haar_unitary,
    random_form_a_mixture,
    random_form_a_state,
    random_pure,
)
from qconc.spectra import eof_from_spectrum, eof_of_d

from conftest import random_density, random_separable_density
from oracles import (
    core_deficits_svd,
    d12_cores_stacked,
    d_bound_dense,
    index_deficits_stacked,
    lambda_spectra_dense,
    tau_cores_matmul,
    wootters_concurrence,
)

BELL = from_coefficients(np.eye(2) / np.sqrt(2))
IDX2 = SIndex(1, 1, 2, 2)


def werner(p):
    """p |Phi+><Phi+| + (1-p) I/4 on two qubits."""
    phi = pure_density(BELL).matrix
    return DensityMatrix(2, p * phi + (1.0 - p) * np.eye(4) / 4.0)


def test_validate_density_errors():
    with pytest.raises(BadShape):
        validate_density(np.eye(3) / 3.0, 2)
    with pytest.raises(BadShape):
        validate_density(np.eye(1), 1)
    bad = np.eye(4) / 4.0 + 0.1j * np.eye(4)
    with pytest.raises(NotHermitian):
        validate_density(bad, 2)
    with pytest.raises(NotPSD):
        validate_density(np.diag([0.7, 0.5, -0.1, -0.1]), 2)
    with pytest.raises(BadTrace):
        validate_density(np.eye(4) / 5.0, 2)
    for bad_value in (np.nan, np.inf):
        bad = np.eye(4) / 4.0
        bad[1, 2] = bad_value
        with pytest.raises(NonFinite):
            validate_density(bad, 2)
    rho = validate_density(np.eye(4) / 4.0, 2)
    assert rho.dim == 2


@given(
    N=st.integers(2, 4),
    rank=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    skew=st.floats(0.0, 1e-11),
    above_one=st.booleans(),
)
@example(N=2, rank=1, seed=0, skew=1e-11, above_one=True)
@example(N=3, rank=5, seed=1, skew=1e-11, above_one=False)
def test_every_density_qconc_builds_is_exactly_hermitian(N, rank, seed, skew, above_one):
    """validate_density (entries up to 1 and above 1), mix_pure_states and pure_density store M = M^H bit for bit."""
    g = generator(seed)
    mixture = random_density(N, rank, seed)
    A = mixture.matrix
    if above_one:
        A = np.zeros((N * N, N * N), dtype=complex)
        A[0, 0] = 1.0 + 3e-11
    E = g.standard_normal((N * N, N * N)) + 1j * g.standard_normal((N * N, N * N))
    A = A + skew * E / np.linalg.norm(E)
    assert (np.abs(A).max() > 1.0) == above_one
    for rho in (validate_density(A, N), mixture, pure_density(random_pure(N, g))):
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)


def test_mix_pure_states_normalizes_weights():
    rho = mix_pure_states([2.0, 2.0], [BELL, BELL])
    np.testing.assert_allclose(rho.matrix, pure_density(BELL).matrix, atol=1e-12)
    with pytest.raises(OutOfRange):
        mix_pure_states([1.0, -1.0], [BELL, BELL])


@pytest.mark.parametrize(
    "weights,states,error",
    [
        ([math.nan, 1.0], [BELL, BELL], OutOfRange),
        ([math.inf, 1.0], [BELL, BELL], OutOfRange),
        ([0.0, 0.0], [BELL, BELL], OutOfRange),
        ([], [], OutOfRange),
        ([0.5, 0.5], [BELL, random_pure(3, generator(113))], DimensionMismatch),
        ([1e308, 1e308], [BELL, BELL], OutOfRange),
    ],
    ids=["nan", "inf", "all-zero", "empty", "mixed-dimensions", "sum-overflow"],
)
def test_mix_pure_states_rejects_what_is_no_mixture(weights, states, error):
    with pytest.raises(error):
        mix_pure_states(weights, states)


def test_validate_density_checks_positivity_on_the_symmetrized_matrix():
    """Hermitian within 1e-10 and of trace 1; (A + A^H) / 2 has minimum eigenvalue -0.9e-10.

    LAPACK reads one triangle, where the -1.2e-10 of A alone would fail.
    """
    A = np.zeros((4, 4), dtype=complex)
    A[0, 0] = A[3, 3] = 0.5
    A[3, 0] = 0.5 + 1.2e-10
    A[0, 3] = 0.5 + 0.6e-10
    rho, adjoint = validate_density(A, 2), validate_density(A.conj().T, 2)
    assert rho.matrix.tobytes() == adjoint.matrix.tobytes()
    assert abs(rho.eig.eigenvalues[-1] + 0.9e-10) < 1e-15


def test_density_built_from_a_non_hermitian_array_raises_on_eig():
    """A density's ``eig`` tests Hermiticity; no constructor keyword skips the test."""
    A = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    A[0, 1] = 0.25
    rho = DensityMatrix(2, A)
    with pytest.raises(NotHermitian):
        rho.eig
    with pytest.raises(TypeError):
        DensityMatrix(2, A, hermitian=True)


def test_validate_density_keeps_an_entry_just_above_one_unscaled():
    """Checked divided by 1 + 5e-11, the density is stored as given; its eig is its own."""
    A = np.diag([1.0 + 5e-11, 0.0, 0.0, -5e-11]).astype(complex)
    rho = validate_density(A, 2)
    assert rho.matrix.tobytes() == A.tobytes()
    assert rho.eig.eigenvalues.tolist() == [1.0 + 5e-11, 0.0, 0.0, -5e-11]


@given(st.integers(1, 3), st.integers(0, 2**30), st.floats(0.0, 2e-10), st.floats(0.0, 2e-10))
def test_validate_density_gives_a_matrix_and_its_adjoint_one_verdict(rank, seed, shift, skew):
    """A rank-deficient two-qubit density pushed to about -shift and given a lower-triangle skew.

    Both tolerances (1e-10) lie inside the drawn ranges.
    """
    rho = random_density(2, rank, seed)
    null = hermitian_eig(rho.matrix).eigenvectors[:, -1]
    g = generator(seed, 1)
    E = np.tril(g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4)), -1)
    A = (1.0 + shift) * rho.matrix - shift * np.outer(null, null.conj()) + skew * E / np.linalg.norm(E)
    verdicts = []
    for M in (A, A.conj().T):
        try:
            verdicts.append(validate_density(M, 2).matrix.tobytes())
        except InputError as exc:
            verdicts.append(type(exc))
    assert verdicts[0] == verdicts[1]


def test_pure_density_is_the_one_state_mixture_bit_for_bit():
    """pure_density is exactly Hermitian, as every mixture is, so both routes give one matrix."""
    for N in range(2, 6):
        for k in range(10):
            psi = random_pure(N, generator(112, N, k))
            rho = pure_density(psi).matrix
            assert rho.tobytes() == mix_pure_states([1.0], [psi]).matrix.tobytes(), (N, k)
            assert np.array_equal(rho, rho.conj().T), (N, k)


def test_sindex_validation_and_canonicalization():
    with pytest.raises(BadIndex):
        SIndex(2, 1, 1, 2)  # i > j
    with pytest.raises(BadIndex):
        SIndex(1, 2, 2, 1)  # p > q
    with pytest.raises(BadIndex, match=">= 1"):
        SIndex(0, 1, 2, 2)
    with pytest.raises(BadIndex):
        SIndex.canonical(1, 1, 1, 2)  # i = j
    assert SIndex.canonical(2, 2, 1, 1) == SIndex(1, 1, 2, 2)
    assert SIndex.canonical(1, 2, 2, 1) == SIndex(1, 1, 2, 2)


def test_canonical_indices_count():
    for n in (2, 3, 4):
        combos = math.comb(n, 2) ** 2
        assert len(canonical_indices(n)) == combos
    assert canonical_indices(2) == [IDX2]


def test_s_matrix_two_qubit_entries():
    expect = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(s_matrix(IDX2, 2), expect)


def test_s_matrix_structure():
    for n in (2, 3, 4):
        for idx in canonical_indices(n):
            s = s_matrix(idx, n)
            np.testing.assert_array_equal(s, s.T)
            values = s[s != 0.0]
            assert values.size == 4
            assert sorted(values) == [-1.0, -1.0, 1.0, 1.0]


def test_s_matrix_raw_column_swap_negates():
    for n in (2, 3):
        for idx in canonical_indices(n):
            i, p, j, q = idx.astuple()
            np.testing.assert_array_equal(
                s_matrix_raw(i, q, j, p, n), -s_matrix_raw(i, p, j, q, n)
            )


def test_s_matrix_rejects_out_of_range():
    with pytest.raises(BadIndex):
        s_matrix_raw(1, 1, 2, 3, 2)
    with pytest.raises(BadIndex):
        d_ipjq_pure(BELL, SIndex(1, 1, 2, 3))
    rho = random_density(3, 2, 30)
    for fn in (lambda_spectrum, tau_matrix, optimal_index_decomposition):
        with pytest.raises(BadIndex):
            fn(rho, SIndex(1, 1, 2, 4))


def test_d_ipjq_pure_examples():
    assert abs(d_ipjq_pure(BELL, IDX2) - 1.0) < 1e-12
    product = from_coefficients([[1.0, 0.0], [0.0, 0.0]])
    assert d_ipjq_pure(product, IDX2) < 1e-12


def test_d_ipjq_pure_raises_when_its_two_routes_disagree(monkeypatch):
    """A matrix form that no longer matches the minor raises NumericalInconsistency."""
    monkeypatch.setattr(mixed, "s_matrix", lambda idx, N: 2.0 * s_matrix(idx, N))
    with pytest.raises(NumericalInconsistency):
        d_ipjq_pure(BELL, IDX2)


def test_d_ipjq_pure_matches_minor_everywhere():
    rng = generator(31)
    for _ in range(20):
        psi = random_pure(3, rng)
        for idx in canonical_indices(3):
            i, p, j, q = idx.astuple()
            a = psi.coeffs
            minor = a[i - 1, p - 1] * a[j - 1, q - 1] - a[i - 1, q - 1] * a[j - 1, p - 1]
            assert abs(d_ipjq_pure(psi, idx) - 2.0 * abs(minor)) < 1e-12


def test_lambda_spectrum_of_pure_state():
    rng = generator(32)
    for _ in range(10):
        psi = random_pure(3, rng)
        for idx in canonical_indices(3):
            lam = lambda_spectrum(pure_density(psi), idx).values
            assert abs(lam[0] - d_ipjq_pure(psi, idx)) < 1e-9
            assert max(lam[1:]) < 1e-9


def test_lambda_spectrum_maximally_mixed():
    rho = DensityMatrix(2, np.eye(4) / 4.0)
    np.testing.assert_allclose(lambda_spectrum(rho, IDX2).values, [0.25] * 4, atol=1e-12)


def test_lambda_spectrum_werner():
    for p in (0.3, 0.5, 0.7):
        lam = lambda_spectrum(werner(p), IDX2).values
        expect = [(1 + 3 * p) / 4.0] + [(1 - p) / 4.0] * 3
        np.testing.assert_allclose(lam, expect, atol=1e-10)


def test_lambda_spectrum_order_equivalence():
    """All four ordered quadruples mapping to one canonical index agree."""
    rng = generator(33)
    for _ in range(10):
        rho = random_density(3, 3, int(rng.integers(1 << 30)))
        root = sqrt_psd(rho.matrix)
        for idx in canonical_indices(3):
            i, p, j, q = idx.astuple()
            spectra = []
            for a, b, c, d in ((i, p, j, q), (j, q, i, p), (i, q, j, p), (j, p, i, q)):
                s = s_matrix_raw(a, b, c, d, 3)
                sv = np.linalg.svd(root @ s @ root.conj(), compute_uv=False)
                spectra.append(sv[:4])
            for other in spectra[1:]:
                np.testing.assert_allclose(other, spectra[0], atol=1e-12)


def test_tau_matrix_is_symmetric_with_lambda_singular_values():
    rng = generator(34)
    for _ in range(10):
        rho = random_density(3, 2, int(rng.integers(1 << 30)))
        idx = SIndex(1, 2, 2, 3)
        tau = tau_matrix(rho, idx)
        np.testing.assert_allclose(tau, tau.T, atol=1e-12)
        core = _tau_cores(_factor(hermitian_eig(rho.matrix))[:, _support(idx, 3)])
        np.testing.assert_allclose(core, tau, rtol=0.0, atol=1e-15)
        sv = np.linalg.svd(tau, compute_uv=False)
        lam = np.array(lambda_spectrum(rho, idx).values)
        k = min(sv.size, 4)
        np.testing.assert_allclose(sv[:k], lam[:k], atol=1e-9)


@given(N=st.integers(2, 6), rank=st.integers(0, 3), seed=st.integers(0, 2**31 - 1))
@example(N=6, rank=0, seed=0)
@example(N=2, rank=1, seed=0)
def test_tau_cores_match_the_matmul_oracle_and_are_exactly_symmetric(N, rank, seed):
    """The elementwise A + A^T cores equal X S4 X^T by matmuls to 1e-15, at ranks 1, 2, 3 and N^2."""
    rho = random_density(N, rank or N * N, seed)
    V = eigen_vectors_subnormalized(rho)
    X = V.take(_support_table(N).T, axis=1).conj()
    tau = _tau_cores(X)
    np.testing.assert_allclose(tau.transpose(2, 0, 1), tau_cores_matmul(X.transpose(2, 0, 1)), rtol=0.0, atol=1e-15)
    assert np.array_equal(tau, tau.swapaxes(0, 1))
    np.testing.assert_array_equal(tau_matrix(rho, canonical_indices(N)[-1]), tau[:, :, -1])


def test_tau_matrix_maximally_mixed_entries():
    rho = DensityMatrix(2, np.eye(4) / 4.0)
    tau = tau_matrix(rho, IDX2)
    np.testing.assert_allclose(np.sort(np.abs(tau).ravel()), [0] * 12 + [0.25] * 4, atol=1e-12)


def test_optimal_index_decomposition_diagonalizes():
    rng = generator(35)
    for trial in range(10):
        n = 2 + trial % 2
        rho = random_density(n, 3, int(rng.integers(1 << 30)))
        idx = canonical_indices(n)[trial % len(canonical_indices(n))]
        dec = optimal_index_decomposition(rho, idx)
        np.testing.assert_allclose(dec.density(), rho.matrix, atol=1e-9)
        assert abs(math.fsum(dec.weights()) - 1.0) < 1e-10
        s = s_matrix(idx, n)
        lam = lambda_spectrum(rho, idx).values
        forms = []
        for (pa, psi_a) in dec.members:
            za = np.sqrt(pa) * psi_a.vector()
            for (pb, psi_b) in dec.members:
                zb = np.sqrt(pb) * psi_b.vector()
                val = np.vdot(za, s @ zb.conj())
                if psi_a is psi_b:
                    forms.append(abs(val))
                else:
                    assert abs(val) < 1e-8
        forms.sort(reverse=True)
        for got, want in zip(forms, lam):
            assert abs(got - want) < 1e-8


def test_optimal_index_decomposition_eigendecomposes_rho_once(eigh_calls):
    rho = random_density(3, 3, 36)
    optimal_index_decomposition(rho, SIndex(1, 1, 2, 2))
    assert eigh_calls.of(rho.matrix) == 1


def test_optimal_index_decomposition_maximally_mixed():
    rho = DensityMatrix(2, np.eye(4) / 4.0)
    dec = optimal_index_decomposition(rho, IDX2)
    assert len(dec.members) == 4
    s = s_matrix(IDX2, 2)
    for p, psi in dec.members:
        z = np.sqrt(p) * psi.vector()
        assert abs(abs(np.vdot(z, s @ z.conj())) - 0.25) < 1e-8


def test_d_lower_bound_werner_closed_form():
    for p in (0.0, 0.25, 0.4, 0.5, 0.75, 1.0):
        expect = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(d_lower_bound(werner(p), 1, 2) - expect) < 1e-10


def test_d_lower_bound_unclamped_werner():
    assert abs(d_lower_bound(werner(0.25), 1, 2, clamp=False) - 0.125) < 1e-10
    assert d_lower_bound(werner(0.25), 1, 2) == 0.0


def test_d_lower_bound_unclamped_dominates_clamped():
    """Dropping the clamp squares negative deficits too, enlarging the sum."""
    rng = generator(36)
    for _ in range(20):
        rho = random_density(3, 2, int(rng.integers(1 << 30)))
        assert d_lower_bound(rho, 1, 2, clamp=False) >= d_lower_bound(rho, 1, 2) - 1e-12


def test_d_lower_bound_matches_two_qubit_concurrence():
    rng = generator(37)
    for rank in (1, 2, 3, 4):
        for _ in range(10):
            rho = random_density(2, rank, int(rng.integers(1 << 30)))
            assert abs(d_lower_bound(rho, 1, 2) - wootters_concurrence(rho.matrix)) < 1e-8


def test_d_lower_bound_pure_state_equals_d():
    rng = generator(38)
    for _ in range(25):
        psi = random_form_a_state(rng)
        bound = d_lower_bound(pure_density(psi), 1, 2)
        assert abs(bound - generalized_concurrence_D(psi, 1, 2)) < 1e-9


def test_d_lower_bound_rejects_bad_profile():
    with pytest.raises(OutOfRange):
        d_lower_bound(werner(0.5), 0, 2)
    with pytest.raises(OutOfRange):
        d_lower_bound(werner(0.5), 1, 1)
    with pytest.raises(OutOfRange):
        d_lower_bound(werner(0.5), 1, 3)
    with pytest.raises(OutOfRange):
        d_lower_bound(random_form_a_mixture(2, 39), 2, 2)
    deficits = index_deficits(werner(0.5))
    for m, n in ((0, 2), (1, 1)):
        with pytest.raises(OutOfRange):
            bound_from_deficits(deficits, m, n)


def test_eof_lower_bound_werner():
    assert abs(eof_lower_bound(werner(1.0), 1, 2) - 1.0) < 1e-9
    assert eof_lower_bound(werner(0.25), 1, 2) == 0.0
    d = d_lower_bound(werner(0.75), 1, 2)
    assert abs(eof_lower_bound(werner(0.75), 1, 2) - eof_of_d(d, 1)) < 1e-12


def test_eof_lower_bound_three_value_family():
    """The n=3 inversion must agree with the closed-form inverse of D(v)."""
    third = 1.0 / 3.0
    psi = from_coefficients(np.diag(np.sqrt([third - 0.2, third, third + 0.2])))
    pure = pure_density(psi).matrix
    for w in (0.5, 0.6, 0.7):
        rho = DensityMatrix(3, (1.0 - w) * pure + w * np.eye(9) / 9.0)
        d = d_lower_bound(rho, 1, 3)
        assert 0.0 < d < 1.0 / math.sqrt(3.0)
        v = math.sqrt(1.0 - 3.0 * d * d) / 3.0
        expect = eof_from_spectrum((third - v, third, third + v), 1)
        assert abs(eof_lower_bound(rho, 1, 3) - expect) < 1e-9


def test_eof_lower_bound_rejects_unsupported_family():
    with pytest.raises(UnsupportedFamily):
        eof_lower_bound(werner(0.5), 1, 4)
    with pytest.raises(UnsupportedFamily):
        eof_lower_bound(werner(0.5), 2, 1)


def test_eof_lower_bound_out_of_range_d():
    """A maximally entangled N=3 state overshoots the n=3 family maximum."""
    psi = from_coefficients(np.eye(3) / np.sqrt(3.0))
    with pytest.raises(OutOfRange):
        eof_lower_bound(pure_density(psi), 1, 3)


def test_ppt_check_examples():
    is_ppt, mineig = ppt_check(DensityMatrix(2, np.eye(4) / 4.0))
    assert is_ppt and abs(mineig - 0.25) < 1e-12
    is_ppt, mineig = ppt_check(pure_density(BELL))
    assert not is_ppt and abs(mineig + 0.5) < 1e-12


def test_ppt_check_werner_threshold():
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8):
        is_ppt, mineig = ppt_check(werner(p))
        assert abs(mineig - (1.0 - 3.0 * p) / 4.0) < 1e-10
        assert is_ppt == (p <= 1.0 / 3.0 + 1e-9)


def test_ppt_check_entangled_form_a_state():
    rng = generator(39)
    psi = random_form_a_state(rng)
    assert generalized_concurrence_D(psi, 1, 2) > 0.01
    is_ppt, mineig = ppt_check(pure_density(psi))
    assert not is_ppt and mineig < 0.0


def test_ppt_check_separable_states():
    for k in range(100):
        rho = random_separable_density(2 + k % 2, 4, 40, k)
        is_ppt, _ = ppt_check(rho)
        assert is_ppt


def test_form_a_check():
    assert form_a_check(random_form_a_mixture(3, 41))
    rng = generator(42)
    assert form_a_check(pure_density(random_form_a_state(rng)))
    generic = random_density(3, 2, 43)
    assert not form_a_check(generic)
    with pytest.raises(DimensionMismatch):
        form_a_check(werner(0.5))


def _rank_two(rho) -> bool:
    return _rank_two_support(eigen_vectors_subnormalized(rho), rho.dim)


def test_rank_two_support_holds_exactly_where_a_reduced_density_has_rank_two():
    """Two-qubit, form-(a) and C^2 x C^N or C^N x C^2 supports pass; generic N = 3, 4 mixtures fail."""
    for rank in (1, 2, 3, 4):
        assert _rank_two(random_density(2, rank, 47, rank))
        for N in (3, 4):
            assert not _rank_two(random_density(N, rank, 48, N, rank))
        for N, qubit in ((3, "A"), (3, "B"), (4, "A")):
            assert _rank_two(random_density(N, rank, 49, N, rank, qubit=qubit)), (N, qubit, rank)
    for k in range(50):
        assert _rank_two(random_form_a_mixture(2 + k % 2, 104, k)), k


def test_rank_two_support_threshold_on_a_planted_third_eigenvalue():
    """A third rho_A (or rho_B) eigenvalue of 0.5 RANK_EPS passes and one of 10 RANK_EPS fails.

    Rows A_k = U diag(sqrt(w)) P_k / sqrt(3) with Haar unitaries U, P_k give
    rho_A = U diag(w) U^H exactly, while the other reduced density has full rank.
    """
    rng = generator(50)
    U = haar_unitary(3, rng)
    P = [haar_unitary(3, rng) for _ in range(3)]
    for planted, passes in ((0.5, True), (10.0, False)):
        w = np.array([0.6, 0.4 - planted * RANK_EPS, planted * RANK_EPS])
        A = np.array([(U * np.sqrt(w)) @ Pk / math.sqrt(3.0) for Pk in P])
        assert np.linalg.eigvalsh(np.einsum("kij,kil->jl", A.conj(), A))[0] > 0.01
        for rows in (A, A.transpose(0, 2, 1)):
            assert _rank_two_support(rows.reshape(3, 9), 3) is passes, planted


def test_example_3x3_bound_matches_general_formula():
    for rank in (1, 2, 3, 4):
        rho = random_form_a_mixture(rank, 44, rank)
        assert abs(example_3x3_bound(rho) - d_lower_bound(rho, 1, 2)) < 1e-10


def test_example_3x3_bound_pure_cases():
    psi = from_coefficients([[1 / np.sqrt(2), 0, 0], [0, 0.5, 0], [0, 0.5, 0]])
    assert abs(example_3x3_bound(pure_density(psi)) - 1.0) < 1e-10
    product = from_coefficients([[1.0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert example_3x3_bound(pure_density(product)) < 1e-12


def test_example_3x3_bound_rejects_generic_support():
    with pytest.raises(NotFormA):
        example_3x3_bound(random_density(3, 2, 45))


def test_decomposition_dominance():
    """Random explicit decompositions can only average above the bound."""
    rng = generator(46)
    rho = random_form_a_mixture(2, 47)
    bound = d_lower_bound(rho, 1, 2)
    assert bound > 0.01
    vecs = eigen_vectors_subnormalized(rho)
    r = len(vecs)
    for _ in range(50):
        t = int(rng.integers(r, r + 3))
        g = rng.standard_normal((t, r)) + 1j * rng.standard_normal((t, r))
        iso, _ = np.linalg.qr(g)
        dec = transform_decomposition(vecs, iso)
        avg = math.fsum(p * generalized_concurrence_D(psi, 1, 2) for p, psi in dec.members)
        assert avg >= bound - 1e-8


def test_per_index_dominance():
    """Average d_ipjq of any decomposition dominates the spectrum deficit."""
    rng = generator(48)
    rho = random_density(3, 3, 49)
    vecs = eigen_vectors_subnormalized(rho)
    r = len(vecs)
    for idx in canonical_indices(3):
        deficit = lambda_spectrum(rho, idx).deficit(clamp=False)
        for _ in range(10):
            t = int(rng.integers(r, r + 2))
            g = rng.standard_normal((t, r)) + 1j * rng.standard_normal((t, r))
            iso, _ = np.linalg.qr(g)
            dec = transform_decomposition(vecs, iso)
            avg = math.fsum(p * d_ipjq_pure(psi, idx) for p, psi in dec.members)
            assert avg >= deficit - 1e-8


def test_d_lower_bound_local_unitary_invariance_two_qubits():
    rng = generator(50)
    for _ in range(25):
        rho = random_density(2, 3, int(rng.integers(1 << 30)))
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        rotated = DensityMatrix(2, u @ rho.matrix @ u.conj().T)
        assert abs(d_lower_bound(rotated, 1, 2) - d_lower_bound(rho, 1, 2)) < 1e-8


def test_d_lower_bound_repeat_calls_are_identical():
    rho = random_form_a_mixture(4, 51)
    _support_table.cache_clear()
    first = d_lower_bound(rho, 1, 2)
    assert all(d_lower_bound(rho, 1, 2) == first for _ in range(5))


def test_batched_spectra_match_dense_oracle():
    """The factor route against the dense N^2 x N^2 product, index by index."""
    for n in (2, 3, 4, 5, 6):
        indices = canonical_indices(n)
        for rank in sorted({1, 2, 3, 4, 5, n * n - 1, n * n} & set(range(1, n * n + 1))):
            rho = random_density(n, rank, 52, n)
            root = sqrt_psd(rho.matrix)
            dense = np.array(
                [
                    np.linalg.svd(root @ s_matrix(idx, n) @ root.conj(), compute_uv=False)[:4]
                    for idx in indices
                ]
            )
            factor = _factor(hermitian_eig(rho.matrix))
            assert factor.shape == (rank, n * n)
            np.testing.assert_allclose(
                _spectra(factor, _support_table(n)), dense, rtol=0.0, atol=1e-12
            )
            deficit = dense[:, 0] - dense[:, 1] - dense[:, 2] - dense[:, 3]
            for clamp in (True, False):
                d = np.maximum(deficit, 0.0) if clamp else deficit
                expect = 0.5 * math.sqrt(math.fsum((4.0 * d * d).tolist()))
                assert abs(d_lower_bound(rho, 1, 2, clamp=clamp) - expect) <= 1e-12


def test_full_rank_spectra_are_bit_identical_to_the_root_route():
    for n in (2, 3, 4):
        rho = random_density(n, n * n, 61, n)
        assert len(eigen_vectors_subnormalized(rho)) == n * n
        lam = _spectra(sqrt_psd(rho.matrix), _support_table(n))
        deficit = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
        for clamp in (True, False):
            d = np.maximum(deficit, 0.0) if clamp else deficit
            expect = 1.0 * math.sqrt(math.fsum((d * d).tolist()))
            assert d_lower_bound(rho, 1, 2, clamp=clamp).hex() == expect.hex()
        for idx, row in zip(canonical_indices(n), lam):
            assert [x.hex() for x in lambda_spectrum(rho, idx).values] == [
                float(x).hex() for x in row
            ]


@given(
    st.integers(2, 6),
    st.sampled_from((1, 2)),
    st.sampled_from((None, "A", "B")),
    st.integers(0, 2**30),
)
def test_closed_form_deficits_match_the_svd_of_the_same_cores(n, rank, qubit, seed):
    rho = random_density(n, rank, seed, qubit=qubit)
    F = _factor(rho.eig)
    assert len(F) == rank
    J = _support_table(n)
    expect = core_deficits_svd(_tau_cores(F.take(J.T, axis=1)).transpose(2, 0, 1))
    np.testing.assert_allclose(_index_deficits(F, J), expect, rtol=0.0, atol=2e-15)


@given(st.integers(2, 6), st.integers(0, 4), st.sampled_from((None, "A", "B")), st.integers(0, 2**30))
@example(6, 2, None, 7)
@example(6, 3, None, 7)
def test_index_major_cores_give_the_stacked_route_bit_for_bit(n, rank, qubit, seed):
    """``_index_deficits`` and ``d12_cores`` equal the (K, r, r) stacked route byte for byte, at ranks 1 to 4 and N^2 (0)."""
    rho = random_density(n, rank or n * n, seed, n, qubit=qubit if rank else None)
    F, V, J = _factor(rho.eig), eigen_vectors_subnormalized(rho), _support_table(n)
    assert len(F) == (rank or n * n)
    assert _index_deficits(F, J).tobytes() == index_deficits_stacked(F, J).tobytes()
    assert d12_cores(V, n).tobytes() == d12_cores_stacked(V, J).tobytes()


def _factor_of_cores(cores):
    """A factor F (r, 4K) whose K index cores on the rows J = (4k .. 4k + 3) are exactly ``cores`` (K, r, r), r <= 2.

    tau = x0 x1^T + x1 x0^T - x2 x3^T - x3 x2^T for X = [x0 x1 x2 x3]; with
    x0 = e0, x1 = (a / 2, b), x2 = e1 and x3 = (0, -c / 2) it is [[a, b], [b, c]],
    and with x0 = 1, x1 = z / 2, x2 = x3 = 0 it is [[z]].
    """
    K, r, _ = cores.shape
    X = np.zeros((K, r, 4), dtype=complex)
    X[:, 0, 0] = 1.0
    X[:, 0, 1] = cores[:, 0, 0] / 2.0
    if r == 2:
        X[:, 1, 1] = cores[:, 0, 1]
        X[:, 1, 2] = 1.0
        X[:, 1, 3] = -cores[:, 1, 1] / 2.0
    return X.transpose(1, 0, 2).reshape(r, 4 * K), np.arange(4 * K).reshape(K, 4)


def test_closed_form_deficits_of_degenerate_cores():
    """The zero core, f = 0 ([[0, 0], [0, c]]) and sigma1 = sigma2, against the SVD and their exact values."""
    c = 0.6 - 0.8j
    pairs = np.array(
        [
            [[0, 0], [0, 0]],
            [[0, 0], [0, c]],
            [[1, 0], [0, 1j]],
            [[0, 1], [1, 0]],
            [[1, 1], [1, 1]],
            [[1e-300, 0], [0, c]],
        ],
        dtype=complex,
    )
    singles = np.array([[[0]], [[c]], [[1e-300j]]], dtype=complex)
    for cores, exact in ((pairs, [0.0, 1.0, 0.0, 0.0, 2.0, 1.0]), (singles, [0.0, 1.0, 1e-300])):
        F, J = _factor_of_cores(cores)
        assert np.array_equal(_tau_cores(F.take(J.T, axis=1)).transpose(2, 0, 1), cores)
        d = _index_deficits(F, J)
        np.testing.assert_allclose(d, core_deficits_svd(cores), rtol=0.0, atol=2e-15)
        np.testing.assert_allclose(d, exact, rtol=1e-15, atol=1e-15)


@given(st.integers(4, 6), st.sampled_from((None, "A", "B", "separable")), st.integers(0, 2**30))
@example(4, None, 68)
def test_rank_three_closed_form_deficits_match_the_svd_of_the_same_cores(n, kind, seed):
    if kind == "separable":
        rho = random_separable_density(n, 3, seed, n)
    else:
        rho = random_density(n, 3, seed, n, qubit=kind)
    F = _factor(rho.eig)
    assert len(F) == 3
    J = _support_table(n)
    cores = _tau_cores(F.take(J.T, axis=1)).transpose(2, 0, 1)
    tol = 2e-14 * np.linalg.svd(cores, compute_uv=False)[:, 0].max()
    np.testing.assert_allclose(_index_deficits(F, J), core_deficits_svd(cores), rtol=0.0, atol=tol)


def _cores_of_spectra(sigmas, seed):
    """Symmetric 3 x 3 cores U diag(sigma) U^T, one Haar U per core, for the rows of ``sigmas``."""
    rng = generator(seed)
    T = np.array([(U * s) @ U.T for U, s in ((haar_unitary(3, rng), s) for s in sigmas)])
    return 0.5 * (T + np.swapaxes(T, 1, 2))


def test_rank_three_closed_form_on_hand_built_cores(svd_calls):
    """Degenerate cores and cores either side of each test, at three scales, against the SVD and their exact deficits.

    The closed form keeps a core when p > 0.1 m^2 (for the spectrum
    (1, t, t), when t < t_p below), lambda2 < 0.9 lambda1 and
    m = ||tau||^2 / 3 > 1e-60, or when tau = 0; the SVD gets exactly the others.
    """
    t_p = (1.0 - math.sqrt(0.1)) / (1.0 + 2.0 * math.sqrt(0.1))
    kept = [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),  # rank one
        (1.0, 0.5, 0.0),  # rank two
        (1.0, 1e-8, 1e-9),  # near rank one: sigma2 sigma3 is far below a cofactor expansion's roundoff
        (1.0, 0.3, 0.3),  # sigma2 = sigma3
        (1.0, 0.6, 0.4),  # sigma1 = sigma2 + sigma3
        (1.0, 0.7, 0.5),
        (0.8, 0.3, 0.25),
        (1.0, 0.04, 0.01),
        (1.0, math.sqrt(0.999 * t_p), math.sqrt(0.999 * t_p)),  # p just above 0.1 m^2
        (1.0, math.sqrt(0.999 * 0.9), 0.1),  # lambda2 just below 0.9 lambda1
    ]
    rejected = [
        (1.0, 1.0, 0.3),  # sigma1 = sigma2
        (1.0, 0.99, 0.98),  # clustered
        (1.0, math.sqrt(1.001 * t_p), math.sqrt(1.001 * t_p)),
        (1.0, math.sqrt(1.001 * 0.9), 0.1),
    ]
    # m = 1e-60 (1 +- 1e-3) for the spectrum c (1, 0.5, 0.3): just kept, just rejected.
    floor = [tuple(math.sqrt(3e-60 * g / 1.34) * x for x in (1.0, 0.5, 0.3)) for g in (1.001, 0.999)]
    for scale in (1.0, 1e3, 1e-150):
        sigmas = np.concatenate([np.array(kept + rejected) * scale, floor])
        cores = _cores_of_spectra(sigmas, 69)
        svd_calls.clear()
        d = mixed._rank_three_deficits(cores)
        assert len(svd_calls) == 1
        on_svd = [any(np.array_equal(s, c) for s in svd_calls[0]) for c in cores]
        assert on_svd == [scale < 1e-100 and k > 0 for k in range(len(kept))] + [True] * len(rejected) + [False, True]
        tol = 2e-14 * sigmas[:, 0] + 1e-300
        np.testing.assert_array_less(np.abs(d - core_deficits_svd(cores)), tol)
        np.testing.assert_array_less(np.abs(d - (sigmas[:, 0] - sigmas[:, 1] - sigmas[:, 2])), tol)


def test_rank_three_bounds_above_n3_take_most_cores_off_the_svd(svd_calls):
    for n in (4, 5, 6):
        rho = random_density(n, 3, 68, n)
        svd_calls.clear()
        index_deficits(rho)
        assert len(svd_calls) <= 1
        assert sum(len(a) for a in svd_calls) < len(_support_table(n)) // 2


def test_closed_form_bounds_of_product_and_separable_states_vanish():
    for n in (2, 3, 4, 5, 6):
        rng = generator(64, n)
        a, b = random_pure(n, rng).coeffs[0], random_pure(n, rng).coeffs[0]
        product = pure_density(from_coefficients(np.outer(a, b), renormalize=True))
        assert len(_factor(product.eig)) == 1
        separable = random_separable_density(n, 2, 65, n)
        assert len(_factor(separable.eig)) == 2
        for rho in (product, separable):
            assert d_lower_bound(rho, 1, 2) < 1e-12


def test_rank_one_and_two_bounds_make_no_svd_call(svd_calls):
    densities = [random_density(n, rank, 66, n) for n in (2, 3, 6) for rank in (1, 2)]
    form_a = [random_form_a_mixture(rank, 67, rank) for rank in (1, 2)]
    svd_calls.clear()
    for rho in densities + form_a:
        d_lower_bound(rho, 1, 2)
    for rho in form_a:
        example_3x3_bound(rho)
    assert not svd_calls


def test_rank_three_and_above_deficits_stay_on_the_svd_route(svd_calls):
    """Rank 3 at N = 3 (K = 9, a stack of at most 16 cores) and ranks above 3 take one SVD, bit for bit."""
    for n, rank in ((3, 3), (3, 5), (3, 9), (4, 5), (4, 16)):
        rho = random_density(n, rank, 68, n)
        expect = _deficits(_spectra(_factor(rho.eig), _support_table(n)))
        svd_calls.clear()
        got = index_deficits(rho)
        assert len(svd_calls) == 1
        assert [x.hex() for x in got] == [x.hex() for x in expect]
    rho = random_form_a_mixture(3, 67, 3)
    svd_calls.clear()
    example_3x3_bound(rho)
    assert len(svd_calls) == 1


def test_eigenvalues_near_rank_eps_move_the_bound_by_at_most_1e_11():
    """A planted eigenvalue in (0, 10 RANK_EPS], dropped or kept, against the dense root."""
    for n in (2, 3, 4):
        for rank in (1, 2, 3):
            rng = generator(62, n, rank)
            U = haar_unitary(n * n, rng)
            top = rng.dirichlet(np.ones(rank))
            for planted in (0.1, 0.5, 1.0, 2.0, 10.0):
                w = np.zeros(n * n)
                w[rank] = planted * RANK_EPS
                w[:rank] = (1.0 - w[rank]) * top
                M = (U * w) @ U.conj().T
                rho = DensityMatrix(n, 0.5 * (M + M.conj().T))
                for clamp in (True, False):
                    expect = d_bound_dense(rho.matrix, n, 1, 2, clamp)
                    assert abs(d_lower_bound(rho, 1, 2, clamp=clamp) - expect) <= 1e-11


def test_bound_and_spectra_eigendecompose_rho_once(eigh_calls, monkeypatch):
    """Bounds, spectra, tau, the form-(a) bound and a roof search share one eigendecomposition and one factor."""
    built = []

    def counting(eig):
        built.append(eig)
        return _factor(eig)

    monkeypatch.setattr(mixed, "_factor", counting)
    for rho in (random_form_a_mixture(3, 63), random_density(3, 9, 64)):
        built.clear()
        d_lower_bound(rho, 1, 2)
        eof_lower_bound(rho, 1, 2)
        index_deficits(rho)
        for idx in canonical_indices(3):
            lambda_spectrum(rho, idx)
            tau_matrix(rho, idx)
        optimal_index_decomposition(rho, IDX2)
        if form_a_check(rho):
            example_3x3_bound(rho)
        else:
            with pytest.raises(NotFormA):
                example_3x3_bound(rho)
        minimize_roof(RoofProblem(target=rho, objective=AverageD(1, 2), t_max=len(rho.factor), restarts=1, max_sweeps=1))
        assert len(built) == 1
        assert eigh_calls.of(rho.matrix) == 1


def test_factor_eig_and_eigenvector_rows_are_read_only():
    for rho in (random_density(3, 2, 65), random_density(2, 4, 65)):
        F, V = rho.factor, eigen_vectors_subnormalized(rho)
        w, U = rho.eig
        assert rho.factor is F
        for array in (F, V, w, U):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_densities_that_qconc_builds_hold_a_read_only_matrix():
    """In-place writes fail, so the kept eig and factor cannot go stale; the caller's array stays writable."""
    A = np.diag([1.0 + 5e-11, 0.0, 0.0, -5e-11]).astype(complex)  # validated unscaled, then stored as given
    densities = [
        validate_density(A, 2),
        validate_density(pure_density(BELL).matrix, 2),
        pure_density(BELL),
        mix_pure_states([0.3, 0.7], [BELL, from_coefficients(np.diag([1.0, 0.0]))]),
        random_density(3, 2, 66),
    ]
    for rho in densities:
        assert not rho.matrix.flags.writeable
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0
    assert A.flags.writeable
    assert Decomposition(((1.0, BELL),)).density().flags.writeable


@given(st.integers(2, 6), st.sampled_from((1, 2, 3, 4, 0)), st.integers(0, 2**30))
def test_a_reused_density_gives_a_fresh_copys_values_bit_for_bit(n, rank, seed):
    """Bound, deficits and spectra read through a kept factor, at ranks 1 to 4 and N^2 (0)."""

    def readings(rho):
        hexes = [d_lower_bound(rho, 1, 2).hex(), d_lower_bound(rho, 1, 2, clamp=False).hex()]
        hexes += [x.hex() for x in index_deficits(rho).tolist()]
        hexes += [x.hex() for idx in canonical_indices(n) for x in lambda_spectrum(rho, idx).values]
        return hexes

    rho = random_density(n, rank or n * n, seed, n)
    first = readings(rho)
    assert readings(rho) == first
    assert readings(DensityMatrix(n, rho.matrix.copy())) == first


def test_bound_and_spectra_reject_negative_eigenvalues():
    """A failed factor build is not kept, so every reader raises NotPSD on every call."""
    for w in ([0.7, 0.5, -0.1, -0.1], [0.6, 0.6, -0.2, 0.0]):
        rho = DensityMatrix(2, np.diag(w).astype(complex))
        calls = (
            lambda: rho.factor,
            lambda: d_lower_bound(rho, 1, 2),
            lambda: eof_lower_bound(rho, 1, 2),
            lambda: index_deficits(rho),
            lambda: lambda_spectrum(rho, IDX2),
            lambda: tau_matrix(rho, IDX2),
            lambda: eigen_vectors_subnormalized(rho),
        )
        for call in calls + calls:
            with pytest.raises(NotPSD):
                call()
        assert "factor" not in vars(rho)


def _swap_subsystems(rho: DensityMatrix) -> DensityMatrix:
    N = rho.dim
    M = rho.matrix.reshape(N, N, N, N).transpose(1, 0, 3, 2).reshape(N * N, N * N)
    return DensityMatrix(N, M)


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n * n), st.integers(0, 2**30))
    )
)
def test_factor_route_matches_the_dense_root_and_the_subsystem_swap(case):
    n, rank, seed = case
    rho = random_density(n, rank, seed)
    dense = lambda_spectra_dense(rho.matrix, n)
    expect = dense[:, 0] - dense[:, 1] - dense[:, 2] - dense[:, 3]
    np.testing.assert_allclose(index_deficits(rho), expect, rtol=0.0, atol=1e-12)
    swapped = _swap_subsystems(rho)
    for clamp in (True, False):
        d = d_lower_bound(rho, 1, 2, clamp=clamp)
        assert abs(d - d_bound_dense(rho.matrix, n, 1, 2, clamp)) <= 1e-12
        assert abs(d_lower_bound(swapped, 1, 2, clamp=clamp) - d) <= 1e-12
