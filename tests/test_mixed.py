"""Tests for mixed-state lower bounds via the minor-extraction spectra."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qconc import (
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
    NonFinite,
    NotFormA,
    NotHermitian,
    NotPSD,
    OutOfRange,
    UnsupportedFamily,
)
from qconc.linalg import hermitian_eig, sqrt_psd
from qconc.mixed import (
    RANK_EPS,
    _factor,
    _spectra,
    _support,
    _support_table,
    _tau_cores,
    eigen_vectors_subnormalized,
    s_matrix_raw,
)
from qconc.roofopt import transform_decomposition
from qconc.sampling import (
    generator,
    haar_unitary,
    random_form_a_mixture,
    random_form_a_state,
    random_pure,
)
from qconc.spectra import eof_from_spectrum, eof_of_d

from conftest import random_density, random_separable_density
from oracles import d_bound_dense, lambda_spectra_dense, wootters_concurrence

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


def test_mix_pure_states_normalizes_weights():
    rho = mix_pure_states([2.0, 2.0], [BELL, BELL])
    np.testing.assert_allclose(rho.matrix, pure_density(BELL).matrix, atol=1e-12)
    with pytest.raises(OutOfRange):
        mix_pure_states([1.0, -1.0], [BELL, BELL])


def test_sindex_validation_and_canonicalization():
    with pytest.raises(BadIndex):
        SIndex(2, 1, 1, 2)  # i > j
    with pytest.raises(BadIndex):
        SIndex(1, 2, 2, 1)  # p > q
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


def test_optimal_index_decomposition_eigendecomposes_rho_once(monkeypatch):
    calls = []

    def counting(M):
        calls.append(M)
        return hermitian_eig(M)

    monkeypatch.setattr("qconc.mixed.hermitian_eig", counting)
    optimal_index_decomposition(random_density(3, 3, 36), SIndex(1, 1, 2, 2))
    assert len(calls) == 1


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


def test_bound_and_spectra_eigendecompose_rho_once(monkeypatch):
    calls = []

    def counting(M):
        calls.append(M)
        return hermitian_eig(M)

    monkeypatch.setattr("qconc.mixed.hermitian_eig", counting)
    rho = random_form_a_mixture(3, 63)
    for call in (
        lambda: example_3x3_bound(rho),
        lambda: d_lower_bound(rho, 1, 2),
        lambda: lambda_spectrum(rho, IDX2),
    ):
        calls.clear()
        call()
        assert len(calls) == 1


def test_bound_and_spectra_reject_negative_eigenvalues():
    for w in ([0.7, 0.5, -0.1, -0.1], [0.6, 0.6, -0.2, 0.0]):
        rho = DensityMatrix(2, np.diag(w).astype(complex))
        for call in (lambda: d_lower_bound(rho, 1, 2), lambda: lambda_spectrum(rho, IDX2)):
            with pytest.raises(NotPSD):
                call()


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
