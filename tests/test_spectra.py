"""Tests for eigenvalue-family entanglement curves and their derivatives."""
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qconc.spectra import (
    EigFamily,
    arith3_closed_forms,
    concurrence_of_values,
    convexity_value,
    d_two_eigen,
    dE_dD,
    entropy_bits,
    eof_from_spectrum,
    eof_of_bound,
    eof_of_d,
    lemma_value,
)
from qconc import eof_pure, from_coefficients
from qconc.errors import BadSpectrum, DegeneratePoint, OutOfRange, UnsupportedFamily

from oracles import eof_from_concurrence


def test_family_validation():
    with pytest.raises(OutOfRange):
        EigFamily("geom", 1)
    with pytest.raises(OutOfRange):
        EigFamily("two", 0)


def test_family_domain_and_values():
    fam = EigFamily("two", 2)
    assert fam.n == 2
    assert fam.domain() == (0.0, 0.5)
    np.testing.assert_allclose(fam.values(0.1), [0.1, 0.4])

    fam3 = EigFamily("arith3", 1)
    lo, hi = fam3.domain()
    assert abs(lo + 1.0 / 3.0) < 1e-15 and abs(hi - 1.0 / 3.0) < 1e-15
    np.testing.assert_allclose(fam3.values(0.1), [1 / 3 - 0.1, 1 / 3, 1 / 3 + 0.1])


def test_family_parameter_checks_normalization():
    fam = EigFamily("two", 1)
    assert fam.parameter((0.3, 0.7)) == 0.3
    with pytest.raises(OutOfRange):
        fam.parameter((0.3, 0.6))
    with pytest.raises(OutOfRange):
        fam.parameter((0.0, 1.0))  # boundary leaves the open domain
    for point in ((0.4, math.nan), (math.nan, 0.6), (math.inf, -math.inf)):
        with pytest.raises(OutOfRange):
            fam.parameter(point)
    with pytest.raises(OutOfRange):
        EigFamily("arith3", 1).parameter((math.nan, 0.1))


def test_eof_from_spectrum_examples():
    assert abs(eof_from_spectrum((0.5, 0.5), 1) - 1.0) < 1e-12
    assert abs(eof_from_spectrum((0.25,), 4) - 2.0) < 1e-12
    with pytest.raises(BadSpectrum):
        eof_from_spectrum((0.5, -0.1), 1)
    with pytest.raises(BadSpectrum):
        eof_from_spectrum((0.9, 0.9), 1)
    for values in ((math.nan,), (0.5, math.nan), (math.nan, 0.5), (0.5, math.inf)):
        with pytest.raises(BadSpectrum):
            eof_from_spectrum(values, 1)


@pytest.mark.parametrize(
    "lam1, lam2",
    [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan), (math.inf, 0.5), (math.inf, 0.0), (2.0, 2.0)],
)
def test_d_two_eigen_rejects_nan(lam1, lam2):
    """NaN, infinite values, and values beyond the sum rule m (lam1 + lam2) <= 1 raise OutOfRange."""
    with pytest.raises(OutOfRange):
        d_two_eigen(lam1, lam2, 1)


def test_eof_from_spectrum_matches_pure_state_entropy():
    """A diagonal coefficient matrix realizes any admissible spectrum."""
    values, m = (0.4, 0.1), 2
    diag = np.sqrt(np.repeat(values, m))
    psi = from_coefficients(np.diag(diag))
    assert abs(eof_from_spectrum(values, m) - eof_pure(psi)) < 1e-12


def test_eof_of_d_endpoints():
    for m in (1, 2, 3):
        assert abs(eof_of_d(1.0, m) - math.log2(2 * m)) < 1e-12
        # at d = 0 one of the pair vanishes, leaving an m-fold uniform block
        assert abs(eof_of_d(0.0, m) - math.log2(m)) < 1e-12
    assert eof_of_d(0.0, 1) == pytest.approx(0.0, abs=1e-12)
    assert abs(eof_of_d(1.0, 2) - 2.0) < 1e-12
    with pytest.raises(OutOfRange):
        eof_of_d(1.5, 1)
    with pytest.raises(OutOfRange):
        eof_of_d(0.5, 0)


@given(st.lists(st.floats(-1.0, 1.0), max_size=6))
@example([])
@example([0.5, 0.5, 0.0, -0.0])
def test_entropy_bits_reads_arrays_lists_and_tuples_alike(values):
    """entropy_bits iterates its values as floats: a float array, a list and a tuple give one value, bit for bit."""
    h = entropy_bits(values).hex()
    assert entropy_bits(tuple(values)).hex() == h
    assert entropy_bits(np.array(values, dtype=float)).hex() == h


@given(d=st.floats(0.0, 1.0), m=st.integers(1, 4))
@example(d=0.0, m=1)
@example(d=1.0, m=3)
def test_two_level_entropy_is_the_two_value_entropy_bit_for_bit(d, m):
    """``eof_of_d`` gives m entropy_bits((x, 1/m - x)) bit for bit."""
    x = (1.0 + math.sqrt(max(1.0 - d * d, 0.0))) / (2.0 * m)
    want = (m * entropy_bits((x, 1.0 / m - x))).hex()
    assert eof_of_d(d, m).hex() == want


def test_eof_of_d_matches_qubit_concurrence_formula():
    for c in np.linspace(0.01, 1.0, 23):
        assert abs(eof_of_d(float(c), 1) - eof_from_concurrence(float(c))) < 1e-12


def test_eof_of_d_monotone_and_convex():
    grid = np.arange(0.05, 0.96, 0.05)
    h = 1e-4
    for m in (1, 2, 3):
        e = [eof_of_d(float(d), m) for d in grid]
        assert all(b > a for a, b in zip(e, e[1:]))
        for d in grid:
            second = (
                eof_of_d(float(d + h), m)
                - 2.0 * eof_of_d(float(d), m)
                + eof_of_d(float(d - h), m)
            ) / (h * h)
            assert second > 0.0


def test_eof_of_d_consistent_with_two_eigen_spectrum():
    for m in (1, 2, 3):
        for lam1 in (0.05, 0.17, 0.31):
            lam2 = 1.0 / m - lam1
            d = d_two_eigen(lam1, lam2, m)
            assert abs(eof_of_d(d, m) - eof_from_spectrum((lam1, lam2), m)) < 1e-10


def test_two_family_derivative_identity():
    """dE/dD = -m * lemma, bit for bit, along the two-value and the arithmetic family."""
    for fam, points in (
        (EigFamily("two", 2), [(u, 0.5 - u) for u in (0.05, 0.1, 0.2)]),
        (EigFamily("arith3", 1), [(1.0 / 3.0 - v, v) for v in (-0.2, 0.05, 0.1, 0.2)]),
    ):
        for point in points:
            assert dE_dD(fam, point) == -fam.m * lemma_value(fam, point), (fam, point)


def test_two_family_degenerate_point():
    fam = EigFamily("two", 2)
    with pytest.raises(DegeneratePoint):
        lemma_value(fam, (0.25, 0.25))


def test_lemma_negative_along_two_family():
    fam = EigFamily("two", 1)
    for u in (0.05, 0.2, 0.35, 0.45):
        assert lemma_value(fam, (u, 1.0 - u)) < -1e-9
        assert convexity_value(fam, (u, 1.0 - u)) < -1e-9


def test_arith3_closed_forms_frozen_values():
    lemma_cf, convexity_cf = arith3_closed_forms(1, 0.1)
    assert abs(lemma_cf - (-1.6395758397128111)) < 1e-12
    assert abs(convexity_cf - (-0.70515586689716347)) < 1e-12


def test_arith3_closed_forms_even_in_v():
    for m in (1, 2):
        for v in (0.02, 0.07, 0.1):
            plus = arith3_closed_forms(m, v)
            minus = arith3_closed_forms(m, -v)
            assert abs(plus[0] - minus[0]) < 1e-12
            assert abs(plus[1] - minus[1]) < 1e-12


def test_arith3_closed_forms_domain():
    with pytest.raises(OutOfRange):
        arith3_closed_forms(1, 0.0)
    with pytest.raises(OutOfRange):
        arith3_closed_forms(1, 1.0 / 3.0)
    with pytest.raises(OutOfRange):
        arith3_closed_forms(0, 0.1)


def test_arith3_numeric_matches_closed_forms():
    fam = EigFamily("arith3", 1)
    third = 1.0 / 3.0
    for v in (-0.2, -0.1, -0.05, -0.02, 0.02, 0.05, 0.1, 0.2):
        lemma_cf, convexity_cf = arith3_closed_forms(1, v)
        lemma_num = lemma_value(fam, (third - v, v))
        convexity_num = convexity_value(fam, (third - v, v))
        assert abs(lemma_num - lemma_cf) < 1e-6
        assert abs(convexity_num - convexity_cf) < 1e-4
        assert lemma_cf < 0.0 and convexity_cf < 0.0


def test_arith3_stable_near_origin():
    for v in (1e-3, 5e-3):
        lemma_cf, convexity_cf = arith3_closed_forms(1, v)
        assert math.isfinite(lemma_cf) and math.isfinite(convexity_cf)
        assert lemma_cf < 0.0 and convexity_cf < 0.0


def test_entropy_and_concurrence_kernels():
    assert entropy_bits([0.5, 0.5, 0.0, -1e-18]) == 1.0
    assert math.copysign(1.0, entropy_bits([1.0])) == 1.0 == math.copysign(1.0, eof_of_d(0.0, 1))
    assert abs(entropy_bits([0.25] * 4) - 2.0) < 1e-15
    assert concurrence_of_values((0.5, 0.5), 1) == 1.0
    assert abs(concurrence_of_values((0.1, 0.2, 0.3), 2) - 6.0 * math.sqrt(0.006)) < 1e-15
    assert concurrence_of_values((0.7, 0.0), 1) == 0.0


def _arith3_eof(d, m):
    """E on the arithmetic family at D = d, straight from v = sqrt(1 - 3 m d^2) / (3m)."""
    half = 1.0 / (3.0 * m)
    v = math.sqrt(1.0 - 3.0 * m * d * d) / (3.0 * m)
    return -m * sum(x * math.log2(x) for x in (half - v, half, half + v) if x > 0.0)


def test_eof_of_bound_three_value_closed_form():
    for m in (1, 2, 3):
        dmax = 1.0 / math.sqrt(3.0 * m)
        for frac in np.linspace(0.01, 0.99, 53):
            d = float(frac) * dmax
            assert abs(eof_of_bound(d, m, 3) - _arith3_eof(d, m)) < 1e-13
        assert abs(eof_of_bound(dmax, m, 3) - math.log2(3.0 * m)) < 1e-12
        assert abs(eof_of_bound(dmax * (1.0 + 5e-10), m, 3) - math.log2(3.0 * m)) < 1e-12
        tiny = eof_of_bound(1e-9, m, 3)
        assert 0.0 < tiny < math.log2(3.0 * m)
        assert abs(tiny - _arith3_eof(1e-9, m)) < 1e-13
        with pytest.raises(OutOfRange):
            eof_of_bound(dmax * (1.0 + 1e-6), m, 3)


def test_eof_of_bound_two_value_and_checks():
    assert eof_of_bound(0.0, 1, 2) == 0.0 and eof_of_bound(-0.1, 1, 3) == 0.0
    assert eof_of_bound(0.6, 2, 2) == eof_of_d(0.6, 2)
    assert eof_of_bound(1.0 + 5e-10, 1, 2) == 1.0
    with pytest.raises(OutOfRange):
        eof_of_bound(1.01, 1, 2)
    with pytest.raises(OutOfRange):
        eof_of_bound(0.5, 0, 3)
    for n in (1, 4):
        with pytest.raises(UnsupportedFamily):
            eof_of_bound(0.5, 1, n)
