"""Two-parameter eigenvalue families and the E(d) concurrence curve.

The families here model reduced-density spectra with n distinct values of
common multiplicity m, constrained to the normalization m * sum(lambda) = 1.
That constraint leaves one free parameter t; the generalized concurrence
D(t) = m*n*sqrt(prod lambda_i(t)) is then a curve, and entanglement can be
studied as a function of D.  Derivatives with respect to D are evaluated
numerically: central differences in t with one Richardson extrapolation
step, chained through dD/dt.

Supported family kinds:

``two``
    lambda = (u, v) with m(u + v) = 1; free parameter t = u.
``arith3``
    lambda = (u, u + v, u + 2v) with 3m(u + v) = 1, an arithmetic
    progression around the fixed midpoint 1/(3m); free parameter t = v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSpectrum, DegeneratePoint, OutOfRange, UnsupportedFamily

FAMILY_KINDS = ("two", "arith3")
NORMALIZATION_TOL = 1e-12
BASE_STEP = 1e-4


@dataclass(frozen=True)
class EigFamily:
    """A named eigenvalue family with common multiplicity m."""

    kind: str
    m: int

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise OutOfRange(f"unknown family kind {self.kind!r}; choose from {FAMILY_KINDS}")
        if self.m < 1:
            raise OutOfRange(f"multiplicity must be >= 1, got {self.m}")

    @property
    def n(self) -> int:
        return 2 if self.kind == "two" else 3

    def domain(self) -> tuple[float, float]:
        """Open interval of the free parameter with all lambda_i > 0."""
        if self.kind == "two":
            return 0.0, 1.0 / self.m
        half = 1.0 / (3.0 * self.m)
        return -half, half

    def values(self, t: float) -> np.ndarray:
        """Eigenvalues at parameter t on the normalized curve."""
        if self.kind == "two":
            return np.array([t, 1.0 / self.m - t])
        mid = 1.0 / (3.0 * self.m)
        return np.array([mid - t, mid, mid + t])

    def parameter(self, point: tuple[float, float]) -> float:
        """Map a (u, v) point onto the free parameter, checking normalization."""
        u, v = float(point[0]), float(point[1])
        if self.kind == "two":
            resid = abs(self.m * (u + v) - 1.0)
            t = u
        else:
            resid = abs(3.0 * self.m * (u + v) - 1.0)
            t = v
        if not resid <= NORMALIZATION_TOL:
            raise OutOfRange(f"point {point} off the normalized curve (residual {resid:.2e})")
        lo, hi = self.domain()
        if not (lo < t < hi) or np.any(self.values(t) <= 0.0):
            raise OutOfRange(f"point {point} leaves the positive-spectrum domain")
        return t

    def concurrence(self, t: float) -> float:
        """D(t) = m*n*sqrt(prod lambda_i(t))."""
        return concurrence_of_values(self.values(t), self.m)


def entropy_bits(values) -> float:
    """Shannon entropy -sum lambda log2(lambda) in bits; values <= 0 add nothing."""
    h = 0.0
    for v in values.tolist() if isinstance(values, np.ndarray) else map(float, values):
        if v > 0.0:
            h -= v * math.log2(v)
    return h


def concurrence_of_values(values, m: int) -> float:
    """Generalized concurrence m*n*sqrt(prod lambda) of n distinct nonnegative values."""
    return m * len(values) * math.sqrt(math.prod(values))


def eof_from_spectrum(values, m: int) -> float:
    """Entanglement -sum_i m * lambda_i * log2(lambda_i) for distinct values."""
    lam = np.asarray(values, dtype=float)
    if lam.size == 0 or not np.all(lam > 0.0):
        raise BadSpectrum(f"eigenvalues must be positive, got {values}")
    if m * lam.sum() > 1.0 + 1e-8:
        raise BadSpectrum(f"m * sum(values) = {m * lam.sum()!r} exceeds 1")
    return m * entropy_bits(lam)


def eof_of_d(d: float, m: int) -> float:
    """Entanglement as a function of the two-eigenvalue concurrence d.

    The spectrum behind a given d in [0, 1] has two distinct values of
    multiplicity m, x and 1/m - x with x = (1 + sqrt(1 - d^2)) / (2m), and

        E = m * (-x log2 x - (1/m - x) log2(1/m - x)).

    E(1, m) = log2(2m) and E is increasing and convex on [0, 1].  E is
    m entropy_bits((x, 1/m - x)) bit for bit.
    """
    if m < 1:
        raise OutOfRange(f"multiplicity must be >= 1, got {m}")
    if not (0.0 <= d <= 1.0):
        raise OutOfRange(f"d = {d!r} outside [0, 1]")
    x = (1.0 + math.sqrt(1.0 - d * d)) / (2.0 * m)
    y = 1.0 / m - x
    h = 0.0 - x * math.log2(x)
    if y > 0.0:
        h -= y * math.log2(y)
    return m * h


def d_two_eigen(lam1: float, lam2: float, m: int) -> float:
    """Concurrence d = 2m sqrt(lam1 lam2) of a two-value spectrum, m (lam1 + lam2) <= 1 (NaN and inf are not)."""
    if not (lam1 >= 0.0 and lam2 >= 0.0 and m * (lam1 + lam2) <= 1.0 + 1e-8):
        raise OutOfRange(f"eigenvalues must be nonnegative with m * sum <= 1, got {(lam1, lam2)} at m = {m}")
    return concurrence_of_values((lam1, lam2), m)


def eof_of_bound(d: float, m: int, n: int) -> float:
    """Entanglement bound E(D) from a clamped lower bound d on D; d <= 0 gives 0.

    n = 2 maps d through ``eof_of_d``.  n = 3 takes the arithmetic-family
    spectrum with D = d, v = sqrt(1 - 3 m d^2) / (3m), forming its smallest
    value 1/(3m) - v as d^2 / (1 + sqrt(1 - 3 m d^2)) to keep it positive.

    Raises
    ------
    UnsupportedFamily
        For n outside {2, 3}.
    OutOfRange
        For m < 1, or if d exceeds the family's maximum beyond roundoff.
    """
    if n not in (2, 3):
        raise UnsupportedFamily(f"no spectrum family for n = {n}")
    if m < 1:
        raise OutOfRange(f"multiplicity must be >= 1, got {m}")
    if d <= 0.0:
        return 0.0
    dmax = 1.0 if n == 2 else 1.0 / math.sqrt(3.0 * m)
    if d > dmax * (1.0 + 1e-9):
        raise OutOfRange(f"bound {d!r} exceeds the n = {n} family maximum {dmax!r}")
    d = min(d, dmax)
    if n == 2:
        return eof_of_d(d, m)
    root = math.sqrt(max(1.0 - 3.0 * m * d * d, 0.0))
    half = 1.0 / (3.0 * m)
    return eof_from_spectrum((d * d / (1.0 + root), half, half + root / (3.0 * m)), m)


def _central1(f, t: float, h: float) -> float:
    d = lambda s: (f(t + s) - f(t - s)) / (2.0 * s)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def _central2(f, t: float, h: float) -> float:
    f0 = f(t)
    d = lambda s: (f(t + s) - 2.0 * f0 + f(t - s)) / (s * s)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def _derivatives(family: EigFamily, point):
    """First and second derivatives of lambda_i with respect to D at a point.

    Returns (lam, dlam_dD, d2lam_dD2, dD_dt).  All t-derivatives use
    Richardson-extrapolated central differences with step BASE_STEP times
    the domain width (at most half the way to its ends), chained into
    D-derivatives via dD/dt; |dD/dt| below 1e-12 is a degenerate point.
    """
    t = family.parameter(point)
    lo, hi = family.domain()
    h = min(BASE_STEP * (hi - lo), 0.5 * (t - lo), 0.5 * (hi - t))
    if h <= 0.0:
        raise OutOfRange(f"no room for a finite-difference stencil at {point}")

    lam = family.values(t)
    dD = _central1(family.concurrence, t, h)
    if abs(dD) < 1e-12:
        raise DegeneratePoint(f"dD/dt = {dD:.2e} at {point}; D is stationary here")
    d2D = _central2(family.concurrence, t, h)

    dlam_dt = _central1(family.values, t, h)
    d2lam_dt = _central2(family.values, t, h)

    dlam_dD = dlam_dt / dD
    d2lam_dD2 = d2lam_dt / dD**2 - dlam_dt * d2D / dD**3
    return lam, dlam_dD, d2lam_dD2, dD


def lemma_value(family: EigFamily, point: tuple[float, float]) -> float:
    """Monotonicity indicator sum_i (dlambda_i/dD) log2(lambda_i).

    A strictly negative value (margin 1e-9) certifies that entanglement is
    increasing in D along the family; values in (-1e-9, 0) are inconclusive.
    """
    lam, dlam_dD, _, _ = _derivatives(family, point)
    return float(np.sum(dlam_dD * np.log2(lam)))


def dE_dD(family: EigFamily, point: tuple[float, float]) -> float:
    """Derivative of entanglement with respect to D along the family.

    E = -m sum_i lambda_i log2(lambda_i), so dE/dD = -m * lemma_value (the
    dlambda_i/dD sum to 0): positive exactly when lemma_value is negative.
    """
    return -family.m * lemma_value(family, point)


def convexity_value(family: EigFamily, point: tuple[float, float]) -> float:
    """Convexity indicator for entanglement as a function of D.

    Evaluates sum_i [ (1/lambda_i)(dlambda_i/dD)^2 + (d^2lambda_i/dD^2) ln lambda_i ],
    which is -(ln 2 / m) times the second derivative of entanglement in D;
    E is convex in D exactly when this is negative.
    """
    lam, dlam_dD, d2lam_dD2, _ = _derivatives(family, point)
    return float(np.sum(dlam_dD**2 / lam + d2lam_dD2 * np.log(lam)))


def arith3_closed_forms(m: int, v: float) -> tuple[float, float]:
    """Closed forms of the two sign conditions for the arith3 family.

    Returns (lemma_cf, convexity_cf):

        lemma_cf     = (1 / (3 m v sqrt(3m))) sqrt(1 - 9 m^2 v^2)
                       * log2((1 - 3mv) / (1 + 3mv))
        convexity_cf = (1 / (27 m^3 v^3)) (6 m v + ln((1 - 3mv) / (1 + 3mv)))

    Both are negative throughout 0 < |v| < 1/(3m).
    """
    if m < 1:
        raise OutOfRange(f"multiplicity must be >= 1, got {m}")
    if v == 0.0 or not (abs(v) < 1.0 / (3.0 * m)):
        raise OutOfRange(f"need 0 < |v| < 1/(3m), got v = {v!r}")
    mv = m * v
    ratio = (1.0 - 3.0 * mv) / (1.0 + 3.0 * mv)
    lemma_cf = (
        math.sqrt(1.0 - 9.0 * mv * mv) * math.log2(ratio) / (3.0 * mv * math.sqrt(3.0 * m))
    )
    convexity_cf = (6.0 * mv + math.log(ratio)) / (27.0 * (mv) ** 3)
    return float(lemma_cf), float(convexity_cf)
