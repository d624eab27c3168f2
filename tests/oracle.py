"""The test-only half of the multimode Gaussian engine.

The key-rate path of ``cvmdi`` works on the reduced Alice-Bob state
(a, b, c) in scalar arithmetic.  The matrix route the tests check it
against is assembled from ``cvmdi.matrix`` (states, beamsplitters, partial
traces, symplectic spectra and ``build_mdi_state``), which stays in the
library but off its import path, plus what follows here, which no
production path runs: conditioning on a homodyne or heterodyne
measurement, von Neumann entropies, the conditioning-based Holevo bound,
reading (a, b, c) off a two-mode covariance, and the reverse, (a, b, c) as
a matrix.  Last comes the key-rate kernel written as one function per
formula, the reference that the one-frame kernel of
``protocols._gain_objective`` matches bit for bit.  The key rate reads
added noise as its variance chi_n alone; the circuits here realise it as a
beamsplitter (t_r, n_r), canonically ``canonical_realisation(chi_n)``.
"""

from __future__ import annotations

import math

import numpy as np

from cvmdi.errors import InvalidParameterError, NumericDomainError
from cvmdi.gaussian import _SPLIT, _DOWN, _HUGE, _UP, PHYSICALITY_TOL, g_func
from cvmdi.matrix import GaussianState, _quad_indices, symplectic_eigenvalues
from cvmdi.protocols import _EPS, CHI_CLAMP_TOL, TWO_MODE_TOL

_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def vacuum_state(n_modes: int = 1) -> GaussianState:
    return GaussianState(np.eye(2 * n_modes))


class AsymmetricFormError(Exception):
    """A two-mode covariance is not of the symmetric form: the circuit that
    assembled it has a bug."""


def canonical_realisation(chi_n: float) -> tuple[float, float]:
    """(t_r, n_r) of a trusted-noise beamsplitter that adds ``chi_n``.

    n_r = 1 + chi_n with t_r = (1 + chi_n)/(1 + 2 chi_n) keeps n_r >= 1 for
    every chi_n >= 0 and degenerates to the identity at chi_n = 0.  Any pair
    with (1 - t_r) n_r / t_r = chi_n gives the same key rate.
    """
    return (1.0 + chi_n) / (1.0 + 2.0 * chi_n), 1.0 + chi_n


def realised_chi_n(t_r: float, n_r: float) -> float:
    """The chi_n that the beamsplitter (t_r, n_r) adds."""
    return (1.0 - t_r) * n_r / t_r


def two_mode_state(a: float, b: float, c: float) -> GaussianState:
    """The covariance [[a I, c sz], [c sz, b I]] of a symmetric two-mode form."""
    return GaussianState(np.block([
        [a * np.eye(2), c * _SIGMA_Z],
        [c * _SIGMA_Z, b * np.eye(2)],
    ]))


def extract_two_mode(state: GaussianState) -> tuple[float, float, float]:
    """Read (a, b, c) off a two-mode covariance of the symmetric form and
    check it with ``check_two_mode``.

    Any x/p asymmetry or x-p cross coupling beyond TWO_MODE_TOL * max-entry
    signals a circuit-assembly bug and raises AsymmetricFormError.
    """
    if state.n_modes != 2:
        raise InvalidParameterError(f"expected a two-mode state, got {state.n_modes} modes")
    cov = state.cov
    scale = max(1.0, float(np.abs(cov).max()))
    a, b = cov[0, 0], cov[2, 2]
    c = cov[0, 2]
    expected = np.array([
        [a, 0.0, c, 0.0],
        [0.0, a, 0.0, -c],
        [c, 0.0, b, 0.0],
        [0.0, -c, 0.0, b],
    ])
    dev = float(np.abs(cov - expected).max())
    tol = TWO_MODE_TOL * scale
    if dev > tol:
        raise AsymmetricFormError(
            f"covariance deviates from the symmetric two-mode form by {dev} "
            f"(tolerance {tol})")
    a, b, c = float(a), float(b), float(c)
    check_two_mode(a, b, c)
    return a, b, c


def _split_measured(state: GaussianState, mode: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if state.n_modes < 2:
        raise InvalidParameterError("conditioning needs at least two modes")
    if not 0 <= mode < state.n_modes:
        raise InvalidParameterError(f"mode index {mode} out of range for {state.n_modes} modes")
    kept_modes = [m for m in range(state.n_modes) if m != mode]
    ki = _quad_indices(kept_modes)
    mi = [2 * mode, 2 * mode + 1]
    gamma_k = state.cov[np.ix_(ki, ki)]
    gamma_m = state.cov[np.ix_(mi, mi)]
    sigma = state.cov[np.ix_(mi, ki)]  # measured x kept cross block
    return gamma_k, gamma_m, sigma


def homodyne_condition(state: GaussianState, mode: int, quadrature: str = "x") -> GaussianState:
    """Conditional state of the other modes after a homodyne measurement.

    Schur complement with the Moore-Penrose pseudo-inverse of X gamma X
    (X the single-quadrature projector), which reduces to dividing by the
    measured quadrature's variance.  The result is outcome-independent.
    """
    if quadrature not in ("x", "p"):
        raise InvalidParameterError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    gamma_k, gamma_m, sigma = _split_measured(state, mode)
    q = 0 if quadrature == "x" else 1
    var = gamma_m[q, q]
    if var <= 0.0:
        raise NumericDomainError(f"measured quadrature variance {var} is not positive")
    row = sigma[q]
    return GaussianState(gamma_k - np.outer(row, row) / var)


def heterodyne_condition(state: GaussianState, mode: int) -> GaussianState:
    """Conditional state after heterodyne: gamma_k - sigma^T (gamma_m + I)^-1 sigma."""
    gamma_k, gamma_m, sigma = _split_measured(state, mode)
    b = gamma_m + np.eye(2)
    det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    if det <= 0.0:
        raise NumericDomainError("heterodyne conditioning matrix is singular")
    binv = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]]) / det
    return GaussianState(gamma_k - sigma.T @ binv @ sigma)


def von_neumann_entropy(state: GaussianState) -> float:
    """Sum of g_func((lambda - 1)/2) over the symplectic spectrum, in bits."""
    total = 0.0
    for lam in symplectic_eigenvalues(state):
        x = (float(lam) - 1.0) / 2.0
        if x < 0.0:
            if x < -1e-6:
                raise NumericDomainError(
                    f"symplectic eigenvalue {lam} far below 1 in entropy computation")
            x = 0.0
        total += g_func(x)
    return total


def holevo_generic(state: GaussianState, measured_mode: int, conditioning: str) -> float:
    """Conditioning-based Holevo bound: S(state) - S(state | Bob's data).

    Full von Neumann entropies on the kept-mode state, with homodyne
    ('x'-quadrature) or heterodyne conditioning on Bob's mode: an
    independent cross-check of the closed-form routes.
    """
    if conditioning == "homodyne":
        cond = homodyne_condition(state, measured_mode, "x")
    elif conditioning == "heterodyne":
        cond = heterodyne_condition(state, measured_mode)
    else:
        raise InvalidParameterError(f"unknown conditioning {conditioning!r}")
    return von_neumann_entropy(state) - von_neumann_entropy(cond)


# The key-rate kernel as separate functions, one per formula: the reduced
# state, the two-mode check, the symplectic pair from Dekker's products, the
# mutual information, the conditional spectrum, the Holevo sum and the
# physicality of a reported point.  ``protocols._gain_objective`` runs the
# same arithmetic in one frame, and must match these bit for bit, raises
# included (``tests/test_protocols.py``).


def check_two_mode(a: float, b: float, c: float) -> None:
    """Raise unless a, b >= 1 and ab - c^2 >= 1 - PHYSICALITY_TOL: the validity
    of the symmetric two-mode form (a, b, c) that the key-rate kernel works
    on.  Both tests are written so that NaN fails them.  Between them, a
    finite c whose square overflows raises NumericDomainError: numeric
    trouble, not an unphysical input."""
    if not (a >= 1.0 and b >= 1.0):
        raise InvalidParameterError(f"mode variances must be >= 1, got a={a}, b={b}")
    cc = c * c
    if cc == math.inf:
        raise NumericDomainError(f"reduced state overflows: c^2 = {cc} at c = {c}")
    det = a * b - cc
    if not det >= 1.0 - PHYSICALITY_TOL:
        raise InvalidParameterError(f"unphysical two-mode form: ab - c^2 = {det}")


def two_product(x: float, y: float) -> tuple[float, float]:
    """(p, e) with p = fl(x y) and p + e = x y exactly: Dekker's product of
    Veltkamp-split halves (Numer. Math. 18, 224, 1971).  Error-free while
    nothing overflows or underflows, so for |x| and |y| in [2^-400, 2^400]."""
    p = x * y
    t = _SPLIT * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    t = _SPLIT * y
    y_hi = t - (t - y)
    y_lo = y - y_hi
    return p, ((x_hi * y_hi - p) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo


def symplectic_pair(a: float, b: float, c: float) -> tuple[float, float]:
    """The symplectic pair of ``cvmdi.gaussian.two_mode_symplectic``, with
    ``ab - c^2`` from two calls of ``two_product``."""
    x, y, z, scale = a, b, c, 1.0
    if max(abs(a), abs(b), abs(c)) >= _HUGE:
        x, y, z, scale = a * _DOWN, b * _DOWN, c * _DOWN, _UP
    p, e = two_product(x, y)
    q, f = two_product(z, z)
    big_b = (p - q) + (e - f)
    if not big_b > 0.0:
        raise NumericDomainError(
            f"unphysical two-mode input (a={a}, b={b}, c={c}): "
            f"ab - c^2 = {big_b * scale * scale}")
    d = abs(x - y)
    lam1 = 0.5 * (math.hypot(d, 2.0 * math.sqrt(big_b)) + d)
    lam2 = big_b / lam1 * scale
    # rounding in an assembled covariance can push lambda2 a few ulp below 1;
    # anything clearly below is a genuinely unphysical input
    if not lam2 >= 1.0 - 1e-6:
        raise NumericDomainError(
            f"unphysical two-mode input (a={a}, b={b}, c={c}): lambda2 = {lam2}")
    return lam1 * scale, lam2


def reduced_state(coeffs: tuple[float, ...], g: float) -> tuple[float, float, float]:
    """Reduced state (a, b, c) of (A3, B4) at one gain, in scalar arithmetic.

    ``coeffs`` is ``protocols._gain_coefficients(params)``; the operation
    order is that of the matrix product of ``cvmdi.matrix._displaced_pair``.  When rounding
    in b, whose terms can cancel from far above its value, exceeds
    TWO_MODE_TOL of the largest of 1, a, b and |c| (the tolerance of
    ``extract_two_mode``), b is not certified and NumericDomainError is
    raised; so it is when b or c overflows.  The result passes
    ``check_two_mode``.
    """
    a, b0, b1, b2, c0, c1 = coeffs
    b = (g * b2 + b1) * g + (g * b1 + b0)
    c = c1 * g + c0
    # an overflow stops here, with the gain in the message, before the eigenvalues
    if not (abs(b) < math.inf and abs(c) < math.inf):
        raise NumericDomainError(f"reduced state overflows at gain {g}: b = {b}, c = {c}")
    tol = TWO_MODE_TOL * max(1.0, abs(a), abs(b), abs(c))
    err_b = 4.0 * _EPS * (abs(b0) + 2.0 * abs(g * b1) + g * g * abs(b2))
    if err_b > tol:
        raise NumericDomainError(
            f"b = {b} cancels from terms of size {abs(b0) + g * g * abs(b2)}: "
            f"rounding {err_b} exceeds the tolerance {tol}")
    check_two_mode(a, b, c)
    return a, b, c


def homodyne_info(a: float, b: float, c: float) -> float:
    """Gaussian mutual information for matched homodyne pairs, bits/use."""
    # an overflowed ab leaves denom infinite or NaN, and both fail the test
    denom = a * b - c * c
    if not 0.0 < denom < math.inf:
        raise NumericDomainError(f"ab - c^2 = {denom} is not positive and finite")
    return 0.5 * math.log2(a * b / denom)


def heterodyne_info(a: float, b: float, c: float) -> float:
    """Mutual information for heterodyne on both sides, bits/use: both
    quadratures measured, at a one-unit vacuum penalty each."""
    prod = (a + 1.0) * (b + 1.0)
    denom = prod - c * c
    if not 0.0 < denom < math.inf:
        raise NumericDomainError(f"(a+1)(b+1) - c^2 = {denom} is not positive and finite")
    return math.log2(prod / denom)


def trusted_noise_conditional(a: float, b: float, c: float,
                              chi_n: float) -> tuple[float, float, float]:
    """Conditional spectrum of (A3, N1, N3) given Bob's homodyne on B5 (Lodewyck et al.).

    lambda3,4^2 = (A +/- sqrt(A^2 - 4B))/2 and lambda5 = 1, with the
    smaller root taken from lambda3*lambda4 = sqrt(B) to avoid cancellation.
    A lambda4 within 1e-9 below 1 is roundoff; further below is unphysical.
    """
    det = a * b - c * c
    big_a = (chi_n * (a * a + b * b - 2.0 * c * c) + a * det + b) / (b + chi_n)
    big_b = det * (a + det * chi_n) / (b + chi_n)
    if not big_b > 0.0:
        raise NumericDomainError(f"trusted-noise conditional B = {big_b} is not positive")
    disc = big_a * big_a - 4.0 * big_b
    if disc < -1e-9 * big_a * big_a:
        raise NumericDomainError(f"trusted-noise conditional discriminant {disc} is negative")
    lam3 = math.sqrt((big_a + math.sqrt(max(disc, 0.0))) / 2.0)
    lam4 = math.sqrt(big_b) / lam3
    if not lam4 >= 1.0 - 1e-9:
        raise NumericDomainError(f"trusted-noise conditional eigenvalue {lam4} is below 1")
    return lam3, lam4, 1.0


def rate_terms(a: float, b: float, c: float, protocol: str,
               chi_n: float = 0.0) -> tuple[float, float, tuple[float, ...], bool]:
    """(I_AB, chi, lambdas, clamped) of one protocol on the reduced state (a, b, c).

    The trusted noise adds chi_n to Bob's variance in I_AB only.  Eve
    purifies the channel, not Bob's trusted noise, so the unconditional
    Holevo term is that of (a, b, c) for every protocol; at chi_n > 0 the
    conditional term includes the retained noise modes N1, N3.  Every guard
    is written so that NaN fails it: an overflow anywhere raises
    NumericDomainError rather than reaching the result.
    """
    lam1, lam2 = symplectic_pair(a, b, c)
    if protocol == "coherent":
        i_ab = heterodyne_info(a, b, c)
        lam3 = a - c * c / (b + 1.0)
        if not lam3 > 0.0:
            raise NumericDomainError(f"conditional eigenvalue {lam3} is not positive")
        cond = (lam3,)
    elif chi_n == 0.0:
        i_ab = homodyne_info(a, b, c)
        lam3_sq = a * (a - c * c / b)
        if not lam3_sq > 0.0:
            raise NumericDomainError(f"conditional eigenvalue squared {lam3_sq} is not positive")
        cond = (math.sqrt(lam3_sq),)
    else:
        # a valid (a, b, c) and a finite chi_n >= 0 keep (a, b + chi_n, c) valid
        i_ab = homodyne_info(a, b + chi_n, c)
        cond = trusted_noise_conditional(a, b, c, chi_n)
    # an eigenvalue at or below 1 adds g(0) = 0 and is skipped; a NaN is
    # not <= 1, so it still reaches g_func, which rejects it
    chi = 0.0
    try:
        for lam in (lam1, lam2):
            if not lam <= 1.0:
                chi += g_func((lam - 1.0) / 2.0)
        for lam in cond:
            if not lam <= 1.0:
                chi -= g_func((lam - 1.0) / 2.0)
    except InvalidParameterError:
        # g_func rejects only NaN here: numeric trouble, reported below
        chi = math.nan
    lams = (lam1, lam2, *cond)
    if chi >= 0.0:
        return i_ab, chi, lams, False
    if not chi >= -CHI_CLAMP_TOL:
        raise NumericDomainError(
            f"Holevo bound came out {chi}, not >= -{CHI_CLAMP_TOL}: likely a bug or an overflow")
    return i_ab, 0.0, lams, True


def require_physical_pair(a: float, b: float, c: float, lam2: float) -> None:
    """Physicality of the displaced pair (A3, B4) = (a, b, c) from its smaller
    symplectic eigenvalue, at the tolerance ``GaussianState.require_physical``
    applies to the same covariance in ``cvmdi.matrix.build_mdi_state``."""
    eff = max(PHYSICALITY_TOL, 64.0 * _EPS * max(1.0, abs(a), abs(b), abs(c)))
    if lam2 < 1.0 - eff:
        raise NumericDomainError(
            f"unphysical covariance at stage 'feedforward': min symplectic eigenvalue {lam2!r}")
