"""Scalar Gaussian-state algebra in shot-noise units (vacuum variance 1).

The key-rate kernel (``protocols._gain_objective``) works on the symmetric
two-mode form (a, b, c) of the reduced Alice-Bob state, as floats, and
checks it itself: ``two_mode_symplectic`` gives its symplectic pair,
``g_func`` the entropy of one thermal mode, and ``g_slope`` the weight of
a symplectic eigenvalue in the slope of the chi_n -> inf limit.  The first
two are called through the ``protocols`` module globals, where the
benchmark's tracer counts them.
Everything here uses ``math`` only.  The multimode matrix engine, which no
key-rate path runs, is ``cvmdi.matrix``; the two-mode check, conditioning,
entropies and the two-mode matrix form, which only tests run, live in
``tests/oracle.py``.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError, NumericDomainError

LN2 = math.log(2.0)

PHYSICALITY_TOL = 1e-9

# Veltkamp's splitter for 53-bit doubles, 2^27 + 1.
_SPLIT = 134217729.0
# two_mode_symplectic rescales inputs of magnitude 2^500 and above by 2^-600,
# which keeps every product and split of its error-free products in range.
_HUGE, _DOWN, _UP = 2.0 ** 500, 2.0 ** -600, 2.0 ** 600


def two_mode_symplectic(a: float, b: float, c: float) -> tuple[float, float]:
    """Symplectic eigenvalue pair of the symmetric two-mode form, in doubles.

    lambda1,2 = (s +/- d) / 2 with d = |a - b|, B = ab - c^2 and
    s = sqrt((a + b)^2 - 4c^2) = hypot(d, 2 sqrt(B)); the smaller root is
    taken as lambda2 = B / lambda1, from the root product, so no difference
    cancels.  B is the one quantity that can: it comes from two error-free
    products, ab = p + e and c^2 = q + f, as (p - q) + (e - f), where p - q
    is exact by Sterbenz's lemma whenever c^2 is near ab.  So B is within
    an ulp, and the pair within a few: against 50-digit arithmetic, with a
    and b up to 1e7 and c at the physical edge, lambda1 came within 1.5 ulp
    and lambda2 within 3 ulp on 3,000 seeded points.

    Inputs of magnitude 2^500 and above are scaled by 2^-600 and the pair
    scaled back: powers of two are exact, and the products stay in range,
    so no input the pair fits in overflows on the way.  A NaN or infinite
    input makes B NaN, which fails ``B > 0``; an unphysical input fails
    ``B > 0`` or ``lambda2 >= 1 - 1e-6``.  Both raise NumericDomainError
    with the failing value in the message.
    """
    x, y, z, scale = a, b, c, 1.0
    if abs(a) >= _HUGE or abs(b) >= _HUGE or abs(c) >= _HUGE:
        x, y, z, scale = a * _DOWN, b * _DOWN, c * _DOWN, _UP
    # Dekker's products of Veltkamp-split halves (Numer. Math. 18, 224,
    # 1971): x y = p + e and z^2 = q + f exactly, while no product or
    # split overflows or underflows, so for magnitudes in [2^-400, 2^400]
    p, q = x * y, z * z
    t = _SPLIT * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    t = _SPLIT * y
    y_hi = t - (t - y)
    y_lo = y - y_hi
    t = _SPLIT * z
    z_hi = t - (t - z)
    z_lo = z - z_hi
    e = ((x_hi * y_hi - p) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo
    f = ((z_hi * z_hi - q) + z_hi * z_lo + z_lo * z_hi) + z_lo * z_lo
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


def g_func(x: float) -> float:
    """Entropy of a thermal mode with mean photon number x, in bits.

    (x+1) log2(x+1) - x log2 x, continuous at 0.  Written via log1p so the
    large-x cancellation between the two terms never occurs; the absolute
    error stays below 1e-12 bits out to x = 1e12 and beyond.  Where 1/x
    overflows (x below about 5.6e-309), log1p(1/x) is taken as
    log1p(x) - log(x), so a subnormal x gives its tiny entropy, not inf.
    NaN fails the x >= 0 test.
    """
    if not x >= 0.0:
        raise InvalidParameterError(f"g_func argument must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    inv = 1.0 / x
    log_inv = math.log1p(x) - math.log(x) if inv == math.inf else math.log1p(inv)
    return x * log_inv / LN2 + math.log2(x + 1.0)


def g_slope(x: float) -> float:
    """(lambda^2 - 1) dG/dlambda in bits, where G(lambda) = g_func(x) is the
    entropy of a mode of symplectic eigenvalue lambda = 2x + 1.

    That is (lambda^2 - 1) log2((lambda + 1)/(lambda - 1)) / 2
    = 2 x (x + 1) log2(1 + 1/x), 0 at x = 0, with the log1p of ``g_func``
    and its guard for an x whose 1/x overflows.  It is the weight of an
    eigenvalue in the chi_n -> inf slope of the trusted-noise key rate
    (``protocols._gain_objective``).  NaN fails the x >= 0 test.
    """
    if not x >= 0.0:
        raise InvalidParameterError(f"g_slope argument must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    inv = 1.0 / x
    log_inv = math.log1p(x) - math.log(x) if inv == math.inf else math.log1p(inv)
    return 2.0 * (x + 1.0) * (x * log_inv) / LN2

