"""Entanglement-based CV-MDI circuits and asymptotic key rates.

Three reverse-reconciliation protocol variants share one relay circuit:

* ``squeezed``           - both parties homodyne their retained EPR modes.
* ``squeezed-modified``  - as above, with trusted Gaussian noise chi_n mixed
                           into Bob's mode before his homodyne detection.
* ``coherent``           - both parties heterodyne (coherent-state baseline).

A key rate is evaluated in two steps.  Once per parameter point, the
relay is one quadrature of the circuit in plain floats
(``_gain_coefficients``): the few entries of the gain-independent relay
covariance of modes (A3, C2, B3, D2) that the displaced pair (A3, B4)
reads, its gain coefficients.  Each product and sum runs in the order of
the matrix route's ``s @ cov @ s.T``.  x and p mirror by construction (+c
on x, -c on p), so only the x side is computed.  Then one function of the
gain, built once per point by ``_gain_objective``, evaluates a gain in one
frame: the reduced Alice-Bob state (a, b, c), a scalar quadratic in g over
those coefficients, its guards, and the key rate as a closed-form function
of (a, b, c), chi_n and the protocol, with the trusted-noise Holevo term
of Lodewyck et al., PRA 76, 042305 (2007).  The gain search maximises it,
and ``key_rate`` asks it for the report at the chosen gain, so the kernel
is written once.  Its first half (the reduced state, its guards, the
symplectic pair and their two entropies) reads only the channel and the
gain.  Every objective keeps the relay coefficients and each gain's
first half in a memo, a dict keyed by the channel: its own when given
none, which a gain-searched ``key_rate`` shares with its ``optimal_gain``.
A search that evaluates many gains at one channel passes every call one
memo, whatever the protocol or chi_n; ``cvmdi.analysis`` makes one per
``optimize_added_noise``, ``max_distance`` or ``key_rate_at_best_noise``
call and drops it when the call returns.  A reported point is certified
physical from the smaller symplectic eigenvalue of (a, b, c), at the
tolerance of the matrix route's ``GaussianState.require_physical``.

Two gain searches share one bracket, GAIN_TOL and widening rule
(``_search_gain``).  ``optimal_gain``'s golden section gives every
reported gain, because ``bench/reference.json`` pins its bits at its
V = 1e5, L = 0 sweep points.  Brent's method (``search.brent_max``, about
14 evaluations where golden takes 37) searches the gain of the slope D
below, which is never reported, and of K under the ``brent=True`` of
``key_rate``, which only the distance trials of ``cvmdi.analysis`` pass:
they read the sign of K alone.  Once the reference is re-recorded
(ROADMAP item 1), Brent serves every search and the keyword goes.

Added noise is its variance chi_n alone, finite and >= 0
(``AddedNoiseParams``): the key rate depends on nothing else of the
trusted-noise beamsplitter, so no realisation of it is built here.

As chi_n -> inf, K vanishes like D/chi_n, and the sign of the slope
D = lim chi_n K decides the sign of K at every large enough chi_n.
``noise_limit_slope`` is the one entry to that limit; no AddedNoiseParams
names it.  The kernel gives D from the first half alone.  With
e = 1/chi_n, beta I_AB = beta c^2 e / (2 a ln 2) + O(e^2), and the
conditional pair (lambda3, lambda4) tends to the pair
(l1, l2) = (lambda1, lambda2) of (a, b, c) linearly in e: at e = 0 the
e-derivatives of lambda3^2 and lambda4^2 are
x1 = l1 (l1^2 - 1)(a l2 - b l1)/s and x2 = l2 (l2^2 - 1)(b l2 - a l1)/s,
with s = l1^2 - l2^2.  With G(l) the entropy of a mode of symplectic
eigenvalue l and h(l) = (l^2 - 1) G'(l) = (l^2 - 1) log2((l + 1)/(l - 1))/2
(``gaussian.g_slope``), D = beta c^2/(2 a ln 2) + h(l1) x1/(2 l1 (l1^2 - 1))
+ h(l2) x2/(2 l2 (l2^2 - 1)).  Put d = |a - b|,
sigma = l1 + l2 and w = a + b + sigma.  For a >= b, a l2 - b l1 =
-2 d c^2/w, b l2 - a l1 = -d w/2 and s = sigma d, so

    D = beta c^2/(2 a ln 2) - h(l1) c^2/(sigma w) - h(l2) w/(4 sigma),

and for a < b the two factors c^2/(sigma w) and w/(4 sigma) swap.  No 1/s
and no difference of large terms remains, so the symmetric pair (a = b)
and a pure one (l2 = 1, h = 0) need no special case.  The form with 1/s,
evaluated in doubles, cancels: at V = 1e5 it got the sign of D wrong.

The matrix route is not on the key-rate path and is not loaded with this
module.  It lives in ``cvmdi.matrix`` (numpy covariance matrices,
``build_mdi_state`` with its four-mode (A3, B5, N1, N3) circuit for a
trusted-noise beamsplitter), the oracle the tests check the scalar kernel
against.  The benchmark's tracer (``bench/tracer.py``) binds
``build_mdi_state`` and ``symplectic_eigenvalues`` in this module, so the
module ``__getattr__`` serves both from ``cvmdi.matrix`` on first use.  The
rest of the oracle (``extract_two_mode``, ``holevo_generic``, conditioning
and entropies) lives in ``tests/oracle.py``.

Sign conventions (fixed so the reduced Alice-Bob state has the symmetric
two-mode form a,b,c with +c on x and -c on p):

    A1 = sqrt(T1) A2 + sqrt(1-T1) E1        channel with entangling cloner
    B1 = sqrt(T2) B2 + sqrt(1-T2) E2
    C  = (A1 - B1)/sqrt(2),  D = (A1 + B1)/sqrt(2)
    C2 = sqrt(eta) C + sqrt(1-eta) F0       practical detector model
    D2 = sqrt(eta) D + sqrt(1-eta) I0
    B4x = B3x + g C2x,  B4p = B3p + g D2p   displacement with gain g

All excess noises are referred to the channel output (the relay input):
a channel of transmittance T delivers variance T*V + (1-T) + eps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import InvalidParameterError, NumericDomainError
from .gaussian import LN2, PHYSICALITY_TOL, g_func, g_slope, two_mode_symplectic
from .search import brent_max, golden_section_max

PROTOCOLS = ("coherent", "squeezed", "squeezed-modified")

# chi < -CHI_CLAMP_TOL signals a bug; above it the value is clamped to 0
# (pure-state limit roundoff) and flagged on the report.
CHI_CLAMP_TOL = 1e-9

GAIN_TOL = 1e-6

# Relative tolerance of the symmetric two-mode form (a, b, c) of (A3, B4).
TWO_MODE_TOL = 1e-8

_EPS = sys.float_info.epsilon
_FOUR_EPS = 4.0 * _EPS
_DET_FLOOR = 1.0 - PHYSICALITY_TOL


@dataclass(frozen=True)
class ProtocolParams:
    """Full experiment configuration in shot-noise units and km."""

    v_a: float
    v_b: float
    l_ac: float
    l_bc: float
    alpha: float = 0.2
    eps1: float = 0.002
    eps2: float = 0.002
    eta: float = 1.0
    v_el: float = 0.0
    beta: float = 1.0
    gain: float | None = None
    protocol: str = "squeezed"

    def __post_init__(self):
        for name in _REAL_FIELDS:
            x = getattr(self, name)
            if x is not None and not math.isfinite(x):
                raise InvalidParameterError(f"{name} must be finite, got {x}")
        # each message is a template, formatted only when its check fails
        checks = (
            (self.v_a >= 1.0, "v_a must be >= 1, got {0.v_a}"),
            (self.v_b >= 1.0, "v_b must be >= 1, got {0.v_b}"),
            (self.l_ac >= 0.0, "l_ac must be >= 0, got {0.l_ac}"),
            (self.l_bc >= 0.0, "l_bc must be >= 0, got {0.l_bc}"),
            (self.alpha >= 0.0, "alpha must be >= 0, got {0.alpha}"),
            (self.eps1 >= 0.0, "eps1 must be >= 0, got {0.eps1}"),
            (self.eps2 >= 0.0, "eps2 must be >= 0, got {0.eps2}"),
            (0.0 < self.eta <= 1.0, "eta must be in (0, 1], got {0.eta}"),
            (self.v_el >= 0.0, "v_el must be >= 0, got {0.v_el}"),
            (0.0 <= self.beta <= 1.0, "beta must be in [0, 1], got {0.beta}"),
            (self.gain is None or self.gain >= 0.0, "gain must be >= 0, got {0.gain}"),
            (self.protocol in PROTOCOLS, "unknown protocol {0.protocol!r}"),
        )
        for ok, msg in checks:
            if not ok:
                raise InvalidParameterError(msg.format(self))
        if self.eta == 1.0 and self.v_el != 0.0:
            raise InvalidParameterError(
                "eta = 1 requires v_el = 0: the detector ancilla variance "
                "1 + v_el/(1 - eta) diverges")

    @property
    def takes_added_noise(self) -> bool:
        return self.protocol == "squeezed-modified"

    @property
    def t_1(self) -> float:
        return channel_transmittance(self.l_ac, self.alpha)

    @property
    def t_2(self) -> float:
        return channel_transmittance(self.l_bc, self.alpha)


_REAL_FIELDS = ("v_a", "v_b", "l_ac", "l_bc", "alpha", "eps1", "eps2", "eta", "v_el",
                "beta", "gain")


@dataclass(frozen=True)
class AddedNoiseParams:
    """Trusted Gaussian noise of finite variance chi_n >= 0 added to Bob's
    mode before his homodyne detection (the squeezed-modified protocol).

    The limit chi_n -> inf, where K vanishes at every gain, is no noise to
    add: ``noise_limit_slope`` gives the slope D = lim chi_n K there.
    """

    chi_n: float

    def __post_init__(self):
        if not 0.0 <= self.chi_n < math.inf:
            raise InvalidParameterError(f"chi_n must be >= 0 and finite, got {self.chi_n}")

    @classmethod
    def from_chi_n(cls, chi_n: float) -> "AddedNoiseParams":
        """The added noise of variance ``chi_n``, held exactly:
        ``from_chi_n(x).chi_n == x``."""
        return cls(chi_n)


@dataclass(frozen=True)
class KeyRateReport:
    """One evaluated parameter point: everything a results row needs."""

    mutual_info: float
    holevo: float
    key_rate: float
    lambdas: tuple[float, ...]
    gain_used: float
    chi_n: float = 0.0
    flags: tuple[str, ...] = ()


def channel_transmittance(length_km: float, alpha_db_per_km: float = 0.2) -> float:
    """Fiber transmittance 10^(-alpha L / 10).

    Raises NumericDomainError when it underflows to 0, past about 3,230 dB
    of loss: the length is valid, but no double holds its transmittance.
    """
    if length_km < 0.0 or alpha_db_per_km < 0.0:
        raise InvalidParameterError("length and loss coefficient must be >= 0")
    t = 10.0 ** (-alpha_db_per_km * length_km / 10.0)
    if t == 0.0:
        raise NumericDomainError(
            f"transmittance of {length_km} km at {alpha_db_per_km} dB/km underflows to 0")
    return t


# Both amplitudes of the relay's 50:50 beamsplitter, sqrt(1/2).
_H = math.sqrt(0.5)


def _lossy_arm(v: float, s: float, t: float, eps: float) -> tuple[float, float]:
    """Variance and EPR correlation of an arm (variance v, correlation s)
    after an entangling-cloner channel of transmittance t: T V + (1 - T) W
    with the cloner variance W = 1 + eps/(1 - T), so that eps is referred to
    the output, and s sqrt(T).  A lossless arm (t = 1) passes unchanged."""
    if t >= 1.0:
        return v, s
    rt, rr = math.sqrt(t), math.sqrt(1.0 - t)
    return (rt * v) * rt + (rr * (1.0 + eps / (1.0 - t))) * rr, s * rt


def _gain_coefficients(params: ProtocolParams) -> tuple[float, ...]:
    """x-side (a, b0, b1, b2, c0, c1) of the displaced pair (A3, B4).

    At gain g the pair has variances a and b = b0 + 2 g b1 + g^2 b2 and
    correlation c = c0 + g c1 on x, and the same with -c on p: b0, b1 and
    b2 are the variance of B3, its covariance with C2 and the variance of
    C2; c0 and c1 are the covariances of A3 with B3 (always 0) and with C2.
    They are one quadrature of the relay in plain floats, each product and
    sum in the order of the matrix route's ``s @ cov @ s.T``
    (``cvmdi.matrix._relay_state``), so they equal its entries but for the
    last bit that fused multiply-adds in its BLAS may set.  Reads only the
    channel: v_a, v_b, l_ac, l_bc, alpha, eps1, eps2, eta and v_el.
    Raises NumericDomainError when an entry is not finite (v^2 or the
    cloner variance overflows).
    """
    v_a, v_b = params.v_a, params.v_b
    var_a, cor_a = _lossy_arm(v_a, math.sqrt(v_a * v_a - 1.0), params.t_1, params.eps1)
    var_b, cor_b = _lossy_arm(v_b, math.sqrt(v_b * v_b - 1.0), params.t_2, params.eps2)
    # relay: C = (A1 - B1)/sqrt(2)
    cc = (_H * var_a) * _H + (_H * var_b) * _H
    ac, bc = cor_a * _H, -(cor_b * _H)
    if params.eta < 1.0:
        # practical detector: C2 = sqrt(eta) C + sqrt(1-eta) F0
        rt, rr = math.sqrt(params.eta), math.sqrt(1.0 - params.eta)
        cc = (rt * cc) * rt + (rr * (1.0 + params.v_el / (1.0 - params.eta))) * rr
        ac, bc = ac * rt, bc * rt
    if not (abs(cc) < math.inf and abs(ac) < math.inf and abs(bc) < math.inf):
        raise NumericDomainError(
            f"relay covariance overflows: C2 variance {cc}, A3-C2 {ac}, B3-C2 {bc}")
    return v_a, v_b, bc, cc, 0.0, ac


def __getattr__(name: str):
    # PEP 562: the matrix route, and numpy with it, loads on first use only
    if name in ("build_mdi_state", "symplectic_eigenvalues"):
        from . import matrix
        return getattr(matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def check_added_noise(params: ProtocolParams, noise: AddedNoiseParams | None) -> float:
    """The chi_n that ``noise`` adds to the key rate of ``params``, 0 for None.

    Raises unless ``noise`` is given exactly when the protocol takes added
    noise (``ProtocolParams.takes_added_noise``): squeezed-modified alone.
    """
    if noise is None:
        if params.takes_added_noise:
            raise InvalidParameterError(
                "protocol 'squeezed-modified' needs AddedNoiseParams "
                "(use AddedNoiseParams.from_chi_n or optimize_added_noise)")
        return 0.0
    _check_takes_noise(params)
    return noise.chi_n


def _check_takes_noise(params: ProtocolParams) -> None:
    if not params.takes_added_noise:
        raise InvalidParameterError(
            f"protocol {params.protocol!r} does not take added-noise parameters")


def _gain_objective(params: ProtocolParams, chi_n: float,
                    memo: dict | None = None) -> Callable[..., float | KeyRateReport]:
    """K as a function of the gain, unvalidated: the objective of
    ``optimal_gain``, and with ``report=True`` the ``KeyRateReport`` that
    ``key_rate`` returns at its gain.

    What the gain leaves unchanged is read once, when the objective is
    built: the relay coefficients, the protocol's branch, beta and chi_n.
    A call then runs the whole kernel in one frame, its guards in this
    order.  The reduced state b = b0 + 2 g b1 + g^2 b2, c = c1 g follows
    the operation order of ``cvmdi.matrix._displaced_pair``; an overflow in
    b, c or c^2 raises NumericDomainError, and so does rounding in b, whose
    terms can cancel from far above its value, beyond TWO_MODE_TOL of the
    largest of 1, a, b and |c| (the tolerance of the oracle's two-mode
    form).  Unless a, b >= 1 and ab - c^2 >= 1 - PHYSICALITY_TOL,
    InvalidParameterError.  Then the symplectic pair, I_AB and the
    conditional spectrum: the trusted noise adds chi_n to Bob's variance
    in I_AB only.  Eve purifies the channel, not Bob's trusted noise, so
    the unconditional Holevo term is that of (a, b, c) for every protocol;
    at chi_n > 0 the conditional term includes the retained noise modes
    N1, N3 (Lodewyck et al.): lambda3,4^2 = (A +/- sqrt(A^2 - 4B))/2 and
    lambda5 = 1, the smaller root from lambda3 lambda4 = sqrt(B), and a
    lambda4 within 1e-9 below 1 taken as roundoff.  At chi_n = inf the
    objective is the slope D of the module docstring instead, from the
    first half, and has no report.  A chi within
    CHI_CLAMP_TOL below 0 is clamped to 0 and flagged on the report.  Every
    guard is written so that NaN fails it: an overflow anywhere raises
    NumericDomainError rather than reaching the result.

    The kernel's first half, up to the Holevo terms of lambda1 and lambda2,
    depends on the channel and the gain only.  The relay coefficients and
    each gain's first half are stored in ``memo`` (a dict, keyed by the
    nine fields ``_gain_coefficients`` reads; a fresh one when None) and
    reused by every objective built on the same memo at the same channel,
    whatever its protocol, beta or chi_n.  A stored half is the floats the
    call computed, so a hit changes no bit; a gain whose first half raised
    is not stored and raises again.
    """
    memo = {} if memo is None else memo
    channel = (params.v_a, params.v_b, params.l_ac, params.l_bc, params.alpha,
               params.eps1, params.eps2, params.eta, params.v_el)
    if channel not in memo:
        memo[channel] = _gain_coefficients(params), {}
    coeffs, known = memo[channel]
    a, b0, b1, b2, c0, c1 = coeffs
    abs_b0, abs_b2 = abs(b0), abs(b2)
    top = max(1.0, abs(a))
    tol_top = TWO_MODE_TOL * top
    coherent = params.protocol == "coherent"
    trusted = not coherent and chi_n != 0.0
    limit = trusted and chi_n == math.inf
    beta = params.beta
    log2, sqrt, inf = math.log2, math.sqrt, math.inf

    def objective(g: float, report: bool = False):
        terms = known.get(g)
        if terms is None:
            b = (g * b2 + b1) * g + (g * b1 + b0)
            c = c1 * g + c0
            # an overflow stops here, with the gain in the message, before the eigenvalues
            if not (abs(b) < inf and abs(c) < inf):
                raise NumericDomainError(
                    f"reduced state overflows at gain {g}: b = {b}, c = {c}")
            err_b = _FOUR_EPS * (abs_b0 + 2.0 * abs(g * b1) + g * g * abs_b2)
            # err_b > TWO_MODE_TOL * max(top, |b|, |c|), one product at a time: as
            # rounding is monotone, the same test, and the first almost always settles it
            if (err_b > tol_top and err_b > TWO_MODE_TOL * abs(b)
                    and err_b > TWO_MODE_TOL * abs(c)):
                tol = TWO_MODE_TOL * max(top, abs(b), abs(c))
                raise NumericDomainError(
                    f"b = {b} cancels from terms of size {abs_b0 + g * g * abs_b2}: "
                    f"rounding {err_b} exceeds the tolerance {tol}")
            if not (a >= 1.0 and b >= 1.0):
                raise InvalidParameterError(f"mode variances must be >= 1, got a={a}, b={b}")
            ab, cc = a * b, c * c
            if cc == inf:
                raise NumericDomainError(f"reduced state overflows: c^2 = {cc} at c = {c}")
            det = ab - cc
            if not det >= _DET_FLOOR:
                raise InvalidParameterError(f"unphysical two-mode form: ab - c^2 = {det}")
            lam1, lam2 = two_mode_symplectic(a, b, c)
            # a NaN is not <= 1, so it still reaches g_func, which rejects it
            chi = 0.0
            try:
                if not lam1 <= 1.0:
                    chi += g_func((lam1 - 1.0) / 2.0)
                if not lam2 <= 1.0:
                    chi += g_func((lam2 - 1.0) / 2.0)
            except InvalidParameterError:
                # g_func rejects only NaN here: numeric trouble, reported below
                chi = math.nan
            known[g] = b, c, ab, cc, det, lam1, lam2, chi
        else:
            b, c, ab, cc, det, lam1, lam2, chi = terms
        lam4 = 1.0
        if coherent:
            # heterodyne on both sides: a one-unit vacuum penalty per quadrature
            prod = (a + 1.0) * (b + 1.0)
            denom = prod - cc
            if not 0.0 < denom < inf:
                raise NumericDomainError(
                    f"(a+1)(b+1) - c^2 = {denom} is not positive and finite")
            i_ab = log2(prod / denom)
            lam3 = a - cc / (b + 1.0)
            if not lam3 > 0.0:
                raise NumericDomainError(f"conditional eigenvalue {lam3} is not positive")
        elif not trusted:
            # an overflowed ab leaves det infinite or NaN, and both fail the test
            if not 0.0 < det < inf:
                raise NumericDomainError(f"ab - c^2 = {det} is not positive and finite")
            i_ab = 0.5 * log2(ab / det)
            lam3_sq = a * (a - cc / b)
            if not lam3_sq > 0.0:
                raise NumericDomainError(
                    f"conditional eigenvalue squared {lam3_sq} is not positive")
            lam3 = sqrt(lam3_sq)
        elif limit:
            # the slope D = lim chi_n K; its two factors swap when a < b
            sigma = lam1 + lam2
            w = a + b + sigma
            f1, f2 = cc / (sigma * w), w / (4.0 * sigma)
            if a < b:
                f1, f2 = f2, f1
            d = beta * cc / (2.0 * a * LN2)
            if not lam1 <= 1.0:
                d -= g_slope((lam1 - 1.0) / 2.0) * f1
            if not lam2 <= 1.0:
                d -= g_slope((lam2 - 1.0) / 2.0) * f2
            return d
        else:
            # a valid (a, b, c) and a finite chi_n >= 0 keep (a, b + chi_n, c) valid
            b_n = b + chi_n
            denom = a * b_n - cc
            if not 0.0 < denom < inf:
                raise NumericDomainError(f"ab - c^2 = {denom} is not positive and finite")
            i_ab = 0.5 * log2(a * b_n / denom)
            big_a = (chi_n * (a * a + b * b - 2.0 * c * c) + a * det + b) / b_n
            big_b = det * (a + det * chi_n) / b_n
            if not big_b > 0.0:
                raise NumericDomainError(
                    f"trusted-noise conditional B = {big_b} is not positive")
            disc = big_a * big_a - 4.0 * big_b
            if disc < -1e-9 * big_a * big_a:
                raise NumericDomainError(
                    f"trusted-noise conditional discriminant {disc} is negative")
            lam3 = sqrt((big_a + sqrt(0.0 if disc < 0.0 else disc)) / 2.0)
            lam4 = sqrt(big_b) / lam3
            if not lam4 >= 1.0 - 1e-9:
                raise NumericDomainError(
                    f"trusted-noise conditional eigenvalue {lam4} is below 1")
        try:
            if not lam3 <= 1.0:
                chi -= g_func((lam3 - 1.0) / 2.0)
            if not lam4 <= 1.0:
                chi -= g_func((lam4 - 1.0) / 2.0)
        except InvalidParameterError:
            chi = math.nan
        flags = ()
        if not chi >= 0.0:
            if not chi >= -CHI_CLAMP_TOL:
                raise NumericDomainError(
                    f"Holevo bound came out {chi}, not >= -{CHI_CLAMP_TOL}: "
                    "likely a bug or an overflow")
            chi, flags = 0.0, ("holevo_clamped",)
        k = beta * i_ab - chi
        if not report:
            return k
        eff = max(PHYSICALITY_TOL, 64.0 * _EPS * max(top, abs(b), abs(c)))
        if lam2 < 1.0 - eff:
            raise NumericDomainError(
                "unphysical covariance at stage 'feedforward': "
                f"min symplectic eigenvalue {lam2!r}")
        lams = (lam1, lam2, lam3, lam4, 1.0) if trusted else (lam1, lam2, lam3)
        return KeyRateReport(mutual_info=i_ab, holevo=chi, key_rate=k, lambdas=lams,
                             gain_used=g, chi_n=chi_n, flags=flags)

    return objective


def gain_bracket(params: ProtocolParams) -> float:
    """Upper edge of the displacement-gain search interval."""
    return 4.0 * math.sqrt(2.0 / (params.eta * params.t_2))


def _search_gain(objective: Callable[[float], float], params: ProtocolParams,
                 maximize: Callable[..., tuple[float, float]]) -> float:
    """The gain ``maximize`` finds for ``objective`` on [0, gain_bracket],
    to GAIN_TOL; an optimum on the upper edge doubles the bracket once,
    after which NumericDomainError."""
    hi = gain_bracket(params)
    for _ in range(2):
        g_star = maximize(objective, 0.0, hi, GAIN_TOL)[0]
        if g_star < hi - 2.0 * GAIN_TOL:
            return g_star
        hi *= 2.0
    raise NumericDomainError(
        f"gain optimum stuck at the search edge {hi / 2.0} even after widening")


def optimal_gain(params: ProtocolParams, noise: AddedNoiseParams | None = None, *,
                 memo: dict | None = None) -> float:
    """Key-rate-maximizing displacement gain, by golden-section search.

    Searches [0, 4 sqrt(2/(eta T2))] to tolerance 1e-6; if the optimum
    lands on the upper edge the bracket is doubled once, after which an
    edge optimum raises NumericDomainError.  Both searches share one
    objective from ``_gain_objective``, so the per-point work (coefficients,
    their checks, chi_n and beta) is done once, not per gain.  A ``memo``
    is passed to that objective (see ``key_rate``).

    Every reported gain comes from here; the module docstring says why.
    """
    objective = _gain_objective(params, check_added_noise(params, noise), memo)
    return _search_gain(objective, params, golden_section_max)


def key_rate(params: ProtocolParams, noise: AddedNoiseParams | None = None, *,
             memo: dict | None = None, brent: bool = False) -> KeyRateReport:
    """Secret key rate K = beta I(A:B) - chi(B:E) for one parameter point.

    Optimizes the displacement gain unless ``params.gain`` is set, checks
    that the reduced state at that gain is physical, and evaluates the
    protocol variant selected by ``params.protocol``, at the finite chi_n of
    ``noise`` for squeezed-modified (``noise_limit_slope`` serves the
    limit chi_n -> inf).

    ``memo``, an initially empty dict, lets the calls of one search share
    the kernel's gain-only half (``_gain_objective``): pass the same dict
    to every ``key_rate`` and ``optimal_gain`` call of the search, and drop
    it with the search.  It changes no result, only how often the relay
    coefficients and each gain's symplectic pair are computed.  A call
    given none shares its own with its ``optimal_gain``.

    ``brent=True`` searches the gain by ``search.brent_max`` on this call's
    objective instead of calling ``optimal_gain``: about 14 kernel
    evaluations where golden section takes 37, with the same GAIN_TOL and
    the same widening.  Only ``analysis.max_distance``'s trials pass it,
    as they read the sign of K alone; a reported gain stays golden's
    (``optimal_gain``).
    """
    memo = {} if memo is None else memo
    return _at_gain(params, check_added_noise(params, noise), memo,
                    None if brent else lambda _: optimal_gain(params, noise, memo=memo))[0]


def noise_limit_slope(params: ProtocolParams, *, memo: dict | None = None) -> tuple[float, float]:
    """(D, gain): the slope D = lim chi_n K as chi_n -> inf of the
    squeezed-modified protocol, at ``params.gain`` or, unless that is set,
    maximised over the gain by Brent's method (``search.brent_max``), with
    ``optimal_gain``'s bracket, GAIN_TOL and widening.

    K = D/chi_n + O(1/chi_n^2), so K > 0 at every large enough chi_n
    exactly when D > 0 (``_gain_objective`` gives D in closed form).  Only
    the protocol that takes added noise has the limit.  ``memo`` acts as in
    ``key_rate``, and a NumericDomainError carries the parameter point as
    there.
    """
    _check_takes_noise(params)
    return _at_gain(params, math.inf, memo, None)


def _at_gain(params: ProtocolParams, chi_n: float, memo: dict | None,
             search: Callable | None) -> tuple:
    """(report, or D at chi_n = inf; gain) of ``_gain_objective`` at
    ``params.gain`` or else at ``search(objective)``, Brent's gain for None;
    a NumericDomainError, the search's too, carries the parameter point."""
    try:
        objective = _gain_objective(params, chi_n, memo)
        g = params.gain
        if g is None:
            g = search(objective) if search else _search_gain(objective, params, brent_max)
        return objective(g, report=True), g
    except NumericDomainError as exc:
        raise type(exc)(f"{exc} [at {params}]") from exc
