"""Entanglement-based CV-MDI circuits and asymptotic key rates.

Three reverse-reconciliation protocol variants share one relay circuit:

* ``squeezed``           - both parties homodyne their retained EPR modes.
* ``squeezed-modified``  - as above, with trusted Gaussian noise chi_n mixed
                           into Bob's mode before his homodyne detection.
* ``coherent``           - both parties heterodyne (coherent-state baseline).

A key rate is evaluated in three steps.  The relay is one quadrature of
the circuit in plain floats (``_gain_coefficients``): the few entries of
the gain-independent relay covariance of modes (A3, C2, B3, D2) that the
displaced pair (A3, B4) reads, its gain coefficients.  Each product and sum
runs in the order of the matrix route's ``s @ cov @ s.T``.  x and p mirror
by construction (+c on x, -c on p), so only the x side is computed.  At
each gain g the reduced Alice-Bob state (a, b, c) is then a scalar
quadratic in g over those coefficients (``_reduced_state``).  The key rate
is a closed-form function of the floats (a, b, c), chi_n and the protocol
(``_rate_terms``), with the trusted-noise Holevo term of Lodewyck et al.,
PRA 76, 042305 (2007).  The gain search's objective (``_gain_objective``)
and ``key_rate`` run these same functions.  A reported point is certified
physical from the smaller symplectic eigenvalue of (a, b, c), at the
tolerance of the matrix route's ``GaussianState.require_physical``.

The matrix route is not on the key-rate path and is not loaded with this
module.  It lives in ``cvmdi.matrix`` (numpy covariance matrices,
``build_mdi_state`` with its four-mode (A3, B5, N1, N3) circuit for
``noise=...``), the oracle the tests check the scalar kernel against.  The
benchmark's tracer (``bench/tracer.py``) binds ``build_mdi_state`` and
``symplectic_eigenvalues`` in this module, so the module ``__getattr__``
serves both from ``cvmdi.matrix`` on first use.  The rest of the oracle
(``extract_two_mode``, ``holevo_generic``, conditioning and entropies)
lives in ``tests/oracle.py``.

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
from .gaussian import PHYSICALITY_TOL, TwoModeCov, check_two_mode, g_func, two_mode_symplectic
from .search import golden_section_max

PROTOCOLS = ("squeezed", "squeezed-modified", "coherent")

# chi < -CHI_CLAMP_TOL signals a bug; above it the value is clamped to 0
# (pure-state limit roundoff) and flagged on the report.
CHI_CLAMP_TOL = 1e-9

GAIN_TOL = 1e-6

# Relative tolerance of the symmetric two-mode form (a, b, c) of (A3, B4).
TWO_MODE_TOL = 1e-8

_EPS = sys.float_info.epsilon


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
    def t_1(self) -> float:
        return channel_transmittance(self.l_ac, self.alpha)

    @property
    def t_2(self) -> float:
        return channel_transmittance(self.l_bc, self.alpha)


_REAL_FIELDS = ("v_a", "v_b", "l_ac", "l_bc", "alpha", "eps1", "eps2", "eta", "v_el",
                "beta", "gain")


@dataclass(frozen=True)
class AddedNoiseParams:
    """Trusted-noise beamsplitter: EPR of variance n_r mixed in at t_r."""

    t_r: float
    n_r: float

    def __post_init__(self):
        if not 0.0 < self.t_r <= 1.0:
            raise InvalidParameterError(f"t_r must be in (0, 1], got {self.t_r}")
        if not 1.0 <= self.n_r < math.inf:
            raise InvalidParameterError(f"n_r must be finite and >= 1, got {self.n_r}")

    @property
    def chi_n(self) -> float:
        return (1.0 - self.t_r) * self.n_r / self.t_r

    @classmethod
    def from_chi_n(cls, chi_n: float) -> "AddedNoiseParams":
        """Canonical realization of a target added noise.

        n_r = 1 + chi_n with t_r = (1 + chi_n)/(1 + 2 chi_n) keeps n_r >= 1
        for every chi_n >= 0 and degenerates to the identity at chi_n = 0.
        The key rate depends on (t_r, n_r) only through chi_n.
        """
        if not 0.0 <= chi_n < math.inf:
            raise InvalidParameterError(f"chi_n must be finite and >= 0, got {chi_n}")
        return cls(t_r=(1.0 + chi_n) / (1.0 + 2.0 * chi_n), n_r=1.0 + chi_n)


@dataclass(frozen=True)
class KeyRateReport:
    """One evaluated parameter point: everything a results row needs."""

    mutual_info: float
    holevo: float
    key_rate: float
    lambdas: tuple[float, ...]
    gain_used: float
    reduced: TwoModeCov
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


def _reduced_state(coeffs: tuple[float, ...], g: float) -> tuple[float, float, float]:
    """Reduced state (a, b, c) of (A3, B4) at one gain, in scalar arithmetic.

    ``coeffs`` is ``_gain_coefficients(params)``; the operation order is that
    of the matrix product of ``cvmdi.matrix._displaced_pair``.  When rounding
    in b, whose terms can cancel from far above its value, exceeds
    TWO_MODE_TOL of the largest of 1, a, b and |c| (the tolerance of the
    oracle's two-mode form), b is not certified and NumericDomainError is
    raised; so it is when b or c overflows.  The result passes
    ``check_two_mode``, as a ``TwoModeCov`` would.
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


def __getattr__(name: str):
    # PEP 562: the matrix route, and numpy with it, loads on first use only
    if name in ("build_mdi_state", "symplectic_eigenvalues"):
        from . import matrix
        return getattr(matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _homodyne_info(a: float, b: float, c: float) -> float:
    """Gaussian mutual information for matched homodyne pairs, bits/use."""
    # an overflowed ab leaves denom infinite or NaN, and both fail the test
    denom = a * b - c * c
    if not 0.0 < denom < math.inf:
        raise NumericDomainError(f"ab - c^2 = {denom} is not positive and finite")
    return 0.5 * math.log2(a * b / denom)


def _heterodyne_info(a: float, b: float, c: float) -> float:
    """Mutual information for heterodyne on both sides, bits/use: both
    quadratures measured, at a one-unit vacuum penalty each."""
    prod = (a + 1.0) * (b + 1.0)
    denom = prod - c * c
    if not 0.0 < denom < math.inf:
        raise NumericDomainError(f"(a+1)(b+1) - c^2 = {denom} is not positive and finite")
    return math.log2(prod / denom)


def _trusted_noise_conditional(a: float, b: float, c: float,
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


def _rate_terms(a: float, b: float, c: float, protocol: str,
                chi_n: float = 0.0) -> tuple[float, float, tuple[float, ...], bool]:
    """(I_AB, chi, lambdas, clamped) of one protocol on the reduced state (a, b, c).

    The trusted noise adds chi_n to Bob's variance in I_AB only.  Eve
    purifies the channel, not Bob's trusted noise, so the unconditional
    Holevo term is that of (a, b, c) for every protocol; at chi_n > 0 the
    conditional term includes the retained noise modes N1, N3.  Every guard
    is written so that NaN fails it: an overflow anywhere raises
    NumericDomainError rather than reaching the result.
    """
    lam1, lam2 = two_mode_symplectic(a, b, c)
    if protocol == "coherent":
        i_ab = _heterodyne_info(a, b, c)
        lam3 = a - c * c / (b + 1.0)
        if not lam3 > 0.0:
            raise NumericDomainError(f"conditional eigenvalue {lam3} is not positive")
        cond = (lam3,)
    elif chi_n == 0.0:
        i_ab = _homodyne_info(a, b, c)
        lam3_sq = a * (a - c * c / b)
        if not lam3_sq > 0.0:
            raise NumericDomainError(f"conditional eigenvalue squared {lam3_sq} is not positive")
        cond = (math.sqrt(lam3_sq),)
    else:
        # a valid (a, b, c) and a finite chi_n >= 0 keep (a, b + chi_n, c) valid
        i_ab = _homodyne_info(a, b + chi_n, c)
        cond = _trusted_noise_conditional(a, b, c, chi_n)
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


def check_added_noise(params: ProtocolParams, noise: AddedNoiseParams | None) -> None:
    """Raises unless ``noise`` is None or the protocol is squeezed-modified,
    the only one that takes added noise."""
    if noise is not None and params.protocol != "squeezed-modified":
        raise InvalidParameterError(
            f"protocol {params.protocol!r} does not take added-noise parameters")


def _resolve_noise(params: ProtocolParams,
                   noise: AddedNoiseParams | None) -> AddedNoiseParams | None:
    check_added_noise(params, noise)
    if params.protocol == "squeezed-modified" and noise is None:
        raise InvalidParameterError(
            "protocol 'squeezed-modified' needs AddedNoiseParams "
            "(use AddedNoiseParams.from_chi_n or optimize_added_noise)")
    return noise


def _gain_objective(params: ProtocolParams,
                    noise: AddedNoiseParams | None) -> Callable[[float], float]:
    """K as a function of the gain, unvalidated and without a report: the
    objective of ``optimal_gain``.

    The point's coefficients, chi_n, beta and protocol are read once, when
    the objective is built; each call then runs ``_reduced_state`` and
    ``_rate_terms``, the arithmetic ``key_rate`` reports at its gain.
    """
    coeffs = _gain_coefficients(params)
    protocol, beta = params.protocol, params.beta
    chi_n = 0.0 if noise is None else noise.chi_n

    def objective(g: float) -> float:
        a, b, c = _reduced_state(coeffs, g)
        i_ab, chi, _, _ = _rate_terms(a, b, c, protocol, chi_n)
        return beta * i_ab - chi

    return objective


def gain_bracket(params: ProtocolParams) -> float:
    """Upper edge of the displacement-gain search interval."""
    return 4.0 * math.sqrt(2.0 / (params.eta * params.t_2))


def optimal_gain(params: ProtocolParams, noise: AddedNoiseParams | None = None) -> float:
    """Key-rate-maximizing displacement gain, by golden-section search.

    Searches [0, 4 sqrt(2/(eta T2))] to tolerance 1e-6; if the optimum
    lands on the upper edge the bracket is doubled once, after which an
    edge optimum raises NumericDomainError.  Both searches share one
    objective from ``_gain_objective``, so the per-point work (coefficients,
    their checks, chi_n and beta) is done once, not per gain.
    """
    noise = _resolve_noise(params, noise)
    objective = _gain_objective(params, noise)
    hi = gain_bracket(params)
    for _ in range(2):
        g_star = golden_section_max(objective, 0.0, hi, GAIN_TOL)[0]
        if g_star < hi - 2.0 * GAIN_TOL:
            return g_star
        hi *= 2.0
    raise NumericDomainError(
        f"gain optimum stuck at the search edge {hi / 2.0} even after widening")


def _require_physical_pair(a: float, b: float, c: float, lam2: float) -> None:
    """Physicality of the displaced pair (A3, B4) = (a, b, c) from its smaller
    symplectic eigenvalue, at the tolerance ``GaussianState.require_physical``
    applies to the same covariance in ``cvmdi.matrix.build_mdi_state``."""
    eff = max(PHYSICALITY_TOL, 64.0 * _EPS * max(1.0, abs(a), abs(b), abs(c)))
    if lam2 < 1.0 - eff:
        raise NumericDomainError(
            f"unphysical covariance at stage 'feedforward': min symplectic eigenvalue {lam2!r}")


def key_rate(params: ProtocolParams, noise: AddedNoiseParams | None = None) -> KeyRateReport:
    """Secret key rate K = beta I(A:B) - chi(B:E) for one parameter point.

    Optimizes the displacement gain unless ``params.gain`` is set, checks
    that the reduced state at that gain is physical, and evaluates the
    protocol variant selected by ``params.protocol``.
    """
    noise = _resolve_noise(params, noise)
    chi_n = 0.0 if noise is None else noise.chi_n
    try:
        coeffs = _gain_coefficients(params)
        g = params.gain if params.gain is not None else optimal_gain(params, noise)
        a, b, c = _reduced_state(coeffs, g)
        i_ab, chi, lams, clamped = _rate_terms(a, b, c, params.protocol, chi_n)
        _require_physical_pair(a, b, c, lams[1])
    except NumericDomainError as exc:
        raise type(exc)(f"{exc} [at {params}]") from exc
    return KeyRateReport(
        mutual_info=i_ab,
        holevo=chi,
        key_rate=params.beta * i_ab - chi,
        lambdas=lams,
        gain_used=g,
        reduced=TwoModeCov(a, b + chi_n, c),
        chi_n=chi_n,
        flags=("holevo_clamped",) if clamped else (),
    )

