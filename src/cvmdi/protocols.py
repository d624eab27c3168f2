"""Entanglement-based CV-MDI circuits and asymptotic key rates.

Three reverse-reconciliation protocol variants share one relay circuit:

* ``squeezed``           - both parties homodyne their retained EPR modes.
* ``squeezed-modified``  - as above, with trusted Gaussian noise chi_n mixed
                           into Bob's mode before his homodyne detection.
* ``coherent``           - both parties heterodyne (coherent-state baseline).

A key rate is evaluated in three steps.  The gain-independent relay
covariance of modes (A3, C2, B3, D2) is assembled once per channel, and the
few of its entries that the displaced pair (A3, B4) depends on are read off
as gain coefficients (``_gain_coefficients``, cached per channel: the nine
fields the relay reads, whatever the protocol, gain and beta).
The checks that hold at every gain are made there, once: the covariance is
finite, x and p do not couple, and the p-side coefficients either mirror
the x side bit for bit or are kept for a per-gain x/p symmetry check.  At
each gain g the reduced Alice-Bob state (a, b, c) is then a scalar
quadratic in g over those coefficients (``_reduced_state``).  The key rate
is a closed-form function of the floats (a, b, c), chi_n and the protocol
(``_rate_terms``), with the trusted-noise Holevo term of Lodewyck et al.,
PRA 76, 042305 (2007).  The gain search's objective (``_gain_objective``)
and ``key_rate`` run these same two functions.  A reported point is
certified physical from the smaller symplectic eigenvalue of (a, b, c), at
the tolerance of ``GaussianState.require_physical``.

The matrix route is not on the key-rate path.  ``build_mdi_state``, with
its four-mode (A3, B5, N1, N3) circuit for ``noise=...``, stays here, with
the ``symplectic_eigenvalues`` import, because the benchmark's tracer
(``bench/tracer.py``) binds both names in this module.  The rest of the
oracle the tests check the closed forms against (``extract_two_mode``,
``holevo_generic``, conditioning and entropies) lives in
``tests/oracle.py``.

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, NumericDomainError, StructuralError
from .gaussian import (
    PHYSICALITY_TOL,
    GaussianState,
    TwoModeCov,
    apply_beamsplitter,
    check_two_mode,
    epr_state,
    g_func,
    linear_feedforward,
    partial_trace,
    symplectic_eigenvalues,  # unused here; kept importable for layer tracing
    tensor,
    thermal_state,
    two_mode_symplectic,
)
from .search import golden_section_max

PROTOCOLS = ("squeezed", "squeezed-modified", "coherent")

# chi < -CHI_CLAMP_TOL signals a bug; above it the value is clamped to 0
# (pure-state limit roundoff) and flagged on the report.
CHI_CLAMP_TOL = 1e-9

GAIN_TOL = 1e-6

# Relative tolerance of the symmetric two-mode form (a, b, c) of (A3, B4).
TWO_MODE_TOL = 1e-8

_EPS = float(np.finfo(float).eps)


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


def cloner_variance(transmittance: float, eps: float) -> float:
    """Variance of the entangling-cloner mode replacing a lossy channel.

    W = 1 + eps/(1 - T) makes the channel output variance exactly
    T*V + (1-T) + eps, i.e. eps is the output-referred excess noise.
    A lossless channel (T = 1) carries no cloner mode at all.
    """
    if transmittance <= 0.0:
        raise InvalidParameterError(f"transmittance must be positive, got {transmittance}")
    if transmittance >= 1.0:
        raise InvalidParameterError("lossless channel: no cloner mode is inserted")
    if eps < 0.0:
        raise InvalidParameterError(f"excess noise must be >= 0, got {eps}")
    return 1.0 + eps / (1.0 - transmittance)


def _lossy_channel(state: GaussianState, mode: int, transmittance: float,
                   eps: float) -> GaussianState:
    """Replace a mode by its image through an entangling-cloner channel."""
    if transmittance >= 1.0:
        return state
    w = cloner_variance(transmittance, eps)
    n = state.n_modes
    state = tensor(state, thermal_state(w))
    state = apply_beamsplitter(state, mode, n, transmittance)
    return partial_trace(state, list(range(n)))


def _relay_state(params: ProtocolParams) -> GaussianState:
    """Gain-independent circuit prefix: modes (A3, C2, B3, D2).

    The first step of every key rate: ``_gain_coefficients`` reads the
    displaced pair's coefficients off this covariance.  ``_displaced_pair``
    applies the feedforward to it for the matrix oracle ``build_mdi_state``.
    It reads only the channel: v_a, v_b, l_ac, l_bc, alpha, eps1, eps2, eta
    and v_el.  Not cached itself: the production path assembles it once per
    channel, through the cache of ``_gain_coefficients``, and shares that
    assembly across protocol, gain and beta.

    Assembly takes 12 to 20 validated ``GaussianState`` steps and costs
    about 170 us with the practical detector and both arms lossy, and 80 us
    with the perfect detector at V = 1e5 (medians of best-of-15 timings,
    one BLAS thread, 2-vCPU host): numpy and Python overhead per step, not
    arithmetic.
    """
    state = tensor(epr_state(params.v_a), epr_state(params.v_b))  # (A3, A2, B3, B2)
    state = _lossy_channel(state, 1, params.t_1, params.eps1)     # A2 -> A1
    state = _lossy_channel(state, 3, params.t_2, params.eps2)     # B2 -> B1
    # Relay 50:50: slot 1 <- (A1 - B1)/sqrt(2) = C, slot 3 <- (A1 + B1)/sqrt(2) = D
    state = apply_beamsplitter(state, 3, 1, 0.5)
    if params.eta < 1.0:
        ancilla = 1.0 + params.v_el / (1.0 - params.eta)
        for slot in (1, 3):
            n = state.n_modes
            state = tensor(state, thermal_state(ancilla))
            state = apply_beamsplitter(state, slot, n, params.eta)
            state = partial_trace(state, list(range(n)))
    return state


def _displaced_pair(params: ProtocolParams, gain: float) -> GaussianState:
    """Two-mode state (A3, B4) after the feedforward displacement."""
    relay = _relay_state(params)
    m = np.zeros((4, 8))
    m[0, 0] = 1.0                      # A3x
    m[1, 1] = 1.0                      # A3p
    m[2, 4] = 1.0                      # B4x = B3x + g C2x
    m[2, 2] = gain
    m[3, 5] = 1.0                      # B4p = B3p + g D2p
    m[3, 7] = gain
    return linear_feedforward(relay, m)


# Relay-covariance indices of (a, b0, b1, b2, c0, c1) on each quadrature:
# A3 = (0, 1), C2 = (2, 3), B3 = (4, 5), D2 = (6, 7).  B4x = B3x + g C2x
# and B4p = B3p + g D2p, so the x side reads C2 and the p side D2.
_X_COEFFS = ((0, 0), (4, 4), (2, 4), (2, 2), (0, 4), (0, 2))
_P_COEFFS = ((1, 1), (5, 5), (5, 7), (7, 7), (1, 5), (1, 7))


# _gain_coefficients per channel: the nine fields _relay_state reads, in
# ProtocolParams order.  Once full, the oldest entry is dropped first.
_CHANNEL_COEFFS: dict[tuple[float, ...], tuple[tuple[float, ...], tuple[float, ...] | None]] = {}
_CHANNEL_COEFFS_SIZE = 128


def _gain_coefficients(
        params: ProtocolParams) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
    """x-side (a, b0, b1, b2, c0, c1) of the displaced pair (A3, B4), and the
    p side, or None when the p side mirrors the x side bit for bit.

    At gain g the pair has variances a and b = b0 + 2 g b1 + g^2 b2 and
    correlation c = c0 + g c1 on x, and the same with -c on p.  What holds
    at every gain is checked here, once per channel: every entry is finite,
    and the relay's x-p coupling is within the tolerance of
    ``tests/oracle.extract_two_mode``.  The p side mirrors x when it equals
    (a, b0, b1, b2, -c0, -c1); negation is exact and rounding is
    sign-symmetric, so the p side's a, b and -c then equal the x side's at
    every gain, and the per-gain x/p check of ``_reduced_state`` could not
    fail.

    The result is cached in ``_CHANNEL_COEFFS`` on the nine channel fields
    that ``_relay_state`` reads, not on ``params``: points that differ only
    in protocol, gain or beta share one relay assembly, as do a fixed-gain
    probe and a gain search at one channel.  That key costs nine attribute
    reads, less than the dataclass hash and equality would.
    """
    key = (params.v_a, params.v_b, params.l_ac, params.l_bc, params.alpha,
           params.eps1, params.eps2, params.eta, params.v_el)
    coeffs = _CHANNEL_COEFFS.get(key)
    if coeffs is not None:
        return coeffs
    cov = _relay_state(params).cov
    if not np.isfinite(cov).all():
        raise NumericDomainError("relay covariance overflows: an entry is not finite")
    mag = np.abs(cov)
    scale = max(1.0, float(mag.max()))
    coupling = float(mag[0::2, 1::2].max())
    if coupling > TWO_MODE_TOL * scale:
        raise StructuralError(
            f"relay covariance couples x and p by {coupling} "
            f"(tolerance {TWO_MODE_TOL * scale})")
    rows = cov.tolist()
    x_side = tuple(rows[i][j] for i, j in _X_COEFFS)
    p_side = tuple(rows[i][j] for i, j in _P_COEFFS)
    a, b0, b1, b2, c0, c1 = x_side
    coeffs = x_side, None if p_side == (a, b0, b1, b2, -c0, -c1) else p_side
    if len(_CHANNEL_COEFFS) >= _CHANNEL_COEFFS_SIZE:
        del _CHANNEL_COEFFS[next(iter(_CHANNEL_COEFFS))]
    _CHANNEL_COEFFS[key] = coeffs
    return coeffs


def _reduced_state(coeffs: tuple[tuple[float, ...], tuple[float, ...] | None],
                   g: float) -> tuple[float, float, float]:
    """Reduced state (a, b, c) of (A3, B4) at one gain, in scalar arithmetic.

    ``coeffs`` is ``_gain_coefficients(params)``.  Equal, bit for bit, to
    ``extract_two_mode(_displaced_pair(params, g))``, with the oracle's
    ``extract_two_mode`` of ``tests/oracle.py``: the operation order is that
    of the matrix product.  When the p side does not mirror the x side, the
    x/p symmetry is checked at this gain, as there.  When rounding in b,
    whose terms can cancel from far above its value, exceeds that
    tolerance, b is not certified and NumericDomainError is raised; so it
    is when b or c overflows.  The result passes ``check_two_mode``, as a
    ``TwoModeCov`` would.
    """
    (a, b0, b1, b2, c0, c1), p_side = coeffs
    b = (g * b2 + b1) * g + (g * b1 + b0)
    c = c1 * g + c0
    # an overflow stops here, with the gain in the message, before the eigenvalues
    if not (abs(b) < math.inf and abs(c) < math.inf):
        raise NumericDomainError(f"reduced state overflows at gain {g}: b = {b}, c = {c}")
    if p_side is None:
        tol = TWO_MODE_TOL * max(1.0, abs(a), abs(b), abs(c))
    else:
        a_p, b0_p, b1_p, b2_p, c0_p, c1_p = p_side
        b_p = (g * b2_p + b1_p) * g + (g * b1_p + b0_p)
        c_p = c1_p * g + c0_p
        tol = TWO_MODE_TOL * max(1.0, abs(a), abs(b), abs(c), abs(a_p), abs(b_p), abs(c_p))
        dev = max(abs(a_p - a), abs(b_p - b), abs(c_p + c))
        if dev > tol:
            raise StructuralError(
                f"covariance deviates from the symmetric two-mode form by {dev} "
                f"(tolerance {tol})")
    err_b = 4.0 * _EPS * (abs(b0) + 2.0 * abs(g * b1) + g * g * abs(b2))
    if err_b > tol:
        raise NumericDomainError(
            f"b = {b} cancels from terms of size {abs(b0) + g * g * abs(b2)}: "
            f"rounding {err_b} exceeds the tolerance {tol}")
    check_two_mode(a, b, c)
    return a, b, c


def build_mdi_state(params: ProtocolParams, noise: AddedNoiseParams | None = None,
                    gain: float | None = None) -> GaussianState:
    """Assemble and validate the kept-mode state of the full EB circuit.

    Returns (A3, B4) for the plain circuit, or (A3, B5, N1, N3) when the
    trusted-noise beamsplitter is present.  ``gain`` overrides
    ``params.gain``; one of the two must be set.
    """
    g = gain if gain is not None else params.gain
    if g is None:
        raise InvalidParameterError(
            "build_mdi_state needs a concrete gain; optimize it with optimal_gain first")
    if g < 0.0:
        raise InvalidParameterError(f"gain must be >= 0, got {g}")
    state = _displaced_pair(params, g)
    state.require_physical(context="feedforward")
    if noise is None:
        return state
    state = tensor(state, epr_state(noise.n_r))       # (A3, B4, N2, N1)
    state = apply_beamsplitter(state, 1, 2, noise.t_r)  # slot1 <- B5, slot2 <- N3
    state = partial_trace(state, [0, 1, 3, 2])          # (A3, B5, N1, N3)
    return state.require_physical(context="added-noise")


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
    applies to the same covariance in ``build_mdi_state``."""
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
    except (NumericDomainError, StructuralError) as exc:
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

