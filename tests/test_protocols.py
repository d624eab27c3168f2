import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvmdi import (
    AddedNoiseParams,
    CVMDIError,
    InvalidParameterError,
    NumericDomainError,
    ProtocolParams,
    channel_transmittance,
    key_rate,
    optimal_gain,
)
from cvmdi import protocols
from cvmdi.analysis import DETECTOR_PRESETS, VARIANCE_PRESETS, SweepSpec, max_distance
from cvmdi import matrix
from cvmdi.gaussian import PHYSICALITY_TOL
from cvmdi.matrix import (
    GaussianState,
    _displaced_pair,
    build_mdi_state,
    cloner_variance,
    epr_state,
    symplectic_eigenvalues,
)
from cvmdi.protocols import (
    GAIN_TOL,
    TWO_MODE_TOL,
    _gain_coefficients,
    _gain_objective,
    gain_bracket,
)
from helpers import (
    c_edge,
    mp_oracle_holevo,
    mp_oracle_mutual_info_homodyne,
    mp_two_mode,
    mp_unitary_circuit,
)
from oracle import (
    AsymmetricFormError,
    canonical_realisation,
    extract_two_mode,
    heterodyne_info,
    holevo_generic,
    homodyne_condition,
    homodyne_info,
    rate_terms,
    realised_chi_n,
    reduced_state,
    require_physical_pair,
    trusted_noise_conditional,
)

G_HALF = 1.3774437510817343

IDEAL_10KM = ProtocolParams(v_a=1e5, v_b=1e5, l_ac=10.0, l_bc=10.0)
PRACTICAL_10KM = ProtocolParams(v_a=1e5, v_b=1e5, l_ac=10.0, l_bc=10.0, eta=0.9, v_el=0.015)


# ------------------------------------------------------------------ parameters

def test_channel_transmittance_values():
    assert channel_transmittance(0.0) == 1.0
    assert channel_transmittance(50.0, 0.2) == pytest.approx(0.1, rel=1e-14)
    assert channel_transmittance(25.0, 0.2) == pytest.approx(10.0 ** -0.5, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        channel_transmittance(-1.0)
    assert channel_transmittance(16000.0) > 0.0
    with pytest.raises(NumericDomainError, match="underflows"):
        channel_transmittance(1e6)


def test_cloner_variance():
    assert cloner_variance(0.5, 0.0) == 1.0
    assert cloner_variance(0.1, 0.002) == pytest.approx(1.0 + 0.002 / 0.9, rel=1e-14)
    # output-variance identity: T V + (1-T) W = T V + (1-T) + eps
    t, v, eps = 0.5, 2.0, 0.002
    w = cloner_variance(t, eps)
    assert t * v + (1 - t) * w == pytest.approx(t * v + (1 - t) + eps, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        cloner_variance(0.0, 0.002)
    with pytest.raises(InvalidParameterError):
        cloner_variance(1.0, 0.002)
    with pytest.raises(InvalidParameterError):
        cloner_variance(0.5, -0.1)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        ProtocolParams(v_a=0.5, v_b=2.0, l_ac=0, l_bc=0)
    with pytest.raises(InvalidParameterError):
        ProtocolParams(v_a=2, v_b=2, l_ac=-1, l_bc=0)
    with pytest.raises(InvalidParameterError):
        ProtocolParams(v_a=2, v_b=2, l_ac=0, l_bc=0, eta=1.0, v_el=0.01)
    with pytest.raises(InvalidParameterError):
        ProtocolParams(v_a=2, v_b=2, l_ac=0, l_bc=0, beta=1.2)
    with pytest.raises(InvalidParameterError):
        ProtocolParams(v_a=2, v_b=2, l_ac=0, l_bc=0, protocol="pm")
    p = ProtocolParams(v_a=2, v_b=2, l_ac=50, l_bc=0)
    assert p.t_1 == pytest.approx(0.1)
    assert p.t_2 == 1.0


@pytest.mark.parametrize("bad,message", [
    ({"v_a": 0.5}, "v_a must be >= 1, got 0.5"),
    ({"v_b": 0.999}, "v_b must be >= 1, got 0.999"),
    ({"l_ac": -1}, "l_ac must be >= 0, got -1"),
    ({"l_bc": -0.5}, "l_bc must be >= 0, got -0.5"),
    ({"alpha": -0.2}, "alpha must be >= 0, got -0.2"),
    ({"eps1": -0.001}, "eps1 must be >= 0, got -0.001"),
    ({"eps2": -1e-09}, "eps2 must be >= 0, got -1e-09"),
    ({"eta": 0.0}, "eta must be in (0, 1], got 0.0"),
    ({"eta": 1.5}, "eta must be in (0, 1], got 1.5"),
    ({"eta": 0.9, "v_el": -0.01}, "v_el must be >= 0, got -0.01"),
    ({"beta": 1.2}, "beta must be in [0, 1], got 1.2"),
    ({"gain": -2}, "gain must be >= 0, got -2"),
    ({"protocol": "pm"}, "unknown protocol 'pm'"),
    ({"v_a": math.nan, "v_b": 0.5}, "v_a must be finite, got nan"),
    ({"v_a": 0.5, "l_ac": -1}, "v_a must be >= 1, got 0.5"),
    ({"v_el": 0.01}, "eta = 1 requires v_el = 0: the detector ancilla variance "
                     "1 + v_el/(1 - eta) diverges"),
])
def test_params_messages(bad, message):
    # each check raises with its own text, the first failing one when several do
    with pytest.raises(InvalidParameterError) as info:
        ProtocolParams(**{"v_a": 2.0, "v_b": 2.0, "l_ac": 0.0, "l_bc": 0.0, **bad})
    assert str(info.value) == message


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", protocols._REAL_FIELDS)
def test_params_reject_non_finite(field, value):
    # NaN fails no ">= bound" test and inf passes them all; either used to
    # come out of key_rate as a NaN key rate
    with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
        ProtocolParams(**{"v_a": 5.04, "v_b": 5.04, "l_ac": 5.0, "l_bc": 0.0, field: value})


def test_added_noise_params():
    for chi in (0.0, 0.3, 1.0, 2.0, 12.5):
        assert AddedNoiseParams.from_chi_n(chi) == AddedNoiseParams(chi)
        assert AddedNoiseParams.from_chi_n(chi).chi_n == chi
    # values outside [0, inf): test_added_noise_is_a_finite_variance


@pytest.mark.parametrize("x", [math.inf, math.nan, -1.0, -0.1, -math.inf])
def test_added_noise_is_a_finite_variance(x):
    # chi_n = inf is the limit, no noise to add (only noise_limit_slope
    # takes it): neither constructor holds it or a value below 0, so no
    # max-distance search or sweep can be handed one
    for make in (AddedNoiseParams, AddedNoiseParams.from_chi_n):
        with pytest.raises(InvalidParameterError, match="chi_n must be >= 0 and finite"):
            make(x)
    base = replace(MODIFIED_AT_GAIN, gain=None)
    with pytest.raises(InvalidParameterError, match="chi_n must be >= 0 and finite"):
        max_distance(base, "most-asymmetric", noise=AddedNoiseParams.from_chi_n(x))
    with pytest.raises(InvalidParameterError, match="chi_n must be >= 0 and finite"):
        SweepSpec("lac-with-fixed-lbc", 0.0, 1.0, 1.0, base, noise=AddedNoiseParams(x))


MODIFIED_AT_GAIN = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=10.0, l_bc=0.0, gain=1.0,
                                  protocol="squeezed-modified")


@given(st.floats(min_value=0.0, allow_infinity=False))
@example(2.0)
def test_key_rate_reports_the_chi_n_it_is_given(x):
    # the report carries chi_n exactly as given
    try:
        r = key_rate(MODIFIED_AT_GAIN, AddedNoiseParams.from_chi_n(x))
    except NumericDomainError:
        assert x > 1e300  # a (b + chi_n) overflows at the top of the double range
        return
    assert r.chi_n == x


def test_noise_realisation():
    # the oracle's canonical beamsplitter realises chi_n with n_r >= 1 and
    # is the identity at chi_n = 0; build_mdi_state checks any pair it is given
    for chi in (0.0, 0.3, 1.0, 12.5):
        t_r, n_r = canonical_realisation(chi)
        assert realised_chi_n(t_r, n_r) == pytest.approx(chi, abs=1e-12)
        assert n_r >= 1.0
    assert canonical_realisation(0.0) == (1.0, 1.0)
    assert realised_chi_n(0.5, 3.0) == 3.0
    for t_r in (0.0, 1.5, math.nan):
        with pytest.raises(InvalidParameterError, match="t_r must be in"):
            build_mdi_state(IDEAL_10KM, noise=(t_r, 2.0), gain=1.5)
    for n_r in (0.5, math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="n_r must be finite"):
            build_mdi_state(IDEAL_10KM, noise=(0.5, n_r), gain=1.5)


# -------------------------------------------------------------- circuit builder

def test_build_requires_gain():
    with pytest.raises(InvalidParameterError):
        build_mdi_state(IDEAL_10KM)


def test_build_output_has_symmetric_form():
    st = build_mdi_state(IDEAL_10KM, gain=1.5)
    assert st.n_modes == 2
    a, _, _ = extract_two_mode(st)  # raises AsymmetricFormError if x/p symmetry broken
    assert a == pytest.approx(1e5)
    cov = st.cov
    assert cov[0, 0] == pytest.approx(cov[1, 1])
    assert cov[2, 2] == pytest.approx(cov[3, 3])
    assert cov[0, 2] == pytest.approx(-cov[1, 3])


@pytest.mark.parametrize("params,g", [
    (IDEAL_10KM, 1.7),
    (PRACTICAL_10KM, 1.9),
    (ProtocolParams(v_a=5.04, v_b=5.04, l_ac=40.0, l_bc=0.0), 1.2),
    (ProtocolParams(v_a=20.0, v_b=7.0, l_ac=12.0, l_bc=3.0, eps1=0.01, eps2=0.03,
                    eta=0.9, v_el=0.015), 2.2),
    (ProtocolParams(v_a=2.0, v_b=2.0, l_ac=0.0, l_bc=0.0), 0.9),
    (IDEAL_10KM, 1.8),
    (PRACTICAL_10KM, 2.0),
    (ProtocolParams(v_a=5.04, v_b=5.04, l_ac=30.0, l_bc=0.0, eta=0.9, v_el=0.015), 1.4),
])
def test_build_matches_mp_circuit(params, g):
    # the matrix route against the 40-digit circuit that keeps every
    # environment, detector and announcement mode
    ref = tuple(float(x) for x in mp_two_mode(mp_unitary_circuit(params, g)))
    assert extract_two_mode(build_mdi_state(params, gain=g)) == pytest.approx(ref, rel=1e-12)


def test_lossless_reduced_state_is_gain_scaled_epr_like():
    p = ProtocolParams(v_a=2.0, v_b=2.0, l_ac=0.0, l_bc=0.0, eps1=0.0, eps2=0.0)
    _, _, c = extract_two_mode(build_mdi_state(p, gain=0.0))
    assert c == 0.0  # zero gain leaves the halves uncorrelated
    g = optimal_gain(p)
    _, _, c = extract_two_mode(build_mdi_state(p, gain=g))
    assert c > 0.0


def test_extract_two_mode_on_plain_epr():
    a, b, c = extract_two_mode(epr_state(3.0))
    assert (a, b) == (3.0, 3.0)
    assert c == pytest.approx(math.sqrt(8.0), rel=1e-15)


def test_extract_two_mode_rejects_asymmetry():
    cov = epr_state(2.0).cov.copy()
    cov[0, 0] += 1e-3
    cov[1, 1] -= 1e-3
    with pytest.raises(AsymmetricFormError):
        extract_two_mode(GaussianState(cov))
    with pytest.raises(InvalidParameterError):
        extract_two_mode(GaussianState(np.eye(6)))


# Relay-covariance indices of the x-side (a, b0, b1, b2, c0, c1) of
# _gain_coefficients: A3 = (0, 1), C2 = (2, 3), B3 = (4, 5), D2 = (6, 7).
X_COEFFS = ((0, 0), (4, 4), (2, 4), (2, 2), (0, 4), (0, 2))


def matrix_coefficients(params):
    """The relay entries that ``_gain_coefficients`` computes, read off the
    matrix route's relay covariance."""
    cov = matrix._relay_state(params).cov
    return tuple(float(cov[i, j]) for i, j in X_COEFFS)


def ulps(x, y):
    """|x - y| in units in the last place of the larger of the two."""
    return 0.0 if x == y else abs(x - y) / math.ulp(max(abs(x), abs(y)))


def within_2_ulp(params):
    """Each scalar coefficient is within 2 ulp of the matrix route's entry."""
    return all(ulps(x, y) <= 2.0
               for x, y in zip(_gain_coefficients(params), matrix_coefficients(params)))


def lossless_ideal(params):
    """Lossless arms and the perfect detector: with v_a = v_b each sum of the
    relay has two equal terms, so a fused multiply-add cannot change it."""
    return params.l_ac == params.l_bc == 0.0 and params.eta == 1.0


def test_reduced_state_equals_matrix_route():
    # the scalar relay runs the matrix route's operations in its order, but
    # the engine's last bit is set by BLAS fused multiply-adds: every
    # coefficient is within 2 ulp, and at lossless, ideal points (a, b, c)
    # equals the feedforward product bit for bit, V = 1e5 included, where b
    # cancels from ~1e5 terms
    rng = random.Random(20140603)
    exact = 0
    for _ in range(400):
        v = rng.choice([VARIANCE_PRESETS["ideal"], VARIANCE_PRESETS["realistic"],
                        rng.uniform(1.5, 50.0)])
        eta, v_el = DETECTOR_PRESETS[rng.choice(sorted(DETECTOR_PRESETS))]
        p = ProtocolParams(v_a=v, v_b=v,
                           l_ac=rng.choice([0.0, rng.uniform(0.0, 60.0)]),
                           l_bc=rng.choice([0.0, rng.uniform(0.0, 10.0)]),
                           eta=eta, v_el=v_el)
        g = rng.uniform(0.0, 3.0)
        assert within_2_ulp(p), p
        if lossless_ideal(p):
            assert reduced_state(_gain_coefficients(p), g) == extract_two_mode(
                _displaced_pair(p, g)), (p, g)
            exact += 1
    assert exact >= 20


@pytest.mark.parametrize("i,j", [(1, 1), (5, 5), (7, 7), (1, 7), (2, 7)])
def test_reduced_state_rejects_planted_asymmetry(monkeypatch, i, j):
    # the kernel computes the x side only and takes the p side as its mirror;
    # the oracle's reduced state, which the mirror is checked against, must
    # refuse a relay whose p side does not mirror x: an x/p mismatch of a, b
    # or c, or the x-p coupling (2, 7)
    honest = matrix._relay_state

    def planted(params):
        cov = honest(params).cov.copy()
        cov[i, j] += 1e-3
        if i != j:
            cov[j, i] += 1e-3
        return GaussianState(cov)

    p = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=7.0, l_bc=1.0)
    monkeypatch.setattr(matrix, "_relay_state", planted)
    with pytest.raises(AsymmetricFormError):
        extract_two_mode(_displaced_pair(p, 1.2))
    with pytest.raises(AsymmetricFormError):
        extract_two_mode(build_mdi_state(p, gain=1.2))


CHANNEL_FIELDS = ("v_a", "v_b", "l_ac", "l_bc", "alpha", "eps1", "eps2", "eta", "v_el")


@pytest.mark.parametrize("field", CHANNEL_FIELDS)
def test_relay_is_assembled_again_for_a_new_channel(field):
    # each of the nine channel fields enters the relay: a channel that
    # differs in one of them gets other coefficients, and both sets match
    # the matrix route
    base = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=7.0, l_bc=1.0, eta=0.9, v_el=0.015)
    other = replace(base, **{field: getattr(base, field) * 0.5})
    assert _gain_coefficients(base) != _gain_coefficients(other)
    assert within_2_ulp(base) and within_2_ulp(other)


def test_honest_points_mirror_x_and_p():
    # the kernel computes the x side only: the matrix route's p side must
    # mirror it, (a, b, -c), with no x-p coupling, within TWO_MODE_TOL
    rng = random.Random(1406)
    for _ in range(500):
        eta, v_el = DETECTOR_PRESETS[rng.choice(sorted(DETECTOR_PRESETS))]
        v = rng.choice([VARIANCE_PRESETS["realistic"], VARIANCE_PRESETS["ideal"],
                        rng.uniform(1.001, 100.0)])
        p = ProtocolParams(v_a=v, v_b=v, l_ac=rng.choice([0.0, rng.uniform(0.0, 100.0)]),
                           l_bc=rng.choice([0.0, rng.uniform(0.0, 20.0)]),
                           eps1=rng.uniform(0.0, 0.1), eps2=rng.uniform(0.0, 0.1),
                           eta=eta, v_el=v_el)
        g = rng.uniform(0.0, gain_bracket(p))
        a, b, c = reduced_state(_gain_coefficients(p), g)
        cov = _displaced_pair(p, g).cov
        tol = TWO_MODE_TOL * max(1.0, float(np.abs(cov).max()))
        assert max(abs(cov[1, 1] - a), abs(cov[3, 3] - b), abs(cov[1, 3] + c)) <= tol, (p, g)
        assert float(np.abs(cov[0::2, 1::2]).max()) <= tol, (p, g)


def test_reduced_state_rejects_cancelled_b():
    # b ~ 6 cancels out of terms ~ 1e10: its rounding alone exceeds the
    # two-mode tolerance, so no key rate is reported
    p = ProtocolParams(v_a=5.04, v_b=1e10, eps1=0.0, eps2=0.0, l_ac=0.0, l_bc=0.0)
    with pytest.raises(NumericDomainError):
        key_rate(p)


@pytest.mark.parametrize("changes", [
    {"gain": 1e200},                    # b overflows at a fixed gain
    {"gain": 1e155},                    # so does g^2 b2 alone
    {"v_a": 1e200, "v_b": 1e200},       # the relay covariance overflows
])
def test_kernel_overflow_raises(changes):
    # a NaN Holevo term used to be clamped to 0 and reported with flag
    # holevo_clamped, next to a NaN key rate
    p = replace(ProtocolParams(v_a=5.04, v_b=5.04, l_ac=5.0, l_bc=0.0), **changes)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericDomainError):
        key_rate(p)


def test_no_non_finite_key_rate_is_reported():
    # inputs up to 1e308 overflow somewhere in the kernel: that raises, and
    # never comes out as a NaN or infinite number in a report
    rng = random.Random(2014)

    def value(typical):
        return rng.choice([typical, 10.0 ** rng.uniform(0.0, 308.0)])

    reported = 0
    with np.errstate(all="ignore"):
        for _ in range(300):
            protocol = rng.choice(sorted(protocols.PROTOCOLS))
            eta, v_el = DETECTOR_PRESETS[rng.choice(sorted(DETECTOR_PRESETS))]
            try:
                p = ProtocolParams(v_a=value(5.04), v_b=value(5.04), l_ac=rng.choice([0.0, 5.0]),
                                   l_bc=rng.choice([0.0, 1.0]), eps1=value(0.002),
                                   eps2=value(0.002), eta=eta,
                                   v_el=value(v_el) if eta < 1.0 else 0.0,
                                   gain=rng.choice([None, 1.0, value(0.0)]), protocol=protocol)
                noise = (AddedNoiseParams.from_chi_n(value(2.0))
                         if protocol == "squeezed-modified" else None)
                r = key_rate(p, noise)
            except CVMDIError:
                continue
            reported += 1
            numbers = (r.key_rate, r.mutual_info, r.holevo, *r.lambdas, r.gain_used, r.chi_n)
            assert all(map(math.isfinite, numbers)), (p, noise, r)
    assert reported >= 30


def test_key_rate_error_names_the_point_when_gain_is_optimised():
    # the guard fires inside the gain search, and the error still says where
    p = ProtocolParams(v_a=5.04, v_b=1e10, eps1=0, eps2=0, l_ac=0, l_bc=0)
    with pytest.raises(NumericDomainError, match=r"\[at ProtocolParams\("):
        key_rate(p)


# ----------------------------------------------------------- information measures

def closed_chi(abc, protocol, chi_n=0.0):
    """Eve's bound from the closed eigenvalue forms, on the pre-noise state (a, b, c)."""
    return rate_terms(*abc, protocol, chi_n)[1]


def test_mutual_information_examples():
    assert homodyne_info(2.0, 3.0, 0.0) == 0.0
    a, b, c = 2.0, 2.0, math.sqrt(3.0)
    assert homodyne_info(a, b, c) == pytest.approx(1.0, rel=1e-12)
    # algebraic identity: 0.5 log2(a / (a - c^2/b))
    alt = 0.5 * math.log2(a / (a - c ** 2 / b))
    assert homodyne_info(a, b, c) == pytest.approx(alt, rel=1e-12)
    assert heterodyne_info(a, b, c) == pytest.approx(math.log2(1.5), rel=1e-12)
    assert heterodyne_info(5.0, 4.0, 0.0) == 0.0


def test_heterodyne_info_bounded_by_twice_homodyne():
    # per-quadrature heterodyne information never exceeds homodyne
    # information on the same state (vacuum penalty only weakens
    # correlations), so the two-quadrature total is at most doubled
    rng = np.random.default_rng(31)
    for _ in range(200):
        a = math.exp(rng.uniform(0.0, math.log(100.0)))
        b = math.exp(rng.uniform(0.0, math.log(100.0)))
        c = rng.uniform(0.0, 0.99) * c_edge(a, b)
        assert heterodyne_info(a, b, c) <= 2.0 * homodyne_info(a, b, c) + 1e-12


def test_holevo_uncorrelated_thermal_pair():
    assert closed_chi((2.0, 2.0, 0.0), "squeezed") == pytest.approx(G_HALF, rel=1e-12)


def test_holevo_closed_vs_generic_on_circuit_states():
    rng = np.random.default_rng(77)
    for _ in range(40):
        p = ProtocolParams(
            v_a=10 ** rng.uniform(0.05, 5.0), v_b=10 ** rng.uniform(0.05, 5.0),
            l_ac=rng.uniform(0.0, 60.0), l_bc=rng.uniform(0.0, 60.0),
            eps1=rng.uniform(0.0, 0.05), eps2=rng.uniform(0.0, 0.05),
            **({"eta": 0.9, "v_el": 0.015} if rng.uniform() < 0.5 else {}))
        g = rng.uniform(0.05, 0.5) * gain_bracket(p)
        st = build_mdi_state(p, gain=g)
        tm = extract_two_mode(st)
        assert closed_chi(tm, "squeezed") == pytest.approx(
            holevo_generic(st, 1, "homodyne"), abs=1e-9)
        assert closed_chi(tm, "coherent") == pytest.approx(
            holevo_generic(st, 1, "heterodyne"), abs=1e-9)
        # trusted-noise closed form against the 4-mode (A3, B5, N1, N3) state;
        # the matrix route loses ~1e-10 of chi relative at large variances
        chi_n = 10 ** rng.uniform(-3.0, 1.7)
        st4 = build_mdi_state(p, noise=canonical_realisation(chi_n), gain=g)
        assert closed_chi(tm, "squeezed-modified", chi_n) == pytest.approx(
            holevo_generic(st4, 1, "homodyne"), rel=2e-9)


def closed_form_holevos(params, chi_n, g):
    """(chi, conditioning) of the closed forms at gain g, for the oracle to check;
    ``chi_n`` None for the plain protocols."""
    tm = extract_two_mode(build_mdi_state(params, gain=g))
    if chi_n is None:
        return [(closed_chi(tm, "squeezed"), "homodyne"),
                (closed_chi(tm, "coherent"), "heterodyne")]
    return [(closed_chi(tm, "squeezed-modified", chi_n), "homodyne")]


def realisation(chi_n):
    """The circuits' trusted-noise beamsplitter for ``chi_n``, None for none."""
    return None if chi_n is None else canonical_realisation(chi_n)


def gains_near_optimum(params):
    """The optimal gain and gains up to GAIN_TOL either side: any could be the search's."""
    g = optimal_gain(params)
    return [g + k * GAIN_TOL for k in (-1.0, -0.5, 0.0, 0.5, 1.0)]


def test_holevo_against_eavesdropper_side_oracle():
    """chi from Eve's own modes on the 40-digit unitary circuit.

    The oracle's entropies are exact far below every tolerance here, so
    each tolerance bounds the closed form's own double-precision error.
    That error grows with the variance: the V = 5.04 rows agree to within
    3e-15 and the v_a = 1e5 rows to within 2e-11.  At v_a = 1e5 with
    eta = 1 the check runs at every gain the search could return.
    """
    cases = [(PRACTICAL_10KM, None, 1e-9),
             (ProtocolParams(v_a=5.04, v_b=5.04, l_ac=30.0, l_bc=0.0,
                             eta=0.9, v_el=0.015), None, 1e-11),
             (ProtocolParams(v_a=5.04, v_b=5.04, l_ac=60.0, l_bc=0.0),
              5.0, 1e-11)]
    for params, chi_n, tol in cases:
        g = optimal_gain(params)  # plain squeezed gain
        circ = mp_unitary_circuit(params, g, realisation(chi_n))
        for chi, conditioning in closed_form_holevos(params, chi_n, g):
            assert chi == pytest.approx(mp_oracle_holevo(circ, conditioning), abs=tol)
    for chi_n in (None, 2.0):
        for g in gains_near_optimum(IDEAL_10KM):
            circ = mp_unitary_circuit(IDEAL_10KM, g, realisation(chi_n))
            for chi, conditioning in closed_form_holevos(IDEAL_10KM, chi_n, g):
                assert chi == pytest.approx(mp_oracle_holevo(circ, conditioning), abs=1e-9), g


def test_lossless_announcement_leak_is_real():
    # with finite source variance the relay announcement correlates with
    # Bob's data even on lossless channels; the eavesdropper-side oracle
    # confirms the closed form rather than wishing the leak away
    for v, tol in ((8.0, 1e-11), (1e5, 1e-5)):
        p = ProtocolParams(v_a=v, v_b=v, l_ac=0.0, l_bc=0.0, eps1=0.0, eps2=0.0)
        g = optimal_gain(p)
        tm = extract_two_mode(build_mdi_state(p, gain=g))
        chi = closed_chi(tm, "squeezed")
        circ = mp_unitary_circuit(p, g)
        assert chi == pytest.approx(mp_oracle_holevo(circ, "homodyne"), abs=tol)
        assert chi > 0.2  # not a pure-state artifact


def test_modified_equals_squeezed_as_noise_vanishes():
    # |dK| < 1e-6 is certifiable in double precision at moderate variance;
    # at v = 1e5 the near-degenerate conditional spectrum costs ~1e-5
    for base, tol in ((ProtocolParams(v_a=5.04, v_b=5.04, l_ac=10.0, l_bc=10.0), 1e-6),
                      (IDEAL_10KM, 2e-5)):
        g = 1.9
        k_sq = _gain_objective(replace_protocol(base, "squeezed"), 0.0)(g)
        k_mod = _gain_objective(replace_protocol(base, "squeezed-modified"), 1e-9)(g)
        assert abs(k_mod - k_sq) < tol
        # at chi_n = 0 exactly the trusted-noise form is the squeezed one
        k_zero = _gain_objective(replace_protocol(base, "squeezed-modified"), 0.0)(g)
        assert k_zero == k_sq


def test_modified_chi_depends_only_on_chi_n():
    p = replace_protocol(ProtocolParams(v_a=5.04, v_b=5.04, l_ac=50.0, l_bc=0.0),
                         "squeezed-modified")
    g = 1.25
    chi_target = 3.0
    realizations = [canonical_realisation(chi_target), (0.5, 3.0), (0.8, 12.0)]
    ks = []
    oracle_chis = []
    for noise in realizations:
        chi_n = realised_chi_n(*noise)
        assert chi_n == pytest.approx(chi_target, abs=1e-12)
        ks.append(_gain_objective(p, chi_n)(g))
        # the production path sees chi_n alone; the invariance it relies on
        # is checked on the 4-mode matrix oracle, which sees (t_r, n_r)
        oracle_chis.append(holevo_generic(build_mdi_state(p, noise=noise, gain=g),
                                          1, "homodyne"))
    assert max(ks) - min(ks) < 1e-9
    assert max(oracle_chis) - min(oracle_chis) < 1e-9
    tm = extract_two_mode(build_mdi_state(p, gain=g))
    assert closed_chi(tm, "squeezed-modified", chi_target) == pytest.approx(
        oracle_chis[0], abs=1e-9)


@pytest.mark.parametrize("detector", sorted(DETECTOR_PRESETS))
def test_modified_holevo_invariant_under_noise_realisation(detector):
    # the trusted-noise beamsplitter enters Eve's bound through chi_n alone:
    # any (t_r, n_r) with (1 - t_r) n_r / t_r = chi_n gives the same 4-mode
    # Holevo bound, and it equals the closed form at chi_n
    rng = random.Random(1406)
    eta, v_el = DETECTOR_PRESETS[detector]
    for _ in range(25):
        v = VARIANCE_PRESETS["realistic"]
        p = ProtocolParams(v_a=v, v_b=v, l_ac=rng.uniform(0.0, 30.0),
                           l_bc=rng.choice([0.0, rng.uniform(0.0, 5.0)]),
                           eta=eta, v_el=v_el, protocol="squeezed-modified")
        g = rng.uniform(0.5, 1.5) * math.sqrt(2.0 / (eta * p.t_2))
        chi_n = math.exp(rng.uniform(math.log(0.05), math.log(30.0)))
        realisations = [canonical_realisation(chi_n), (1.0 / (1.0 + chi_n), 1.0)]
        if chi_n >= 1.0:
            realisations.append((0.5, chi_n))
        chis = [holevo_generic(build_mdi_state(p, noise=noise, gain=g), 1, "homodyne")
                for noise in realisations]
        closed = closed_chi(reduced_state(_gain_coefficients(p), g), "squeezed-modified", chi_n)
        assert max(chis) - min(chis) < 1e-9, (p, g, chi_n)
        assert all(chi == pytest.approx(closed, abs=1e-9) for chi in chis), (p, g, chi_n)


def test_modified_matches_generic_entropy_engine():
    p = replace_protocol(IDEAL_10KM, "squeezed-modified")
    noise = (0.99, 1.0)
    g = 1.8
    st4 = build_mdi_state(p, noise=noise, gain=g)
    tm = extract_two_mode(build_mdi_state(p, gain=g))
    assert closed_chi(tm, "squeezed-modified", realised_chi_n(*noise)) == pytest.approx(
        holevo_generic(st4, 1, "homodyne"), abs=1e-9)


@pytest.mark.parametrize("a,b,c,chi_n,message", [
    (1.0, 1.0, 2.0, 0.1, "is not positive"),   # ab - c^2 < 0 makes B < 0
    (0.5, 2.5, 2.0, 2.5, "discriminant"),      # B > 0 but A^2 < 4B
    (1.0, 1.0, 0.5, 1.0, "below 1"),           # real roots, lambda4 < 1
])
def test_trusted_noise_conditional_domain_errors(a, b, c, chi_n, message):
    with pytest.raises(NumericDomainError, match=message):
        trusted_noise_conditional(a, b, c, chi_n)


def test_trusted_noise_conditional_spectrum():
    # lambda3 >= lambda4 >= lambda5 = 1, ordered as symplectic_eigenvalues
    # orders the conditional (A3, N1, N3) spectrum of the matrix oracle
    p = replace_protocol(ProtocolParams(v_a=5.04, v_b=5.04, l_ac=20.0, l_bc=0.0),
                         "squeezed-modified")
    chi_n = 1.5
    g = 1.3
    lams = trusted_noise_conditional(*extract_two_mode(build_mdi_state(p, gain=g)), chi_n)
    cond = homodyne_condition(
        build_mdi_state(p, noise=canonical_realisation(chi_n), gain=g), 1, "x")
    np.testing.assert_allclose(lams, symplectic_eigenvalues(cond), rtol=1e-10)
    assert lams[2] == 1.0


def replace_protocol(params, protocol):
    return replace(params, protocol=protocol)


# -------------------------------------------------------------------- key rate

def test_key_rate_report_identity():
    r = key_rate(IDEAL_10KM)
    assert r.key_rate == pytest.approx(IDEAL_10KM.beta * r.mutual_info - r.holevo, abs=1e-12)
    assert r.holevo >= 0.0
    assert len(r.lambdas) == 3
    assert r.flags == ()


@pytest.mark.parametrize("detector", sorted(DETECTOR_PRESETS))
@pytest.mark.parametrize("protocol", protocols.PROTOCOLS)
def test_key_rate_lambda2_is_the_matrix_oracle_minimum(protocol, detector):
    # key_rate certifies physicality from the scalar lambda2 of (a, b, c);
    # it must be the smallest symplectic eigenvalue of the state that
    # build_mdi_state assembles and checks
    rng = random.Random(19)
    eta, v_el = DETECTOR_PRESETS[detector]
    for v in (5.04, 1e4):
        for _ in range(12):
            p = ProtocolParams(v_a=v, v_b=v, l_ac=rng.choice([0.0, rng.uniform(0.0, 60.0)]),
                               l_bc=rng.choice([0.0, rng.uniform(0.0, 10.0)]),
                               eta=eta, v_el=v_el, protocol=protocol)
            g = rng.uniform(0.0, gain_bracket(p))
            noise = (AddedNoiseParams.from_chi_n(rng.uniform(0.0, 10.0))
                     if protocol == "squeezed-modified" else None)
            lam2 = key_rate(replace(p, gain=g), noise).lambdas[1]
            lam_min = float(symplectic_eigenvalues(build_mdi_state(p, gain=g))[-1])
            assert lam2 == pytest.approx(lam_min, rel=1e-9), (p, g)


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_scalar_physicality_check_uses_the_oracle_tolerance(scale):
    # the same tolerance as GaussianState.require_physical on the pair's
    # covariance: PHYSICALITY_TOL, widened to 64 eps per unit of magnitude
    eff = max(PHYSICALITY_TOL, 64.0 * np.finfo(float).eps * scale)
    require_physical_pair(scale, scale, 0.0, 1.0 - 0.5 * eff)
    with pytest.raises(NumericDomainError, match="stage 'feedforward'"):
        require_physical_pair(scale, scale, 0.0, 1.0 - 2.0 * eff)
    for lam, physical in ((1.0 - 0.5 * eff, True), (1.0 - 2.0 * eff, False)):
        state = GaussianState(np.diag([scale, scale, lam * lam / scale, scale]))
        assert symplectic_eigenvalues(state)[-1] == pytest.approx(lam, rel=1e-12)
        if physical:
            state.require_physical(context="feedforward")
        else:
            with pytest.raises(NumericDomainError, match="stage 'feedforward'"):
                state.require_physical(context="feedforward")


def test_key_rate_refuses_an_unphysical_reported_point(monkeypatch):
    # a lambda2 planted just below PHYSICALITY_TOL at a fixed gain; at a = 1e5
    # the tolerance is widened to 64 eps per unit of magnitude, and a lambda2
    # half of it below 1 passes
    p = replace(PRACTICAL_10KM, gain=1.9)
    a, b, c = reduced_state(_gain_coefficients(p), p.gain)
    eff = 64.0 * np.finfo(float).eps * max(a, b, abs(c))
    assert eff > PHYSICALITY_TOL
    real = protocols.two_mode_symplectic
    for lam2 in (1.0 - 1e-8, 1.0 - 2.0 * eff, 1.0 - 0.5 * eff):
        monkeypatch.setattr(protocols, "two_mode_symplectic",
                            lambda a, b, c, lam2=lam2: (real(a, b, c)[0], lam2))
        if lam2 > 1.0 - eff:
            assert key_rate(p).lambdas[1] == lam2
            continue
        with pytest.raises(NumericDomainError, match="stage 'feedforward'"):
            key_rate(p)


def test_nan_holevo_term_is_not_clamped(monkeypatch):
    # the clamp turns a slightly negative chi into 0; a NaN chi used to be
    # clamped as well, and reported as chi = 0 with flag holevo_clamped
    monkeypatch.setattr(protocols, "two_mode_symplectic", lambda a, b, c: (math.nan, math.nan))
    with pytest.raises(NumericDomainError, match="Holevo bound came out nan"):
        _gain_objective(PRACTICAL_10KM, 0.0)(1.9)


def test_slightly_negative_holevo_is_clamped_and_flagged(monkeypatch):
    # roundoff can leave chi a little below 0: within CHI_CLAMP_TOL it is
    # reported as 0 with flag holevo_clamped, further below it raises
    p = replace(PRACTICAL_10KM, gain=1.9)
    tol = protocols.CHI_CLAMP_TOL
    for shortfall in (0.5 * tol, 2.0 * tol):
        # g of lambda1, lambda2 and the conditional lambda3, in that order
        terms = iter([0.5, 0.5, 1.0 + shortfall])
        monkeypatch.setattr(protocols, "g_func", lambda x, terms=terms: next(terms))
        if shortfall < tol:
            r = key_rate(p)
            assert (r.holevo, r.flags) == (0.0, ("holevo_clamped",))
            assert r.key_rate == p.beta * r.mutual_info
            continue
        with pytest.raises(NumericDomainError, match="Holevo bound came out"):
            key_rate(p)


def test_key_rate_positive_inside_cutoff():
    p = ProtocolParams(v_a=1e5, v_b=1e5, l_ac=5.0, l_bc=5.0)
    assert key_rate(p).key_rate > 0.0


def test_key_rate_oracle_agreement_at_10km():
    for g in gains_near_optimum(IDEAL_10KM):
        r = key_rate(replace(IDEAL_10KM, gain=g))
        circ = mp_unitary_circuit(IDEAL_10KM, g)
        k_ref = (IDEAL_10KM.beta * mp_oracle_mutual_info_homodyne(circ)
                 - mp_oracle_holevo(circ, "homodyne"))
        assert r.key_rate == pytest.approx(k_ref, abs=1e-9), g


@pytest.mark.parametrize("protocol,chi_n_max", [
    ("squeezed", None),
    ("coherent", None),
    ("squeezed-modified", 10.0),
    ("squeezed-modified", 0.0),
])
def test_key_rate_equals_gain_objective(monkeypatch, protocol, chi_n_max):
    # one evaluation path: at the searched optimum and at a random gain, the
    # objective the gain search ran and the report at that fixed gain give
    # the same float; so does rate_terms on the matrix route's reduced
    # state at lossless, ideal points, and elsewhere the relay coefficients
    # are within 2 ulp of that route's (BLAS fused multiply-adds set its
    # last bit)
    objectives = []
    search = protocols.golden_section_max

    def spy(f, *args):
        objectives.append(f)
        return search(f, *args)

    monkeypatch.setattr(protocols, "golden_section_max", spy)
    rng = random.Random(f"{protocol}-{chi_n_max}")
    for _ in range(50):
        eta, v_el = DETECTOR_PRESETS[rng.choice(sorted(DETECTOR_PRESETS))]
        v = rng.choice(sorted(VARIANCE_PRESETS.values()))
        p = ProtocolParams(v_a=v, v_b=v, l_ac=rng.choice([0.0, rng.uniform(0.0, 40.0)]),
                           l_bc=rng.choice([0.0, rng.uniform(0.0, 5.0)]), eta=eta, v_el=v_el,
                           beta=rng.choice([1.0, rng.uniform(0.8, 1.0)]), protocol=protocol)
        noise = (None if chi_n_max is None
                 else AddedNoiseParams.from_chi_n(rng.uniform(0.0, chi_n_max)))
        chi_n = 0.0 if noise is None else noise.chi_n
        g_star = optimal_gain(p, noise)
        objective = objectives[-1]
        for g in (g_star, rng.uniform(0.0, gain_bracket(p))):
            k = objective(g)
            assert key_rate(replace(p, gain=g), noise).key_rate == k, (p, g)
            if not lossless_ideal(p):
                assert within_2_ulp(p), p
                continue
            abc = extract_two_mode(_displaced_pair(p, g))
            i_ab, chi, _, _ = rate_terms(*abc, protocol, chi_n)
            assert p.beta * i_ab - chi == k, (p, g)


@pytest.mark.parametrize("protocol,chi_n", [
    ("squeezed", None), ("coherent", None), ("squeezed-modified", 1.0)])
def test_gain_searched_key_rate_computes_each_term_once(monkeypatch, protocol, chi_n):
    # key_rate with no gain and no memo shares its own memo with the
    # optimal_gain it calls: the relay coefficients are computed once for
    # the point, and the report re-reads the symplectic pair that the search
    # computed at the gain it chose
    coefficients, pairs = [], []
    honest_coefficients, honest_pair = protocols._gain_coefficients, protocols.two_mode_symplectic

    def counted_coefficients(params):
        coefficients.append(params)
        return honest_coefficients(params)

    def counted_pair(a, b, c):
        pairs.append((a, b, c))
        return honest_pair(a, b, c)

    monkeypatch.setattr(protocols, "_gain_coefficients", counted_coefficients)
    monkeypatch.setattr(protocols, "two_mode_symplectic", counted_pair)
    noise = None if chi_n is None else AddedNoiseParams.from_chi_n(chi_n)
    key_rate(replace(IDEAL_10KM, protocol=protocol), noise)
    assert len(coefficients) == 1
    assert len(pairs) == len(set(pairs))


def layered_k(p, chi_n, g):
    """K at gain g from the oracle's layered kernel."""
    i_ab, chi, _, _ = rate_terms(*reduced_state(_gain_coefficients(p), g), p.protocol, chi_n)
    return p.beta * i_ab - chi


def layered_report(p, chi_n, g):
    """(K, I_AB, chi, lambdas, clamped) at gain g from the oracle's layered
    kernel, the reported point's physicality checked."""
    a, b, c = reduced_state(_gain_coefficients(p), g)
    i_ab, chi, lams, clamped = rate_terms(a, b, c, p.protocol, chi_n)
    require_physical_pair(a, b, c, lams[1])
    return p.beta * i_ab - chi, i_ab, chi, lams, clamped


def report_terms(r):
    return r.key_rate, r.mutual_info, r.holevo, r.lambdas, r.flags == ("holevo_clamped",)


def outcome(call):
    """What call returns, every float as its ``float.hex``, or the class and
    message of what it raises."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the same class must come out of both
        return type(exc), str(exc)

    def bits(x):
        return x.hex() if isinstance(x, float) else tuple(map(bits, x)) if isinstance(
            x, tuple) else x

    return bits(value)


_VARIANCE = st.one_of(st.sampled_from([1.0, 5.04, 1e5]), st.floats(1.0, 1e5))
_LENGTH = st.one_of(st.just(0.0), st.floats(0.0, 100.0))


@settings(max_examples=300)
@given(protocol=st.sampled_from(protocols.PROTOCOLS), v_a=_VARIANCE, v_b=_VARIANCE,
       l_ac=_LENGTH, l_bc=_LENGTH, eps1=st.floats(0.0, 0.1), eps2=st.floats(0.0, 0.1),
       detector=st.sampled_from(sorted(DETECTOR_PRESETS)), beta=st.floats(0.8, 1.0),
       chi_n=st.one_of(st.just(0.0), st.floats(0.0, 100.0)), gain_frac=st.floats(0.0, 2.0))
@example(protocol="squeezed", v_a=5.04, v_b=1e10, l_ac=0.0, l_bc=0.0, eps1=0.0, eps2=0.0,
         detector="perfect", beta=1.0, chi_n=0.0, gain_frac=0.25)      # b cancels
@example(protocol="coherent", v_a=5.04, v_b=5.04, l_ac=5.0, l_bc=0.0, eps1=0.002,
         eps2=0.002, detector="perfect", beta=1.0, chi_n=0.0, gain_frac=1e160)  # b overflows
@example(protocol="squeezed-modified", v_a=1e200, v_b=1e200, l_ac=5.0, l_bc=0.0, eps1=0.002,
         eps2=0.002, detector="practical", beta=1.0, chi_n=1.0, gain_frac=0.5)  # relay overflows
@example(protocol="squeezed-modified", v_a=1e5, v_b=1e5, l_ac=0.0, l_bc=0.0, eps1=0.0,
         eps2=0.0, detector="perfect", beta=1.0, chi_n=1e300, gain_frac=0.5)  # a (b + chi_n)
@example(protocol="squeezed", v_a=1e150, v_b=5.04, l_ac=1.0, l_bc=1.0, eps1=0.002,
         eps2=0.002, detector="perfect", beta=1.0, chi_n=0.0, gain_frac=1.0)  # ab - c^2 < 1
@example(protocol="coherent", v_a=1e154, v_b=1e154, l_ac=1.0, l_bc=1.0, eps1=0.002,
         eps2=0.002, detector="perfect", beta=1.0, chi_n=0.0, gain_frac=1.0)  # ab, c^2 overflow
@example(protocol="squeezed", v_a=1.0, v_b=1.0, l_ac=0.0, l_bc=0.0, eps1=0.0, eps2=0.0,
         detector="perfect", beta=1.0, chi_n=0.0, gain_frac=0.0)        # a pure vacuum pair
def test_one_frame_kernel_equals_layered_kernel_bit_for_bit(protocol, v_a, v_b, l_ac, l_bc,
                                                            eps1, eps2, detector, beta,
                                                            chi_n, gain_frac):
    # the gain objective, its report and key_rate at a fixed gain give the
    # floats of the oracle's layered kernel bit for bit, and where either
    # raises, both raise the same class with the same message; so do all
    # three through a memo that the other protocols (and the modified one
    # at another chi_n) have already evaluated at this channel and gain
    eta, v_el = DETECTOR_PRESETS[detector]
    modified = protocol == "squeezed-modified"
    chi_n = chi_n if modified else 0.0
    p = ProtocolParams(v_a=v_a, v_b=v_b, l_ac=l_ac, l_bc=l_bc, eps1=eps1, eps2=eps2, eta=eta,
                       v_el=v_el, beta=beta, protocol=protocol)
    g = gain_frac * gain_bracket(p)
    fixed = replace(p, gain=g)
    noise = AddedNoiseParams.from_chi_n(chi_n) if modified else None
    warmers = [(q, 1.0 if q == "squeezed-modified" else 0.0)
               for q in protocols.PROTOCOLS if q != protocol]
    if modified:
        warmers.append((protocol, 2.0 * chi_n + 1.0))
    with np.errstate(all="ignore"):
        want_k = outcome(lambda: layered_k(p, chi_n, g))
        want = outcome(lambda: layered_report(p, chi_n, g))
        want_rate = ((NumericDomainError, f"{want[1]} [at {fixed}]")
                     if want[0] is NumericDomainError else want)
        warm = {}
        for q, warm_chi_n in warmers:
            outcome(lambda: _gain_objective(replace(p, protocol=q), warm_chi_n, warm)(g))
        for memo in (None, warm):
            assert outcome(lambda: _gain_objective(p, chi_n, memo)(g)) == want_k
            got = outcome(lambda: report_terms(_gain_objective(p, chi_n, memo)(g, report=True)))
            assert got == want
            got = outcome(lambda: report_terms(key_rate(fixed, noise, memo=memo)))
            assert got == want_rate


def test_key_rate_zero_beta_never_positive():
    p = ProtocolParams(v_a=10.0, v_b=10.0, l_ac=2.0, l_bc=2.0, beta=0.0)
    r = key_rate(p)
    assert r.key_rate == pytest.approx(-r.holevo, abs=1e-12)
    assert r.key_rate <= 0.0


def test_key_rate_protocol_noise_mismatch():
    with pytest.raises(InvalidParameterError):
        key_rate(IDEAL_10KM, AddedNoiseParams.from_chi_n(1.0))
    with pytest.raises(InvalidParameterError):
        key_rate(replace_protocol(IDEAL_10KM, "squeezed-modified"))


def test_key_rate_modified_report():
    p = replace_protocol(ProtocolParams(v_a=5.04, v_b=5.04, l_ac=40.0, l_bc=0.0),
                         "squeezed-modified")
    noise = AddedNoiseParams.from_chi_n(2.0)
    r = key_rate(p, noise)
    assert r.chi_n == 2.0
    assert len(r.lambdas) == 5
    # the noise adds chi_n to Bob's variance in I_AB
    a, b, c = extract_two_mode(build_mdi_state(p, gain=r.gain_used))
    assert r.mutual_info == pytest.approx(homodyne_info(a, b + 2.0, c), rel=1e-9)


def test_coherent_protocol_report():
    p = replace_protocol(ProtocolParams(v_a=1e5, v_b=1e5, l_ac=3.0, l_bc=3.0), "coherent")
    r = key_rate(p)
    tm = reduced_state(_gain_coefficients(p), r.gain_used)
    assert r.mutual_info == pytest.approx(heterodyne_info(*tm), rel=1e-12)
    assert r.holevo == pytest.approx(closed_chi(tm, "coherent"), rel=1e-12)


# ---------------------------------------------------------------- gain optimum

def test_optimal_gain_is_local_max():
    g = optimal_gain(IDEAL_10KM)
    k_of = _gain_objective(IDEAL_10KM, 0.0)
    for dg in (-1e-3, 1e-3):
        assert k_of(g + dg) <= k_of(g) + 1e-12


def test_optimal_gain_beats_grid_lossless_limit():
    # relay on Bob's side, ideal detection, essentially infinite source
    p = ProtocolParams(v_a=1e5, v_b=1e5, l_ac=0.0, l_bc=0.0, eps1=0.0, eps2=0.0)
    g = optimal_gain(p)
    k_of = _gain_objective(p, 0.0)
    k_star = k_of(g)
    grid = np.arange(0.0, 10.0 + 1e-12, 0.001)
    k_grid = max(k_of(float(x)) for x in grid)
    assert k_star >= k_grid - 1e-9


def test_optimal_gain_grid_agreement_at_10km():
    g = optimal_gain(IDEAL_10KM)
    k_of = _gain_objective(IDEAL_10KM, 0.0)
    k_star = k_of(g)
    grid = np.linspace(max(g - 0.05, 0.0), g + 0.05, 2001)
    k_grid = max(k_of(float(x)) for x in grid)
    assert abs(k_star - k_grid) < 1e-9
    assert k_star >= k_grid - 1e-12


@pytest.mark.parametrize("variance", sorted(VARIANCE_PRESETS))
@pytest.mark.parametrize("detector", sorted(DETECTOR_PRESETS))
@pytest.mark.parametrize("protocol,chi_n", [
    ("squeezed", None),
    ("coherent", None),
    ("squeezed-modified", 0.0),
    ("squeezed-modified", 1.0),
    ("squeezed-modified", 10.0),
])
def test_gain_profile_is_unimodal(protocol, chi_n, detector, variance):
    # golden-section search assumes K(g) rises, then falls on [0, gain_bracket]
    eta, v_el = DETECTOR_PRESETS[detector]
    v = VARIANCE_PRESETS[variance]
    for l_ac in (0.0, 0.5, 5.0, 12.0, 30.0):
        for l_bc in (0.0, 1.0, 5.0):
            p = ProtocolParams(v_a=v, v_b=v, l_ac=l_ac, l_bc=l_bc, eta=eta, v_el=v_el,
                               protocol=protocol)
            grid = np.linspace(0.0, gain_bracket(p), 161)
            k_of = _gain_objective(p, 0.0 if chi_n is None else chi_n)
            k = np.array([k_of(float(g)) for g in grid])
            steps = np.sign(np.diff(k))
            steps = steps[steps != 0.0]
            assert not np.any((steps[:-1] < 0.0) & (steps[1:] > 0.0)), (l_ac, l_bc)
