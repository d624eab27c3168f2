import math
import random
from dataclasses import replace

import numpy as np
import pytest

from cvmdi import (
    AddedNoiseParams,
    CVMDIError,
    GaussianState,
    InvalidParameterError,
    NumericDomainError,
    ProtocolParams,
    StructuralError,
    TwoModeCov,
    build_mdi_state,
    channel_transmittance,
    cloner_variance,
    epr_state,
    extract_two_mode,
    holevo_generic,
    holevo_rr_coherent,
    holevo_rr_modified,
    holevo_rr_squeezed,
    homodyne_condition,
    key_rate,
    mutual_information_heterodyne,
    mutual_information_homodyne,
    optimal_gain,
    symplectic_eigenvalues,
)
from cvmdi import protocols
from cvmdi.analysis import DETECTOR_PRESETS, VARIANCE_PRESETS
from cvmdi.gaussian import PHYSICALITY_TOL
from cvmdi.protocols import (
    GAIN_TOL,
    _displaced_pair,
    _gain_coefficients,
    _gain_objective,
    _reduced_state,
    _trusted_noise_conditional,
    gain_bracket,
)
from helpers import (
    c_edge,
    mp_oracle_holevo,
    mp_oracle_mutual_info_homodyne,
    mp_unitary_circuit,
    oracle_holevo,
    oracle_two_mode,
    reference_abc,
    unitary_circuit,
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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", protocols._REAL_FIELDS)
def test_params_reject_non_finite(field, value):
    # NaN fails no ">= bound" test and inf passes them all; either used to
    # come out of key_rate as a NaN key rate
    with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
        ProtocolParams(**{"v_a": 5.04, "v_b": 5.04, "l_ac": 5.0, "l_bc": 0.0, field: value})


def test_added_noise_params():
    n = AddedNoiseParams(t_r=0.5, n_r=3.0)
    assert n.chi_n == pytest.approx(3.0)
    for chi in (0.0, 0.3, 1.0, 12.5):
        m = AddedNoiseParams.from_chi_n(chi)
        assert m.chi_n == pytest.approx(chi, abs=1e-12)
        assert m.n_r >= 1.0
    assert AddedNoiseParams.from_chi_n(0.0).t_r == 1.0
    with pytest.raises(InvalidParameterError):
        AddedNoiseParams(t_r=0.0, n_r=2.0)
    with pytest.raises(InvalidParameterError):
        AddedNoiseParams(t_r=0.5, n_r=0.5)
    with pytest.raises(InvalidParameterError):
        AddedNoiseParams.from_chi_n(-0.1)
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="n_r must be finite"):
            AddedNoiseParams(t_r=0.5, n_r=bad)
        with pytest.raises(InvalidParameterError, match="chi_n must be finite"):
            AddedNoiseParams.from_chi_n(bad)
        with pytest.raises(InvalidParameterError, match="chi_n must be finite"):
            holevo_rr_modified(TwoModeCov(2.0, 2.0, 1.0), bad)


# -------------------------------------------------------------- circuit builder

def test_build_requires_gain():
    with pytest.raises(InvalidParameterError):
        build_mdi_state(IDEAL_10KM)


def test_build_output_has_symmetric_form():
    st = build_mdi_state(IDEAL_10KM, gain=1.5)
    assert st.n_modes == 2
    tm = extract_two_mode(st)  # raises StructuralError if x/p symmetry broken
    assert tm.a == pytest.approx(1e5)
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
])
def test_build_matches_scalar_reference(params, g):
    tm = extract_two_mode(build_mdi_state(params, gain=g))
    a, b, c = reference_abc(params, g)
    assert tm.a == pytest.approx(a, rel=1e-12)
    assert tm.b == pytest.approx(b, rel=1e-9)
    assert tm.c == pytest.approx(c, rel=1e-12)


def test_build_matches_full_unitary_circuit():
    """Whole-pipeline oracle: keep every environment mode explicitly."""
    for params, g in [(IDEAL_10KM, 1.8), (PRACTICAL_10KM, 2.0),
                      (ProtocolParams(v_a=5.04, v_b=5.04, l_ac=30.0, l_bc=0.0,
                                      eta=0.9, v_el=0.015), 1.4)]:
        circ = unitary_circuit(params, g)
        a, b, c = oracle_two_mode(circ)
        tm = extract_two_mode(build_mdi_state(params, gain=g))
        assert tm.a == pytest.approx(a, rel=1e-10)
        assert tm.b == pytest.approx(b, rel=1e-10)
        assert tm.c == pytest.approx(c, rel=1e-10)


def test_lossless_reduced_state_is_gain_scaled_epr_like():
    p = ProtocolParams(v_a=2.0, v_b=2.0, l_ac=0.0, l_bc=0.0, eps1=0.0, eps2=0.0)
    tm = extract_two_mode(build_mdi_state(p, gain=0.0))
    assert tm.c == 0.0  # zero gain leaves the halves uncorrelated
    g = optimal_gain(p)
    tm = extract_two_mode(build_mdi_state(p, gain=g))
    assert tm.c > 0.0


def test_extract_two_mode_on_plain_epr():
    tm = extract_two_mode(epr_state(3.0))
    assert (tm.a, tm.b) == (3.0, 3.0)
    assert tm.c == pytest.approx(math.sqrt(8.0), rel=1e-15)


def test_extract_two_mode_rejects_asymmetry():
    cov = epr_state(2.0).cov.copy()
    cov[0, 0] += 1e-3
    cov[1, 1] -= 1e-3
    with pytest.raises(StructuralError):
        extract_two_mode(GaussianState(cov))
    with pytest.raises(InvalidParameterError):
        extract_two_mode(GaussianState(np.eye(6)))


def test_reduced_state_equals_matrix_route():
    # the scalar (a, b, c)(g) reproduces the feedforward product bit for bit,
    # including the lossless arms at V = 1e5 where b cancels from ~1e5 terms
    rng = random.Random(20140603)
    for _ in range(400):
        v = rng.choice([VARIANCE_PRESETS["ideal"], VARIANCE_PRESETS["realistic"],
                        rng.uniform(1.5, 50.0)])
        eta, v_el = DETECTOR_PRESETS[rng.choice(sorted(DETECTOR_PRESETS))]
        p = ProtocolParams(v_a=v, v_b=v,
                           l_ac=rng.choice([0.0, rng.uniform(0.0, 60.0)]),
                           l_bc=rng.choice([0.0, rng.uniform(0.0, 10.0)]),
                           eta=eta, v_el=v_el)
        g = rng.uniform(0.0, 3.0)
        tm = TwoModeCov(*_reduced_state(_gain_coefficients(p), g))
        assert tm == extract_two_mode(_displaced_pair(p, g))


@pytest.mark.parametrize("i,j", [(1, 1), (5, 5), (7, 7), (1, 7), (2, 7)])
def test_reduced_state_rejects_planted_asymmetry(monkeypatch, i, j):
    # an x/p mismatch of a, b or c is caught per gain; the x-p coupling
    # (2, 7) once per point, when the gain coefficients are read
    honest = protocols._relay_state

    def planted(params):
        cov = honest(params).cov.copy()
        cov[i, j] += 1e-3
        if i != j:
            cov[j, i] += 1e-3
        return GaussianState(cov)

    p = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=7.0, l_bc=1.0)
    protocols._CHANNEL_COEFFS.clear()
    monkeypatch.setattr(protocols, "_relay_state", planted)
    try:
        with pytest.raises(StructuralError):
            _reduced_state(_gain_coefficients(p), 1.2)
        # a p side that does not mirror x is checked at every gain, so the
        # gain search and the key rate at its optimum refuse the point too
        with pytest.raises(StructuralError):
            optimal_gain(p)
        with pytest.raises(StructuralError):
            key_rate(p)
    finally:
        protocols._CHANNEL_COEFFS.clear()


CHANNEL_FIELDS = ("v_a", "v_b", "l_ac", "l_bc", "alpha", "eps1", "eps2", "eta", "v_el")


def counting_relays(monkeypatch) -> list:
    """Clear the relay cache and count ``_relay_state`` assemblies from here on."""
    calls = []
    honest = protocols._relay_state

    def counted(params):
        calls.append(params)
        return honest(params)

    protocols._CHANNEL_COEFFS.clear()
    monkeypatch.setattr(protocols, "_relay_state", counted)
    return calls


def test_relay_is_assembled_once_per_channel(monkeypatch):
    # protocol, gain and beta do not enter the relay: every variant of one
    # channel, with the gain fixed or searched, shares one assembly
    base = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=7.0, l_bc=1.0, eta=0.9, v_el=0.015)
    calls = counting_relays(monkeypatch)
    try:
        want = _gain_coefficients(base)
        for protocol in protocols.PROTOCOLS:
            for gain in (None, 0.0, 1.2):
                for beta in (1.0, 0.95):
                    p = replace(base, protocol=protocol, gain=gain, beta=beta)
                    noise = (AddedNoiseParams.from_chi_n(1.0)
                             if protocol == "squeezed-modified" else None)
                    assert _gain_coefficients(p) == want
                    key_rate(p, noise)
        assert len(calls) == 1
    finally:
        protocols._CHANNEL_COEFFS.clear()


def test_relay_cache_drops_its_oldest_channel_when_full(monkeypatch):
    size = protocols._CHANNEL_COEFFS_SIZE
    channels = [ProtocolParams(v_a=5.04, v_b=5.04, l_ac=0.5 * i, l_bc=0.0)
                for i in range(size + 1)]
    calls = counting_relays(monkeypatch)
    try:
        for p in channels:
            _gain_coefficients(p)
        assert len(protocols._CHANNEL_COEFFS) == size
        _gain_coefficients(channels[-1])
        assert len(calls) == size + 1
        _gain_coefficients(channels[0])
        assert len(calls) == size + 2
    finally:
        protocols._CHANNEL_COEFFS.clear()


@pytest.mark.parametrize("field", CHANNEL_FIELDS)
def test_relay_is_assembled_again_for_a_new_channel(monkeypatch, field):
    base = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=7.0, l_bc=1.0, eta=0.9, v_el=0.015)
    other = replace(base, **{field: getattr(base, field) * 0.5})
    calls = counting_relays(monkeypatch)
    try:
        before = _gain_coefficients(base)
        after = _gain_coefficients(other)
        assert len(calls) == 2 and getattr(calls[1], field) == getattr(other, field)
        assert before != after
    finally:
        protocols._CHANNEL_COEFFS.clear()


def test_honest_points_mirror_x_and_p():
    # the per-gain x/p check is skipped when the p-side coefficients mirror
    # the x side bit for bit, which every honest circuit point does
    rng = random.Random(1406)
    for _ in range(500):
        eta, v_el = DETECTOR_PRESETS[rng.choice(sorted(DETECTOR_PRESETS))]
        v = rng.choice([VARIANCE_PRESETS["realistic"], VARIANCE_PRESETS["ideal"],
                        rng.uniform(1.001, 100.0)])
        p = ProtocolParams(v_a=v, v_b=v, l_ac=rng.choice([0.0, rng.uniform(0.0, 100.0)]),
                           l_bc=rng.choice([0.0, rng.uniform(0.0, 20.0)]),
                           eps1=rng.uniform(0.0, 0.1), eps2=rng.uniform(0.0, 0.1),
                           eta=eta, v_el=v_el)
        x_side, p_side = _gain_coefficients(p)
        assert p_side is None, (p, x_side)


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
            numbers = (r.key_rate, r.mutual_info, r.holevo, *r.lambdas, r.gain_used,
                       r.reduced.a, r.reduced.b, r.reduced.c)
            assert all(map(math.isfinite, numbers)), (p, noise, r)
    assert reported >= 30


def test_key_rate_error_names_the_point_when_gain_is_optimised():
    # the guard fires inside the gain search, and the error still says where
    p = ProtocolParams(v_a=5.04, v_b=1e10, eps1=0, eps2=0, l_ac=0, l_bc=0)
    with pytest.raises(NumericDomainError, match=r"\[at ProtocolParams\("):
        key_rate(p)


# ----------------------------------------------------------- information measures

def test_mutual_information_examples():
    assert mutual_information_homodyne(TwoModeCov(2.0, 3.0, 0.0)) == 0.0
    tm = TwoModeCov(2.0, 2.0, math.sqrt(3.0))
    assert mutual_information_homodyne(tm) == pytest.approx(1.0, rel=1e-12)
    # algebraic identity: 0.5 log2(a / (a - c^2/b))
    alt = 0.5 * math.log2(tm.a / (tm.a - tm.c ** 2 / tm.b))
    assert mutual_information_homodyne(tm) == pytest.approx(alt, rel=1e-12)
    assert mutual_information_heterodyne(tm) == pytest.approx(math.log2(1.5), rel=1e-12)
    assert mutual_information_heterodyne(TwoModeCov(5.0, 4.0, 0.0)) == 0.0


def test_heterodyne_info_bounded_by_twice_homodyne():
    # per-quadrature heterodyne information never exceeds homodyne
    # information on the same state (vacuum penalty only weakens
    # correlations), so the two-quadrature total is at most doubled
    rng = np.random.default_rng(31)
    for _ in range(200):
        a = math.exp(rng.uniform(0.0, math.log(100.0)))
        b = math.exp(rng.uniform(0.0, math.log(100.0)))
        c = rng.uniform(0.0, 0.99) * c_edge(a, b)
        tm = TwoModeCov(a, b, c)
        assert mutual_information_heterodyne(tm) <= 2.0 * mutual_information_homodyne(tm) + 1e-12


def test_holevo_uncorrelated_thermal_pair():
    assert holevo_rr_squeezed(TwoModeCov(2.0, 2.0, 0.0)) == pytest.approx(G_HALF, rel=1e-12)


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
        assert holevo_rr_squeezed(tm) == pytest.approx(
            holevo_generic(st, 1, "homodyne"), abs=1e-9)
        assert holevo_rr_coherent(tm) == pytest.approx(
            holevo_generic(st, 1, "heterodyne"), abs=1e-9)
        # trusted-noise closed form against the 4-mode (A3, B5, N1, N3) state;
        # the matrix route loses ~1e-10 of chi relative at large variances
        noise = AddedNoiseParams.from_chi_n(10 ** rng.uniform(-3.0, 1.7))
        st4 = build_mdi_state(p, noise=noise, gain=g)
        assert holevo_rr_modified(tm, noise.chi_n) == pytest.approx(
            holevo_generic(st4, 1, "homodyne"), rel=2e-9)


def closed_form_holevos(params, noise, g):
    """(chi, conditioning) of the closed forms at gain g, for the oracle to check."""
    tm = extract_two_mode(build_mdi_state(params, gain=g))
    if noise is None:
        return [(holevo_rr_squeezed(tm), "homodyne"), (holevo_rr_coherent(tm), "heterodyne")]
    return [(holevo_rr_modified(tm, noise.chi_n), "homodyne")]


def gains_near_optimum(params):
    """The optimal gain and gains up to GAIN_TOL either side: any could be the search's."""
    g = optimal_gain(params)
    return [g + k * GAIN_TOL for k in (-1.0, -0.5, 0.0, 0.5, 1.0)]


def test_holevo_against_eavesdropper_side_oracle():
    """chi from Eve's own modes on the fully unitary circuit.

    The eavesdropper partition has covariance entries of order v_a, so its
    entropies are only eps * |cov|-accurate in double precision: the
    tolerance of the float oracle scales with the variance regime (the
    moderate-variance rows agree to ~1e-13).  At v_a = 1e5 with eta = 1 the
    float oracle misses by up to 1e-5 within GAIN_TOL of the optimum, so
    those rows take the mpmath oracle, at every gain the search could
    return.
    """
    cases = [(PRACTICAL_10KM, None, 1e-5),
             (ProtocolParams(v_a=5.04, v_b=5.04, l_ac=30.0, l_bc=0.0,
                             eta=0.9, v_el=0.015), None, 1e-11),
             (ProtocolParams(v_a=5.04, v_b=5.04, l_ac=60.0, l_bc=0.0),
              AddedNoiseParams.from_chi_n(5.0), 1e-11)]
    for params, noise, tol in cases:
        g = optimal_gain(params)  # plain squeezed gain
        circ = unitary_circuit(params, g, noise)
        for chi, conditioning in closed_form_holevos(params, noise, g):
            assert chi == pytest.approx(oracle_holevo(circ, conditioning), abs=tol)
    for noise in (None, AddedNoiseParams.from_chi_n(2.0)):
        for g in gains_near_optimum(IDEAL_10KM):
            circ = mp_unitary_circuit(IDEAL_10KM, g, noise)
            for chi, conditioning in closed_form_holevos(IDEAL_10KM, noise, g):
                assert chi == pytest.approx(mp_oracle_holevo(circ, conditioning), abs=1e-9), g


def test_mp_oracle_matches_float_oracle_at_moderate_variance():
    # where double precision suffices, the two builds of the circuit agree,
    # detector ancillas, heterodyne and trusted noise included
    for params, noise in ((ProtocolParams(v_a=5.04, v_b=5.04, l_ac=30.0, l_bc=2.0,
                                          eta=0.9, v_el=0.015), None),
                          (ProtocolParams(v_a=5.04, v_b=5.04, l_ac=60.0, l_bc=0.0),
                           AddedNoiseParams.from_chi_n(5.0))):
        g = optimal_gain(params)
        circ, mp_circ = unitary_circuit(params, g, noise), mp_unitary_circuit(params, g, noise)
        for conditioning in ("homodyne", "heterodyne"):
            assert mp_oracle_holevo(mp_circ, conditioning) == pytest.approx(
                oracle_holevo(circ, conditioning), abs=1e-11)


def test_lossless_announcement_leak_is_real():
    # with finite source variance the relay announcement correlates with
    # Bob's data even on lossless channels; the eavesdropper-side oracle
    # confirms the closed form rather than wishing the leak away
    for v, tol in ((8.0, 1e-11), (1e5, 1e-5)):
        p = ProtocolParams(v_a=v, v_b=v, l_ac=0.0, l_bc=0.0, eps1=0.0, eps2=0.0)
        g = optimal_gain(p)
        tm = extract_two_mode(build_mdi_state(p, gain=g))
        chi = holevo_rr_squeezed(tm)
        circ = unitary_circuit(p, g)
        assert chi == pytest.approx(oracle_holevo(circ, "homodyne"), abs=tol)
        assert chi > 0.2  # not a pure-state artifact


def test_modified_equals_squeezed_as_noise_vanishes():
    # |dK| < 1e-6 is certifiable in double precision at moderate variance;
    # at v = 1e5 the near-degenerate conditional spectrum costs ~1e-5
    for base, tol in ((ProtocolParams(v_a=5.04, v_b=5.04, l_ac=10.0, l_bc=10.0), 1e-6),
                      (IDEAL_10KM, 2e-5)):
        g = 1.9
        k_sq = _gain_objective(replace_protocol(base, "squeezed"), None)(g)
        noise = AddedNoiseParams(t_r=1.0 - 1e-9, n_r=1.0)
        k_mod = _gain_objective(replace_protocol(base, "squeezed-modified"), noise)(g)
        assert abs(k_mod - k_sq) < tol
        # at chi_n = 0 exactly the trusted-noise form is the squeezed one
        k_zero = _gain_objective(replace_protocol(base, "squeezed-modified"),
                                 AddedNoiseParams.from_chi_n(0.0))(g)
        assert k_zero == k_sq


def test_modified_chi_depends_only_on_chi_n():
    p = replace_protocol(ProtocolParams(v_a=5.04, v_b=5.04, l_ac=50.0, l_bc=0.0),
                         "squeezed-modified")
    g = 1.25
    chi_target = 3.0
    realizations = [AddedNoiseParams.from_chi_n(chi_target),
                    AddedNoiseParams(t_r=0.5, n_r=3.0),
                    AddedNoiseParams(t_r=0.8, n_r=12.0)]
    ks = []
    oracle_chis = []
    for noise in realizations:
        assert noise.chi_n == pytest.approx(chi_target, abs=1e-12)
        ks.append(_gain_objective(p, noise)(g))
        # the production path sees chi_n alone; the invariance it relies on
        # is checked on the 4-mode matrix oracle, which sees (t_r, n_r)
        oracle_chis.append(holevo_generic(build_mdi_state(p, noise=noise, gain=g),
                                          1, "homodyne"))
    assert max(ks) - min(ks) < 1e-9
    assert max(oracle_chis) - min(oracle_chis) < 1e-9
    tm = extract_two_mode(build_mdi_state(p, gain=g))
    assert holevo_rr_modified(tm, chi_target) == pytest.approx(oracle_chis[0], abs=1e-9)


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
        realisations = [AddedNoiseParams.from_chi_n(chi_n),
                        AddedNoiseParams(t_r=1.0 / (1.0 + chi_n), n_r=1.0)]
        if chi_n >= 1.0:
            realisations.append(AddedNoiseParams(t_r=0.5, n_r=chi_n))
        chis = [holevo_generic(build_mdi_state(p, noise=noise, gain=g), 1, "homodyne")
                for noise in realisations]
        closed = holevo_rr_modified(TwoModeCov(*_reduced_state(_gain_coefficients(p), g)),
                                    chi_n)
        assert max(chis) - min(chis) < 1e-9, (p, g, chi_n)
        assert all(chi == pytest.approx(closed, abs=1e-9) for chi in chis), (p, g, chi_n)


def test_modified_matches_generic_entropy_engine():
    p = replace_protocol(IDEAL_10KM, "squeezed-modified")
    noise = AddedNoiseParams(t_r=0.99, n_r=1.0)
    g = 1.8
    st4 = build_mdi_state(p, noise=noise, gain=g)
    tm = extract_two_mode(build_mdi_state(p, gain=g))
    assert holevo_rr_modified(tm, noise.chi_n) == pytest.approx(
        holevo_generic(st4, 1, "homodyne"), abs=1e-9)


@pytest.mark.parametrize("a,b,c,chi_n,message", [
    (1.0, 1.0, 2.0, 0.1, "is not positive"),   # ab - c^2 < 0 makes B < 0
    (0.5, 2.5, 2.0, 2.5, "discriminant"),      # B > 0 but A^2 < 4B
    (1.0, 1.0, 0.5, 1.0, "below 1"),           # real roots, lambda4 < 1
])
def test_trusted_noise_conditional_domain_errors(a, b, c, chi_n, message):
    with pytest.raises(NumericDomainError, match=message):
        _trusted_noise_conditional(a, b, c, chi_n)


def test_trusted_noise_conditional_spectrum():
    # lambda3 >= lambda4 >= lambda5 = 1, ordered as symplectic_eigenvalues
    # orders the conditional (A3, N1, N3) spectrum of the matrix oracle
    p = replace_protocol(ProtocolParams(v_a=5.04, v_b=5.04, l_ac=20.0, l_bc=0.0),
                         "squeezed-modified")
    noise = AddedNoiseParams.from_chi_n(1.5)
    g = 1.3
    tm = extract_two_mode(build_mdi_state(p, gain=g))
    lams = _trusted_noise_conditional(tm.a, tm.b, tm.c, noise.chi_n)
    cond = homodyne_condition(build_mdi_state(p, noise=noise, gain=g), 1, "x")
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
    protocols._require_physical_pair(scale, scale, 0.0, 1.0 - 0.5 * eff)
    with pytest.raises(NumericDomainError, match="stage 'feedforward'"):
        protocols._require_physical_pair(scale, scale, 0.0, 1.0 - 2.0 * eff)
    for lam, physical in ((1.0 - 0.5 * eff, True), (1.0 - 2.0 * eff, False)):
        state = GaussianState(np.diag([scale, scale, lam * lam / scale, scale]))
        assert symplectic_eigenvalues(state)[-1] == pytest.approx(lam, rel=1e-12)
        if physical:
            state.require_physical(context="feedforward")
        else:
            with pytest.raises(NumericDomainError, match="stage 'feedforward'"):
                state.require_physical(context="feedforward")


def test_key_rate_refuses_an_unphysical_reported_point(monkeypatch):
    # a lambda2 planted just below PHYSICALITY_TOL at a fixed gain
    real = protocols.two_mode_symplectic
    monkeypatch.setattr(protocols, "two_mode_symplectic",
                        lambda a, b, c: (real(a, b, c)[0], 1.0 - 1e-8))
    with pytest.raises(NumericDomainError, match="stage 'feedforward'"):
        key_rate(replace(PRACTICAL_10KM, gain=1.9))


def test_nan_holevo_term_is_not_clamped(monkeypatch):
    # the clamp turns a slightly negative chi into 0; a NaN chi used to be
    # clamped as well, and reported as chi = 0 with flag holevo_clamped
    monkeypatch.setattr(protocols, "two_mode_symplectic", lambda a, b, c: (math.nan, math.nan))
    with pytest.raises(NumericDomainError, match="Holevo bound came out nan"):
        protocols._rate_terms(5.04, 7.0, 3.0, "squeezed")


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
    # objective the gain search ran, the report at that fixed gain, and
    # _rate_terms on the matrix route's reduced state give the same float
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
            tm = extract_two_mode(_displaced_pair(p, g))
            i_ab, chi, _, _ = protocols._rate_terms(tm.a, tm.b, tm.c, protocol, chi_n)
            assert p.beta * i_ab - chi == k, (p, g)


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
    assert r.chi_n == pytest.approx(2.0, abs=1e-12)
    assert len(r.lambdas) == 5
    assert r.reduced.b == pytest.approx(
        extract_two_mode(build_mdi_state(p, gain=r.gain_used)).b + 2.0, rel=1e-9)


def test_coherent_protocol_report():
    p = replace_protocol(ProtocolParams(v_a=1e5, v_b=1e5, l_ac=3.0, l_bc=3.0), "coherent")
    r = key_rate(p)
    tm = r.reduced
    assert r.mutual_info == pytest.approx(mutual_information_heterodyne(tm), rel=1e-12)
    assert r.holevo == pytest.approx(holevo_rr_coherent(tm), rel=1e-12)


# ---------------------------------------------------------------- gain optimum

def test_optimal_gain_is_local_max():
    g = optimal_gain(IDEAL_10KM)
    k_of = _gain_objective(IDEAL_10KM, None)
    for dg in (-1e-3, 1e-3):
        assert k_of(g + dg) <= k_of(g) + 1e-12


def test_optimal_gain_beats_grid_lossless_limit():
    # relay on Bob's side, ideal detection, essentially infinite source
    p = ProtocolParams(v_a=1e5, v_b=1e5, l_ac=0.0, l_bc=0.0, eps1=0.0, eps2=0.0)
    g = optimal_gain(p)
    k_of = _gain_objective(p, None)
    k_star = k_of(g)
    grid = np.arange(0.0, 10.0 + 1e-12, 0.001)
    k_grid = max(k_of(float(x)) for x in grid)
    assert k_star >= k_grid - 1e-9


def test_optimal_gain_grid_agreement_at_10km():
    g = optimal_gain(IDEAL_10KM)
    k_of = _gain_objective(IDEAL_10KM, None)
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
    noise = None if chi_n is None else AddedNoiseParams.from_chi_n(chi_n)
    for l_ac in (0.0, 0.5, 5.0, 12.0, 30.0):
        for l_bc in (0.0, 1.0, 5.0):
            p = ProtocolParams(v_a=v, v_b=v, l_ac=l_ac, l_bc=l_bc, eta=eta, v_el=v_el,
                               protocol=protocol)
            grid = np.linspace(0.0, gain_bracket(p), 161)
            k_of = _gain_objective(p, noise)
            k = np.array([k_of(float(g)) for g in grid])
            steps = np.sign(np.diff(k))
            steps = steps[steps != 0.0]
            assert not np.any((steps[:-1] < 0.0) & (steps[1:] > 0.0)), (l_ac, l_bc)
