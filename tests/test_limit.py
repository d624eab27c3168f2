"""The added-noise limit chi_n -> inf of the squeezed-modified protocol.

K = D/chi_n + O(1/chi_n^2), and the one-frame kernel gives the slope D in
closed form (``protocols._gain_objective`` at chi_n = inf).  Its
references here are 60- and 90-digit evaluations of chi_n K itself, from
the trusted-noise conditional spectrum in mpmath.  ``max_distance`` rests
on the decision rule that K*(L) > 0 exactly when K at chi_n = 0 or the best
D over the gain is positive; it is checked against a wide log grid of
chi_n, at beta = 1, where ``max_distance`` relies on it.
"""

import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st
from mpmath import mp, mpf

from cvmdi import AddedNoiseParams, InvalidParameterError, ProtocolParams, key_rate, protocols
from cvmdi.analysis import DETECTOR_PRESETS
from cvmdi.protocols import (
    NOISE_LIMIT,
    _gain_coefficients,
    _gain_objective,
    noise_limit_slope,
)
from helpers import c_edge
from oracle import reduced_state


def mp_thermal_entropy(lam):
    x = (lam - 1) / 2
    return (x + 1) * mp.log(x + 1, 2) - x * mp.log(x, 2) if x > 0 else mpf(0)


def mp_key_rate(a, b, c, chi_n, beta=1.0):
    """K of the trusted-noise protocol at the reduced state (a, b, c), in
    mpmath at the working precision: I_AB of (a, b + chi_n, c) and the
    Holevo term of Lodewyck et al. from the conditional spectrum."""
    a, b, c, chi_n = mpf(a), mpf(b), mpf(c), mpf(chi_n)
    det = a * b - c * c
    s = mp.sqrt((a + b) ** 2 - 4 * c * c)
    lam1, lam2 = (s + abs(a - b)) / 2, (s - abs(a - b)) / 2
    b_n = b + chi_n
    i_ab = mp.log(a * b_n / (a * b_n - c * c), 2) / 2
    big_a = (chi_n * (a * a + b * b - 2 * c * c) + a * det + b) / b_n
    big_b = det * (a + det * chi_n) / b_n
    lam3 = mp.sqrt((big_a + mp.sqrt(big_a * big_a - 4 * big_b)) / 2)
    lam4 = mp.sqrt(big_b) / lam3
    return mpf(beta) * i_ab - (mp_thermal_entropy(lam1) + mp_thermal_entropy(lam2)
                               - mp_thermal_entropy(lam3) - mp_thermal_entropy(lam4))


def mp_slope(a, b, c, beta=1.0):
    """chi_n K at chi_n = 1e30, at 90 digits: D to about 1e-30 relative."""
    with mp.workdps(90):
        return chi_times_k(a, b, c, 1e30, beta)


def chi_times_k(a, b, c, chi_n, beta=1.0):
    return mpf(chi_n) * mp_key_rate(a, b, c, chi_n, beta)


def slope_at_state(a, b, c, beta=1.0):
    """The kernel's D at the reduced state (a, b, c): relay coefficients
    whose state at gain 1 is (a, b, c)."""
    p = ProtocolParams(v_a=a, v_b=a, l_ac=0.0, l_bc=0.0, beta=beta,
                       protocol="squeezed-modified")
    with mock.patch.object(protocols, "_gain_coefficients",
                           lambda params: (a, b, 0.0, 0.0, 0.0, c)):
        return _gain_objective(p, math.inf)(1.0)


def scale(a, c, d, beta=1.0):
    """The largest term of D, beta c^2/(2 a ln 2), or |D| if that is larger."""
    return max(abs(d), beta * c * c / (2.0 * a * math.log(2.0)))


def relay_point(v, detector, l_ac, l_bc, gain_frac, beta=1.0):
    eta, v_el = DETECTOR_PRESETS[detector]
    p = ProtocolParams(v_a=v, v_b=v, l_ac=l_ac, l_bc=l_bc, eta=eta, v_el=v_el, beta=beta,
                       protocol="squeezed-modified")
    g = gain_frac * math.sqrt(2.0 / (p.eta * p.t_2))
    return p, g, reduced_state(_gain_coefficients(p), g)


_VARIANCE = st.one_of(st.sampled_from([5.04, 1e5]), st.floats(1.5, 50.0))


# ------------------------------------------------------------ the closed form

@seed(20231)
@settings(max_examples=120, deadline=None)
@given(v=_VARIANCE, detector=st.sampled_from(sorted(DETECTOR_PRESETS)),
       l_ac=st.floats(0.0, 120.0), l_bc=st.sampled_from([0.0, 1.0, 5.0]),
       gain_frac=st.floats(0.5, 1.5), beta=st.sampled_from([1.0, 0.95]))
@example(v=1e5, detector="perfect", l_ac=110.953125, l_bc=0.0, gain_frac=1.0, beta=1.0)
@example(v=1e5, detector="practical", l_ac=20.5, l_bc=0.0, gain_frac=1.0, beta=1.0)
def test_slope_matches_a_high_precision_limit(v, detector, l_ac, l_bc, gain_frac, beta):
    # the cancelling form of the slope got the sign wrong at the two
    # examples; this one is within 1e-13 of the largest term it sums
    p, g, (a, b, c) = relay_point(v, detector, l_ac, l_bc, gain_frac, beta)
    d = _gain_objective(p, math.inf)(g)
    want = mp_slope(a, b, c, beta)
    assert abs(d - float(want)) <= 1e-13 * scale(a, c, d, beta), (d, float(want))


@pytest.mark.parametrize("a,b,c", [
    (5.04, 5.04, 3.0),                     # a = b: the symplectic pair is degenerate
    (1e5, 1e5, 9.9e4),
    (2.0, 2.0, 0.5),
    (5.04, 3.0, c_edge(5.04, 3.0)),        # lambda2 = 1, a > b
    (3.0, 5.04, c_edge(3.0, 5.04)),        # lambda2 = 1, a < b
    (7.0, 7.0, c_edge(7.0, 7.0)),          # both
    (1e5, 600.0, c_edge(1e5, 600.0)),
])
def test_slope_on_symmetric_and_pure_pairs(a, b, c):
    # the form needs no special case where a = b (the pair's difference
    # vanishes) or lambda2 = 1 (its weight vanishes)
    d = slope_at_state(a, b, c)
    want = mp_slope(a, b, c)
    assert abs(d - float(want)) <= 1e-13 * scale(a, c, d), (d, float(want))


@pytest.mark.parametrize("v,detector,l_ac,gain_frac", [
    (5.04, "practical", 13.875, 0.92),
    (5.04, "practical", 13.925, 0.92),
    (5.04, "perfect", 101.25, 1.0),
    (1e5, "perfect", 107.84375, 1.0),
    (1e5, "practical", 20.40625, 1.0),
])
def test_slope_equals_chi_n_times_k_at_1e12(v, detector, l_ac, gain_frac):
    # the reach's neighbourhood of the paper's rows: D is chi_n K at
    # chi_n = 1e12, where the next term, O(1/chi_n), is below 1e-10 of D
    p, g, (a, b, c) = relay_point(v, detector, l_ac, 0.0, gain_frac)
    d = _gain_objective(p, math.inf)(g)
    with mp.workdps(60):
        want = chi_times_k(a, b, c, 1e12)
    assert abs(d - float(want)) <= 1e-10 * abs(d) + 1e-13 * scale(a, c, d)


def test_noise_limit_slope_searches_or_keeps_the_gain():
    # the slope is the kernel's at the gain optimal_gain finds at the limit,
    # or at a fixed gain; key_rate refuses the limit, and the slope takes
    # only the modified protocol
    p, g, _ = relay_point(5.04, "practical", 13.875, 0.0, 1.0)
    with pytest.raises(InvalidParameterError, match="K vanishes at chi_n = inf"):
        key_rate(replace(p, gain=g), NOISE_LIMIT)
    with pytest.raises(InvalidParameterError, match="does not take added-noise parameters"):
        noise_limit_slope(replace(p, protocol="squeezed"))
    d, g_star = noise_limit_slope(p)
    assert d == _gain_objective(p, math.inf)(g_star)
    assert g_star == protocols.optimal_gain(p, NOISE_LIMIT)
    assert noise_limit_slope(replace(p, gain=1.1)) == (_gain_objective(p, math.inf)(1.1), 1.1)


# -------------------------------------------------------- the decision rule

CHI_GRID = [10.0 ** (k / 8.0) for k in range(-32, 41)]  # 1e-4 .. 1e5


@seed(8117)
@settings(max_examples=60, deadline=None)
@given(v_a=_VARIANCE, v_b=_VARIANCE, detector=st.sampled_from(sorted(DETECTOR_PRESETS)),
       l_ac=st.floats(0.0, 40.0), l_bc=st.sampled_from([0.0, 1.0, 5.0]),
       eps1=st.sampled_from([0.002, 0.01, 0.05]), eps2=st.sampled_from([0.002, 0.01, 0.05]))
@example(v_a=5.04, v_b=5.04, detector="practical", l_ac=13.875, l_bc=0.0, eps1=0.002,
         eps2=0.002)
@example(v_a=5.04, v_b=5.04, detector="practical", l_ac=13.90625, l_bc=0.0, eps1=0.002,
         eps2=0.002)
@example(v_a=5.04, v_b=5.04, detector="practical", l_ac=12.0, l_bc=0.0, eps1=0.002,
         eps2=0.002)
def test_key_at_some_chi_n_exactly_when_at_zero_or_the_limit(v_a, v_b, detector, l_ac, l_bc,
                                                             eps1, eps2):
    # K*(L) > 0 exactly when K(chi_n = 0) > 0 or D* > 0, against the best K
    # over 73 log-spaced chi_n from 1e-4 to 1e5, the gain searched at each.
    # A D* within 1e-6 of 0 is left out: its sign shows in K only past the grid.
    eta, v_el = DETECTOR_PRESETS[detector]
    p = ProtocolParams(v_a=v_a, v_b=v_b, l_ac=l_ac, l_bc=l_bc, eps1=eps1, eps2=eps2, eta=eta,
                       v_el=v_el, protocol="squeezed-modified")
    memo = {}
    k_zero = key_rate(p, AddedNoiseParams(0.0), memo=memo).key_rate
    d_star, _ = noise_limit_slope(p, memo=memo)
    assume(k_zero > 0.0 or abs(d_star) > 1e-6)
    best = max(key_rate(p, AddedNoiseParams(chi), memo=memo).key_rate for chi in CHI_GRID)
    assert (k_zero > 0.0 or d_star > 0.0) == (best > 0.0), (k_zero, d_star, best)
