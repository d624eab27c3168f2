"""The searches' assumptions, tested rather than hoped for.

``positive_edge`` needs K(L) > 0 to hold on a prefix of [0, cap]: it checks
the sign only at doubling trials and bisection midpoints.
``optimize_added_noise`` refines chi_n only around its best grid point, so
the chi_n profile must be unimodal on the grid's span; at a grid edge it
trusts one probe CHI_N_TOL inside, so K must rise toward that edge, and at
the upper edge one more CHI_N_TOL past it, which decides whether the search
goes on towards the limit chi_n -> inf.
"""

import math
import random
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cvmdi.analysis as analysis_mod
from cvmdi import protocols
from cvmdi import AddedNoiseParams, ProtocolParams, key_rate, optimize_added_noise
from cvmdi.analysis import (
    CHI_N_GRID,
    CHI_N_GRID_POINTS,
    CHI_N_TOL,
    CHI_N_W_TOL,
    DETECTOR_PRESETS,
    SCAN_CAP_KM,
    SCAN_STEP_KM,
    VARIANCE_PRESETS,
)
from cvmdi.search import positive_edge
from helpers import reference_optimize_added_noise

PROTOCOLS = ("coherent", "squeezed", "squeezed-modified")


def scan_edge(f, step, tol, cap):
    """Reference: scan in `step` increments to the last positive point, then bisect."""
    last_pos, level = 0.0, step
    while level <= cap:
        if f(level) <= 0.0:
            break
        last_pos = level
        level += step
    else:
        return cap, True
    lo, hi = last_pos, level
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, False


def profile(kind, edge):
    """A non-increasing f with edge `edge`: 'linear' has f(edge) = 0, 'step' f(edge) > 0."""
    if kind == "linear":
        return lambda x: edge - x
    return lambda x: 1.0 if x <= edge else -1.0


def counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


@pytest.mark.parametrize("kind", ["linear", "step"])
@pytest.mark.parametrize("tol", [0.05, 1e-3])
@pytest.mark.parametrize("edge", [0.3, 0.999, 1.0, 4.5, 6.2, 7.999, 8.0, 8.001, 13.84,
                                  100.0, 255.9])
def test_positive_edge_matches_the_step_scan(edge, tol, kind):
    f_new, new_calls = counted(profile(kind, edge))
    f_ref, ref_calls = counted(profile(kind, edge))
    got = positive_edge(f_new, SCAN_STEP_KM, tol, SCAN_CAP_KM)
    assert got == scan_edge(f_ref, SCAN_STEP_KM, tol, SCAN_CAP_KM)
    assert not got[1] and edge - tol <= got[0] <= edge
    if edge > 6.0:
        assert len(new_calls) < len(ref_calls)


@pytest.mark.parametrize("kind", ["linear", "step"])
@pytest.mark.parametrize("edge,cap", [(600.0, SCAN_CAP_KM), (12.0, 10.0), (12.0, 9.5),
                                      (0.7, 0.5)])
def test_positive_edge_above_the_cap(edge, cap, kind):
    f = profile(kind, edge)
    assert positive_edge(f, SCAN_STEP_KM, 0.05, cap) == (cap, True)
    assert scan_edge(f, SCAN_STEP_KM, 0.05, cap) == (cap, True)


@pytest.mark.parametrize("kind", ["linear", "step"])
@pytest.mark.parametrize("edge,cap", [(9.3, 10.0), (300.0, SCAN_CAP_KM),
                                      (499.99, SCAN_CAP_KM)])
def test_positive_edge_in_the_last_bracket(edge, cap, kind):
    # a bracket that ends at the cap bisects on its own grid: the edge is
    # still found to tol, though not always on the step scan's grid
    tol = 0.05
    f = profile(kind, edge)
    got, capped = positive_edge(f, SCAN_STEP_KM, tol, cap)
    assert not capped
    assert f(got) > 0.0 >= f(got + tol)
    assert got == pytest.approx(scan_edge(f, SCAN_STEP_KM, tol, cap)[0], abs=tol)


def test_positive_edge_stops_at_adjacent_floats():
    # a tol below the float spacing at the edge used to bisect forever, with
    # mid == lo; it stops when lo and hi are adjacent, at the last positive float
    f, calls = counted(lambda x: 1.0 if x < 13.3 else -1.0)
    assert positive_edge(f, SCAN_STEP_KM, 1e-300, SCAN_CAP_KM) == (math.nextafter(13.3, 0.0),
                                                                   False)
    assert len(calls) <= 5 + 53  # the doubling trials, then one per bit of 13.3


# ------------------------------------------------ monotone K for the edge search

def preset_params(protocol, detector, variance, **lengths):
    eta, v_el = DETECTOR_PRESETS[detector]
    v = VARIANCE_PRESETS[variance]
    return ProtocolParams(v_a=v, v_b=v, eta=eta, v_el=v_el, protocol=protocol, **lengths)


def k_bits(params, chi_n):
    noise = None if params.protocol != "squeezed-modified" else AddedNoiseParams.from_chi_n(chi_n)
    return key_rate(params, noise).key_rate


# The gain search stops within 1e-6 of the optimum, which can leave K about
# 1e-12 below its maximum at either length; the allowance absorbs that.
K_SEARCH_SLACK = 1e-10

lengths = st.floats(min_value=0.0, max_value=120.0)


@pytest.mark.parametrize("detector", sorted(DETECTOR_PRESETS))
@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=40)
@given(variance=st.sampled_from(sorted(VARIANCE_PRESETS)), l1=lengths, l2=lengths,
       l_bc=st.floats(min_value=0.0, max_value=5.0), chi_n=st.floats(min_value=0.0,
                                                                   max_value=10.0))
def test_key_rate_non_increasing_in_lac(protocol, detector, variance, l1, l2, l_bc, chi_n):
    near, far = sorted((l1, l2))
    k_near = k_bits(preset_params(protocol, detector, variance, l_ac=near, l_bc=l_bc), chi_n)
    k_far = k_bits(preset_params(protocol, detector, variance, l_ac=far, l_bc=l_bc), chi_n)
    assert k_far <= k_near + K_SEARCH_SLACK


@pytest.mark.parametrize("detector", sorted(DETECTOR_PRESETS))
@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=40)
@given(variance=st.sampled_from(sorted(VARIANCE_PRESETS)),
       d1=st.floats(min_value=0.0, max_value=40.0), d2=st.floats(min_value=0.0, max_value=40.0),
       chi_n=st.floats(min_value=0.0, max_value=10.0))
def test_key_rate_non_increasing_in_symmetric_distance(protocol, detector, variance, d1, d2,
                                                       chi_n):
    near, far = sorted((d1, d2))
    k_near = k_bits(preset_params(protocol, detector, variance, l_ac=near, l_bc=near), chi_n)
    k_far = k_bits(preset_params(protocol, detector, variance, l_ac=far, l_bc=far), chi_n)
    assert k_far <= k_near + K_SEARCH_SLACK


# ------------------------------------------------------- unimodal chi_n profile

@pytest.mark.parametrize("variance", sorted(VARIANCE_PRESETS))
@pytest.mark.parametrize("detector", sorted(DETECTOR_PRESETS))
def test_chi_n_profile_is_unimodal(detector, variance):
    # the chi_n refinement assumes K(chi_n) rises, then falls on the grid's span
    grid = np.linspace(*CHI_N_GRID, 101)
    for l_ac in (0.0, 5.0, 12.0, 30.0):
        for l_bc in (0.0, 1.0, 5.0):
            p = preset_params("squeezed-modified", detector, variance, l_ac=l_ac, l_bc=l_bc)
            k = np.array([k_bits(p, float(chi)) for chi in grid])
            steps = np.sign(np.diff(k))
            steps = steps[steps != 0.0]
            assert not np.any((steps[:-1] < 0.0) & (steps[1:] > 0.0)), (l_ac, l_bc)


# ------------------------------------------------ optimize_added_noise mechanics

MODIFIED = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=11.0, l_bc=0.0, eta=0.9, v_el=0.015,
                          protocol="squeezed-modified")


def synthetic_key_rate(monkeypatch, k_of_chi):
    """Route optimize_added_noise to K = k_of_chi(chi_n); returns the chi_n asked for."""
    asked = []

    def fake(params, noise=None, **kwargs):
        asked.append(noise.chi_n)
        return SimpleNamespace(key_rate=k_of_chi(noise.chi_n))

    monkeypatch.setattr(analysis_mod, "key_rate", fake)
    return asked


def test_chi_n_refinement_evaluates_each_point_once(monkeypatch):
    asked = synthetic_key_rate(monkeypatch, lambda chi: -(chi - 7.3) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chi_star, k_star = optimize_added_noise(MODIFIED)
    assert chi_star == pytest.approx(7.3, abs=analysis_mod.CHI_N_TOL)
    assert k_star == pytest.approx(0.0, abs=1e-8)
    assert len({round(chi, 9) for chi in asked}) == len(asked)
    # the grid, then a refinement of two 5-wide cells to 1e-4
    assert len(asked) < CHI_N_GRID_POINTS + 30


def test_chi_n_boundary_optimum_is_kept(monkeypatch):
    synthetic_key_rate(monkeypatch, lambda chi: -chi)
    assert optimize_added_noise(MODIFIED) == (0.0, 0.0)


def test_chi_n_grid_with_two_peaks_warns(monkeypatch):
    # peaks near 10 and 40: the better one (40) is refined, and the grid
    # shows two strict local maxima
    synthetic_key_rate(monkeypatch, lambda chi: max(1.0 - abs(chi - 10.0) / 4.0,
                                                    2.0 - abs(chi - 40.5) / 4.0))
    with pytest.warns(RuntimeWarning, match="not unimodal"):
        chi_star, k_star = optimize_added_noise(MODIFIED)
    assert chi_star == pytest.approx(40.5, abs=1e-3)
    assert k_star == pytest.approx(2.0, abs=1e-3)



# ------------------------------------------------- the edge certificate

LO, HI = CHI_N_GRID


@pytest.mark.parametrize("slope,edge,inward", [(-1.0, LO, 1.0)])
def test_edge_optimum_costs_one_probe(monkeypatch, slope, edge, inward):
    asked = synthetic_key_rate(monkeypatch, lambda chi: slope * chi)
    assert optimize_added_noise(MODIFIED) == (edge, slope * edge)
    assert len(asked) == CHI_N_GRID_POINTS + 1
    assert asked[-1] == pytest.approx(edge + inward * CHI_N_TOL, abs=1e-12)


@pytest.mark.parametrize("edge,inward", [(LO, 1.0), (HI, -1.0)])
def test_peak_within_tolerance_of_an_edge_returns_the_edge(monkeypatch, edge, inward):
    # the probe, CHI_N_TOL inside, is no higher than the edge: the peak at
    # half a tolerance inside is within CHI_N_TOL of the edge returned
    peak = edge + inward * 5e-5

    def k_of_chi(chi):
        outward = (peak - chi) * inward
        return -outward if outward >= 0.0 else 3.0 * outward

    asked = synthetic_key_rate(monkeypatch, k_of_chi)
    chi_star, k_star = optimize_added_noise(MODIFIED)
    assert chi_star == edge and k_star == k_of_chi(edge)
    assert abs(chi_star - peak) <= CHI_N_TOL
    # the upper edge also probes CHI_N_TOL past the grid, where K falls
    assert len(asked) == CHI_N_GRID_POINTS + (1 if edge == LO else 2)


@pytest.mark.parametrize("edge,inward", [(LO, 1.0), (HI, -1.0)])
def test_peak_beyond_the_probe_is_refined(monkeypatch, edge, inward):
    peak = edge + inward * 0.01
    asked = synthetic_key_rate(monkeypatch, lambda chi: -(chi - peak) ** 2)
    chi_star, _ = optimize_added_noise(MODIFIED)
    assert chi_star != edge
    assert abs(chi_star - peak) <= CHI_N_TOL
    assert len(asked) > CHI_N_GRID_POINTS + 1


def w_of(chi):
    return chi / (1.0 + chi)


def test_rise_past_the_grid_is_searched_to_the_limit(monkeypatch):
    # K = chi_n rises without end: past the grid, the search in
    # w = chi_n/(1 + chi_n) ends within CHI_N_W_TOL of the limit, returns
    # the best finite point it evaluated, and says so
    asked = synthetic_key_rate(monkeypatch, lambda chi: chi)
    with pytest.warns(RuntimeWarning, match="added-noise optimum at the limit"):
        chi_star, k_star = optimize_added_noise(MODIFIED)
    assert k_star == chi_star == max(asked)
    assert 1.0 - w_of(chi_star) <= CHI_N_W_TOL
    assert asked[CHI_N_GRID_POINTS:CHI_N_GRID_POINTS + 2] == [HI - CHI_N_TOL, HI + CHI_N_TOL]
    # the probes, then golden section from w(50) = 50/51 down to CHI_N_W_TOL:
    # two interior points and one per step of 0.618 from 1/51 to 1e-6
    assert len(asked) == CHI_N_GRID_POINTS + 2 + 2 + 21


@pytest.mark.parametrize("peak", [60.0, 1e3, 1e5])
def test_peak_past_the_grid_is_found_in_w(monkeypatch, peak):
    # K peaks at chi_n = peak past the grid's upper edge and vanishes as
    # chi_n -> inf; the search finds it to CHI_N_W_TOL in w, with no warning
    asked = synthetic_key_rate(monkeypatch, lambda chi: -(w_of(chi) - w_of(peak)) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chi_star, k_star = optimize_added_noise(MODIFIED)
    assert abs(w_of(chi_star) - w_of(peak)) <= CHI_N_W_TOL
    assert k_star == max(-(w_of(chi) - w_of(peak)) ** 2 for chi in asked)


def test_peak_within_tolerance_past_the_grid_returns_the_edge(monkeypatch):
    # K rises to a peak 5e-5 past the upper edge: the probe CHI_N_TOL past
    # the edge is lower, so the edge is returned, within CHI_N_TOL of the peak
    peak = HI + 5e-5
    asked = synthetic_key_rate(monkeypatch, lambda chi: -abs(chi - peak))
    assert optimize_added_noise(MODIFIED) == (HI, -abs(HI - peak))
    assert len(asked) == CHI_N_GRID_POINTS + 2


def test_real_rise_past_the_grid():
    # the table's most-asymmetric practical row: at its reach, 13.875 km, K
    # is negative at chi_n = 50 but peaks near 111; 0.05 km further, the
    # slope of the limit is negative, and K rises towards 0 from below up
    # to the end of the search
    p = preset_params("squeezed-modified", "practical", "realistic", l_ac=13.875, l_bc=0.0)
    assert k_bits(p, HI) < 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chi_star, k_star = optimize_added_noise(p)
    assert 100.0 < chi_star < 125.0 and k_star > 2e-6
    assert k_star >= max(k_bits(p, chi) for chi in (100.0, 111.0, 125.0)) - 1e-15
    beyond = preset_params("squeezed-modified", "practical", "realistic", l_ac=13.925,
                           l_bc=0.0)
    assert protocols.noise_limit_slope(beyond)[0] < 0.0
    with pytest.warns(RuntimeWarning, match="added-noise optimum at the limit"):
        chi_star, k_star = optimize_added_noise(beyond)
    assert 1.0 - w_of(chi_star) <= CHI_N_W_TOL and -1e-9 < k_star < 0.0


@pytest.mark.parametrize("l_ac", [11.0, 13.875, 16.0])
def test_added_noise_search_pairs_each_gain_once(monkeypatch, l_ac):
    # the gain searches of one chi_n optimisation run over one bracket at one
    # channel and share a memo: each gain they visit costs one symplectic
    # pair, however many searches visit it and whatever their chi_n
    pairs, gains = [], []
    pair, search = protocols.two_mode_symplectic, protocols.golden_section_max

    def counted_pair(a, b, c):
        pairs.append((a, b, c))
        return pair(a, b, c)

    def spy(f, *args):
        def visit(g):
            gains.append(g)
            return f(g)

        return search(visit, *args)

    monkeypatch.setattr(protocols, "two_mode_symplectic", counted_pair)
    monkeypatch.setattr(protocols, "golden_section_max", spy)
    optimize_added_noise(preset_params("squeezed-modified", "practical", "realistic",
                                       l_ac=l_ac, l_bc=0.0))
    assert len(pairs) == len(set(gains)) < len(gains) / 2


def random_modified_points(seed, count):
    """Seeded squeezed-modified points: V in {5.04, 1e5, U(1, 50)}, L_AC up
    to 30 km, L_BC 0 or up to 5 km, excess noise up to 0.05, either detector."""
    rng = random.Random(seed)
    v = lambda: rng.choice([5.04, 1e5, rng.uniform(1.0, 50.0)])
    for _ in range(count):
        yield ProtocolParams(v_a=v(), v_b=v(), l_ac=rng.uniform(0.0, 30.0),
                             l_bc=rng.choice([0.0, rng.uniform(0.0, 5.0)]),
                             eps1=rng.uniform(0.0, 0.05), eps2=rng.uniform(0.0, 0.05),
                             protocol="squeezed-modified",
                             **dict(zip(("eta", "v_el"),
                                        DETECTOR_PRESETS[rng.choice(("perfect", "practical"))])))


def test_edge_certificate_matches_the_full_refinement():
    # A point's result can differ from the full refinement of the grid's
    # span only where the probe certified an edge whose true peak lies
    # within CHI_N_TOL of it: the refinement may then land nearer that
    # peak, a higher K at a chi_n within the tolerance both promise; or
    # where K rises past the upper edge, which the refinement cannot leave.
    # Everywhere else K* is not lower.
    identical = edges = past = 0
    for p in random_modified_points(2024, 150):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = optimize_added_noise(p)
        want = reference_optimize_added_noise(p)
        assert got[1] >= want[1] - 1e-12 or got[0] in CHI_N_GRID, (p, got, want)
        if got[0] > HI:
            past += 1
            assert abs(want[0] - HI) <= CHI_N_TOL, (p, got, want)
            continue
        identical += got == want
        edges += got[0] in CHI_N_GRID
        assert abs(got[0] - want[0]) <= CHI_N_TOL, (p, got, want)
    assert edges + past >= 80 and identical + past >= 140, (edges, past, identical)
    assert past >= 40, past


def test_key_rate_rises_toward_a_certified_edge():
    # The certificate's unimodality condition on real points whose best grid
    # point is an edge.  Sampled across that edge's grid cell, inner grid
    # point first, K rises and then may fall, never the reverse; and where
    # the probe CHI_N_TOL inside is no higher than the edge, so the edge is
    # returned unrefined, K rises all the way to the edge.  Both up to 1e-12.
    step = (HI - LO) / (CHI_N_GRID_POINTS - 1)
    edge_points = certified = 0
    for p in random_modified_points(7, 40):
        grid = np.linspace(LO, HI, CHI_N_GRID_POINTS)
        best = int(np.argmax([k_bits(p, float(chi)) for chi in grid]))
        if best not in (0, CHI_N_GRID_POINTS - 1):
            continue
        edge_points += 1
        edge, inward = (LO, 1.0) if best == 0 else (HI, -1.0)
        cell = edge + inward * np.linspace(step, 0.0, 21)
        k = np.array([k_bits(p, float(chi)) for chi in cell])
        rises = np.diff(k)
        falls = np.flatnonzero(rises < -1e-12)
        if falls.size:
            assert np.all(rises[falls[0]:] <= 1e-12), (p, k)
        if not k_bits(p, edge + inward * CHI_N_TOL) > k[-1]:
            certified += 1
            assert falls.size == 0, (p, k)
    assert edge_points >= 20 and certified >= 10, (edge_points, certified)
