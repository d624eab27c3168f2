import inspect
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import cvmdi.analysis as analysis_mod
import cvmdi.protocols as protocols
from cvmdi.analysis import DETECTOR_PRESETS, VARIANCE_PRESETS
from cvmdi import (
    AddedNoiseParams,
    ComparisonRow,
    InvalidParameterError,
    NumericDomainError,
    ProtocolParams,
    SweepSpec,
    compare_protocols,
    key_rate,
    max_distance,
    optimize_added_noise,
    sweep,
)
from helpers import reference_max_distance

REALISTIC = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=0.0, l_bc=0.0,
                           eta=0.9, v_el=0.015)
REALISTIC_MOD = replace(REALISTIC, protocol="squeezed-modified")


def test_sweep_spec_validation():
    base = REALISTIC
    with pytest.raises(InvalidParameterError):
        SweepSpec(variable="nope", start=0, stop=1, step=0.5, base=base)
    with pytest.raises(InvalidParameterError):
        SweepSpec(variable="distance-symmetric", start=0, stop=1, step=0.0, base=base)
    with pytest.raises(InvalidParameterError):
        SweepSpec(variable="distance-symmetric", start=2, stop=1, step=0.5, base=base)
    with pytest.raises(InvalidParameterError):
        SweepSpec(variable="chi-n", start=0, stop=1, step=0.5, base=base)
    # a chi-n sweep sets chi_n at each point; a given chi_n used to be dropped
    with pytest.raises(InvalidParameterError, match="a chi-n sweep sets chi_n at each point"):
        SweepSpec(variable="chi-n", start=0, stop=1, step=0.5, base=REALISTIC_MOD,
                  noise=AddedNoiseParams.from_chi_n(2.0))
    spec = SweepSpec(variable="distance-symmetric", start=0, stop=2, step=0.5, base=base)
    assert spec.grid() == [0.0, 0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("bad", [{"start": math.nan}, {"stop": math.inf}, {"step": math.nan},
                                 {"start": -math.inf}])
def test_sweep_spec_rejects_non_finite_bounds(bad):
    kw = {"start": 0.0, "stop": 1.0, "step": 0.5, **bad}
    with pytest.raises(InvalidParameterError):
        SweepSpec(variable="distance-symmetric", base=REALISTIC, **kw)


def test_sweep_spec_bounds_the_grid_size():
    # the grid is counted without building it; the count includes an end
    # point that grid() keeps within its rounding slack, as at step 1/n
    n = analysis_mod.MAX_SWEEP_POINTS
    spec = SweepSpec(variable="distance-symmetric", start=0.0, stop=float(n - 1), step=1.0,
                     base=REALISTIC)
    assert len(spec.grid()) == n
    assert len(SweepSpec(variable="distance-symmetric", start=0.0, stop=1.0 - 1.0 / n,
                         step=1.0 / n, base=REALISTIC).grid()) == n
    with pytest.raises(InvalidParameterError, match="points"):
        SweepSpec(variable="distance-symmetric", start=0.0, stop=float(n), step=1.0,
                  base=REALISTIC)
    with pytest.raises(InvalidParameterError, match="points"):
        SweepSpec(variable="distance-symmetric", start=0.0, stop=1.0, step=1.0 / n,
                  base=REALISTIC)


@pytest.mark.parametrize("variable", ["distance-symmetric", "lac-with-fixed-lbc"])
def test_sweep_optimises_chi_n_when_none_given(variable):
    spec = SweepSpec(variable=variable, start=0.0, stop=8.0, step=4.0, base=REALISTIC_MOD)
    rows = sweep(spec).rows
    assert [r.x for r in rows] == [0.0, 4.0, 8.0]
    for row in rows:
        p = analysis_mod._at_length(spec.base, analysis_mod.SWEEP_GEOMETRIES[variable], row.x)
        chi_star = optimize_added_noise(p)[0]
        want = key_rate(p, AddedNoiseParams.from_chi_n(chi_star))
        assert row.report.key_rate == want.key_rate
        assert row.report.chi_n == want.chi_n


def test_sweep_uses_a_given_chi_n():
    noise = AddedNoiseParams.from_chi_n(1.5)
    spec = SweepSpec(variable="lac-with-fixed-lbc", start=0.0, stop=8.0, step=4.0,
                     base=REALISTIC_MOD, noise=noise)
    for row in sweep(spec).rows:
        want = key_rate(replace(REALISTIC_MOD, l_ac=row.x), noise)
        assert row.report.key_rate == want.key_rate
        assert row.report.chi_n == noise.chi_n


def test_sweep_single_point_matches_key_rate():
    spec = SweepSpec(variable="distance-symmetric", start=1.0, stop=1.0, step=1.0,
                     base=REALISTIC)
    result = sweep(spec)
    assert len(result.rows) == 1
    row = result.rows[0]
    direct = key_rate(replace(REALISTIC, l_ac=1.0, l_bc=1.0))
    assert row.report.key_rate == direct.key_rate
    assert row.report.gain_used == direct.gain_used


def test_sweep_symmetric_distance_is_decreasing():
    base = ProtocolParams(v_a=1e5, v_b=1e5, l_ac=0, l_bc=0)
    spec = SweepSpec(variable="distance-symmetric", start=0.0, stop=6.0, step=1.0, base=base)
    ks = [row.report.key_rate for row in sweep(spec).rows]
    assert all(k2 < k1 for k1, k2 in zip(ks, ks[1:]))


def test_sweep_lac_variable_keeps_lbc():
    base = replace(REALISTIC, l_bc=1.0)
    spec = SweepSpec(variable="lac-with-fixed-lbc", start=0.0, stop=2.0, step=1.0, base=base)
    rows = sweep(spec).rows
    assert [r.x for r in rows] == [0.0, 1.0, 2.0]
    assert all(r.report is not None for r in rows)


def test_sweep_records_error_rows(monkeypatch):
    calls = {"n": 0}
    real = analysis_mod.key_rate

    def flaky(params, noise=None):
        calls["n"] += 1
        if calls["n"] == 2:
            raise NumericDomainError("synthetic failure")
        return real(params, noise)

    monkeypatch.setattr(analysis_mod, "key_rate", flaky)
    spec = SweepSpec(variable="distance-symmetric", start=0.0, stop=2.0, step=1.0,
                     base=REALISTIC)
    rows = sweep(spec).rows
    assert rows[1].report is None and "synthetic failure" in rows[1].error
    assert rows[0].report is not None and rows[2].report is not None


def test_chi_n_sweep_peak_matches_optimizer():
    base = replace(REALISTIC_MOD, l_ac=11.0, l_bc=0.0)
    spec = SweepSpec(variable="chi-n", start=0.0, stop=5.0, step=0.25, base=base)
    rows = sweep(spec).rows
    ks = [r.report.key_rate for r in rows]
    grid_best = max(ks)
    chi_star, k_star = optimize_added_noise(base)
    assert k_star >= grid_best - 1e-10
    # optimizer argmax lands inside the same region as the grid peak
    assert abs(rows[int(np.argmax(ks))].x - chi_star) <= 1.0


def test_optimize_added_noise_zero_at_origin():
    p = replace(ProtocolParams(v_a=1e5, v_b=1e5, l_ac=0, l_bc=0, eps1=0, eps2=0),
                protocol="squeezed-modified")
    chi_star, k_star = optimize_added_noise(p)
    assert chi_star == pytest.approx(0.0, abs=1e-3)
    k_plain = key_rate(replace(p, protocol="squeezed")).key_rate
    assert k_star == pytest.approx(k_plain, abs=1e-6)


def test_optimize_added_noise_beats_fine_grid():
    base = replace(REALISTIC_MOD, l_ac=12.0, l_bc=0.0)
    chi_star, k_star = optimize_added_noise(base)
    for chi in np.linspace(0.0, 10.0, 101):
        k = key_rate(base, AddedNoiseParams.from_chi_n(float(chi))).key_rate
        assert k_star >= k - 1e-10


def test_optimize_added_noise_never_below_plain_protocol():
    for l_ac in (5.0, 10.0, 13.0):
        base = replace(REALISTIC_MOD, l_ac=l_ac, l_bc=0.0)
        _, k_star = optimize_added_noise(base)
        k_plain = key_rate(replace(base, protocol="squeezed")).key_rate
        assert k_star >= k_plain - 1e-12


def test_optimize_added_noise_requires_modified():
    with pytest.raises(InvalidParameterError):
        optimize_added_noise(REALISTIC)


def test_max_distance_brackets_the_edge():
    p = replace(REALISTIC, protocol="squeezed")
    res = max_distance(p, geometry="asymmetric", tol_km=0.05)
    assert res.positive_at_origin and not res.capped
    k_lo = key_rate(replace(p, l_ac=res.l_star_km - res.tol_km)).key_rate
    k_hi = key_rate(replace(p, l_ac=res.l_star_km + res.tol_km)).key_rate
    assert k_lo > 0.0 >= k_hi
    assert res.l_ab_km == pytest.approx(res.l_star_km + p.l_bc)


def test_max_distance_symmetric_total_is_doubled():
    p = ProtocolParams(v_a=1e5, v_b=1e5, l_ac=0, l_bc=0)
    res = max_distance(p, geometry="symmetric")
    assert res.l_ab_km == pytest.approx(2.0 * res.l_star_km)
    assert res.l_bc_km is None


def test_max_distance_zero_at_origin_flag():
    # no key at the origin: no reach, also not the fixed L_BC of the geometry,
    # which is the given one, or 0 in the most-asymmetric geometry
    dead = replace(REALISTIC, beta=0.0, l_bc=5.0)
    scanned_lbc = {"symmetric": None, "asymmetric": 5.0, "most-asymmetric": 0.0}
    for geometry in analysis_mod.GEOMETRIES:
        res = max_distance(dead, geometry=geometry)
        assert (res.l_star_km, res.l_ab_km) == (0.0, 0.0), geometry
        assert res.l_bc_km == scanned_lbc[geometry]
        assert not res.positive_at_origin


def test_max_distance_deterministic():
    p = replace(REALISTIC, protocol="squeezed")
    r1 = max_distance(p, geometry="asymmetric")
    r2 = max_distance(p, geometry="asymmetric")
    assert r1 == r2


def test_max_distance_argument_errors():
    for geometry in ("diagonal", "fixed-lbc"):
        with pytest.raises(InvalidParameterError, match=geometry):
            max_distance(REALISTIC, geometry=geometry)
    with pytest.raises(InvalidParameterError):
        max_distance(REALISTIC, noise=AddedNoiseParams.from_chi_n(1.0))
    for tol_km in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidParameterError):
            max_distance(REALISTIC, tol_km=tol_km)


def test_monotonicity_in_loss_and_noise():
    base = ProtocolParams(v_a=1e5, v_b=1e5, l_ac=2.0, l_bc=2.0)
    ks = [key_rate(replace(base, l_ac=l, l_bc=l)).key_rate for l in (1.0, 3.0, 5.0)]
    assert ks[0] > ks[1] > ks[2]
    ks = [key_rate(replace(base, eps1=e, eps2=e)).key_rate for e in (0.0, 0.01, 0.03)]
    assert ks[0] > ks[1] > ks[2]
    k_perfect = key_rate(base).key_rate
    k_practical = key_rate(replace(base, eta=0.9, v_el=0.015)).key_rate
    assert k_perfect > k_practical
    assert key_rate(replace(base, beta=0.95)).key_rate < k_perfect


def test_compare_protocols_structure():
    noisy = replace(REALISTIC, eps1=0.1, eps2=0.1)  # short reach keeps this quick
    table = compare_protocols(noisy, geometry="most-asymmetric")
    assert len(table.rows) == 6
    combos = {(r.protocol, r.detector) for r in table.rows}
    assert combos == {(p, d) for p in ("coherent", "squeezed", "squeezed-modified")
                      for d in ("perfect", "practical")}
    assert all(r.l_bc_km == 0.0 for r in table.rows)


def test_compare_protocols_symmetric_geometry():
    table = compare_protocols(REALISTIC, geometry="symmetric", detectors=("practical",))
    assert len(table.rows) == 3
    assert all(r.l_bc_km is None for r in table.rows)
    by_proto = {r.protocol: r for r in table.rows}
    # squeezed beats coherent, trusted noise never hurts
    assert by_proto["squeezed"].l_ab_km > by_proto["coherent"].l_ab_km
    assert by_proto["squeezed-modified"].l_ab_km >= by_proto["squeezed"].l_ab_km


def test_compare_asymmetric_row_without_key_claims_no_reach():
    # the asymmetric table has one row per protocol and L_BC, in
    # ASYMMETRIC_LBC_KM order, each max_distance at that L_BC; its L_BC = 0
    # rows are the most-asymmetric table's; coherent states with the
    # practical detector have no key at any L_BC and claim no reach
    table = compare_protocols(REALISTIC, geometry="asymmetric", detectors=("practical",))
    protocols_ = ("coherent", "squeezed", "squeezed-modified")
    assert [(r.protocol, r.detector, r.l_bc_km) for r in table.rows] == [
        (p, "practical", l_bc) for p in protocols_ for l_bc in analysis_mod.ASYMMETRIC_LBC_KM]
    for row in table.rows:
        res = max_distance(replace(REALISTIC, protocol=row.protocol, l_bc=row.l_bc_km),
                           geometry="asymmetric")
        assert row == ComparisonRow(row.protocol, "practical", res.l_bc_km, res.l_star_km,
                                    res.l_ab_km, res.positive_at_origin, res.capped)
    most = compare_protocols(REALISTIC, geometry="most-asymmetric", detectors=("practical",))
    assert [r for r in table.rows if r.l_bc_km == 0.0] == list(most.rows)
    for row in table.rows:
        if row.protocol == "coherent":
            assert row == ComparisonRow("coherent", "practical", row.l_bc_km, 0.0, 0.0,
                                        False, False)
    assert all(r.positive_at_origin for r in table.rows
               if r.protocol == "squeezed" and r.l_bc_km < 5.0)


def test_abstract_claims_as_orderings():
    # the paper's headline claims over its six tables, every geometry at
    # both variance presets: squeezed states reach further than coherent
    # ones, and trusted noise at its optimum extends the squeezed reach.
    # Within each channel (detector, L_BC) the reach is ordered, strictly
    # wherever any of the three protocols has key
    channels = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for geometry in analysis_mod.GEOMETRIES:
            for variance, v in VARIANCE_PRESETS.items():
                table = compare_protocols(replace(REALISTIC, v_a=v, v_b=v), geometry=geometry)
                for r in table.rows:
                    channels.setdefault((geometry, variance, r.detector, r.l_bc_km),
                                        {})[r.protocol] = r
    assert len(channels) == 24
    for channel, rows in channels.items():
        coh, sq, mod = (rows[p].l_ab_km for p in ("coherent", "squeezed", "squeezed-modified"))
        if any(r.positive_at_origin for r in rows.values()):
            assert coh < sq < mod, channel
        else:
            assert coh <= sq <= mod, channel
    edge = channels["most-asymmetric", "realistic", "practical", 0.0]["squeezed-modified"]
    chi_star, k_star = optimize_added_noise(replace(REALISTIC_MOD, l_ac=edge.l_star_km))
    assert chi_star > 0.0 and k_star > 0.0


def test_compare_protocols_rejects_unknown_geometry():
    with pytest.raises(InvalidParameterError):
        compare_protocols(REALISTIC, geometry="ring")


@pytest.mark.parametrize("geometry,detectors", [("ring", ("perfect",)), ("fixed-lbc", ()),
                                                ("asymmetric", ("practical", "bogus"))])
def test_compare_protocols_rejects_a_bad_name_before_any_key_rate(monkeypatch, geometry,
                                                                  detectors):
    rates = counting(monkeypatch, "key_rate")
    with pytest.raises(InvalidParameterError):
        compare_protocols(REALISTIC, geometry=geometry, detectors=detectors)
    assert rates == []


def test_compare_protocols_checks_every_detector_before_searching(monkeypatch):
    # the rows run through max_distance's private seam, which takes a scan
    searches = []
    real = analysis_mod._max_distance

    def counted(*args, **kwargs):
        searches.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis_mod, "_max_distance", counted)
    with pytest.raises(InvalidParameterError, match="bogus"):
        compare_protocols(REALISTIC, detectors=("perfect", "bogus"))
    assert searches == []


def test_sweep_spec_rejects_added_noise_on_a_plain_protocol():
    with pytest.raises(InvalidParameterError,
                       match="protocol 'coherent' does not take added-noise parameters"):
        SweepSpec("distance-symmetric", start=0.0, stop=1.0, step=1.0,
                  base=replace(REALISTIC, protocol="coherent"),
                  noise=AddedNoiseParams.from_chi_n(2.0))


# ------------------------------------------------- warm-started chi_n search

@pytest.mark.parametrize("geometry,l_bc", [("symmetric", 0.0), ("asymmetric", 0.0),
                                           ("asymmetric", 2.0)])
@pytest.mark.parametrize("detector", sorted(DETECTOR_PRESETS))
def test_warm_start_matches_full_search_at_every_trial(detector, geometry, l_bc):
    # every protocol at both variance presets: the witness and chi_n* probes
    # decide no trial differently from the full search at every length
    eta, v_el = DETECTOR_PRESETS[detector]
    for v in VARIANCE_PRESETS.values():
        for protocol in ("coherent", "squeezed", "squeezed-modified"):
            p = replace(REALISTIC, v_a=v, v_b=v, eta=eta, v_el=v_el, l_bc=l_bc,
                        protocol=protocol)
            got = max_distance(p, geometry=geometry)
            want = reference_max_distance(p, geometry=geometry)
            if protocol == "squeezed-modified":
                assert got.positive_at_origin
            assert ((got.l_star_km, got.l_ab_km, got.positive_at_origin, got.capped)
                    == (want.l_star_km, want.l_ab_km, want.positive_at_origin,
                        want.capped)), (v, protocol)


def counting(monkeypatch, name):
    """Count the calls of analysis.<name>, which keeps working as before."""
    calls = []
    original = getattr(analysis_mod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis_mod, name, counted)
    return calls


def test_warm_start_reoptimises_only_on_non_positive_probes(monkeypatch):
    # the paper's most-asymmetric practical row: only the trial lengths
    # where neither the witness nor K at chi_n = 0 is positive search the
    # slope of the limit, and none runs the full chi_n search
    slopes = counting(monkeypatch, "noise_limit_slope")
    calls = counting(monkeypatch, "optimize_added_noise")
    res = max_distance(REALISTIC_MOD, geometry="asymmetric")
    assert res.l_star_km == 13.875
    searched = [params for params, in slopes if params.gain is None]
    assert len(searched) == 4 and calls == []
    for params in searched:
        assert key_rate(params, AddedNoiseParams(0.0)).key_rate <= 0.0


def test_limit_witness_falls_back_when_its_slope_turns(monkeypatch):
    # K(L, 0) = -1 at every length, and the slope D(L, g) = 1 - L/10 -
    # 10 |g - L| peaks at the gain g* = L: the limit witness, at the gain
    # of the last positive trial, gives D <= 0 from 1 km on, while
    # D*(L) = 1 - L/10 stays positive up to 10 km; each trial falls back to
    # the gain search of D
    witness_slopes = []

    def fake_rate(params, noise=None, **kwargs):
        return SimpleNamespace(key_rate=-1.0, gain_used=1.0)

    def fake_slope(params, **kwargs):
        length = params.l_ac
        if params.gain is None:
            return 1.0 - length / 10.0, length
        d = 1.0 - length / 10.0 - 10.0 * abs(params.gain - length)
        witness_slopes.append(d)
        return d, params.gain

    monkeypatch.setattr(analysis_mod, "key_rate", fake_rate)
    monkeypatch.setattr(analysis_mod, "noise_limit_slope", fake_slope)
    res = max_distance(REALISTIC_MOD, geometry="asymmetric")
    assert len(witness_slopes) == 7 and max(witness_slopes) <= 0.0
    assert res.positive_at_origin
    assert res.l_star_km == pytest.approx(10.0, abs=res.tol_km)


def test_max_distance_keeps_a_fixed_gain_in_both_searches(monkeypatch):
    # a fixed gain is the gain of every search of every trial, K's and D's
    gains = []
    for name in ("key_rate", "noise_limit_slope"):
        original = getattr(analysis_mod, name)

        def spy(params, *args, original=original, **kwargs):
            gains.append(params.gain)
            return original(params, *args, **kwargs)

        monkeypatch.setattr(analysis_mod, name, spy)
    res = max_distance(replace(REALISTIC_MOD, gain=1.2), geometry="asymmetric")
    assert set(gains) == {1.2}
    assert res == reference_max_distance(replace(REALISTIC_MOD, gain=1.2), geometry="asymmetric")
    assert res != max_distance(REALISTIC_MOD, geometry="asymmetric")


def test_max_distance_below_beta_1_keeps_the_full_search(monkeypatch):
    # at beta < 1 trusted noise can help at intermediate chi_n only: here
    # K(0) and D are negative at 3 km while K(chi_n = 0.5) is positive, so
    # there the rule does not hold; the full chi_n search decides such a
    # trial, and a positive point it finds becomes the witness.  The hump
    # near chi_n = 1 lasts to 3.5 km, which the full search at every trial
    # finds too
    p = replace(REALISTIC_MOD, v_a=6.0, eta=0.85, beta=0.95, l_ac=3.0, l_bc=0.2)
    assert key_rate(p, AddedNoiseParams(0.0)).key_rate < 0.0
    assert protocols.noise_limit_slope(p)[0] < 0.0
    assert key_rate(p, AddedNoiseParams(0.5)).key_rate > 0.0
    want = reference_max_distance(p, geometry="asymmetric")
    calls = counting(monkeypatch, "optimize_added_noise")
    got = max_distance(p, geometry="asymmetric")
    assert calls and got == want
    assert got.l_star_km == 3.5
    at_reach = replace(p, l_ac=got.l_star_km)
    assert max(key_rate(at_reach, AddedNoiseParams(0.1 * i)).key_rate for i in range(40)) > 0.0


# ------------------------------------------------ witness probes across trials

def test_witness_falls_back_when_the_optimal_gain_moves(monkeypatch):
    # K(L, g) = 1 - L/10 - 10 |g - L|: the optimal gain g* = L moves with L,
    # so the witness, the gain of the last positive trial, gives K <= 0 at
    # every trial from 1 km on, while K*(L) = 1 - L/10 stays positive up to
    # 10 km; each trial falls back to the full gain search
    witness_rates = []

    def fake(params, noise=None, **kwargs):
        length = params.l_ac
        if params.gain is None:
            return SimpleNamespace(key_rate=1.0 - length / 10.0, gain_used=length)
        k = 1.0 - length / 10.0 - 10.0 * abs(params.gain - length)
        witness_rates.append(k)
        return SimpleNamespace(key_rate=k, gain_used=params.gain)

    monkeypatch.setattr(analysis_mod, "key_rate", fake)
    p = replace(REALISTIC, protocol="squeezed")
    res = max_distance(p, geometry="asymmetric")
    assert len(witness_rates) == 7 and max(witness_rates) <= 0.0
    assert res.l_star_km == pytest.approx(10.0, abs=res.tol_km)
    assert res == reference_max_distance(p, geometry="asymmetric")


@pytest.mark.parametrize("protocol", ["squeezed", "squeezed-modified"])
def test_witness_probe_that_raises_counts_as_non_positive(monkeypatch, protocol):
    # a key_rate and a limit slope that raise at every fixed gain: the
    # witness never proves a trial, and the search gives the reach of the
    # full search, not an error; it is tried once at every distance trial
    # after the origin's, 8 in the squeezed row and 9 in the modified one
    raised = []

    def no_fixed_gain(honest):
        def call(params, *args, **kwargs):
            if params.gain is not None:
                raised.append(params.l_ac)
                raise NumericDomainError("planted")
            return honest(params, *args, **kwargs)

        return call

    p = replace(REALISTIC, protocol=protocol)
    want = reference_max_distance(p, geometry="asymmetric")
    monkeypatch.setattr(analysis_mod, "key_rate", no_fixed_gain(key_rate))
    monkeypatch.setattr(analysis_mod, "noise_limit_slope",
                        no_fixed_gain(protocols.noise_limit_slope))
    assert max_distance(p, geometry="asymmetric") == want
    assert len(raised) == {"squeezed": 8, "squeezed-modified": 9}[protocol]


def test_paper_table_widens_no_gain_search(monkeypatch):
    # every gain search of the paper's table, the four of the limit's slope
    # too, is a trial's Brent search and ends inside its first bracket: the
    # slope's optimal gains (1.226 to 1.238) lie far below the bracket's
    # edge, 4 sqrt(2/(eta T2)) = 5.96; and no golden search runs.  The
    # modified row's K at chi_n = 0 comes from the squeezed row's trials,
    # so no search is asked for twice
    searches, calls, optima, golden = [], [], [], []
    honest_brent, honest_golden = protocols.brent_max, protocols.golden_section_max

    def brent(f, lo, hi, tol):
        best = honest_brent(f, lo, hi, tol)
        searches.append((best[0], hi))
        return best

    def golden_search(*args):
        golden.append(args)
        return honest_golden(*args)

    def searched(name):
        honest = getattr(analysis_mod, name)

        def call(params, *args, **kwargs):
            out = honest(params, *args, **kwargs)
            if params.gain is None:
                calls.append(params)
                if name == "noise_limit_slope":
                    optima.append((out[1], protocols.gain_bracket(params)))
            return out

        monkeypatch.setattr(analysis_mod, name, call)

    monkeypatch.setattr(protocols, "brent_max", brent)
    monkeypatch.setattr(protocols, "golden_section_max", golden_search)
    searched("key_rate")
    searched("noise_limit_slope")
    compare_protocols(ProtocolParams(v_a=5.04, v_b=5.04, l_ac=0.0, l_bc=0.0),
                      geometry="most-asymmetric", detectors=("practical",))
    assert len(searches) == len(calls) == 9 and len(optima) == 4
    assert all(g < hi - 2.0 * protocols.GAIN_TOL for g, hi in searches)
    assert all(g < hi / 4.0 for g, hi in optima)
    assert golden == []


@pytest.mark.parametrize("protocol", ["squeezed", "squeezed-modified"])
def test_a_trial_kind_that_failed_is_not_tried_further(monkeypatch, protocol):
    # K* and D* do not rise with length: once a gain search of K at
    # chi_n = 0 (or of D) comes out non-positive at L, that call searches it
    # at no length >= L, nor evaluates it there as the witness.  In the
    # modified row K(0) fails at 16 km and again at 12.5625 km, and only D
    # is searched after it; the reach stays the full search's
    asked = []

    def spy(name):
        honest = getattr(analysis_mod, name)

        def call(params, *args, **kwargs):
            out = honest(params, *args, **kwargs)
            k = out.key_rate if name == "key_rate" else out[0]
            asked.append((name, params.l_ac, params.gain is None, k))
            return out

        monkeypatch.setattr(analysis_mod, name, call)

    spy("key_rate")
    spy("noise_limit_slope")
    p = replace(REALISTIC, protocol=protocol)
    res = max_distance(p, geometry="asymmetric")
    failed = [(i, name, length) for i, (name, length, searched, k) in enumerate(asked)
              if searched and k <= 0.0]
    assert failed
    for i, name, length in failed:
        assert all(later < length for other, later, _, _ in asked[i + 1:] if other == name)
    if protocol == "squeezed-modified":
        key_searches = [length for name, length, searched, _ in asked
                        if name == "key_rate" and searched]
        assert key_searches == [0.0, 16.0, 12.5625]
    assert res == reference_max_distance(p, geometry="asymmetric")


def test_a_slope_search_that_raises_stops_only_an_undecided_trial(monkeypatch):
    # a slope search that ends in NumericDomainError, as a widening that
    # finds no optimum would, aborts the search at the first trial that
    # the witness and K at chi_n = 0 left undecided (16 km), and at no
    # trial before it
    asked = []

    def stuck(params, **kwargs):
        asked.append(params.l_ac)
        if params.gain is None:
            raise NumericDomainError("gain optimum stuck at the search edge")
        return protocols.noise_limit_slope(params, **kwargs)

    monkeypatch.setattr(analysis_mod, "noise_limit_slope", stuck)
    with pytest.raises(NumericDomainError, match="stuck"):
        max_distance(REALISTIC_MOD, geometry="asymmetric")
    assert asked == [16.0]


def test_paper_table_halves_the_gain_searches(monkeypatch):
    # the paper's most-asymmetric practical table: a full gain search per
    # trial length made 101 of them, and the witness with the chi_n*
    # warm start 51; the witness, K at chi_n = 0 and the slope of the limit
    # left 21, each a trial's Brent search, the limit's too; with golden
    # section's 37 evaluations per search the table made 824 kernel
    # evaluations, with Brent's about 14 it made 339, the witnesses' too.
    # False position on the bisection's grid takes 17 distance trials where
    # bisection took 26, and no trial searches K at chi_n = 0 or D past a
    # length where that search came out non-positive: 12 gain searches and
    # 195 kernel evaluations.  The modified row reuses the squeezed row's
    # K(0) trials, searches and witnesses alike: 9 and 145
    searches, evals = [], []
    honest, honest_objective = protocols.brent_max, protocols._gain_objective

    def counted(f, lo, hi, tol):
        searches.append(hi)
        return honest(f, lo, hi, tol)

    def objective(*args, **kwargs):
        f = honest_objective(*args, **kwargs)

        def evaluated(*a, **kw):
            evals.append(a)
            return f(*a, **kw)

        return evaluated

    monkeypatch.setattr(protocols, "brent_max", counted)
    monkeypatch.setattr(protocols, "_gain_objective", objective)
    table = compare_protocols(ProtocolParams(v_a=5.04, v_b=5.04, l_ac=0.0, l_bc=0.0),
                              geometry="most-asymmetric", detectors=("practical",))
    assert [(r.protocol, r.l_star_km, r.positive_at_origin) for r in table.rows] == [
        ("coherent", 0.0, False), ("squeezed", 10.5, True),
        ("squeezed-modified", 13.875, True)]
    assert len(searches) <= 9
    assert len(evals) <= 145


def test_six_paper_tables_gain_searches(monkeypatch):
    # every geometry at both variance presets, both detectors: plain
    # bisection with every trial kind searched at every length made 621
    # gain searches, 823 distance trials; false position on its grid, with
    # a failed kind dropped for longer lengths, made 422 and 581; rows of
    # one channel sharing their trials make 326 gain searches in as many
    # trials
    searches, trials = [], []
    honest_brent, honest_edge = protocols.brent_max, analysis_mod.positive_edge

    def counted(f, lo, hi, tol):
        searches.append(hi)
        return honest_brent(f, lo, hi, tol)

    def edge(f, *args):
        def trial(length):
            trials.append(length)
            return f(length)

        return honest_edge(trial, *args)

    monkeypatch.setattr(protocols, "brent_max", counted)
    monkeypatch.setattr(analysis_mod, "positive_edge", edge)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for geometry in ("symmetric", "asymmetric", "most-asymmetric"):
            for v in VARIANCE_PRESETS.values():
                compare_protocols(replace(REALISTIC, v_a=v, v_b=v), geometry=geometry)
    assert len(searches) <= 326
    assert len(trials) <= 581


# ------------------------------------------- rows of one channel share trials

def _row_alone(base: ProtocolParams, geometry: str, row: ComparisonRow):
    """``max_distance`` of the params ``compare_protocols`` gave ``row``."""
    eta, v_el = DETECTOR_PRESETS[row.detector]
    l_bc = base.l_bc if row.l_bc_km is None else row.l_bc_km
    p = replace(base, protocol=row.protocol, eta=eta, v_el=v_el, l_bc=l_bc)
    return max_distance(p, geometry=geometry)


@pytest.mark.parametrize("geometry", ["symmetric", "asymmetric", "most-asymmetric"])
@pytest.mark.parametrize("base", [replace(REALISTIC, v_a=v, v_b=v)
                                  for v in VARIANCE_PRESETS.values()]
                         + [replace(REALISTIC, beta=0.95), replace(REALISTIC, gain=1.2)],
                         ids=["realistic", "ideal", "beta=0.95", "gain=1.2"])
def test_sharing_trials_changes_no_row(geometry, base):
    # the six paper tables, both detectors, and a base below beta = 1 and
    # one at a fixed gain: each row is field for field what max_distance
    # gives for that row's params alone.  eps1 = 0.002 keeps every row off
    # the V = 1e5, eps1 = 0, L_BC = 0 points where K* near the edge is
    # about 1e-10 and its computed sign flips along L
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = compare_protocols(base, geometry=geometry).rows
        assert len(rows) == 3 * 2 * (4 if geometry == "asymmetric" else 1)
        for row in rows:
            res = _row_alone(base, geometry, row)
            assert ((row.l_bc_km, row.l_star_km, row.l_ab_km, row.positive_at_origin, row.capped)
                    == (res.l_bc_km, res.l_star_km, res.l_ab_km, res.positive_at_origin,
                        res.capped)), row


def _counting_brent(monkeypatch) -> list:
    searches = []
    honest = protocols.brent_max

    def counted(*args):
        searches.append(args[2])
        return honest(*args)

    monkeypatch.setattr(protocols, "brent_max", counted)
    return searches


@pytest.mark.parametrize("first,second", [
    ((REALISTIC, "most-asymmetric"), (REALISTIC, "asymmetric")),
    ((REALISTIC, "most-asymmetric"), (replace(REALISTIC, v_a=1e5, v_b=1e5), "most-asymmetric")),
])
def test_a_table_leaves_no_trials_to_the_next(monkeypatch, first, second):
    # the asymmetric table's L_BC = 0 rows scan the most-asymmetric table's
    # channel: were trials kept past a call, the later table would make
    # fewer searches.  Each table, after the other in either order, gives
    # the rows and the Brent search count of its call before
    searches = _counting_brent(monkeypatch)

    def table(base, geometry):
        searches.clear()
        rows = compare_protocols(base, geometry=geometry, detectors=("practical",)).rows
        return rows, len(searches)

    fresh = table(*first), table(*second)
    assert table(*first) == fresh[0]
    assert table(*second) == fresh[1]
    assert table(*first) == fresh[0]


def test_max_distance_calls_share_no_trials(monkeypatch):
    # in one table the modified row takes K at chi_n = 0 from the squeezed
    # row; two max_distance calls share nothing, in either order
    searches = _counting_brent(monkeypatch)

    def alone(params):
        searches.clear()
        return max_distance(params, geometry="most-asymmetric"), len(searches)

    squeezed = replace(REALISTIC, protocol="squeezed")
    fresh_modified = alone(REALISTIC_MOD)
    fresh_squeezed = alone(squeezed)
    assert alone(REALISTIC_MOD) == fresh_modified
    assert alone(squeezed) == fresh_squeezed


def test_max_distance_signature_is_unchanged():
    # the scan that rows of one table share enters by a private seam only
    kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
    params = inspect.signature(max_distance).parameters.values()
    assert [(p.name, p.default, p.kind) for p in params] == [
        ("params", inspect.Parameter.empty, kind), ("geometry", "symmetric", kind),
        ("noise", None, kind), ("tol_km", 0.05, kind)]
