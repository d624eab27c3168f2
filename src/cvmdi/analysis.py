"""Figure-level computations: parameter sweeps, maximal transmission
distances, added-noise optimization, and protocol comparison tables.

The squeezed-modified protocol given no added noise has its chi_n
optimised, per point (``key_rate_at_best_noise``) or per trial length
(``max_distance``).  ``optimize_added_noise`` searches the whole
half-line chi_n >= 0 as w = chi_n/(1 + chi_n) on [0, 1]: a grid in w,
then one golden refinement around its best point.

Each of ``optimize_added_noise``, ``max_distance`` and
``key_rate_at_best_noise`` makes one memo (``protocols.key_rate``) and
passes it to every gain search it makes, so their gain searches at one
channel compute each gain's gain-only half of the kernel once.  The memo
is dropped when the call returns.  A key rate at a given chi_n, such as a
sweep point's, searches one gain at one channel and keeps none.

``max_distance`` reads only the sign of K at each trial length, so a trial
stops at the first evaluated point that proves K > 0.  It tries, in
order: the gain and noise of the last such point (one evaluation at a
fixed gain); then K with the gain searched; then, when chi_n is
optimised, the slope D = lim chi_n K as chi_n -> inf
(``protocols.noise_limit_slope``) with the gain searched.  At beta = 1,
K at chi_n = 0 and D decide the sign of K* between them.  These gain
searches run Brent's method (``search.brent_max``, through ``_rate_at``):
about 14 kernel evaluations each where golden section takes 37, to the
same GAIN_TOL.  A trial reads only the sign, which the two searches agree
on.  Every gain this module reports (a sweep point, ``optimize_added_noise``,
``key_rate_at_best_noise``) is still golden's (``protocols.optimal_gain``):
``bench/reference.json`` pins its bits at the V = 1e5, L = 0 sweep points,
until a re-recorded reference (ROADMAP item 1) lets Brent serve both.

The paper's three geometries are the keys of ``GEOMETRY_MODES``, which maps
each to the ``max_distance`` mode that scans it; ``at_geometry`` pins
L_BC = 0 for 'most-asymmetric'.  The CLI reads both from here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable

from .errors import CVMDIError, InvalidParameterError, NumericDomainError
from .protocols import (
    NOISE_LIMIT,
    AddedNoiseParams,
    KeyRateReport,
    ProtocolParams,
    check_added_noise,
    key_rate,
    noise_limit_slope,
)
from .search import golden_section_max, positive_edge

SWEEP_VARIABLES = ("distance-symmetric", "lac-with-fixed-lbc", "chi-n")
# Geometry -> max_distance mode; 'most-asymmetric' scans at L_BC = 0 (at_geometry).
GEOMETRY_MODES = {"symmetric": "symmetric", "asymmetric": "fixed-lbc",
                  "most-asymmetric": "fixed-lbc"}
GEOMETRIES = tuple(GEOMETRY_MODES)

# optimize_added_noise grids w = chi_n/(1 + chi_n) over [0, 1], then refines w to CHI_N_W_TOL
CHI_N_GRID_POINTS = 11
CHI_N_W_TOL = 1e-6

SCAN_STEP_KM = 1.0
SCAN_CAP_KM = 500.0

ASYMMETRIC_LBC_KM = (0.0, 1.0, 2.0, 5.0)

# Most points one sweep may hold; counted before the grid is built.
MAX_SWEEP_POINTS = 100_000

DETECTOR_PRESETS = {"perfect": (1.0, 0.0), "practical": (0.9, 0.015)}
VARIANCE_PRESETS = {"ideal": 1e5, "realistic": 5.04}


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep request.

    A squeezed-modified base with ``noise`` None has chi_n optimised at
    each point, except on a ``chi-n`` sweep, whose points give it: that
    sweep takes no ``noise``, and nor do the other protocols.
    """

    variable: str
    start: float
    stop: float
    step: float
    base: ProtocolParams
    noise: AddedNoiseParams | None = None

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise InvalidParameterError(
                f"unknown sweep variable {self.variable!r}; pick one of {SWEEP_VARIABLES}")
        for name in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.step <= 0.0:
            raise InvalidParameterError(f"step must be > 0, got {self.step}")
        if self.start > self.stop:
            raise InvalidParameterError(
                f"start {self.start} must not exceed stop {self.stop}")
        # floor((end - start)/step) + 1 points exceed the bound exactly when this does
        if (self._end - self.start) / self.step >= MAX_SWEEP_POINTS:
            raise InvalidParameterError(
                f"sweep grid from {self.start} to {self.stop} by {self.step} "
                f"holds more than {MAX_SWEEP_POINTS} points")
        if self.variable == "chi-n" and self.base.protocol != "squeezed-modified":
            raise InvalidParameterError("chi-n sweeps need protocol 'squeezed-modified'")
        if self.variable == "chi-n" and self.noise is not None:
            raise InvalidParameterError("a chi-n sweep sets chi_n at each point: give it none")
        if self.noise is not None:
            check_added_noise(self.base, self.noise)

    @property
    def _end(self) -> float:
        """``stop`` plus the relative slack ``1e-9 * max(1, |stop|)``."""
        return self.stop + 1e-9 * max(1.0, abs(self.stop))

    def grid(self) -> list[float]:
        """Sweep points ``start + k*step`` for k = 0, 1, ..., both ends inclusive.

        A point is kept while it does not exceed ``stop`` by more than a
        relative slack (``_end``), so rounding in ``k*step`` cannot drop the
        end point. ``start == stop`` gives the single point ``[start]``.
        """
        xs = []
        x = self.start
        k = 0
        end = self._end
        while x <= end:
            xs.append(x)
            k += 1
            x = self.start + k * self.step
        return xs


@dataclass(frozen=True)
class SweepRow:
    x: float
    report: KeyRateReport | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def _point_params(spec: SweepSpec, x: float) -> tuple[ProtocolParams, AddedNoiseParams | None]:
    if spec.variable == "distance-symmetric":
        return replace(spec.base, l_ac=x, l_bc=x), spec.noise
    if spec.variable == "lac-with-fixed-lbc":
        return replace(spec.base, l_ac=x), spec.noise
    return spec.base, AddedNoiseParams.from_chi_n(x)


def _optimizes_noise(params: ProtocolParams, noise: AddedNoiseParams | None) -> bool:
    return params.protocol == "squeezed-modified" and noise is None


def key_rate_at_best_noise(params: ProtocolParams,
                           noise: AddedNoiseParams | None = None) -> KeyRateReport:
    """``key_rate(params, noise)``; for the squeezed-modified protocol given
    no noise, at the chi_n* of ``optimize_added_noise``, which shares its
    memo with that last ``key_rate``."""
    if _optimizes_noise(params, noise):
        memo = {}
        chi_star, _ = optimize_added_noise(params, memo=memo)
        return key_rate(params, AddedNoiseParams.from_chi_n(chi_star), memo=memo)
    return key_rate(params, noise)


def sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate one KeyRateReport per grid point; failures become error rows."""
    rows = []
    for x in spec.grid():
        params, noise = _point_params(spec, x)
        try:
            rows.append(SweepRow(x=x, report=key_rate_at_best_noise(params, noise)))
        except CVMDIError as exc:
            rows.append(SweepRow(x=x, error=str(exc)))
    return SweepResult(rows=tuple(rows))


def optimize_added_noise(params: ProtocolParams, *,
                         memo: dict | None = None) -> tuple[float, float]:
    """Best trusted added noise at this geometry: returns (chi_n*, K*).

    The search runs over w = chi_n/(1 + chi_n), which maps the half-line
    chi_n >= 0 onto [0, 1], w = 1 being the limit chi_n -> inf.  K is
    evaluated on CHI_N_GRID_POINTS evenly spaced w (chi_n = 0, 1/9, 1/4,
    ..., 9, and the limit).  K vanishes at the limit, so it is no point to
    return: the limit ranks below every finite point and is not evaluated.
    A grid with more than one strict local maximum means the profile is
    not unimodal, and a RuntimeWarning says so.  Golden section then
    refines w to CHI_N_W_TOL inside the two grid cells around the best grid
    point (one cell at w = 0), reusing the grid values that bound them; the
    result is the better of that refinement and the best grid point, as
    ``(w/(1 - w), K)``.  chi_n* = 0 is a legal boundary optimum.

    So the table's modified row has chi_n* = 110.9 at V = 5.04,
    L_AC = 13.875 km, L_BC = 0 with the practical detector, where
    K(100) = +2.2e-6 while K(50) = -9.7e-7; and at beta < 1 the search
    finds a positive hump near chi_n = 1 whose neighbours are negative.
    Where the best point lies within CHI_N_W_TOL of the limit, K* is a
    supremum that no finite chi_n attains, whose sign is that of the slope
    D of ``protocols.noise_limit_slope``; a RuntimeWarning says so, and the
    best point searched is returned.  Those points lie near
    chi_n = 3.6e6, where K is still resolved in doubles: near 1e8 at
    V = 1e5, the rounding of its terms reaches K.

    Every ``key_rate`` call shares ``memo`` (a fresh one when None; see
    ``protocols.key_rate``): the gain searches of all chi_n run over one
    bracket at one channel, so they revisit gains until their optima part.
    """
    if params.protocol != "squeezed-modified":
        raise InvalidParameterError("added-noise optimization needs protocol 'squeezed-modified'")
    if memo is None:
        memo = {}

    def k_of(w: float) -> float:
        if w == 1.0:
            return -math.inf
        return key_rate(params, AddedNoiseParams.from_chi_n(w / (1.0 - w)), memo=memo).key_rate

    n = CHI_N_GRID_POINTS
    grid = [i / (n - 1) for i in range(n)]
    vals = [k_of(w) for w in grid]
    best = max(range(n), key=vals.__getitem__)
    peaks = [grid[i] / (1.0 - grid[i]) for i in range(n - 1)  # the limit is none
             if (i == 0 or vals[i] > vals[i - 1]) and vals[i] > vals[i + 1]]
    if len(peaks) > 1:
        warnings.warn(
            f"added-noise profile not unimodal: grid maxima at chi_n={peaks}; "
            f"best grid point chi_n={grid[best] / (1.0 - grid[best])}", RuntimeWarning)
    known = dict(zip(grid, vals))
    w, k = golden_section_max(lambda w: known[w] if w in known else k_of(w),
                              grid[max(best - 1, 0)], grid[min(best + 1, n - 1)], CHI_N_W_TOL)
    if vals[best] > k:
        w, k = grid[best], vals[best]
    chi = w / (1.0 - w)
    if 1.0 - w <= CHI_N_W_TOL:
        warnings.warn(
            f"added-noise optimum at the limit: K still rises at chi_n = {chi:.6g}, "
            f"the largest searched, where K = {k:.6g}", RuntimeWarning)
    return chi, k


@dataclass(frozen=True)
class MaxDistanceResult:
    l_star_km: float
    l_ab_km: float
    mode: str
    positive_at_origin: bool
    capped: bool = False
    tol_km: float = 0.05


def _rate_at(params: ProtocolParams, noise: AddedNoiseParams | None,
             memo: dict) -> tuple[float, float]:
    """(K, gain) of ``key_rate``, or (D, gain) of ``noise_limit_slope`` at
    ``NOISE_LIMIT``: either way a value with the sign of K at ``noise``.
    Unless ``params.gain`` is set, the gain is searched by Brent's method
    (``brent=True``)."""
    if noise is not None and noise.chi_n == math.inf:
        return noise_limit_slope(params, memo=memo, brent=True)
    report = key_rate(params, noise, memo=memo, brent=True)
    return report.key_rate, report.gain_used


def max_distance(params: ProtocolParams, mode: str = "symmetric",
                 noise: AddedNoiseParams | None = None,
                 tol_km: float = 0.05) -> MaxDistanceResult:
    """Largest channel length with positive key rate.

    mode 'symmetric' scans d = L_AC = L_BC (total L_AB = 2d); mode
    'fixed-lbc' scans L_AC at the configured L_BC.  The squeezed-modified
    protocol uses `noise` as given, or maximizes K over chi_n at each
    trial length when `noise` is None; the plain protocols take no noise.
    The edge is bracketed by trials at 1, 2, 4, ... km (SCAN_CAP_KM last)
    and bisected to `tol_km`, which must be positive and finite; this
    assumes K non-increasing in the scanned length.

    The search reads only the sign of K*(L), the supremum of K over the
    gain (and over chi_n when it is optimised).  For optimised chi_n at
    beta = 1, K*(L) > 0 exactly when K at chi_n = 0 or the slope
    D = lim chi_n K as chi_n -> inf is positive at some gain (tested
    against a wide log grid of chi_n): a positive D makes K positive at
    every large enough chi_n.  So each trial stops at the first of these
    that proves K*(L) > 0:

    1. the witness: the gain and noise of the last point that proved it,
       at this length and that fixed gain (one kernel evaluation), where
       the noise may be the limit, whose D is evaluated;
    2. ``key_rate`` with the gain searched, at chi_n = 0 when it is
       optimised;
    3. for optimised chi_n only, ``protocols.noise_limit_slope``: D with
       the gain searched.

    Steps 2 and 3 search the gain by Brent's method (``search.brent_max``)
    rather than ``optimal_gain``'s golden section: the same bracket,
    GAIN_TOL and widening, in about 14 kernel evaluations instead of 37.
    The two searches give K* the same sign wherever |K*| > 1e-8, so a
    reach moves only where a trial's |K*| is below that, at no row of the
    paper's tables; the witness's gain may differ in its last digits.
    The full chi_n search below still runs golden section.

    A step that proves K*(L) > 0 returns a positive value, and its gain and
    noise become the witness.  A witness that raises NumericDomainError
    counts as K <= 0, so only the searches of steps 2 and 3 can raise, and
    step 3 runs only where steps 1 and 2 did not decide.  A fixed
    ``params.gain`` is kept in every search.  A positive trial thus stands
    on a point actually evaluated and a non-positive one on the searches.

    At beta < 1 the rule fails, as trusted noise can give key at
    intermediate chi_n only: at V_A = 6, V_B = 5.04, eta = 0.85,
    beta = 0.95, L_AC = 3 km and L_BC = 0.2 km, K(0) and D are negative but
    K(chi_n = 0.5) is positive.  So there a trial that all three steps
    leave non-positive ends with ``optimize_added_noise``, whose chi_n* and
    its searched gain become the witness when K* > 0.  Its grid in
    w = chi_n/(1 + chi_n) has points at chi_n = 2/3, 1 and 1.5, so it finds
    such a hump: with L_AC scanned, that point reaches 3.5 km, as does the
    full search at every trial length.

    Every step, at every trial length, shares one memo
    (``protocols.key_rate``).
    With no key at length 0 the result has positive_at_origin False and
    l_star_km = l_ab_km = 0: a protocol without key claims no reach.
    """
    if mode not in ("symmetric", "fixed-lbc"):
        raise InvalidParameterError(f"unknown max-distance mode {mode!r}")
    if not 0.0 < tol_km < math.inf:
        raise InvalidParameterError(f"tol_km must be positive and finite, got {tol_km}")
    optimize_noise = _optimizes_noise(params, noise)

    def geometry(length: float) -> ProtocolParams:
        if mode == "symmetric":
            return replace(params, l_ac=length, l_bc=length)
        return replace(params, l_ac=length)

    memo = {}
    witness = None  # (gain, noise) of the last point that proved K* > 0
    trials = (AddedNoiseParams(0.0), NOISE_LIMIT) if optimize_noise else (noise,)
    # K(0) <= 0 and D <= 0 leave K* <= 0 only at beta = 1
    full_search = optimize_noise and params.beta != 1.0

    def k_of(length: float) -> float:
        """A value with the sign of K*(length): K, or D at the limit."""
        nonlocal witness
        p = geometry(length)
        if witness is not None:
            gain, witness_noise = witness
            try:
                k = _rate_at(replace(p, gain=gain), witness_noise, memo)[0]
            except NumericDomainError:
                k = 0.0
            if k > 0.0:
                return k
        for trial_noise in trials:
            k, gain = _rate_at(p, trial_noise, memo)
            if k > 0.0:
                witness = gain, trial_noise
                return k
        if not full_search:
            return k
        chi_star, k = optimize_added_noise(p, memo=memo)
        if k > 0.0:
            found = AddedNoiseParams(chi_star)
            witness = key_rate(p, found, memo=memo).gain_used, found
        return k

    if k_of(0.0) <= 0.0:
        return MaxDistanceResult(0.0, 0.0, mode, positive_at_origin=False, tol_km=tol_km)
    edge, capped = positive_edge(k_of, SCAN_STEP_KM, tol_km, SCAN_CAP_KM)
    l_ab = 2.0 * edge if mode == "symmetric" else edge + params.l_bc
    return MaxDistanceResult(edge, l_ab, mode, positive_at_origin=True,
                             capped=capped, tol_km=tol_km)


@dataclass(frozen=True)
class ComparisonRow:
    protocol: str
    detector: str
    l_bc_km: float | None
    l_star_km: float
    l_ab_km: float
    positive_at_origin: bool
    capped: bool


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]


def at_geometry(params: ProtocolParams, geometry: str) -> ProtocolParams:
    """``params`` as ``geometry`` scans them: L_BC pinned to 0 for
    'most-asymmetric', unchanged for the others."""
    if geometry not in GEOMETRY_MODES:
        raise InvalidParameterError(f"unknown geometry {geometry!r}; pick one of {GEOMETRIES}")
    return replace(params, l_bc=0.0) if geometry == "most-asymmetric" else params


def compare_protocols(base: ProtocolParams, geometry: str = "most-asymmetric",
                      detectors: Iterable[str] = tuple(DETECTOR_PRESETS),
                      tol_km: float = 0.05) -> ComparisonTable:
    """Max-distance table over protocols x detector presets.

    Each row is ``max_distance`` in the mode ``GEOMETRY_MODES[geometry]``:
    'symmetric' scans d = L_AC = L_BC; 'most-asymmetric' scans L_AC at
    the L_BC = 0 of ``at_geometry``; 'asymmetric' scans L_AC at each L_BC
    in ASYMMETRIC_LBC_KM and keeps the best row per (protocol, detector): a
    row with key at the origin outranks one without, then the longer total
    wins, and the first row in ASYMMETRIC_LBC_KM order wins ties.  Every
    trial length of every row runs as ``max_distance`` runs it: the gain
    and noise of the last point that proved K* > 0, at that fixed gain,
    then K with the gain searched (at chi_n = 0 for the modified protocol),
    then for the modified protocol the slope D of the limit chi_n -> inf
    with the gain searched, stopping at the first that is positive, each
    gain search by Brent's method as in ``max_distance``.  Within a
    row, every search at a trial length shares the relay coefficients and
    each gain's gain-only half of the kernel through that row's
    ``max_distance`` memo; rows share nothing, not even where their
    channels coincide.  Every detector name is checked before any search
    runs.
    """
    base = at_geometry(base, geometry)
    mode = GEOMETRY_MODES[geometry]
    detectors = tuple(detectors)
    for det in detectors:
        if det not in DETECTOR_PRESETS:
            raise InvalidParameterError(f"unknown detector preset {det!r}")
    lbcs = ASYMMETRIC_LBC_KM if geometry == "asymmetric" else (base.l_bc,)
    rows = []
    for protocol in ("coherent", "squeezed", "squeezed-modified"):
        for det in detectors:
            eta, v_el = DETECTOR_PRESETS[det]
            best = None
            for l_bc in lbcs:
                p = replace(base, protocol=protocol, eta=eta, v_el=v_el, l_bc=l_bc)
                res = max_distance(p, mode=mode, tol_km=tol_km)
                row = ComparisonRow(protocol, det, l_bc if mode == "fixed-lbc" else None,
                                    res.l_star_km, res.l_ab_km,
                                    res.positive_at_origin, res.capped)
                if best is None or ((row.positive_at_origin, row.l_ab_km)
                                    > (best.positive_at_origin, best.l_ab_km)):
                    best = row
            rows.append(best)
    return ComparisonTable(rows=tuple(rows))
