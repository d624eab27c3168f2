"""Figure-level computations: parameter sweeps, maximal transmission
distances, added-noise optimization, and protocol comparison tables.

The squeezed-modified protocol given no added noise has its chi_n
optimised, per point (``key_rate_at_best_noise``) or per trial length
(``max_distance``).  ``optimize_added_noise`` grids chi_n, then refines
around the best grid point; an optimum at a bracket edge costs one probe
instead of a refinement.

``max_distance`` reads only the sign of K at each trial length, so a trial
stops at the first evaluated point with K > 0.  It tries, in order: the
gain and noise of the last such point (one evaluation at a fixed gain);
then, for the modified protocol, the last chi_n* with the gain searched,
starting from chi_n = 0 at length 0; then the full search.

The paper's three geometries are the keys of ``GEOMETRY_MODES``, which maps
each to the ``max_distance`` mode that scans it; ``at_geometry`` pins
L_BC = 0 for 'most-asymmetric'.  The CLI reads both from here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable

from .errors import CVMDIError, InvalidParameterError, NumericDomainError, StructuralError
from .protocols import (
    AddedNoiseParams,
    KeyRateReport,
    ProtocolParams,
    check_added_noise,
    key_rate,
)
from .search import golden_section_max, positive_edge

SWEEP_VARIABLES = ("distance-symmetric", "lac-with-fixed-lbc", "chi-n")
# Geometry -> max_distance mode; 'most-asymmetric' scans at L_BC = 0 (at_geometry).
GEOMETRY_MODES = {"symmetric": "symmetric", "asymmetric": "fixed-lbc",
                  "most-asymmetric": "fixed-lbc"}
GEOMETRIES = tuple(GEOMETRY_MODES)

CHI_N_BRACKET = (0.0, 50.0)
CHI_N_TOL = 1e-4
CHI_N_GRID_POINTS = 11

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
    no noise, at the chi_n* of ``optimize_added_noise``."""
    if _optimizes_noise(params, noise):
        chi_star, _ = optimize_added_noise(params)
        noise = AddedNoiseParams.from_chi_n(chi_star)
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


def optimize_added_noise(params: ProtocolParams) -> tuple[float, float]:
    """Best trusted added noise at this geometry: returns (chi_n*, K*).

    K is first evaluated on a grid of CHI_N_GRID_POINTS evenly spaced
    chi_n over CHI_N_BRACKET.  Golden section then refines to CHI_N_TOL only
    inside the two grid cells around the best grid point (one cell at a
    bracket edge), reusing the two grid values that bound them; the result
    is the better of that refinement and the best grid point.  A grid with
    more than one strict local maximum means the profile is not unimodal,
    and a RuntimeWarning says so.  chi_n* = 0 is a legal boundary optimum.

    A best grid point at a bracket edge is first certified with one probe,
    CHI_N_TOL inside that edge: if K there is not above the edge value, the
    edge is returned as it stands, without refinement.  This rests on the
    unimodality golden section already assumes: a profile that does not rise
    one tolerance inside the edge peaks within CHI_N_TOL of it, which is the
    accuracy the refinement promises.  Only a probe that rises runs it.  A
    peak that close to the edge can still lie above the edge value, so K*
    may be lower than a refinement landing nearer that peak would report.

    The bracket caps chi_n*, and the cap often binds: an edge is the
    optimum at most random points.  At V = 5.04, L_AC = 13.875 km,
    L_BC = 0 with the practical detector, K(chi_n = 100) = +2.2e-6 while
    K(50) = -9.7e-7, so the modified row of a max-distance table gives the
    reach with chi_n <= 50, which can be shorter than the protocol's.
    """
    if params.protocol != "squeezed-modified":
        raise InvalidParameterError("added-noise optimization needs protocol 'squeezed-modified'")

    def objective(chi: float) -> float:
        return key_rate(params, AddedNoiseParams.from_chi_n(chi)).key_rate

    lo, hi = CHI_N_BRACKET
    n = CHI_N_GRID_POINTS
    step = (hi - lo) / (n - 1)
    grid = [lo + i * step for i in range(n)]
    vals = [objective(x) for x in grid]
    best = max(range(n), key=vals.__getitem__)
    peaks = [grid[i] for i in range(n)
             if (i == 0 or vals[i] > vals[i - 1]) and (i == n - 1 or vals[i] > vals[i + 1])]
    if len(peaks) > 1:
        warnings.warn(
            f"added-noise profile not unimodal: grid maxima at chi_n={peaks}; "
            f"best grid point chi_n={grid[best]}", RuntimeWarning)
    if best in (0, n - 1):
        inside = grid[best] + (CHI_N_TOL if best == 0 else -CHI_N_TOL)
        if not objective(inside) > vals[best]:
            return grid[best], vals[best]
    known = dict(zip(grid, vals))
    sub_lo, sub_hi = grid[max(best - 1, 0)], grid[min(best + 1, n - 1)]
    best_x, best_f = golden_section_max(
        lambda chi: known[chi] if chi in known else objective(chi), sub_lo, sub_hi, CHI_N_TOL)
    if vals[best] > best_f:
        best_x, best_f = grid[best], vals[best]
    return best_x, best_f


@dataclass(frozen=True)
class MaxDistanceResult:
    l_star_km: float
    l_ab_km: float
    mode: str
    positive_at_origin: bool
    capped: bool = False
    tol_km: float = 0.05


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

    The search reads only the sign of K*(L), the maximum of K over the
    gain (and over chi_n when it is optimised).  Any evaluated point with
    K > 0 proves K*(L) > 0, so each trial stops at the first one:

    1. the witness: the gain and noise of the last evaluated point with
       K > 0, at this length and that fixed gain (one kernel evaluation);
    2. for the optimised modified protocol, the chi_n* of the last full
       optimisation (chi_n = 0, the squeezed protocol, before the first),
       with the gain searched;
    3. the full search: ``key_rate`` with the gain searched, or
       ``optimize_added_noise`` when chi_n is optimised.

    A step that gives K > 0 returns it, and a point of known gain becomes
    the witness.  A witness that raises NumericDomainError or
    StructuralError counts as K <= 0, so only the searches of steps 2 and 3
    can raise.  A positive trial thus stands on a point actually evaluated
    and a non-positive one on the full search, as without steps 1 and 2.
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

    witness = None  # (gain, noise) of the last evaluated point with K > 0
    chi_last = CHI_N_BRACKET[0]  # chi_n* of the last full optimisation

    def k_of(length: float) -> float:
        nonlocal witness, chi_last
        p = geometry(length)
        if witness is not None:
            gain, witness_noise = witness
            try:
                k = key_rate(replace(p, gain=gain), witness_noise).key_rate
            except (NumericDomainError, StructuralError):
                k = 0.0
            if k > 0.0:
                return k
        trial_noise = AddedNoiseParams.from_chi_n(chi_last) if optimize_noise else noise
        report = key_rate(p, trial_noise)
        if report.key_rate > 0.0:
            witness = report.gain_used, trial_noise
            return report.key_rate
        if not optimize_noise:
            return report.key_rate
        chi_last, k = optimize_added_noise(p)
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
    trial length of every row runs as ``max_distance`` runs it: the last
    positive point's gain and noise at a fixed gain, then (modified
    protocol) the last chi_n* with the gain searched, from chi_n = 0 at
    length 0, then the full search, stopping at the first K > 0.  The rows
    share relay assemblies where their channels coincide: the squeezed and
    modified rows at a common length, whatever the gain.  Every detector
    name is checked before any search runs.
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
