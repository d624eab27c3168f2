"""Independent reference computations shared by the test modules.

Everything here recomputes results through routes other than the
library's production paths.  The relay circuit is built once, in mpmath
arithmetic, as a pure global state that keeps every environment, detector
and announcement mode: its (alice, bob) block is the (a, b, c) reference
for the matrix route, and its eavesdropper partition gives the Holevo
bound from Eve's side directly, at variances where her entropies cannot
be taken in double precision.  The max-distance search is redone on a
plain bisection with the full search at every trial length (the gain,
and chi_n when it is optimised), and the chi_n optimisation as a grid and
a golden refinement in chi_n itself, rather than in w = chi_n/(1 + chi_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from mpmath import mp, mpf

from cvmdi import analysis
from cvmdi.analysis import SCAN_CAP_KM, SCAN_STEP_KM, MaxDistanceResult
from cvmdi.protocols import ProtocolParams, AddedNoiseParams, key_rate
from cvmdi.search import golden_section_max


def reference_optimize_added_noise(params: ProtocolParams) -> tuple[float, float]:
    """The chi_n optimisation as a plain search in chi_n itself: K on 11
    evenly spaced chi_n over [0, 50], then golden section over the cells
    around the best grid point, whether or not that point is a grid edge.
    It never looks past chi_n = 50.  No unimodality warning."""

    def objective(chi: float) -> float:
        return key_rate(params, AddedNoiseParams.from_chi_n(chi)).key_rate

    n = 11
    grid = [5.0 * i for i in range(n)]
    vals = [objective(x) for x in grid]
    best = max(range(n), key=vals.__getitem__)
    known = dict(zip(grid, vals))
    best_x, best_f = golden_section_max(
        lambda chi: known[chi] if chi in known else objective(chi),
        grid[max(best - 1, 0)], grid[min(best + 1, n - 1)], 1e-4)
    if vals[best] > best_f:
        best_x, best_f = grid[best], vals[best]
    return best_x, best_f


def bisect_edge(f, step: float, tol: float, cap: float) -> tuple[float, bool]:
    """Largest L with f(L) > 0 for non-increasing f with f(0) > 0, by plain
    bisection: f is tried at step, 2 step, 4 step, ..., with `cap` last,
    then the bracket is bisected until it is no wider than `tol` or its
    ends are adjacent floats.  Returns (edge, capped), capped True when
    f(cap) > 0.  ``search.positive_edge`` must give the same, bit for bit,
    for every non-increasing f."""
    lo, hi = 0.0, min(step, cap)
    while f(hi) > 0.0:
        if hi >= cap:
            return cap, True
        lo, hi = hi, min(2.0 * hi, cap)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, False


def reference_max_distance(params: ProtocolParams, geometry: str = "symmetric",
                           tol_km: float = 0.05,
                           cap_km: float = SCAN_CAP_KM) -> MaxDistanceResult:
    """``max_distance`` with the full search at every trial length, as it
    was before the warm starts, on a plain bisection (``bisect_edge``):
    ``key_rate`` with the gain searched for the plain protocols,
    ``optimize_added_noise`` for squeezed-modified.  Both are looked up in
    ``cvmdi.analysis`` at call time, so a test's substitute for them is
    used here too.  The geometry's scan is spelled here again:
    d = L_AC = L_BC for 'symmetric', L_AC at ``params.l_bc`` for
    'asymmetric' and at L_BC = 0 for 'most-asymmetric'."""
    l_bc = {"symmetric": None, "asymmetric": params.l_bc, "most-asymmetric": 0.0}[geometry]

    def k_of(length: float) -> float:
        p = replace(params, l_ac=length, l_bc=length if l_bc is None else l_bc)
        if p.protocol == "squeezed-modified":
            return analysis.optimize_added_noise(p)[1]
        return analysis.key_rate(p).key_rate

    if k_of(0.0) <= 0.0:
        return MaxDistanceResult(0.0, 0.0, l_bc, positive_at_origin=False, tol_km=tol_km)
    edge, capped = bisect_edge(k_of, SCAN_STEP_KM, tol_km, cap_km)
    l_ab = 2.0 * edge if l_bc is None else edge + l_bc
    return MaxDistanceResult(edge, l_ab, l_bc, positive_at_origin=True,
                             capped=capped, tol_km=tol_km)


def c_edge(a: float, b: float) -> float:
    """Largest c keeping the symmetric two-mode form physical (lambda2 >= 1).

    lambda2 = 1 where ab - c^2 = |a - b| + 1, so c^2 = (min - 1)(max + 1):
    a factored form, in which nothing cancels.
    """
    lo, hi = min(a, b), max(a, b)
    return math.sqrt(max((lo - 1.0) * (hi + 1.0), 0.0))


# ------------------------------------------------------ high-precision oracle

@dataclass
class MpCircuit:
    """The relay circuit as a pure global state: covariance entries are mpf
    at ``dps`` digits.  ``eve`` holds the channel, detector and announcement
    modes; Bob's trusted-noise modes, when present, are not among them."""

    cov: list[list]
    alice: int
    bob: int
    eve: list[int]
    dps: int


def _mp_epr(v) -> list[list]:
    s = mp.sqrt(v * v - 1)
    return [[v, 0, s, 0], [0, v, 0, -s], [s, 0, v, 0], [0, -s, 0, v]]


def _mp_append(cov: list[list], block: list[list]) -> tuple[int, int]:
    """Append a two-mode block in place; returns its mode indices."""
    n = len(cov)
    for row in cov:
        row.extend([mpf(0)] * len(block))
    for brow in block:
        cov.append([mpf(0)] * n + [mpf(x) for x in brow])
    return n // 2, n // 2 + 1


def _mp_transform(cov: list[list], rows: dict[int, dict[int, object]]) -> list[list]:
    """S cov S^T for S the identity except the rows {i: {j: S_ij}}."""
    n = len(cov)
    left = [list(r) for r in cov]
    for i, coeffs in rows.items():
        left[i] = [mp.fsum(s * cov[j][k] for j, s in coeffs.items()) for k in range(n)]
    out = [list(r) for r in left]
    for k in range(n):
        for i, coeffs in rows.items():
            out[k][i] = mp.fsum(s * left[k][j] for j, s in coeffs.items())
    return out


def _mp_beamsplitter(cov: list[list], mode_i: int, mode_j: int, t) -> list[list]:
    """The convention of ``cvmdi.matrix.apply_beamsplitter``:
    out_i = sqrt(t) in_i + sqrt(1-t) in_j."""
    rt, rr = mp.sqrt(t), mp.sqrt(1 - t)
    rows = {}
    for q in (0, 1):
        a, b = 2 * mode_i + q, 2 * mode_j + q
        rows[a] = {a: rt, b: rr}
        rows[b] = {a: -rr, b: rt}
    return _mp_transform(cov, rows)


def mp_unitary_circuit(params: ProtocolParams, gain: float,
                       noise: tuple[float, float] | None = None, dps: int = 40) -> MpCircuit:
    """The whole protocol as a pure global state, at ``dps`` digits.

    Channels and detectors carry their EPR purifications, and the relay
    feedforward is completed to a symplectic transformation, so that the
    publicly announced quadratures survive as explicit modes (they belong
    to the eavesdropper).  The reduced (alice, bob) state matches the
    production pipeline; entropies of the eve partition give the Holevo
    bounds without any purity shortcut.  ``noise`` is the trusted-noise
    beamsplitter (t_r, n_r) that ``build_mdi_state`` takes.

    Inputs are taken exactly from their floats and the transmittances
    10^(-alpha L / 10) are computed at full precision, so the result is the
    model's value at these inputs, not a rounding of the float pipeline.
    """
    with mp.workdps(dps):
        cov: list[list] = []
        _mp_append(cov, _mp_epr(mpf(params.v_a)))
        _mp_append(cov, _mp_epr(mpf(params.v_b)))
        a3, a1, b3, b1 = 0, 1, 2, 3
        eve: list[int] = []
        for port, length, eps in ((a1, params.l_ac, params.eps1),
                                  (b1, params.l_bc, params.eps2)):
            t = mp.power(10, -mpf(params.alpha) * mpf(length) / 10)
            if t < 1:
                e_in, e_keep = _mp_append(cov, _mp_epr(1 + mpf(eps) / (1 - t)))
                cov = _mp_beamsplitter(cov, port, e_in, t)
                eve += [e_in, e_keep]
        # relay: slot A1 <- C = (A1 - B1)/sqrt(2), slot B1 <- D = (A1 + B1)/sqrt(2)
        cov = _mp_beamsplitter(cov, b1, a1, mpf(1) / 2)
        c, d = a1, b1
        eta = mpf(params.eta)
        if eta < 1:
            anc = 1 + mpf(params.v_el) / (1 - eta)
            for port in (c, d):
                a_in, a_keep = _mp_append(cov, _mp_epr(anc))
                cov = _mp_beamsplitter(cov, port, a_in, eta)
                eve += [a_in, a_keep]
        # the feedforward completed as two QND sum gates, so that the announced
        # quadratures survive as modes C', D': B4x = B3x + g Cx, C'p = Cp - g B3p,
        # then B4p = B3p + g Dp, D'x = Dx - g B4x
        g = mpf(gain)
        bx, bp, cx, cp, dx, dp = 2 * b3, 2 * b3 + 1, 2 * c, 2 * c + 1, 2 * d, 2 * d + 1
        cov = _mp_transform(cov, {bx: {bx: 1, cx: g}, cp: {cp: 1, bp: -g}})
        cov = _mp_transform(cov, {bp: {bp: 1, dp: g}, dx: {dx: 1, bx: -g}})
        eve += [c, d]
        if noise is not None and noise[0] < 1.0:
            t_r, n_r = noise
            n2, _ = _mp_append(cov, _mp_epr(mpf(n_r)))
            cov = _mp_beamsplitter(cov, b3, n2, mpf(t_r))
    return MpCircuit(cov=cov, alice=a3, bob=b3, eve=eve, dps=dps)


def mp_g(x):
    """The entropy in bits of a thermal mode of mean photon number x, in
    mpmath at the working precision: g(x) = (x + 1) log2(x + 1) - x log2 x,
    0 at x <= 0 (the vacuum, or a symplectic eigenvalue rounded below 1)."""
    x = mpf(x)
    return (x + 1) * mp.log(x + 1, 2) - x * mp.log(x, 2) if x > 0 else mpf(0)


def _mp_entropy(cov: list[list], modes: list[int]):
    """Von Neumann entropy in bits from the symplectic spectrum of the modes' block.

    The spectrum is that of K^T K with K = L^T Omega L (L the Cholesky
    factor): each lambda^2 appears twice.
    """
    idx = [2 * m + q for m in modes for q in (0, 1)]
    n = len(idx)
    omega = mp.zeros(n, n)
    for k in range(0, n, 2):
        omega[k, k + 1], omega[k + 1, k] = 1, -1
    chol = mp.cholesky(mp.matrix([[cov[i][j] for j in idx] for i in idx]))
    k = chol.T * omega * chol
    lams = sorted(mp.sqrt(abs(e)) for e in mp.eigsy(k.T * k, eigvals_only=True))[::2]
    return sum((mp_g((lam - 1) / 2) for lam in lams), mpf(0))


def mp_oracle_holevo(circ: MpCircuit, conditioning: str) -> float:
    """S(rho_E) - S(rho_E | Bob's measurement), from the eve partition."""
    with mp.workdps(circ.dps):
        cov = circ.cov
        bx, bp = 2 * circ.bob, 2 * circ.bob + 1
        if conditioning == "homodyne":
            inv = {(bx, bx): 1 / cov[bx][bx]}
        else:
            m00, m01, m11 = cov[bx][bx] + 1, cov[bx][bp], cov[bp][bp] + 1
            det = m00 * m11 - m01 * m01
            inv = {(bx, bx): m11 / det, (bx, bp): -m01 / det,
                   (bp, bx): -m01 / det, (bp, bp): m00 / det}
        # Eve's modes never include Bob's, so conditioning is a Schur complement
        n = len(cov)
        cond = [[cov[i][j] - mp.fsum(cov[i][r] * w * cov[s][j] for (r, s), w in inv.items())
                 for j in range(n)] for i in range(n)]
        return float(_mp_entropy(cov, circ.eve) - _mp_entropy(cond, circ.eve))


def mp_two_mode(circ: MpCircuit) -> tuple:
    """(a, b, c) of the (alice, bob) pair, as mpf at the circuit's precision."""
    ax, bx = 2 * circ.alice, 2 * circ.bob
    return circ.cov[ax][ax], circ.cov[bx][bx], circ.cov[ax][bx]


def mp_oracle_mutual_info_homodyne(circ: MpCircuit) -> float:
    """I(A:B) in bits for homodyne on both sides, from the circuit's (a, b, c)."""
    with mp.workdps(circ.dps):
        a, b, c = mp_two_mode(circ)
        return float(mp.log(a * b / (a * b - c * c), 2) / 2)
