"""Independent reference computations shared by the test modules.

Everything here deliberately recomputes results through different routes
than the library's production paths: hand-derived scalar formulas for the
reduced two-mode state, and a fully unitary circuit that keeps every
environment and announcement-purification mode so that Holevo bounds can
be evaluated from the eavesdropper's side directly.  The same circuit is
also built in mpmath arithmetic, for variances at which the eavesdropper's
entropies cannot be taken in double precision.  The max-distance search is
redone on a plain bisection with the full search at every trial length (the
gain, and chi_n when it is optimised), and the chi_n optimisation as a grid
and a golden refinement in chi_n itself, rather than in
w = chi_n/(1 + chi_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from mpmath import mp, mpf

from cvmdi.matrix import (
    GaussianState,
    apply_beamsplitter,
    epr_state,
    linear_feedforward,
    partial_trace,
    symplectic_form,
    tensor,
)
from cvmdi import analysis
from cvmdi.analysis import SCAN_CAP_KM, SCAN_STEP_KM, MaxDistanceResult
from cvmdi.protocols import ProtocolParams, AddedNoiseParams, key_rate
from cvmdi.search import golden_section_max
from oracle import (
    extract_two_mode,
    heterodyne_condition,
    homodyne_condition,
    von_neumann_entropy,
)


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


def reference_abc(params: ProtocolParams, gain: float) -> tuple[float, float, float]:
    """Hand-derived closed forms for the reduced (a, b, c) of the circuit."""
    t1, t2 = params.t_1, params.t_2
    eta, vel = params.eta, params.v_el
    sa = math.sqrt(params.v_a ** 2 - 1.0)
    sb = math.sqrt(params.v_b ** 2 - 1.0)
    arm_a = params.v_a if t1 >= 1.0 else t1 * params.v_a + (1.0 - t1) + params.eps1
    arm_b = params.v_b if t2 >= 1.0 else t2 * params.v_b + (1.0 - t2) + params.eps2
    v_relay = eta * (arm_a + arm_b) / 2.0
    if eta < 1.0:
        v_relay += (1.0 - eta) + vel
    a = params.v_a
    b = params.v_b + gain * gain * v_relay - gain * math.sqrt(2.0 * eta * t2) * sb
    c = gain * math.sqrt(eta * t1 / 2.0) * sa
    return a, b, c


@dataclass
class FullCircuit:
    """Unitary-circuit oracle state with mode bookkeeping."""

    state: GaussianState
    alice: int
    bob: int            # B4 (plain) or B5 (with added noise)
    eve: list[int]      # channel modes, detector modes, announcement modes
    bob_aux: list[int]  # trusted noise modes N1, N3 (empty without noise)


def unitary_circuit(params: ProtocolParams, gain: float,
                    noise: tuple[float, float] | None = None) -> FullCircuit:
    """Build the whole protocol as a pure global state.

    Channels and detectors carry their EPR purifications, and the relay
    feedforward is completed to a symplectic transformation so that the
    publicly announced quadratures survive as explicit modes (they belong
    to the eavesdropper).  The reduced (alice, bob) state matches the
    production pipeline; entropies of the eve partition give the Holevo
    bounds without any purity shortcut.  ``noise`` is the trusted-noise
    beamsplitter (t_r, n_r) of ``cvmdi.matrix.build_mdi_state``.
    """
    state = tensor(epr_state(params.v_a), epr_state(params.v_b))
    idx = {"A3": 0, "A1": 1, "B3": 2, "B1": 3}
    eve: list[int] = []

    def add_epr(v):
        nonlocal state
        first = state.n_modes
        state = tensor(state, epr_state(v))
        return first, first + 1

    if params.t_1 < 1.0:
        w1 = 1.0 + params.eps1 / (1.0 - params.t_1)
        e_in, e_keep = add_epr(w1)
        state = apply_beamsplitter(state, idx["A1"], e_in, params.t_1)
        eve += [e_in, e_keep]
    if params.t_2 < 1.0:
        w2 = 1.0 + params.eps2 / (1.0 - params.t_2)
        e_in, e_keep = add_epr(w2)
        state = apply_beamsplitter(state, idx["B1"], e_in, params.t_2)
        eve += [e_in, e_keep]

    # relay: slot A1 <- (A1 - B1)/sqrt(2) = C, slot B1 <- (A1 + B1)/sqrt(2) = D
    state = apply_beamsplitter(state, idx["B1"], idx["A1"], 0.5)
    idx["C"], idx["D"] = idx.pop("A1"), idx.pop("B1")

    if params.eta < 1.0:
        anc = 1.0 + params.v_el / (1.0 - params.eta)
        for port in ("C", "D"):
            a_in, a_keep = add_epr(anc)
            state = apply_beamsplitter(state, idx[port], a_in, params.eta)
            eve += [a_in, a_keep]

    # symplectic completion of the feedforward as two QND sum gates, so the
    # announced quadratures survive as modes C', D' instead of being destroyed
    n = state.n_modes
    b3x, b3p = 2 * idx["B3"], 2 * idx["B3"] + 1
    cx, cp = 2 * idx["C"], 2 * idx["C"] + 1
    dx, dp = 2 * idx["D"], 2 * idx["D"] + 1
    s1 = np.eye(2 * n)
    s1[b3x, cx] = gain    # B4x = B3x + g Cx
    s1[cp, b3p] = -gain   # C'p = Cp - g B3p
    s2 = np.eye(2 * n)
    s2[b3p, dp] = gain    # B4p = B3p + g Dp
    s2[dx, b3x] = -gain   # D'x = Dx - g B4x
    s = s2 @ s1
    omega = symplectic_form(n)
    assert np.allclose(s @ omega @ s.T, omega), "feedforward completion not symplectic"
    state = linear_feedforward(state, s)
    idx["B4"] = idx.pop("B3")
    eve += [idx["C"], idx["D"]]

    bob_aux: list[int] = []
    bob = idx["B4"]
    if noise is not None and noise[0] < 1.0:
        t_r, n_r = noise
        n2, n1 = add_epr(n_r)
        state = apply_beamsplitter(state, idx["B4"], n2, t_r)
        bob_aux = [n1, n2]  # n2 slot now holds N3
    return FullCircuit(state=state, alice=idx["A3"], bob=bob, eve=eve, bob_aux=bob_aux)


def oracle_two_mode(circ: FullCircuit) -> tuple[float, float, float]:
    return extract_two_mode(partial_trace(circ.state, [circ.alice, circ.bob]))


def oracle_holevo(circ: FullCircuit, conditioning: str) -> float:
    """S(rho_E) - S(rho_E | Bob's measurement), from the eve partition."""
    s_e = von_neumann_entropy(partial_trace(circ.state, circ.eve))
    if conditioning == "homodyne":
        cond = homodyne_condition(circ.state, circ.bob, "x")
    else:
        cond = heterodyne_condition(circ.state, circ.bob)
    shifted = [m if m < circ.bob else m - 1 for m in circ.eve]
    s_e_cond = von_neumann_entropy(partial_trace(cond, shifted))
    return s_e - s_e_cond


def oracle_mutual_info_homodyne(a: float, b: float, c: float) -> float:
    return 0.5 * math.log2(a * b / (a * b - c * c))


# ------------------------------------------------------ high-precision oracle

@dataclass
class MpCircuit:
    """``unitary_circuit`` in mpmath: covariance entries are mpf at ``dps`` digits."""

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
    """``apply_beamsplitter``'s convention: out_i = sqrt(t) in_i + sqrt(1-t) in_j."""
    rt, rr = mp.sqrt(t), mp.sqrt(1 - t)
    rows = {}
    for q in (0, 1):
        a, b = 2 * mode_i + q, 2 * mode_j + q
        rows[a] = {a: rt, b: rr}
        rows[b] = {a: -rr, b: rt}
    return _mp_transform(cov, rows)


def mp_unitary_circuit(params: ProtocolParams, gain: float,
                       noise: tuple[float, float] | None = None, dps: int = 40) -> MpCircuit:
    """The circuit of ``unitary_circuit``, mode for mode, at ``dps`` digits.

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
        # the feedforward as the two QND sum gates of unitary_circuit
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
    """``oracle_holevo`` on an MpCircuit: S(rho_E) - S(rho_E | Bob's measurement)."""
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


def mp_oracle_mutual_info_homodyne(circ: MpCircuit) -> float:
    """I(A:B) in bits for homodyne on both sides, from the circuit's (a, b, c)."""
    with mp.workdps(circ.dps):
        ax, bx = 2 * circ.alice, 2 * circ.bob
        a, b, c = circ.cov[ax][ax], circ.cov[bx][bx], circ.cov[ax][bx]
        return float(mp.log(a * b / (a * b - c * c), 2) / 2)
