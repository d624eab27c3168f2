"""Multimode Gaussian-state algebra in shot-noise units: the matrix route.

States are covariance matrices with quadratures interleaved as
(x1, p1, x2, p2, ...) and vacuum variance 1.  All operations are pure:
they return new states and never mutate inputs.

No key-rate path runs this module, and ``import cvmdi`` does not load it
(nor, with it, numpy).  It is the oracle the tests check the scalar kernel
against: ``build_mdi_state`` assembles the whole entanglement-based circuit
of ``protocols`` as covariance matrices, with its four-mode (A3, B5, N1, N3)
form for a trusted-noise beamsplitter (t_r, n_r), and
``symplectic_eigenvalues`` certifies it.  The benchmark's tracer
(``bench/tracer.py``) reads both names off ``cvmdi.protocols``, whose
module ``__getattr__`` loads them from here.
Conditioning, entropies and the two-mode matrix form, which only tests
run, live in ``tests/oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidParameterError, NumericDomainError
from .gaussian import PHYSICALITY_TOL
from .protocols import ProtocolParams

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class GaussianState:
    """Covariance matrix of an n-mode Gaussian state.

    The matrix is copied to float64, must be symmetric to SYMMETRY_RTOL
    relative to its largest entry, and is stored symmetrised as
    ``0.5 * (M + M^T)``, read-only.
    """

    cov: np.ndarray

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
            raise InvalidParameterError(
                f"covariance must be a square 2n x 2n matrix, got {cov.shape}")
        scale = max(1.0, float(np.abs(cov).max(initial=0.0)))
        if float(np.abs(cov - cov.T).max(initial=0.0)) > SYMMETRY_RTOL * scale:
            raise InvalidParameterError("covariance matrix is not symmetric")
        cov = 0.5 * (cov + cov.T)
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2

    def require_physical(self, context: str = "") -> "GaussianState":
        """Raise unless every symplectic eigenvalue is >= 1 - PHYSICALITY_TOL.

        The tolerance widens to 64 eps per unit of covariance magnitude,
        since eigenvalues of a matrix with entries of size s cannot be
        certified more tightly than O(eps * s) in double precision.
        """
        if self.n_modes == 0:
            return self
        scale = max(1.0, float(np.abs(self.cov).max()))
        eff = max(PHYSICALITY_TOL, 64.0 * np.finfo(float).eps * scale)
        lam_min = float(symplectic_eigenvalues(self)[-1])
        if lam_min < 1.0 - eff:
            where = f" at stage '{context}'" if context else ""
            raise NumericDomainError(
                f"unphysical covariance{where}: min symplectic eigenvalue {lam_min!r}")
        return self


def thermal_state(v: float) -> GaussianState:
    """Single thermal mode of quadrature variance v >= 1: the covariance v I."""
    if v < 1.0:
        raise InvalidParameterError(f"thermal variance must be >= 1, got {v}")
    return GaussianState(np.diag((v, v)))


def epr_state(v: float) -> GaussianState:
    """Two-mode squeezed vacuum with marginal variance v >= 1.

    Covariance [[v I, s sz], [s sz, v I]] with s = sqrt(v^2 - 1): x
    quadratures correlated +s, p quadratures -s.  Raises NumericDomainError
    when v^2 - 1 is not finite (v^2 overflows).
    """
    if v < 1.0:
        raise InvalidParameterError(f"EPR variance must be >= 1, got {v}")
    s_sq = v * v - 1.0
    if not s_sq < math.inf:
        raise NumericDomainError(f"EPR variance {v}: v^2 - 1 = {s_sq} is not finite")
    vi = v * np.eye(2)
    ssz = math.sqrt(s_sq) * np.diag((1.0, -1.0))
    return GaussianState(np.block([[vi, ssz], [ssz, vi]]))


def tensor(state_a: GaussianState, state_b: GaussianState) -> GaussianState:
    """Product state; modes of state_b are appended after state_a's."""
    na, nb = state_a.cov.shape[0], state_b.cov.shape[0]
    cov = np.zeros((na + nb, na + nb))
    cov[:na, :na] = state_a.cov
    cov[na:, na:] = state_b.cov
    return GaussianState(cov)


def _quad_indices(modes: Iterable[int]) -> list[int]:
    out = []
    for m in modes:
        out.extend((2 * m, 2 * m + 1))
    return out


def partial_trace(state: GaussianState, keep: Sequence[int]) -> GaussianState:
    """Reduced state over the listed modes, in the requested order: the
    covariance rows and columns of their quadratures, gathered with
    ``np.ix_``."""
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise InvalidParameterError(f"duplicate mode indices in {keep}")
    for m in keep:
        if not 0 <= m < state.n_modes:
            raise InvalidParameterError(f"mode index {m} out of range for {state.n_modes} modes")
    idx = _quad_indices(keep)
    return GaussianState(state.cov[np.ix_(idx, idx)])


def apply_beamsplitter(state: GaussianState, mode_i: int, mode_j: int,
                       transmissivity: float) -> GaussianState:
    """Mix modes i and j on a beamsplitter of transmissivity T.

    Convention: out_i = sqrt(T) in_i + sqrt(1-T) in_j,
                out_j = -sqrt(1-T) in_i + sqrt(T) in_j.
    """
    t = transmissivity
    if not 0.0 <= t <= 1.0:
        raise InvalidParameterError(f"transmissivity must be in [0, 1], got {t}")
    if mode_i == mode_j:
        raise InvalidParameterError("beamsplitter needs two distinct modes")
    for m in (mode_i, mode_j):
        if not 0 <= m < state.n_modes:
            raise InvalidParameterError(f"mode index {m} out of range for {state.n_modes} modes")
    s = np.eye(2 * state.n_modes)
    rt, rr = math.sqrt(t), math.sqrt(1.0 - t)
    ii, jj = 2 * mode_i, 2 * mode_j
    for q in (0, 1):
        s[ii + q, ii + q] = rt
        s[ii + q, jj + q] = rr
        s[jj + q, ii + q] = -rr
        s[jj + q, jj + q] = rt
    return GaussianState(s @ state.cov @ s.T)


def linear_feedforward(state: GaussianState, qmap: np.ndarray) -> GaussianState:
    """Apply a rectangular quadrature map: cov -> M cov M^T.

    Models deterministic classical feedforward of destructively measured
    commuting quadratures: output rows select the kept quadratures plus
    the displaced ones, and measured modes are dropped by omission.
    """
    m = np.asarray(qmap, dtype=float)
    if m.ndim != 2 or m.shape[1] != state.cov.shape[0] or m.shape[0] % 2:
        raise InvalidParameterError(
            f"quadrature map shape {m.shape} incompatible with state of size {state.cov.shape[0]}")
    return GaussianState(m @ state.cov @ m.T)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for interleaved quadrature ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """Symplectic spectrum, sorted descending; length n.

    Mathematically these are the moduli of the eigenvalues of Omega*cov,
    deduplicated from +/- pairs.  For positive-definite covariances they
    are computed from the Hermitian matrix i L^T Omega L (L the Cholesky
    factor), which keeps absolute errors near eps*||cov|| even when the
    spectrum is degenerate; the direct Omega*cov eigendecomposition loses
    several digits there.  Singular covariances fall back to the direct
    route.
    """
    n = state.n_modes
    if n == 0:
        return np.zeros(0)
    omega = symplectic_form(n)
    try:
        chol = np.linalg.cholesky(state.cov)
    except np.linalg.LinAlgError:
        chol = None
    if chol is not None:
        herm = 1j * (chol.T @ omega @ chol)
        try:
            w = np.linalg.eigvalsh(herm)
        except np.linalg.LinAlgError as exc:
            raise NumericDomainError(
                f"eigendecomposition failed for covariance {state.cov!r}") from exc
        lams = w[n:][::-1].copy()  # positive half of the +/- symmetric spectrum
        return lams
    try:
        w = np.linalg.eigvals(omega @ state.cov)
    except np.linalg.LinAlgError as exc:
        raise NumericDomainError(
            f"eigendecomposition failed for covariance {state.cov!r}") from exc
    mods = np.sort(np.abs(w))[::-1]
    return mods[::2].copy()  # +/- pairs are adjacent after sorting


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

    It reads only the channel: v_a, v_b, l_ac, l_bc, alpha, eps1, eps2, eta
    and v_el.  ``protocols._gain_coefficients`` computes the entries of it
    that the x side of the displaced pair reads, in scalar arithmetic.
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


def build_mdi_state(params: ProtocolParams, noise: tuple[float, float] | None = None,
                    gain: float | None = None) -> GaussianState:
    """Assemble and validate the kept-mode state of the full EB circuit.

    Returns (A3, B4) for the plain circuit, or (A3, B5, N1, N3) when
    ``noise`` is a trusted-noise beamsplitter (t_r, n_r): half of an EPR
    pair of variance n_r mixed into B4 at transmissivity t_r, which adds
    chi_n = (1 - t_r) n_r / t_r.  It needs t_r in (0, 1] and n_r finite and
    >= 1.  ``gain`` overrides ``params.gain``; one of the two must be set.
    """
    g = gain if gain is not None else params.gain
    if g is None:
        raise InvalidParameterError(
            "build_mdi_state needs a concrete gain; optimize it with optimal_gain first")
    if g < 0.0:
        raise InvalidParameterError(f"gain must be >= 0, got {g}")
    if noise is not None:
        t_r, n_r = noise
        if not 0.0 < t_r <= 1.0:
            raise InvalidParameterError(f"t_r must be in (0, 1], got {t_r}")
        if not 1.0 <= n_r < math.inf:
            raise InvalidParameterError(f"n_r must be finite and >= 1, got {n_r}")
    state = _displaced_pair(params, g)
    state.require_physical(context="feedforward")
    if noise is None:
        return state
    state = tensor(state, epr_state(n_r))         # (A3, B4, N2, N1)
    state = apply_beamsplitter(state, 1, 2, t_r)  # slot1 <- B5, slot2 <- N3
    state = partial_trace(state, [0, 1, 3, 2])    # (A3, B5, N1, N3)
    return state.require_physical(context="added-noise")
