"""Multimode Gaussian-state algebra in shot-noise units.

States are covariance matrices with quadratures interleaved as
(x1, p1, x2, p2, ...) and vacuum variance 1.  All operations are pure:
they return new states and never mutate inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidParameterError, NumericDomainError

LN2 = math.log(2.0)

_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-9

# Veltkamp's splitter for 53-bit doubles, 2^27 + 1.
_SPLIT = 134217729.0
# two_mode_symplectic rescales inputs of magnitude 2^500 and above by 2^-600,
# which keeps every product and split of ``_two_product`` in range.
_HUGE, _DOWN, _UP = 2.0 ** 500, 2.0 ** -600, 2.0 ** 600


@dataclass(frozen=True)
class GaussianState:
    """Covariance matrix of an n-mode Gaussian state.

    The matrix is copied to float64 and made read-only.  A copy whose bytes
    equal its transpose's is stored as given: ``0.5 * (M + M^T)`` returns
    such a matrix unchanged, bit for bit, except that an entry above
    2^1023 would double into inf, and that entry is kept as given instead.
    Any other matrix, one with a mirrored (-0.0, +0.0) pair included, must
    be symmetric to SYMMETRY_RTOL relative to its largest entry and is
    stored symmetrised as ``0.5 * (M + M^T)``.
    """

    cov: np.ndarray

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
            raise InvalidParameterError(
                f"covariance must be a square 2n x 2n matrix, got {cov.shape}")
        # a byte compare is four times cheaper than (cov == cov.T).all()
        if cov.tobytes() != cov.T.tobytes():
            scale = max(1.0, float(np.abs(cov).max()))
            if float(np.abs(cov - cov.T).max()) > SYMMETRY_RTOL * scale:
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


def vacuum_state(n_modes: int = 1) -> GaussianState:
    return GaussianState(np.eye(2 * n_modes))


def thermal_state(v: float) -> GaussianState:
    """Single thermal mode of quadrature variance v >= 1: the covariance v I,
    the same bytes as ``v * np.eye(2)`` for finite v."""
    if v < 1.0:
        raise InvalidParameterError(f"thermal variance must be >= 1, got {v}")
    cov = np.zeros((2, 2))
    cov[0, 0] = cov[1, 1] = v
    return GaussianState(cov)


def epr_state(v: float) -> GaussianState:
    """Two-mode squeezed vacuum with marginal variance v >= 1.

    Covariance [[v I, s sz], [s sz, v I]] with s = sqrt(v^2 - 1): x
    quadratures correlated +s, p quadratures -s.  The entries are written
    into zeros, the same bytes as the ``np.block`` of those four blocks.
    Raises NumericDomainError when v^2 - 1 is not finite (v^2 overflows).
    """
    if v < 1.0:
        raise InvalidParameterError(f"EPR variance must be >= 1, got {v}")
    s_sq = v * v - 1.0
    if not s_sq < math.inf:
        raise NumericDomainError(f"EPR variance {v}: v^2 - 1 = {s_sq} is not finite")
    s = math.sqrt(s_sq)
    cov = np.zeros((4, 4))
    cov[0, 0] = cov[1, 1] = cov[2, 2] = cov[3, 3] = v
    cov[0, 2] = cov[2, 0] = s
    cov[1, 3] = cov[3, 1] = -s
    return GaussianState(cov)


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
    """Reduced state over the listed modes, in the requested order.

    Keeping the first k modes in order is a slice of the covariance; any
    other selection is gathered with ``np.ix_``.  Both give the same bytes.
    """
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise InvalidParameterError(f"duplicate mode indices in {keep}")
    for m in keep:
        if not 0 <= m < state.n_modes:
            raise InvalidParameterError(f"mode index {m} out of range for {state.n_modes} modes")
    if keep == list(range(len(keep))):
        return GaussianState(state.cov[:2 * len(keep), :2 * len(keep)])
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


def _split_measured(state: GaussianState, mode: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if state.n_modes < 2:
        raise InvalidParameterError("conditioning needs at least two modes")
    if not 0 <= mode < state.n_modes:
        raise InvalidParameterError(f"mode index {mode} out of range for {state.n_modes} modes")
    kept_modes = [m for m in range(state.n_modes) if m != mode]
    ki = _quad_indices(kept_modes)
    mi = [2 * mode, 2 * mode + 1]
    gamma_k = state.cov[np.ix_(ki, ki)]
    gamma_m = state.cov[np.ix_(mi, mi)]
    sigma = state.cov[np.ix_(mi, ki)]  # measured x kept cross block
    return gamma_k, gamma_m, sigma


def homodyne_condition(state: GaussianState, mode: int, quadrature: str = "x") -> GaussianState:
    """Conditional state of the other modes after a homodyne measurement.

    Schur complement with the Moore-Penrose pseudo-inverse of X gamma X
    (X the single-quadrature projector), which reduces to dividing by the
    measured quadrature's variance.  The result is outcome-independent.
    """
    if quadrature not in ("x", "p"):
        raise InvalidParameterError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    gamma_k, gamma_m, sigma = _split_measured(state, mode)
    q = 0 if quadrature == "x" else 1
    var = gamma_m[q, q]
    if var <= 0.0:
        raise NumericDomainError(f"measured quadrature variance {var} is not positive")
    row = sigma[q]
    return GaussianState(gamma_k - np.outer(row, row) / var)


def heterodyne_condition(state: GaussianState, mode: int) -> GaussianState:
    """Conditional state after heterodyne: gamma_k - sigma^T (gamma_m + I)^-1 sigma."""
    gamma_k, gamma_m, sigma = _split_measured(state, mode)
    b = gamma_m + np.eye(2)
    det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    if det <= 0.0:
        raise NumericDomainError("heterodyne conditioning matrix is singular")
    binv = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]]) / det
    return GaussianState(gamma_k - sigma.T @ binv @ sigma)


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


def check_two_mode(a: float, b: float, c: float) -> None:
    """Raise unless a, b >= 1 and ab - c^2 >= 1 - PHYSICALITY_TOL: the validity
    of the symmetric two-mode form, shared by ``TwoModeCov`` and the scalar
    key-rate kernel, which works on the floats (a, b, c).  Both tests are
    written so that NaN fails them."""
    if not (a >= 1.0 and b >= 1.0):
        raise InvalidParameterError(f"mode variances must be >= 1, got a={a}, b={b}")
    if not a * b - c * c >= 1.0 - PHYSICALITY_TOL:
        raise InvalidParameterError(f"unphysical two-mode form: ab - c^2 = {a * b - c ** 2}")


@dataclass(frozen=True)
class TwoModeCov:
    """Reduced symmetric two-mode form [[a I, c sz], [c sz, b I]]."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        check_two_mode(self.a, self.b, self.c)

    def as_matrix(self) -> np.ndarray:
        return np.block([
            [self.a * np.eye(2), self.c * _SIGMA_Z],
            [self.c * _SIGMA_Z, self.b * np.eye(2)],
        ])

    def as_state(self) -> GaussianState:
        return GaussianState(self.as_matrix())


def _two_product(x: float, y: float) -> tuple[float, float]:
    """(p, e) with p = fl(x y) and p + e = x y exactly: Dekker's product of
    Veltkamp-split halves (Numer. Math. 18, 224, 1971).  Error-free while
    nothing overflows or underflows, so for |x| and |y| in [2^-400, 2^400]."""
    p = x * y
    t = _SPLIT * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    t = _SPLIT * y
    y_hi = t - (t - y)
    y_lo = y - y_hi
    return p, ((x_hi * y_hi - p) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo


def two_mode_symplectic(a: float, b: float, c: float) -> tuple[float, float]:
    """Symplectic eigenvalue pair of the symmetric two-mode form, in doubles.

    lambda1,2 = (s +/- d) / 2 with d = |a - b|, B = ab - c^2 and
    s = sqrt((a + b)^2 - 4c^2) = hypot(d, 2 sqrt(B)); the smaller root is
    taken as lambda2 = B / lambda1, from the root product, so no difference
    cancels.  B is the one quantity that can: it comes from two error-free
    products, ab = p + e and c^2 = q + f, as (p - q) + (e - f), where p - q
    is exact by Sterbenz's lemma whenever c^2 is near ab.  So B is within
    an ulp, and the pair within a few: against 50-digit arithmetic, with a
    and b up to 1e7 and c at the physical edge, lambda1 came within 1.5 ulp
    and lambda2 within 3 ulp on 3,000 seeded points.

    Inputs of magnitude 2^500 and above are scaled by 2^-600 and the pair
    scaled back: powers of two are exact, and the products stay in range,
    so no input the pair fits in overflows on the way.  A NaN or infinite
    input makes B NaN, which fails ``B > 0``; an unphysical input fails
    ``B > 0`` or ``lambda2 >= 1 - 1e-6``.  Both raise NumericDomainError
    with the failing value in the message.
    """
    x, y, z, scale = a, b, c, 1.0
    if max(abs(a), abs(b), abs(c)) >= _HUGE:
        x, y, z, scale = a * _DOWN, b * _DOWN, c * _DOWN, _UP
    p, e = _two_product(x, y)
    q, f = _two_product(z, z)
    big_b = (p - q) + (e - f)
    if not big_b > 0.0:
        raise NumericDomainError(
            f"unphysical two-mode input (a={a}, b={b}, c={c}): "
            f"ab - c^2 = {big_b * scale * scale}")
    d = abs(x - y)
    lam1 = 0.5 * (math.hypot(d, 2.0 * math.sqrt(big_b)) + d)
    lam2 = big_b / lam1 * scale
    # rounding in an assembled covariance can push lambda2 a few ulp below 1;
    # anything clearly below is a genuinely unphysical input
    if not lam2 >= 1.0 - 1e-6:
        raise NumericDomainError(
            f"unphysical two-mode input (a={a}, b={b}, c={c}): lambda2 = {lam2}")
    return lam1 * scale, lam2


def g_func(x: float) -> float:
    """Entropy of a thermal mode with mean photon number x, in bits.

    (x+1) log2(x+1) - x log2 x, continuous at 0.  Written via log1p so the
    large-x cancellation between the two terms never occurs; the absolute
    error stays below 1e-12 bits out to x = 1e12 and beyond.  NaN fails the
    x >= 0 test.
    """
    if not x >= 0.0:
        raise InvalidParameterError(f"g_func argument must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return x * math.log1p(1.0 / x) / LN2 + math.log2(x + 1.0)


def von_neumann_entropy(state: GaussianState) -> float:
    """Sum of g_func((lambda - 1)/2) over the symplectic spectrum, in bits."""
    total = 0.0
    for lam in symplectic_eigenvalues(state):
        x = (float(lam) - 1.0) / 2.0
        if x < 0.0:
            if x < -1e-6:
                raise NumericDomainError(
                    f"symplectic eigenvalue {lam} far below 1 in entropy computation")
            x = 0.0
        total += g_func(x)
    return total
