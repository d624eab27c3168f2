"""The test-only half of the multimode Gaussian engine.

The key-rate path of ``cvmdi`` works on the reduced Alice-Bob state
(a, b, c) in scalar arithmetic.  The matrix route the tests check it
against is assembled from ``cvmdi.matrix`` (states, beamsplitters, partial
traces, symplectic spectra and ``build_mdi_state``), which stays in the
library but off its import path, plus what follows here, which no
production path runs: conditioning on a homodyne or heterodyne measurement, von Neumann
entropies, the conditioning-based Holevo bound, reading (a, b, c) off a
two-mode covariance, and the reverse, (a, b, c) as a matrix.  The key rate
reads added noise as its variance chi_n alone; the circuits here realise it
as a beamsplitter (t_r, n_r), canonically ``canonical_realisation(chi_n)``.
"""

from __future__ import annotations

import numpy as np

from cvmdi.errors import InvalidParameterError, NumericDomainError
from cvmdi.gaussian import check_two_mode, g_func
from cvmdi.matrix import GaussianState, _quad_indices, symplectic_eigenvalues
from cvmdi.protocols import TWO_MODE_TOL

_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def vacuum_state(n_modes: int = 1) -> GaussianState:
    return GaussianState(np.eye(2 * n_modes))


class AsymmetricFormError(Exception):
    """A two-mode covariance is not of the symmetric form: the circuit that
    assembled it has a bug."""


def canonical_realisation(chi_n: float) -> tuple[float, float]:
    """(t_r, n_r) of a trusted-noise beamsplitter that adds ``chi_n``.

    n_r = 1 + chi_n with t_r = (1 + chi_n)/(1 + 2 chi_n) keeps n_r >= 1 for
    every chi_n >= 0 and degenerates to the identity at chi_n = 0.  Any pair
    with (1 - t_r) n_r / t_r = chi_n gives the same key rate.
    """
    return (1.0 + chi_n) / (1.0 + 2.0 * chi_n), 1.0 + chi_n


def realised_chi_n(t_r: float, n_r: float) -> float:
    """The chi_n that the beamsplitter (t_r, n_r) adds."""
    return (1.0 - t_r) * n_r / t_r


def two_mode_state(a: float, b: float, c: float) -> GaussianState:
    """The covariance [[a I, c sz], [c sz, b I]] of a symmetric two-mode form."""
    return GaussianState(np.block([
        [a * np.eye(2), c * _SIGMA_Z],
        [c * _SIGMA_Z, b * np.eye(2)],
    ]))


def extract_two_mode(state: GaussianState) -> tuple[float, float, float]:
    """Read (a, b, c) off a two-mode covariance of the symmetric form and
    check it with ``check_two_mode``.

    Any x/p asymmetry or x-p cross coupling beyond TWO_MODE_TOL * max-entry
    signals a circuit-assembly bug and raises AsymmetricFormError.
    """
    if state.n_modes != 2:
        raise InvalidParameterError(f"expected a two-mode state, got {state.n_modes} modes")
    cov = state.cov
    scale = max(1.0, float(np.abs(cov).max()))
    a, b = cov[0, 0], cov[2, 2]
    c = cov[0, 2]
    expected = np.array([
        [a, 0.0, c, 0.0],
        [0.0, a, 0.0, -c],
        [c, 0.0, b, 0.0],
        [0.0, -c, 0.0, b],
    ])
    dev = float(np.abs(cov - expected).max())
    tol = TWO_MODE_TOL * scale
    if dev > tol:
        raise AsymmetricFormError(
            f"covariance deviates from the symmetric two-mode form by {dev} "
            f"(tolerance {tol})")
    a, b, c = float(a), float(b), float(c)
    check_two_mode(a, b, c)
    return a, b, c


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


def holevo_generic(state: GaussianState, measured_mode: int, conditioning: str) -> float:
    """Conditioning-based Holevo bound: S(state) - S(state | Bob's data).

    Full von Neumann entropies on the kept-mode state, with homodyne
    ('x'-quadrature) or heterodyne conditioning on Bob's mode: an
    independent cross-check of the closed-form routes.
    """
    if conditioning == "homodyne":
        cond = homodyne_condition(state, measured_mode, "x")
    elif conditioning == "heterodyne":
        cond = heterodyne_condition(state, measured_mode)
    else:
        raise InvalidParameterError(f"unknown conditioning {conditioning!r}")
    return von_neumann_entropy(state) - von_neumann_entropy(cond)
