"""One-dimensional search utilities: golden-section maximization and the
double-then-bisect positivity-edge finder used for maximal distances."""

from __future__ import annotations

import math
from typing import Callable

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi]; returns (argmax, f(argmax)).

    Interval shrinks to tol; the returned value is the best of every point
    actually evaluated (including both edges), so a boundary maximum is
    never missed.
    """
    if hi <= lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    best_x, best_f = lo, f(lo)
    f_hi = f(hi)
    if f_hi > best_f:
        best_x, best_f = hi, f_hi
    x1 = hi - INVPHI * (hi - lo)
    x2 = lo + INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INVPHI * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INVPHI * (hi - lo)
            f1 = f(x1)
    for x, fx in ((x1, f1), (x2, f2)):
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def positive_edge(f: Callable[[float], float], step: float, tol: float,
                  cap: float) -> tuple[float, bool]:
    """Largest L with f(L) > 0, assuming f(0) > 0 and f non-increasing.

    The edge is bracketed by doubling: f is tried at step, 2 step,
    4 step, ..., with `cap` as the last trial.  Bisection then tightens the
    bracket to `tol`.  For tol < step, a bracket [2^k step, 2^(k+1) step]
    bisects onto the same grid of step / 2^m points as the bracket
    [j step, (j+1) step] of a scan in `step` increments, so for
    non-increasing f the edge equals that scan's, in about log2(edge/step)
    trials instead of edge/step.  (A bracket that ends at `cap` can land on
    another grid.)  Returns (edge, capped): capped is True when f(cap) > 0.
    """
    lo, hi = 0.0, min(step, cap)
    while f(hi) > 0.0:
        if hi >= cap:
            return cap, True
        lo, hi = hi, min(2.0 * hi, cap)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, False
