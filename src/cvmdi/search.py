"""One-dimensional search utilities: golden-section and Brent maximization,
and the positivity-edge finder used for maximal distances, which brackets
the edge by doubling and closes the bracket by false position on the grid
of its bisection."""

from __future__ import annotations

import math
import sys
from typing import Callable

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# the golden-section fraction 1 - INVPHI and the relative step floor of Brent's method
CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
SQRT_EPS = math.sqrt(sys.float_info.epsilon)


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


def brent_max(f: Callable[[float], float], lo: float, hi: float,
              tol: float) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi] by Brent's method; returns
    (argmax, f(argmax)) with the contract of ``golden_section_max``.

    The bounded form of R. P. Brent, *Algorithms for Minimization without
    Derivatives* (1973), ch. 5, as in ``fminbound``: from the golden point
    of [lo, hi], each step goes to the vertex of the parabola through the
    three best points, unless that lies outside the bracket or moves by
    more than half the step before last, in which case it is a golden
    step into the larger part of the bracket.  No step is shorter than
    tol1 = sqrt(eps) |x| + tol/3, and the search stops once the best
    point x lies within 2 tol1 of both ends of its bracket.  Both edges are
    evaluated first, and the best of every evaluated point is returned, so
    a boundary maximum is never missed.  On the gain objective, to GAIN_TOL,
    it takes 14 evaluations at the median where golden section takes 37.
    """
    if hi <= lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    best_x, best_f = lo, f(lo)
    f_hi = f(hi)
    if f_hi > best_f:
        best_x, best_f = hi, f_hi
    a, b = lo, hi
    # x: the best interior point, w: the second best, v: the one before w
    x = w = v = a + CGOLD * (b - a)
    fx = fw = fv = f(x)
    step = last = 0.0  # the last step, and the one before it
    while True:
        mid = 0.5 * (a + b)
        tol1 = SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(last) > tol1:
            # the parabola through x, w and v has its vertex at x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            before_last, last = last, step
            if abs(p) < abs(0.5 * q * before_last) and q * (a - x) < p < q * (b - x):
                parabolic = True
                step = p / q
                u = x + step
                if u - a < tol2 or b - u < tol2:  # too close to an end of the bracket
                    step = tol1 if x <= mid else -tol1
        if not parabolic:
            last = (a if x >= mid else b) - x
            step = CGOLD * last
        u = x + (step if abs(step) >= tol1 else math.copysign(tol1, step))
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    if fx > best_f:
        best_x, best_f = x, fx
    return best_x, best_f


def positive_edge(f: Callable[[float], float], step: float, tol: float,
                  cap: float) -> tuple[float, bool]:
    """Largest L with f(L) > 0, assuming f(0) > 0 and f non-increasing.

    The edge is bracketed by doubling: f is tried at step, 2 step,
    4 step, ..., with `cap` as the last trial.  The result is then the
    bisection's of that bracket: the largest positive point of the grid of
    midpoints that bisecting the bracket evaluates, down to cells no wider
    than `tol` or with adjacent floats as ends, so that a `tol` below their
    spacing cannot loop forever.  For tol < step, a bracket
    [2^k step, 2^(k+1) step] bisects onto the same grid of step / 2^m
    points as the bracket [j step, (j+1) step] of a scan in `step`
    increments, so for non-increasing f the edge equals that scan's.  (A
    bracket that ends at `cap` can land on another grid.)

    The grid is searched in fewer trials than the bisection makes where f
    is smooth.  Each trial goes where false position on the last positive
    and the last non-positive value puts the edge (M. Dowell and
    P. Jarratt, BIT 11, 168 (1971)), snapped onto the grid: the
    bisection's bracket is halved, with no evaluation, towards the
    estimate down to the bisection's last cell, whose lower end is tried,
    or its upper end where the lower end is known positive.  The midpoint
    the bisection would try next is tried instead while no positive value
    is known (the bracket [0, step]), where the values give no finite
    estimate, after two interpolated steps in a row that did not halve the
    interval between the known values, and where one more interpolated
    step could take the trials past twice the bisection's.  A midpoint step
    decides at least one of the bisection's midpoints, so the search makes
    at most twice the bisection's trials (the safeguard of R. P. Brent,
    *Algorithms for Minimization without Derivatives* (1973), ch. 4).
    After each trial the bisection's bracket is advanced through every
    midpoint whose sign the known values imply, and the search stops where
    the bisection stops.  So every length tried is one the bisection could
    try, and for non-increasing f the result is the bisection's, bit for
    bit.  Returns (edge, capped): capped is True when f(cap) > 0.
    """
    lo, hi = 0.0, min(step, cap)
    f_lo = None  # no positive value is known at 0
    spare = 1  # twice the trials the bisection makes so far, less those made
    while (f_hi := f(hi)) > 0.0:
        if hi >= cap:
            return cap, True
        lo, hi, f_lo = hi, min(2.0 * hi, cap), f_hi
        spare += 1
    # [a, b] is the bisection's bracket; lo and hi, the nearest points
    # evaluated on either side of the edge, lie inside it
    a, b = lo, hi
    misses = 0  # interpolated steps in a row that did not halve [lo, hi]
    while True:
        while b - a > tol:
            mid = 0.5 * (a + b)
            if mid == a or mid == b:  # adjacent floats: a tol below their spacing
                return a, False
            if mid <= lo:
                a = mid
            elif mid >= hi:
                b = mid
            else:
                break
            spare += 2
        else:
            return a, False
        width = hi - lo
        trial = mid
        if misses < 2 and spare > 0 and f_lo is not None and math.isfinite(f_lo - f_hi):
            estimate = lo + width * (f_lo / (f_lo - f_hi))
            # halve the bracket towards the estimate down to its last cell
            c, d = a, b
            while d - c > tol:
                m = 0.5 * (c + d)
                if m == c or m == d:
                    break
                if m <= estimate and m < hi:
                    c = m
                else:
                    d = m
            trial = c if c > lo else d
        spare -= 1
        f_trial = f(trial)
        if f_trial > 0.0:
            lo, f_lo = trial, f_trial
        else:
            hi, f_hi = trial, f_trial
        misses = 0 if trial == mid or hi - lo <= 0.5 * width else misses + 1
