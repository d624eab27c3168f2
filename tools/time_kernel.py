"""Time the key-rate kernel of two checkouts of cvmdi, interleaved A/B.

    python3 tools/time_kernel.py OTHER_ROOT

Times eight items in this checkout and in OTHER_ROOT.  The first is
start-up: a fresh ``import cvmdi`` and its first ``key_rate``, once per
interpreter.  Then seven layers of the kernel: the symplectic pair
``gaussian.two_mode_symplectic`` on the reduced states a gain search
visits (from ``protocols._reduced_state``, or in a checkout without it
the same function of its ``tests/oracle.py``), the gain objective of each
protocol (``protocols._gain_objective``) over the same gains, one whole
``optimal_gain`` search, and one whole gain search as a distance trial
runs it: ``search.brent_max`` on a fresh objective over the same bracket
to the same GAIN_TOL, or ``optimal_gain`` again in a checkout without
``brent_max``, whose trials ran golden section.  These are at a point of
the kind the benchmark's table evaluates: V = 5.04, practical detector,
L_AC = 10 km, L_BC = 0, and chi_n = 1 for squeezed-modified.  The fifth is one
``analysis.optimize_added_noise`` call at the table's non-positive
modified trial, V = 5.04, practical detector, L_AC = 14 km, L_BC = 0:
gain searches at one channel, which share one memo in a checkout whose
kernel keeps one (twelve where chi_n stops at 50, 36 where K, still
rising at 50, is searched towards the limit chi_n -> inf past a chi_n
grid, 38 where one grid and one refinement in w = chi_n/(1 + chi_n)
span the half-line).  The sixth is the table's modified row alone,
``analysis.max_distance`` of squeezed-modified at V = 5.04 with the
practical detector in the 'most-asymmetric' geometry (L_BC = 0, mode
'fixed-lbc'), where the added-noise search decides the reach.  The seventh
is the paper's table, as the benchmark's ``table`` workload computes it:
``analysis.compare_protocols`` at V = 5.04, 'most-asymmetric', with the
practical detector.  These three start each call with an empty relay
cache where the library has one.

Each of ROUNDS rounds starts one fresh interpreter per checkout, with one
BLAS thread, and alternates which checkout goes first.  An interpreter
reports, per kernel item, its best of REPEATS timed loops as microseconds
per call, and start-up as its one measurement.  The summary gives each
checkout's min and median over the rounds, and the ratio of the medians.
On a shared host single timings of the same code swing by tens of
percent, so one measurement is no comparison.  With PYTHONDONTWRITEBYTECODE
set, a checkout whose bytecode is not cached yet, as a changed checkout's
usually is not, compiles its modules in every interpreter, which inflates
its start-up row; unset it, or compile both checkouts first.
Uses only the standard library; the tests do not run it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROUNDS = 10
REPEATS = 7

CHILD = r'''
import inspect, json, sys, time, warnings
# the added-noise search at 14 km warns that K still rises at its end
warnings.simplefilter("ignore", RuntimeWarning)
root, repeats = sys.argv[1], int(sys.argv[2])
sys.path.insert(0, root + "/src")
t0 = time.perf_counter()
import cvmdi
cvmdi.key_rate(cvmdi.ProtocolParams(v_a=5.04, v_b=5.04, l_ac=5.0, l_bc=0.0))
items = {"import cvmdi, first key_rate": 1e6 * (time.perf_counter() - t0)}
from cvmdi import AddedNoiseParams, ProtocolParams, analysis, gaussian, protocols, search
assert protocols.__file__.startswith(root + "/src/"), protocols.__file__
eta, v_el = analysis.DETECTOR_PRESETS["practical"]
base = dict(v_a=5.04, v_b=5.04, l_ac=10.0, l_bc=0.0, eta=eta, v_el=v_el)
gains = [0.5 + 2.5 * k / 63 for k in range(64)]

def best(call, n):
    call()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e6 * min(times) / n

params = ProtocolParams(**base)
coeffs = protocols._gain_coefficients(params)
# a checkout whose kernel runs in one frame keeps the layered reduced state
# in its test oracle, the same function
reduced_state = getattr(protocols, "_reduced_state", None)
if reduced_state is None:
    sys.path.insert(0, root + "/tests")
    from oracle import reduced_state
states = [reduced_state(coeffs, g) for g in gains]
pair = gaussian.two_mode_symplectic

def pairs():
    for a, b, c in states:
        pair(a, b, c)

items["two_mode_symplectic"] = best(pairs, len(states))
# the objective takes chi_n as a float; a checkout from before took AddedNoiseParams
takes_chi_n = "chi_n" in inspect.signature(protocols._gain_objective).parameters
for protocol, chi_n in (("squeezed", 0.0), ("coherent", 0.0), ("squeezed-modified", 1.0)):
    p = ProtocolParams(**base, protocol=protocol)
    noise = AddedNoiseParams.from_chi_n(chi_n) if chi_n else None
    objective = protocols._gain_objective(p, chi_n if takes_chi_n else noise)

    def objectives():
        for g in gains:
            objective(g)

    items[f"gain objective, {protocol}"] = best(objectives, len(gains))
items["optimal_gain, squeezed"] = best(lambda: protocols.optimal_gain(params), 1)
# a distance trial's gain search: Brent's method where search.brent_max exists,
# and before it the golden search of optimal_gain, which the trials then ran
brent_max = getattr(search, "brent_max", None)
if brent_max is None:
    def trial_search():
        protocols.optimal_gain(params)
else:
    def trial_search():
        brent_max(protocols._gain_objective(params, 0.0), 0.0, protocols.gain_bracket(params),
                  protocols.GAIN_TOL)
items["gain search, Brent (distance trial), squeezed"] = best(trial_search, 1)
# the relay cache: a dict per channel where _CHANNEL_COEFFS exists, an lru_cache
# before it, and nothing to clear where the relay is computed afresh each time
relays = getattr(protocols, "_CHANNEL_COEFFS", None)
clear_relays = (relays.clear if relays is not None
                else getattr(protocols._gain_coefficients, "cache_clear", lambda: None))

modified = ProtocolParams(**dict(base, l_ac=14.0), protocol="squeezed-modified")


def added_noise():
    clear_relays()
    analysis.optimize_added_noise(modified)

items["optimize_added_noise, modified at 14 km"] = best(added_noise, 1)
row = ProtocolParams(**dict(base, l_ac=0.0), protocol="squeezed-modified")


def modified_row():
    clear_relays()
    analysis.max_distance(row, "fixed-lbc")

items["max_distance, modified row"] = best(modified_row, 1)


def table():
    clear_relays()
    analysis.compare_protocols(ProtocolParams(v_a=5.04, v_b=5.04, l_ac=0.0, l_bc=0.0),
                               "most-asymmetric", ("practical",))

items["compare_protocols, paper table"] = best(table, 1)
print(json.dumps(items))
'''


def time_once(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    argv = [sys.executable, "-c", CHILD, str(root), str(REPEATS)]
    return json.loads(subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                                     text=True, check=True).stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="root of the checkout to compare with")
    args = ap.parse_args(argv)
    roots = (HERE, args.other.resolve())
    runs = ([], [])
    for r in range(ROUNDS):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            runs[side].append(time_once(roots[side]))
    print(f"us per call over {ROUNDS} rounds, best of {REPEATS} loops each: min / median")
    print(f"{'':46}{'this checkout':>24}{'other':>24}{'ratio':>8}")
    for item in runs[0][0]:
        cells, medians = [], []
        for side in runs:
            times = [run[item] for run in side]
            medians.append(statistics.median(times))
            cells.append(f"{min(times):.2f} / {medians[-1]:.2f}")
        print(f"{item:46}{cells[0]:>24}{cells[1]:>24}{medians[0] / medians[1]:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
