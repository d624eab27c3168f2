"""Time the key-rate kernel of two checkouts of cvmdi, interleaved A/B.

    python3 tools/time_kernel.py OTHER_ROOT

Times eleven items in this checkout and in OTHER_ROOT.  The first is
start-up: a fresh ``import cvmdi`` and its first ``key_rate``, once per
interpreter.  Then six items of the kernel: the symplectic pair
``gaussian.two_mode_symplectic`` on the reduced states a gain search
visits (from ``reduced_state`` of the checkout's ``tests/oracle.py``),
the gain objective of each protocol (``protocols._gain_objective``) over
the same gains, built afresh in each timed loop: its memo keeps each
gain's first half, so a reused objective would time dict hits, where a
fresh one runs the whole kernel at every gain (and ``_gain_coefficients``,
about 2 us, once per 64 gains); one whole ``optimal_gain`` search; and one
whole gain search as a distance trial runs it: ``search.brent_max`` on
a fresh objective over the same bracket to the same GAIN_TOL.  These are
at a point of the kind the benchmark's table evaluates: V = 5.04, practical
detector, L_AC = 10 km, L_BC = 0, and chi_n = 1 for squeezed-modified.
Then four items of the searches above the kernel.  One
``analysis.optimize_added_noise`` call just past the reach of the
table's modified row, V = 5.04, practical detector, L_AC = 14 km,
L_BC = 0: one grid and one refinement in w = chi_n/(1 + chi_n), whose
gain searches at one channel share one memo.  The table's modified row
alone, ``analysis.max_distance`` of squeezed-modified at V = 5.04 with the
practical detector in the 'most-asymmetric' geometry (L_BC = 0), where K
at chi_n = 0 and the slope D of the limit chi_n -> inf decide each
trial; the added-noise search runs only at beta < 1.  The paper's table,
as the benchmark's ``table`` workload computes it:
``analysis.compare_protocols`` at V = 5.04, 'most-asymmetric', with the
practical detector.  And the six paper tables: ``compare_protocols`` in
each geometry at each variance preset, with both detectors.

Each checkout also reports, from one untimed run of the benchmark's
table, its distance trials, its gain searches and its ``key_rate`` calls,
counted by wrapping the objective that ``analysis.max_distance`` hands to
``positive_edge``, ``protocols.brent_max`` and ``analysis.key_rate``; and,
where the rows of one channel share their trials (``analysis._Scan``),
the trials answered from that shared record instead of run.

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
import json, sys, time, warnings
# the added-noise search at 14 km warns that K still rises at its end
warnings.simplefilter("ignore", RuntimeWarning)
root, repeats = sys.argv[1], int(sys.argv[2])
sys.path[:0] = [root + "/src", root + "/tests"]
t0 = time.perf_counter()
import cvmdi
cvmdi.key_rate(cvmdi.ProtocolParams(v_a=5.04, v_b=5.04, l_ac=5.0, l_bc=0.0))
items = {"import cvmdi, first key_rate": 1e6 * (time.perf_counter() - t0)}
from cvmdi import ProtocolParams, analysis, gaussian, protocols, search
from oracle import reduced_state
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
states = [reduced_state(coeffs, g) for g in gains]
pair = gaussian.two_mode_symplectic

def pairs():
    for a, b, c in states:
        pair(a, b, c)

items["two_mode_symplectic"] = best(pairs, len(states))
for protocol, chi_n in (("squeezed", 0.0), ("coherent", 0.0), ("squeezed-modified", 1.0)):
    point = ProtocolParams(**base, protocol=protocol)

    def objectives():
        # a fresh objective has an empty memo, so each gain runs the whole kernel
        objective = protocols._gain_objective(point, chi_n)
        for g in gains:
            objective(g)

    items[f"gain objective, {protocol}"] = best(objectives, len(gains))
items["optimal_gain, squeezed"] = best(lambda: protocols.optimal_gain(params), 1)


def trial_search():
    search.brent_max(protocols._gain_objective(params, 0.0), 0.0,
                     protocols.gain_bracket(params), protocols.GAIN_TOL)

items["gain search, Brent (distance trial), squeezed"] = best(trial_search, 1)
modified = ProtocolParams(**dict(base, l_ac=14.0), protocol="squeezed-modified")
items["optimize_added_noise, modified at 14 km"] = best(
    lambda: analysis.optimize_added_noise(modified), 1)
row = ProtocolParams(**dict(base, l_ac=0.0), protocol="squeezed-modified")
items["max_distance, modified row"] = best(
    lambda: analysis.max_distance(row, "most-asymmetric"), 1)
table = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=0.0, l_bc=0.0)
items["compare_protocols, paper table"] = best(
    lambda: analysis.compare_protocols(table, "most-asymmetric", ("practical",)), 1)
variances = (5.04, 1e5)


def six_tables():
    for geometry in ("symmetric", "asymmetric", "most-asymmetric"):
        for v in variances:
            analysis.compare_protocols(ProtocolParams(v_a=v, v_b=v, l_ac=0.0, l_bc=0.0), geometry)

items["compare_protocols, six paper tables"] = best(six_tables, 1)
counts = {"distance trials": 0, "gain searches": 0, "key_rate calls": 0}
edge, brent, rate = analysis.positive_edge, protocols.brent_max, analysis.key_rate


def counted_edge(f, *args):
    def trial(length):
        counts["distance trials"] += 1
        return f(length)

    return edge(trial, *args)


def counted_brent(*args):
    counts["gain searches"] += 1
    return brent(*args)


def counted_rate(*args, **kwargs):
    counts["key_rate calls"] += 1
    return rate(*args, **kwargs)


if hasattr(analysis, "_Scan"):
    counts["trials answered from the shared record"] = 0

    class Outcomes(dict):
        def get(self, key, default=None):
            got = super().get(key, default)
            counts["trials answered from the shared record"] += got is not None
            return got

    scan = analysis._Scan
    analysis._Scan = lambda: scan(outcomes=Outcomes())
analysis.positive_edge, protocols.brent_max = counted_edge, counted_brent
analysis.key_rate = counted_rate
analysis.compare_protocols(table, "most-asymmetric", ("practical",))
print(json.dumps({"times": items, "counts": counts}))
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
    runs, counts = ([], []), [None, None]
    for r in range(ROUNDS):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            out = time_once(roots[side])
            runs[side].append(out["times"])
            counts[side] = out["counts"]
    print(f"us per call over {ROUNDS} rounds, best of {REPEATS} loops each: min / median")
    print(f"{'':46}{'this checkout':>24}{'other':>24}{'ratio':>8}")
    for item in runs[0][0]:
        cells, medians = [], []
        for side in runs:
            times = [run[item] for run in side]
            medians.append(statistics.median(times))
            cells.append(f"{min(times):.2f} / {medians[-1]:.2f}")
        print(f"{item:46}{cells[0]:>24}{cells[1]:>24}{medians[0] / medians[1]:>8.3f}")
    print("the benchmark's table, counted once")
    for item in counts[0]:
        print(f"{item:46}{counts[0][item]:>24}{counts[1].get(item, '-'):>24}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
