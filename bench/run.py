"""cvmdi benchmark: one run of one workload, printed as metrics.

    python3 bench/run.py --workload table|sweep|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; cvmdi is imported from its ``src/``.
Every measured pass runs in a fresh worker process (``workloads.py``)
with BLAS pinned to one thread, so imports and the library's caches carry
nothing between passes.

``--trace 0`` measures end to end, with tracing off:

* ``setup_s``: median wall time of fresh interpreters that import cvmdi
  and make their first ``key_rate`` call.
* ``op_ms``: latency of one operation: one comparison table (``table``;
  each table in its own worker), one sweep point (``sweep``) or one CLI
  call (``cli``).
* ``ops_per_s``: operations per second of timed operation time.
* ``peak_rss_mb``: peak resident memory of the workload's workers.

Timings are taken at the best of the run's repeats, as ``timeit`` does.
Load from other tenants of a shared host slows stretches of one to tens
of seconds by up to 1.9x, and only ever adds time, so the best repeat
measures the program rather than that load.  For ``sweep`` and ``cli``
the operations, in order, are cut into windows of WINDOW_S of operation
time; ``op_ms`` is the median of the fastest window and ``ops_per_s`` the
rate of the fastest window.  Every window holds the same mix of inputs,
because the cases cycle with a period of at most six.  A ``table`` run
holds only about three tables, so its table is timed as the sum, over
its distance evaluations, of each evaluation's best time in the run,
plus the median time outside them.

``--trace 1`` runs a fixed number of operations twice, untraced and then
traced, and reports the per-layer metrics of ``tracer.Tracer`` plus
``search.chi_refinements`` and ``trace.overhead_frac``.  The spans are
written to ``.bench_out/spans-<workload>.csv``.

Each metric is printed on its own line with its unit and sample count; the
last line is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import K_TOL_BITS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKER = HERE / "workloads.py"

# Operations in each pass of a traced run: fixed, so counts repeat exactly.
TRACE_OPS = {"table": 1, "sweep": 156, "cli": 600}
WORKER_TIMEOUT_S = 170.0
WINDOW_S = 0.5

SETUP_RUNS = 11
SETUP_CODE = ("import cvmdi; print(repr(cvmdi.key_rate(cvmdi.ProtocolParams("
              "v_a=5.04, v_b=5.04, l_ac=5.0, l_bc=0.0)).key_rate))")


def child_env() -> dict:
    """Environment of every child: cvmdi from src/, one BLAS thread, and
    bytecode caching on, as for an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, seconds: float, ops: int, trace: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--ops", str(ops), "--trace", str(int(trace))]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT_DIR / f"spans-{workload}.csv")]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(expected_k: float) -> tuple[list[float], int, int]:
    """Wall times of SETUP_RUNS fresh interpreters, after one warm-up run;
    returns (times, attempted, failed)."""
    times, failed = [], 0
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, timeout=60, text=True)
        elapsed = time.perf_counter() - t0
        ok = proc.returncode == 0 and abs(float(proc.stdout) - expected_k) <= K_TOL_BITS
        failed += not ok
        if i:
            times.append(elapsed)
    return times, SETUP_RUNS + 1, failed


def windows(lat: list[float]) -> list[list[float]]:
    """Consecutive operations in windows of at least WINDOW_S of time each."""
    out, current, total = [], [], 0.0
    for t in lat:
        current.append(t)
        total += t
        if total >= WINDOW_S:
            out.append(current)
            current, total = [], 0.0
    if current:
        if out:
            out[-1].extend(current)
        else:
            out.append(current)
    return out


def best_table_s(tables: list[float], segments: list[list[float]]) -> float:
    """Table time with each distance evaluation at its best over the run."""
    if len({len(s) for s in segments}) != 1:
        raise RuntimeError("tables of one run made different distance evaluations")
    outside = statistics.median(t - sum(s) for t, s in zip(tables, segments))
    return sum(min(evals) for evals in zip(*segments)) + outside


def end_to_end(workload: str, seed: int, seconds: float, reference: dict):
    setup, setup_attempted, setup_failed = measure_setup(reference["setup_k"])
    passes = []
    began = time.perf_counter()
    if workload == "table":
        while not passes or time.perf_counter() - began < seconds:
            passes.append(run_worker(workload, seed, seconds, 1, False))
    else:
        passes.append(run_worker(workload, seed, seconds, 0, False))
    lat = [t for p in passes for t in p["latencies_s"]]
    attempted = sum(p["attempted"] for p in passes) + setup_attempted
    failed = sum(p["failed"] for p in passes) + setup_failed
    if not lat:
        return attempted, failed, {}
    if workload == "table":
        op_s = best_table_s(lat, [s for p in passes for s in p["segments_s"]])
        rate = 1.0 / op_s
    else:
        ws = windows(lat)
        op_s = min(statistics.median(w) for w in ws)
        rate = max(len(w) / sum(w) for w in ws)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_ms": (1e3 * op_s, "ms", len(lat)),
        "ops_per_s": (rate, "1/s", len(lat)),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB", len(passes)),
    }
    return attempted, failed, metrics


def per_layer(workload: str, seed: int):
    ops = TRACE_OPS[workload]
    plain = run_worker(workload, seed, 0.0, ops, False)
    traced = run_worker(workload, seed, 0.0, ops, True)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["search.chi_refinements"] = (traced["refinements"], "count", 1)
    metrics["trace.overhead_frac"] = (
        sum(traced["latencies_s"]) / sum(plain["latencies_s"]) - 1.0, "ratio", ops)
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return attempted, failed, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cvmdi" / "__init__.py").is_file():
        print(f"error: no cvmdi sources under {SRC}", file=sys.stderr)
        return 2
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)

    if args.trace:
        attempted, failed, metrics = per_layer(args.workload, args.seed)
    else:
        attempted, failed, metrics = end_to_end(args.workload, args.seed, args.seconds,
                                                reference)
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name:<40} {value:>16.6g} {unit:<6} samples={samples}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
