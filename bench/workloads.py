"""Workloads of the cvmdi benchmark, and the worker that runs one pass.

Each workload turns a seed into a sequence of cases, runs one case as the
timed operation, and checks the operation's output outside the timed
region.  Run as a script, this file is the worker: one fresh interpreter
that imports cvmdi from ``src/`` of the checkout, runs one pass and prints
one JSON line.  A fresh process per pass keeps imports and the library's
``lru_cache`` from carrying over between passes.

    python3 bench/workloads.py --workload cli --seed 1 --seconds 5
    python3 bench/workloads.py --workload table --ops 1 --trace 1

Workloads:

* ``table``: the paper's max-distance comparison table,
  ``compare_protocols(V=5.04, geometry="most-asymmetric",
  detectors=("practical",))``.  All three nested searches (distance, chi_n,
  gain) run over the kernel.  The input is fixed; the seed is not used.
* ``sweep``: single-point ``analysis.sweep`` calls with the gain optimised:
  distance-symmetric grids for coherent and squeezed at the ideal
  variance, and a chi_n grid for squeezed-modified at 11 km.  One point in
  three takes the 4-mode path.  Grid offsets come from the seed.
* ``cli``: in-process ``cvmdi.cli.main(["keyrate", ...])`` calls at a fixed
  gain (and fixed chi_n), cycling protocols and csv/json output, with
  lengths, gain and chi_n drawn from the seed.  No input repeats in a run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import itertools
import json
import random
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("table", "sweep", "cli")

V_REALISTIC = 5.04
V_IDEAL = 1e5
PRACTICAL = {"eta": 0.9, "v_el": 0.015}

TABLE_TOL_KM = 0.05
# K is flat in the gain at the optimum, so a gain within its 1e-6 search
# tolerance moves K by far less than this.
K_TOL_BITS = 1e-6

# Sweep grids: (protocol, variable, base parameters).  Point k of a grid
# with offset j sits at x = (k + j / SWEEP_OFFSETS) * SWEEP_STEP.
SWEEP_GRIDS = (
    ("coherent", "distance-symmetric",
     {"v_a": V_IDEAL, "v_b": V_IDEAL, "l_ac": 0.0, "l_bc": 0.0}),
    ("squeezed", "distance-symmetric",
     {"v_a": V_IDEAL, "v_b": V_IDEAL, "l_ac": 0.0, "l_bc": 0.0}),
    ("squeezed-modified", "chi-n",
     {"v_a": V_REALISTIC, "v_b": V_REALISTIC, "l_ac": 11.0, "l_bc": 0.0, **PRACTICAL}),
)
SWEEP_STEP = 0.5
SWEEP_POINTS = 13
SWEEP_OFFSETS = 128

CLI_CASES = tuple(itertools.product(("squeezed", "coherent", "squeezed-modified"),
                                    ("csv", "json")))
CLI_DIGITS = 9


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _sig(value: float) -> str:
    return f"{value:.{CLI_DIGITS}g}"


@contextlib.contextmanager
def timed_outermost(module, names, out: list):
    """While open, append to ``out`` the duration of every outermost call of
    any of ``module.<name>``; calls nested inside another are not timed."""
    originals = {name: getattr(module, name) for name in names}
    depth = 0

    def timed(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            nonlocal depth
            depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth -= 1
                if not depth:
                    out.append(time.perf_counter() - t0)

        return call

    for name, fn in originals.items():
        setattr(module, name, timed(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


class Table:
    """One full comparison table per operation.

    Each table also logs the duration of its distance evaluations, the
    outermost ``key_rate`` or ``optimize_added_noise`` calls of the
    max-distance searches, in order; the table is deterministic, so the
    i-th evaluation is the same work in every table.
    """

    def __init__(self, seed: int, reference: dict):
        from cvmdi import ProtocolParams
        self.base = ProtocolParams(v_a=V_REALISTIC, v_b=V_REALISTIC, l_ac=0.0, l_bc=0.0)
        self.expected = reference["table"]
        self.segment_log: list[list[float]] = []

    def cases(self):
        return itertools.repeat(None)

    def run(self, case):
        from cvmdi import analysis
        segments = []
        with timed_outermost(analysis, ("key_rate", "optimize_added_noise"), segments):
            table = analysis.compare_protocols(self.base, geometry="most-asymmetric",
                                               detectors=("practical",), tol_km=TABLE_TOL_KM)
        self.segment_log.append(segments)
        return table

    def check(self, case, table) -> bool:
        got = [(r.protocol, r.detector, r.positive_at_origin, r.capped) for r in table.rows]
        want = [(r["protocol"], r["detector"], r["positive_at_origin"], r["capped"])
                for r in self.expected]
        if got != want:
            return False
        return all(abs(r.l_star_km - w["l_star_km"]) <= TABLE_TOL_KM and self._brackets(r)
                   for r, w in zip(table.rows, self.expected))

    def _brackets(self, row) -> bool:
        """K(l_star) > 0 >= K(l_star + tol_km); K(0) <= 0 when not positive at 0."""
        from cvmdi import analysis, key_rate, optimize_added_noise

        def k_at(length: float) -> float:
            eta, v_el = analysis.DETECTOR_PRESETS[row.detector]
            p = dataclasses.replace(self.base, protocol=row.protocol, eta=eta, v_el=v_el,
                                    l_ac=length, l_bc=row.l_bc_km)
            if row.protocol == "squeezed-modified":
                return optimize_added_noise(p)[1]
            return key_rate(p).key_rate

        if not row.positive_at_origin:
            return row.l_star_km == 0.0 and k_at(0.0) <= 0.0
        return k_at(row.l_star_km) > 0.0 >= k_at(row.l_star_km + TABLE_TOL_KM)


class Sweep:
    """One single-point sweep per operation; every point was recorded."""

    def __init__(self, seed: int, reference: dict):
        from cvmdi import ProtocolParams
        self.rng = random.Random(seed)
        self.bases = [ProtocolParams(protocol=protocol, **kw) for protocol, _, kw in SWEEP_GRIDS]
        self.expected = reference["sweep"]

    def cases(self):
        """(grid, offset, k) in rounds; each round takes a fresh offset per grid.

        Offsets are drawn without replacement, so no point repeats until
        SWEEP_OFFSETS rounds have run.
        """
        while True:
            orders = [self.rng.sample(range(SWEEP_OFFSETS), SWEEP_OFFSETS) for _ in SWEEP_GRIDS]
            for r in range(SWEEP_OFFSETS):
                for k in range(SWEEP_POINTS):
                    for g in range(len(SWEEP_GRIDS)):
                        yield g, orders[g][r], k

    @staticmethod
    def x_of(offset: int, k: int) -> float:
        return (k + offset / SWEEP_OFFSETS) * SWEEP_STEP

    def spec(self, case):
        from cvmdi.analysis import SweepSpec
        g, offset, k = case
        x = self.x_of(offset, k)
        return SweepSpec(SWEEP_GRIDS[g][1], start=x, stop=x, step=SWEEP_STEP, base=self.bases[g])

    def run(self, case):
        from cvmdi import analysis
        return analysis.sweep(self.spec(case))

    def check(self, case, result) -> bool:
        g, offset, k = case
        if len(result.rows) != 1 or result.rows[0].report is None:
            return False
        want = self.expected[g][offset][k]
        return abs(result.rows[0].report.key_rate - want) <= K_TOL_BITS


class Cli:
    """One in-process ``cvmdi keyrate`` call per operation."""

    def __init__(self, seed: int, reference: dict):
        self.rng = random.Random(seed)

    def cases(self):
        seen = set()
        for i in itertools.count():
            protocol, fmt = CLI_CASES[i % len(CLI_CASES)]
            while True:
                lac = round(self.rng.uniform(0.0, 20.0), 6)
                lbc = round(self.rng.uniform(0.0, 5.0), 6)
                gain = round(self.rng.uniform(0.5, 1.5), 6)
                chi_n = round(self.rng.uniform(0.0, 4.0), 6) \
                    if protocol == "squeezed-modified" else None
                key = (protocol, lac, lbc, gain, chi_n)
                if key not in seen:
                    seen.add(key)
                    break
            argv = ["keyrate", "--protocol", protocol, "--variance", "realistic",
                    "--detector", "practical", "--lac", repr(lac), "--lbc", repr(lbc),
                    "--gain", repr(gain), "--format", fmt]
            if chi_n is not None:
                argv += ["--chi-n", repr(chi_n)]
            yield argv, (fmt, *key)

    def run(self, case):
        from cvmdi import cli
        argv, _ = case
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, case, output) -> bool:
        """The printed row must equal the library's result for the same input."""
        from cvmdi import AddedNoiseParams, ProtocolParams, key_rate
        _, (fmt, protocol, lac, lbc, gain, chi_n) = case
        code, text = output
        if code != 0:
            return False
        params = ProtocolParams(v_a=V_REALISTIC, v_b=V_REALISTIC, l_ac=lac, l_bc=lbc,
                                gain=gain, protocol=protocol, **PRACTICAL)
        noise = None if chi_n is None else AddedNoiseParams.from_chi_n(chi_n)
        rep = key_rate(params, noise)
        want = [rep.mutual_info, rep.holevo, rep.key_rate, *rep.lambdas, rep.gain_used,
                rep.chi_n]
        if fmt == "json":
            row = json.loads(text)["rows"][0]
            got = [row["I_AB_bits"], row["chi_BE_bits"], row["K_bits"], *row["lambdas"],
                   row["gain"], row["chi_N_snu"]]
            return got == [float(_sig(v)) for v in want] and row["flags"] == list(rep.flags)
        lines = text.splitlines()
        if len(lines) != 3 or not lines[0].startswith("# config "):
            return False
        cells = lines[2].split(",")
        lams = cells[3:8]
        got = cells[:3] + [c for c in lams if c] + cells[8:10]
        return got == [_sig(v) for v in want] and cells[10] == ";".join(rep.flags)


def make_workload(name: str, seed: int):
    return {"table": Table, "sweep": Sweep, "cli": Cli}[name](seed, load_reference())


def import_cvmdi():
    """Import cvmdi from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "cvmdi" / "__init__.py").is_file():
        raise SystemExit(f"cvmdi sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import cvmdi
    if Path(cvmdi.__file__).resolve().parent != (SRC / "cvmdi").resolve():
        raise SystemExit(f"imported cvmdi from {cvmdi.__file__}, not from {SRC}")
    return cvmdi


def run_pass(workload: str, seed: int, seconds: float, ops: int, trace: bool,
             spans_path: str | None = None) -> dict:
    """Run cases until ``ops`` are done (ops > 0) or ``seconds`` have passed.

    Failed operations and failed checks count in ``failed``; only
    operations that completed are timed.
    """
    import_cvmdi()
    from tracer import Tracer

    wl = make_workload(workload, seed)
    tracer = Tracer() if trace else None
    latencies, attempted, failed = [], 0, 0
    clock = time.perf_counter
    began = clock()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer:
            tracer.install()
        try:
            for case in wl.cases():
                if (ops and attempted >= ops) or (not ops and clock() - began >= seconds):
                    break
                attempted += 1
                t0 = clock()
                try:
                    out = wl.run(case)
                except Exception:  # a failed operation is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
                    continue
                latencies.append(clock() - t0)
                # the check is neither traced nor counted in the refinements
                if tracer:
                    tracer.restore()
                mark = len(caught)
                try:
                    ok = wl.check(case, out)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                finally:
                    del caught[mark:]
                    if tracer:
                        tracer.install()
                if not ok:
                    print(f"check failed: {workload} case {case!r}", file=sys.stderr)
                    failed += 1
        finally:
            if tracer:
                tracer.restore()
    result = {
        "attempted": attempted,
        "failed": failed,
        "latencies_s": latencies,
        "segments_s": getattr(wl, "segment_log", []),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "refinements": sum("not unimodal" in str(w.message) for w in caught),
    }
    if tracer:
        result["layers"] = tracer.summary()
        if spans_path:
            tracer.write(spans_path)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one pass of one cvmdi benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--ops", type=int, default=0, help="fixed operation count (0: time-bound)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="CSV file for the spans of a traced pass")
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.seconds, args.ops, bool(args.trace),
                      args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
