"""Check that two checkouts of cvmdi give the same output, bit for bit.

    python3 tools/compare_checkouts.py OTHER_ROOT [--points N] [--seed S]

Runs this checkout and OTHER_ROOT, each in a fresh interpreter that imports
cvmdi from that root's ``src/`` (one BLAS thread), and has each print one
line per value: the reduced state (a, b, c) of the relay at N seeded random
points and gains, as ``reduced_state(protocols._gain_coefficients(p), g)``
in ``float.hex``, the error where it raises, where ``reduced_state`` is
that of the checkout's ``tests/oracle.py``; at each of those points and gains,
the fixed-gain ``key_rate`` report of each protocol (K, I_AB, chi, the
lambdas and the flags; squeezed-modified at a seeded chi_n, 0 or not) or
its error; ``optimize_added_noise`` at
NOISE_POINTS seeded random squeezed-modified points; K, gain and lambdas at
every sweep point of ``bench/reference.json`` (only read); the rows of the
benchmark's table; ``compare_protocols`` for every geometry, variance preset
and detector preset, and again for every geometry and variance preset, with
both detectors in one table, at beta = 0.95 (the added-noise search's
witness) and at a fixed gain of 1.2; and exit code, stdout and stderr of
``compare`` on this checkout's ``configs/paper_table_*.json``, of ``sweep``
on its other ``configs/*.json`` and of each subcommand on CLI_ARGV,
settings that it reads.  The rows of a CLI output
(category cli) are compared apart from its ``# config`` or ``metadata``
record (category record), so that a change to the record alone shows as
such.

Each value carries a label, and the two checkouts' values are paired by
label, not by position: a compare row's label is its geometry, variance,
setting (beta or gain, if any), protocol, detector and ``l_bc_km``, so a
checkout that tabulates more L_BC per row pairs the rows both have and
lists the others.  Prints every
label that only one checkout has, every value that differs, at its first
differing float or character, then one summary line per category (relay,
kernel, optnoise, sweep, table, compare, cli, record): values compared,
values differing, and the largest absolute, relative and ulp difference
among the floats that differ; for optnoise also at how many points K* is
lower here than in OTHER_ROOT, and by how much at most.  Exits 1 if any
value differs or any label is on one side only, else 0.
"""

import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
# Seeded random points at which optimize_added_noise is dumped.
NOISE_POINTS = 150

DUMP = r'''
import contextlib, glob, io, json, os, random, sys
root, configs, n, noise_points, seed = sys.argv[1], sys.argv[2], *map(int, sys.argv[3:6])
sys.path[:0] = [root + "/src", root + "/bench", root + "/tests"]
import workloads
from dataclasses import replace
from cvmdi import AddedNoiseParams, analysis, cli, protocols
from oracle import reduced_state
assert protocols.__file__.startswith(root + "/src/"), protocols.__file__
rng, noise_rng = random.Random(seed), random.Random(seed + 1)
v = lambda: rng.choice([5.04, 1e5, rng.uniform(1.0, 50.0)])
length = lambda: rng.choice([0.0, rng.uniform(0.0, 50.0)])
for i in range(n):
    p = protocols.ProtocolParams(v_a=v(), v_b=v(), l_ac=length(), l_bc=length(),
                                 eps1=rng.uniform(0.0, 0.05), eps2=rng.uniform(0.0, 0.05),
                                 **rng.choice([{}, workloads.PRACTICAL]))
    g = rng.uniform(0.0, 3.0)
    try:
        abc = reduced_state(protocols._gain_coefficients(p), g)
        got = " ".join(x.hex() for x in abc)
    except Exception as exc:
        got = repr((type(exc).__name__, str(exc)))
    print(f"relay {i} {p} {g!r}\t{got}")
    chi_n = noise_rng.choice([0.0, noise_rng.uniform(0.0, 10.0)])
    for protocol in protocols.PROTOCOLS:
        modified = protocol == "squeezed-modified"
        try:
            r = protocols.key_rate(replace(p, gain=g, protocol=protocol),
                                   AddedNoiseParams.from_chi_n(chi_n) if modified else None)
            got = " ".join(x.hex() for x in (r.key_rate, r.mutual_info, r.holevo, *r.lambdas))
            got += f" {r.flags}"
        except Exception as exc:
            got = repr((type(exc).__name__, str(exc)))
        print(f"kernel {i} {protocol} {chi_n if modified else 0.0!r}\t{got}")
for i in range(noise_points):
    p = protocols.ProtocolParams(v_a=v(), v_b=v(), l_ac=rng.uniform(0.0, 30.0),
                                 l_bc=length() / 10.0, eps1=rng.uniform(0.0, 0.05),
                                 eps2=rng.uniform(0.0, 0.05), protocol="squeezed-modified",
                                 **rng.choice([{}, workloads.PRACTICAL]))
    try:
        got = analysis.optimize_added_noise(p)
    except Exception as exc:
        got = (type(exc).__name__, str(exc))
    print(f"optnoise {i} {p}\t{got!r}")
reference = workloads.load_reference()
sweep = workloads.Sweep(0, reference)
for g, grid in enumerate(reference["sweep"]):
    for j, points in enumerate(grid):
        for k in range(len(points)):
            r = sweep.run((g, j, k)).rows[0].report
            print(f"sweep {g} {j} {k}\t{(r.key_rate, r.gain_used, r.lambdas)!r}")
for row in workloads.Table(0, reference).run(None).rows:
    print(f"table {row.protocol} {row.detector}\t{row!r}")
for geometry in analysis.GEOMETRIES:
    for variance, v_ab in analysis.VARIANCE_PRESETS.items():
        base = protocols.ProtocolParams(v_a=v_ab, v_b=v_ab, l_ac=0.0, l_bc=0.0)
        for detector in analysis.DETECTOR_PRESETS:
            for row in analysis.compare_protocols(base, geometry, (detector,)).rows:
                print(f"compare {geometry} {variance} {row.protocol} {row.detector} "
                      f"{row.l_bc_km}\t{row!r}")
        for variant, setting in (("beta=0.95", {"beta": 0.95}), ("gain=1.2", {"gain": 1.2})):
            for row in analysis.compare_protocols(replace(base, **setting), geometry).rows:
                print(f"compare {geometry} {variance} {variant} {row.protocol} {row.detector} "
                      f"{row.l_bc_km}\t{row!r}")
CLI_ARGV = [
    ["keyrate", "--variance", "realistic", "--detector", "practical", "--lac", "2", "--lbc", "1"],
    ["keyrate", "--protocol", "squeezed-modified", "--chi-n", "2", "--format", "json"],
    ["maxdist", "--variance", "realistic", "--detector", "practical",
     "--geometry", "most-asymmetric"],
    ["optnoise", "--protocol", "squeezed-modified", "--variance", "realistic",
     "--detector", "practical", "--lac", "11", "--format", "json"],
    ["compare", "--variance", "realistic", "--geometry", "symmetric", "--tol-km", "0.2"],
]
CONFIG_ARGV = [["compare" if os.path.basename(p).startswith("paper_table_") else "sweep",
                "--config", p] for p in sorted(glob.glob(configs + "/*.json"))]
for argv in CONFIG_ARGV + CLI_ARGV:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    rows, record = out.getvalue(), None
    if rows.startswith("# config "):
        line, _, rows = rows.partition("\n")
        record = json.loads(line[len("# config "):])
    elif rows.startswith("{"):
        payload = json.loads(rows)
        record = payload.pop("metadata")
        rows = json.dumps(payload, sort_keys=True)
    print(f"cli {' '.join(argv)}\t{json.dumps([code, rows, err.getvalue()])}")
    print(f"record {' '.join(argv)}\t{json.dumps(record, sort_keys=True)}")
'''


def dump(root: Path, points: int, seed: int) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    argv = [sys.executable, "-c", DUMP, str(root), str(HERE / "configs"), str(points),
            str(NOISE_POINTS), str(seed)]
    return subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          check=True).stdout.splitlines()


def by_label(lines: list[str]) -> dict[str, str]:
    """Each value line by its label, the text before its first tab."""
    values = {}
    for line in lines:
        label = line.split("\t", 1)[0]
        if label in values:
            raise SystemExit(f"two values labelled {label!r}")
        values[label] = line
    return values


CATEGORIES = ("relay", "kernel", "optnoise", "sweep", "table", "compare", "cli", "record")

# a number not inside a name such as lambda1: the floats of a repr, a CSV or JSON
NUMBER = re.compile(r"(?<![\w.])-?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def floats(value: str) -> tuple[str, list[float]]:
    """The text of a value with each number cut out, and the numbers."""
    body = value.split("\t", 1)[1]
    if value.startswith(("relay", "kernel")) and not body.startswith("("):
        hexes, _, flags = body.partition(" (")
        return flags, [float.fromhex(h) for h in hexes.split()]
    return NUMBER.sub("#", body), [float(m) for m in NUMBER.findall(body)]


def float_differences(a: str, b: str) -> list[tuple[float, float, float]] | None:
    """(absolute, relative, ulp) difference of each pair of floats that
    differ, the ulp of the larger of the two, or None when the two values
    differ in more than their numbers."""
    (text_a, xs), (text_b, ys) = floats(a), floats(b)
    if text_a != text_b or len(xs) != len(ys):
        return None
    out = []
    for x, y in zip(xs, ys):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            d = abs(x - y)
            big = max(abs(x), abs(y))
            out.append((d, d / big, d / math.ulp(big)) if math.isfinite(d) else (math.inf,) * 3)
    return out


def k_star_drops(pairs: list[tuple[str, str]]) -> list[float]:
    """By how much each optnoise K* here is below the other checkout's,
    where it is: a (chi_n*, K*) pair on both sides, not an error."""
    drops = []
    for a, b in pairs:
        (text_a, xs), (text_b, ys) = floats(a), floats(b)
        if text_a == text_b == "(#, #)" and xs[1] < ys[1]:
            drops.append(ys[1] - xs[1])
    return drops


def summary(pairs: list[tuple[str, str]]) -> list[str]:
    """One line per category: values compared, values differing, and the
    largest differences among the floats that differ; for optnoise, the
    points where K* is lower here."""
    lines = []
    for category in CATEGORIES:
        in_category = [(a, b) for a, b in pairs if a.split(None, 1)[0] == category]
        differing = [(a, b) for a, b in in_category if a != b]
        diffs, textual = [], 0
        for a, b in differing:
            found = float_differences(a, b)
            if found is None:
                textual += 1
            else:
                diffs.extend(found)
        line = f"{category}: {len(in_category)} values, {len(differing)} differ"
        if diffs:
            line += (f"; largest difference {max(d[0] for d in diffs):.3g} absolute, "
                     f"{max(d[1] for d in diffs):.3g} relative, {max(d[2] for d in diffs):.3g} "
                     f"ulp, over {len(diffs)} floats")
        if textual:
            line += f"; {textual} differ in more than their numbers"
        if category == "optnoise":
            drops = k_star_drops(differing)
            line += f"; K* lower here at {len(drops)}"
            if drops:
                line += f", by at most {max(drops):.3g}"
        lines.append(line)
    return lines


def first_difference(a: str, b: str) -> str:
    i = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
    return f"character {i}: ...{a[max(0, i - 40):i + 40]!r} and ...{b[max(0, i - 40):i + 40]!r}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="root of the checkout to compare with")
    ap.add_argument("--points", type=int, default=3000, help="random relay points and gains")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    mine, theirs = (by_label(dump(root.resolve(), args.points, args.seed))
                    for root in (HERE, args.other))
    for side, values, other in (("here", mine, theirs), (f"in {args.other}", theirs, mine)):
        for label in values:
            if label not in other:
                print(f"only {side}: {label}")
    pairs = [(a, theirs[label]) for label, a in mine.items() if label in theirs]
    differ = 0
    for a, b in pairs:
        if a != b:
            differ += 1
            print(f"differ at {a.split(chr(9))[0]}: {first_difference(a, b)}")
    print("\n".join(summary(pairs)))
    one_sided = len(mine) + len(theirs) - 2 * len(pairs)
    if one_sided:
        print(f"{len(mine)} values here, {len(theirs)} in {args.other}, {len(pairs)} paired")
    if differ:
        print(f"differ: {differ} of {len(pairs)} paired values")
    if differ or one_sided:
        return 1
    print(f"identical: {len(mine)} values ({args.points} relays, {NOISE_POINTS} noise optima, "
          f"seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
