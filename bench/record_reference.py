"""Record the outputs that the benchmark checks against into reference.json.

    python3 bench/record_reference.py

Run it from the root of a checkout, only when a change is meant to move
the pinned numbers, and say why in CHANGES.md.  It records the comparison
table rows, the key rate of every point the ``sweep`` workload can draw,
and the key rate of the ``setup_s`` child's first call.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads


def main() -> int:
    workloads.import_cvmdi()
    from cvmdi import __version__

    table = workloads.Table(0, {"table": None}).run(None)
    sweep = workloads.Sweep(0, {"sweep": None})
    points = [[[sweep.run((g, j, k)).rows[0].report.key_rate
                for k in range(workloads.SWEEP_POINTS)]
               for j in range(workloads.SWEEP_OFFSETS)]
              for g in range(len(workloads.SWEEP_GRIDS))]
    setup = subprocess.run([sys.executable, "-c", run.SETUP_CODE], env=run.child_env(),
                           stdout=subprocess.PIPE, text=True, check=True)
    reference = {
        "cvmdi_version": __version__,
        "setup_k": float(setup.stdout),
        "table": [{"protocol": r.protocol, "detector": r.detector, "l_bc_km": r.l_bc_km,
                   "l_star_km": r.l_star_km, "positive_at_origin": r.positive_at_origin,
                   "capped": r.capped} for r in table.rows],
        "sweep": points,
    }
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
