"""The library names, call shapes and pinned numbers that the benchmark under
``bench/`` relies on.

``bench/tracer.py`` rebinds module globals by name, and ``bench/workloads.py``
calls the analysis API with fixed keywords and checks every sweep point
against ``bench/reference.json``.  A rename, a dropped name, a layer no
longer called through its traced binding, or a kernel change that moves K
would break the benchmark without failing any library test, so the
contract is checked here; ``bench/`` itself is only read.
"""

import importlib
import importlib.util
import inspect
import itertools
import random
from pathlib import Path

import pytest

from cvmdi import AddedNoiseParams, ProtocolParams, analysis
from cvmdi.protocols import PROTOCOLS

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = load_bench("tracer")
WORKLOADS = load_bench("workloads")


@pytest.mark.parametrize("module_name,attr,name",
                         TRACER_MODULE.LAYER_BINDINGS + TRACER_MODULE.SEARCH_BINDINGS)
def test_traced_binding_resolves(module_name, attr, name):
    assert callable(getattr(importlib.import_module(module_name), attr)), name


def test_optimize_added_noise_returns_chi_and_k():
    p = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=11.0, l_bc=0.0, eta=0.9, v_el=0.015,
                       protocol="squeezed-modified")
    result = analysis.optimize_added_noise(p)
    assert isinstance(result, tuple) and len(result) == 2


def test_workload_call_shapes_bind():
    base = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=0.0, l_bc=0.0)
    inspect.signature(analysis.SweepSpec).bind(
        "distance-symmetric", start=0.0, stop=0.0, step=0.5, base=base)
    inspect.signature(analysis.compare_protocols).bind(
        base, geometry="most-asymmetric", detectors=("practical",), tol_km=0.05)


def reference_sample():
    """(grid, offset, k) of the sweep points re-checked against the reference:
    the two V = 1e5, L = 0 points (coherent and squeezed grids at offset 0,
    k = 0), which the reference pins closest to double precision, and 30
    seeded others across the three grids."""
    rng = random.Random(20140603)
    others = [(rng.randrange(len(WORKLOADS.SWEEP_GRIDS)), rng.randrange(WORKLOADS.SWEEP_OFFSETS),
               rng.randrange(WORKLOADS.SWEEP_POINTS)) for _ in range(30)]
    return [(0, 0, 0), (1, 0, 0), *others]


def test_sweep_reference_still_holds():
    # the benchmark's sweep check, on a sample: a kernel change that moves
    # rounding fails here, not only in bench/run.py
    reference = WORKLOADS.load_reference()
    sweep = WORKLOADS.Sweep(0, reference)
    for case in reference_sample():
        g, offset, k = case
        (row,) = sweep.run(case).rows
        want = reference["sweep"][g][offset][k]
        assert row.report is not None, (case, row.error)
        assert abs(row.report.key_rate - want) <= WORKLOADS.K_TOL_BITS, (
            case, row.report.key_rate, want)


def test_cli_workload_check_passes():
    # the benchmark's own check of its first 12 cli cases, two of each
    # protocol and format: it rebuilds each row from AddedNoiseParams,
    # key_rate and the report's fields, so a change to any of them fails here
    cli = WORKLOADS.Cli(0, WORKLOADS.load_reference())
    cases = list(itertools.islice(cli.cases(), 12))
    assert {case[1][:2] for case in cases} == {
        (fmt, protocol) for protocol, fmt in WORKLOADS.CLI_CASES}
    for case in cases:
        assert cli.check(case, cli.run(case)), case[0]


def test_table_workload_check_passes():
    # the benchmark's check of one paper table, edge brackets included
    table = WORKLOADS.Table(0, WORKLOADS.load_reference())
    case = next(iter(table.cases()))
    assert table.check(case, table.run(case))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_tracer_counts_every_layer_of_a_gain_search(protocol):
    # the tracer counts a layer only while the library calls it through the
    # module binding the tracer wraps: a refactor that stops doing so reads
    # 0 in the benchmark's per-layer metrics without failing anything else,
    # as build_mdi_state and symplectic_eigenvalues already do
    p = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=10.0, l_bc=0.0, eta=0.9, v_el=0.015,
                       protocol=protocol)
    noise = AddedNoiseParams.from_chi_n(1.0) if protocol == "squeezed-modified" else None
    tracer = TRACER_MODULE.Tracer()
    tracer.install()
    try:
        analysis.key_rate(p, noise)
    finally:
        tracer.restore()
    metrics = {name: value for name, (value, _, _) in tracer.summary().items()}
    assert metrics["protocols.key_rate.calls"] == 1
    assert metrics["protocols.optimal_gain.calls"] == metrics["search.gain_searches"] == 1
    assert metrics["search.gain_widenings"] == 0
    assert metrics["search.gain_evals"] > 0
    assert metrics["gaussian.g_func.calls"] > 0
    # one symplectic pair per gain evaluation, and one for the report
    assert metrics["gaussian.two_mode_symplectic.calls"] == metrics["search.gain_evals"] + 1
