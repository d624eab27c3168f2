"""The library names and call shapes that the benchmark under ``bench/``
relies on.

``bench/tracer.py`` rebinds module globals by name, and ``bench/workloads.py``
calls the analysis API with fixed keywords.  A rename or a dropped name would
break the benchmark without failing any library test, so the contract is
checked here; ``bench/`` itself is only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from cvmdi import ProtocolParams, analysis

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = load_tracer()


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
