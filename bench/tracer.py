"""Outside-in layer tracing for the cvmdi benchmark.

The tracer replaces module-global bindings of public cvmdi functions with
wrappers that record one span per call: (name, start, end, parent).  Code
inside cvmdi looks these names up in its own module globals at call time,
so wrapping ``cvmdi.protocols.build_mdi_state`` catches every internal
call as well.  No library code changes; ``restore`` puts every original
binding back.

The one-dimensional searches are attributed to the module whose binding
called them: ``golden_section_max`` as bound in ``protocols`` is the gain
search, as bound in ``analysis`` the chi_n search, and ``positive_edge``
in ``analysis`` the distance search.  Their objective callables are
wrapped as well, so every objective evaluation is one ``*_eval`` span.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name): layer functions traced where they are bound
# and called on the workloads' paths.
LAYER_BINDINGS = (
    ("cvmdi.protocols", "g_func", "gaussian.g_func"),
    ("cvmdi.protocols", "two_mode_symplectic", "gaussian.two_mode_symplectic"),
    ("cvmdi.protocols", "symplectic_eigenvalues", "gaussian.symplectic_eigenvalues"),
    ("cvmdi.protocols", "build_mdi_state", "protocols.build_mdi_state"),
    ("cvmdi.protocols", "optimal_gain", "protocols.optimal_gain"),
    ("cvmdi.analysis", "key_rate", "protocols.key_rate"),
    ("cvmdi.cli", "key_rate", "protocols.key_rate"),
    ("cvmdi.analysis", "optimize_added_noise", "analysis.optimize_added_noise"),
    ("cvmdi.analysis", "max_distance", "analysis.max_distance"),
    ("cvmdi.analysis", "sweep", "analysis.sweep"),
    ("cvmdi.analysis", "compare_protocols", "analysis.compare_protocols"),
    ("cvmdi.cli", "main", "cli.main"),
)

# (module, attribute, search name): the search call is span "<name>_search",
# each call of its objective is span "<name>_eval".
SEARCH_BINDINGS = (
    ("cvmdi.protocols", "golden_section_max", "search.gain"),
    ("cvmdi.analysis", "golden_section_max", "search.chi"),
    ("cvmdi.analysis", "positive_edge", "search.distance"),
)

# Spans reported as "<name>.calls" and "<name>.self_s".
REPORTED = ("gaussian.g_func", "gaussian.two_mode_symplectic",
            "gaussian.symplectic_eigenvalues", "protocols.build_mdi_state",
            "protocols.key_rate", "protocols.optimal_gain",
            "analysis.max_distance", "analysis.optimize_added_noise",
            "analysis.sweep", "cli.main")


class Tracer:
    """Span recorder; spans live in flat arrays until ``write`` is called."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """Return fn wrapped so that each call records one span."""
        nid = self._id(name)
        clock = time.perf_counter
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _wrap_search(self, search, name: str):
        eval_name = f"{name}_eval"
        self._id(eval_name)

        def traced_search(f, *args, **kwargs):
            return search(self.wrap(f, eval_name), *args, **kwargs)

        return self.wrap(functools.wraps(search)(traced_search), f"{name}_search")

    def install(self):
        """Wrap every binding in LAYER_BINDINGS and SEARCH_BINDINGS."""
        for bindings, wrapper in ((LAYER_BINDINGS, self.wrap),
                                  (SEARCH_BINDINGS, self._wrap_search)):
            for module_name, attr, name in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper(original, name))

    def restore(self):
        """Put every wrapped binding back, newest first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Write all spans as CSV: index, name, start_s, end_s, parent."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent"])
            for i in range(len(self.start)):
                out.writerow([i, self.names[self.name_id[i]], repr(self.start[i]),
                              repr(self.end[i]), self.parent[i]])

    def summary(self) -> dict[str, tuple[float, str, int]]:
        """Per-layer metrics as {name: (value, unit, samples)}; needs ``install``.

        Self time is a span's duration minus the time its direct children
        cover; wrapped calls nest strictly, so children never overlap.
        The kernel is one fixed-gain key-rate evaluation: each gain-search
        objective call, plus each key_rate call made with a fixed gain
        (one that runs no optimal_gain).
        """
        names = np.asarray(self.name_id, dtype=np.intp)
        parents = np.asarray(self.parent, dtype=np.intp)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        self_by_name = np.bincount(names, weights=dur - child_time, minlength=n_names)
        total_by_name = np.bincount(names, weights=dur, minlength=n_names)

        def count(name):
            return int(calls[self._ids[name]])

        runs_gain_search = np.zeros(len(dur), dtype=bool)
        is_optimal_gain = names == self._ids["protocols.optimal_gain"]
        runs_gain_search[parents[is_optimal_gain & has_parent]] = True
        fixed_gain = (names == self._ids["protocols.key_rate"]) & ~runs_gain_search
        kernel_evals = count("search.gain_eval") + int(fixed_gain.sum())
        kernel_s = (float(total_by_name[self._ids["search.gain_eval"]])
                    + float(dur[fixed_gain].sum()))

        out = {"protocols.kernel_us_per_eval": (
            1e6 * kernel_s / kernel_evals if kernel_evals else 0.0, "us", kernel_evals)}
        for name in REPORTED:
            out[f"{name}.calls"] = (count(name), "count", 1)
            out[f"{name}.self_s"] = (float(self_by_name[self._ids[name]]), "s", count(name))
        gain_searches = count("search.gain_search")
        out["search.gain_evals"] = (count("search.gain_eval"), "count", 1)
        out["search.gain_searches"] = (gain_searches, "count", 1)
        out["search.gain_widenings"] = (
            gain_searches - count("protocols.optimal_gain"), "count", 1)
        out["search.chi_evals"] = (count("search.chi_eval"), "count", 1)
        out["search.distance_evals"] = (count("search.distance_eval"), "count", 1)
        return out
