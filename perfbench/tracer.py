"""In-memory span tracer for the heatvalve benchmark.

Wraps module-level functions of the ``heatvalve`` package at every name a
caller can look them up by (the defining module, modules that imported the
name with ``from ... import``, and the package namespace), records one span
per call and keeps all spans in memory until the traced run ends.

The module is plain Python: the benchmark driver imports it to aggregate
spans without loading numpy.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# Layer boundaries traced by the benchmark, as "<module>.<function>" under the
# heatvalve package.  cli is traced at ``main`` only, so that its self time
# is the CLI's own work: argument parsing, config load, CSV and manifest write.
TARGETS = (
    "cli.main",
    "experiments.run_sweep",
    "experiments.run_trace",
    "experiments.run_distribution_comparison",
    "experiments.simulate_trace",
    "valve.sample_bath",
    "valve.apply_internal_couplings",
    "valve.build_hamiltonian",
    "valve.bath_hamiltonian",
    "valve.initial_correlation",
    "nambu.build_nambu",
    "nambu.diagonalize",
    "evolution.make_propagator",
    "evolution.heat_current",
    "evolution.make_reduced_propagator",
    "evolution.reduced_heat_current",
    "evolution.steady_state_estimate",
    "analytics.landauer_current",
    "analytics.weak_coupling_current",
    "analytics.anomalous_current_discrete",
)

REALIZATION = "experiments.simulate_trace"

# Exact work counts read off a traced call's result: the dimension of each
# diagonalized matrix and the number of time points of each current trace.
_WORK = {
    "nambu.diagonalize": ("nambu.diagonalize.dim", lambda r: len(r.eigenvalues)),
    "evolution.heat_current": ("evolution.time_points", lambda r: len(r.times)),
    "evolution.reduced_heat_current": ("evolution.time_points", len),
}


class Tracer:
    """Records spans ``[id, parent_id, name, start, end]`` and work counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.work: dict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    name, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                self.work[work[0]].append(work[1](result))
            return result

        return traced

    def install(self, modules: dict, targets=TARGETS) -> list[str]:
        """Wrap each target at every name that refers to it; return absent targets.

        ``modules`` maps a module name relative to the package ("valve") to
        the module object; the empty name is the package itself.  A target
        whose module or function no longer exists is returned as absent.
        """
        absent = []
        for target in targets:
            mod_name, fn_name = target.rsplit(".", 1)
            original = getattr(modules.get(mod_name), fn_name, None)
            if not callable(original):
                absent.append(target)
                continue
            traced = self.wrap(target, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
        return absent

    def dump(self) -> dict:
        return {"run_id": self.run_id,
                "spans": [dict(zip(("id", "parent", "name", "start", "end"), s))
                          for s in self.spans],
                "work": dict(self.work)}


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    Calls are synchronous on one thread, so child spans nest inside their
    parent without overlap and their durations add up to the covered part.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def realization_closure(spans: list[dict]) -> float:
    """Largest gap between a realization span and its subtree's summed self times."""
    own = self_times(spans)
    subtree = list(own)
    for s in reversed(spans):  # children are recorded after their parent
        if s["parent"] is not None:
            subtree[s["parent"]] += subtree[s["id"]]
    return max((abs(subtree[s["id"]] - (s["end"] - s["start"]))
                for s in spans if s["name"] == REALIZATION), default=0.0)


def layer_metrics(dump: dict, targets=TARGETS) -> dict[str, float]:
    """Per-layer self time, call count and exact work counts of one traced run."""
    spans = dump["spans"]
    out = {f"{t}.{k}": 0 for t in targets for k in ("self_s", "calls")}
    for s, own in zip(spans, self_times(spans)):
        out[f"{s['name']}.self_s"] += own
        out[f"{s['name']}.calls"] += 1
    work = dump["work"]
    out["nambu.diagonalize.dim"] = max(work.get("nambu.diagonalize.dim", []), default=0)
    out["evolution.time_points"] = sum(work.get("evolution.time_points", []))
    realizations = out[f"{REALIZATION}.calls"]
    out["valve.sample_bath.calls_per_realization"] = (
        out["valve.sample_bath.calls"] / realizations if realizations else 0
    )
    return out
