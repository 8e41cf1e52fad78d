"""Per-layer spans, recorded from outside the program.

The tracer replaces the public lightsum functions that `lightsum.cli` and
`lightsum.sim` call (module globals, and function tables such as the CLI's
oracle map) with wrappers that record one span per call: layer name, start,
end, parent span and the operation it belongs to. Spans stay in memory and
are written out when the run ends; the per-layer metrics are computed from
them. Times are inclusive: a layer called inside another (the oracle inside
`perturb`, propagation inside the epsilon demo) counts in both.

The tracer reads `layout.stages[i].skip_delay/take_delay` for the propagation
horizon, `len()` and the dataclass fields of a profile for its size, and
`report.trials` of a perturbation report. A change to those types has to
follow here.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

# layer -> (module defining the functions, function names)
LAYERS = {
    "model.normalize": ("model", ("normalize",)),
    "model.compile": ("model", ("compile_layout", "compile_epsilon_layout", "cable_lengths")),
    "sim.propagate": ("sim", ("propagate", "propagate_epsilon")),
    "sim.detect": ("sim", ("detect",)),
    "oracles.oracle": ("oracles", ("solve_auto", "solve_dp", "solve_bruteforce", "solve_mitm")),
    "sim.perturb": ("sim", ("perturb_and_classify",)),
    "sim.write_profile": ("sim", ("write_profile",)),
    "sim.epsilon_demo": ("sim", ("epsilon_false_positive_demo",)),
    "analysis.feasibility": ("analysis", ("feasibility_report",)),
}
CALLERS = ("cli", "sim")

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "model.normalize_s": "s",
    "model.compile_s": "s",
    "sim.propagate_s": "s",
    "sim.propagate_slots_per_s": "1/s",
    "sim.propagate_minflt": "count",
    "sim.profile_entries": "count",
    "sim.profile_bytes": "B",
    "sim.detect_s": "s",
    "oracles.oracle_s": "s",
    "sim.perturb_s": "s",
    "sim.perturb_paths_per_s": "1/s",
    "sim.write_profile_s": "s",
    "sim.epsilon_demo_s": "s",
    "analysis.feasibility_s": "s",
    "cli.main_s": "s",
    "cli.import_s": "s",
}


def deep_bytes(obj: object) -> int:
    """Bytes held by an array, a tuple or list of numbers, or a number."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sys.getsizeof(obj) + sum(map(sys.getsizeof, obj))
    return sys.getsizeof(obj)


def profile_bytes(profile: object) -> int:
    return sum(deep_bytes(getattr(profile, f.name)) for f in dataclasses.fields(profile))


class Tracer:
    """Wraps lightsum's layer functions while installed; keeps the spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[dict, str, object]] = []
        self._sizes: dict[tuple, int] = {}

    def install(self) -> None:
        wrappers = {}
        for layer, (module, names) in LAYERS.items():
            mod = sys.modules[f"lightsum.{module}"]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None:
                    wrappers[fn] = self._wrap(layer, fn)
        for caller in CALLERS:
            namespace = vars(sys.modules[f"lightsum.{caller}"])
            tables = [namespace] + [v for v in namespace.values() if isinstance(v, dict)]
            for table in tables:
                for key, value in list(table.items()):
                    if callable(value) and value in wrappers:
                        self._restore.append((table, key, value))
                        table[key] = wrappers[value]

    def uninstall(self) -> None:
        for table, key, value in reversed(self._restore):
            table[key] = value
        self._restore.clear()

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "op": self.op, "name": layer}
            self.spans.append(span)
            self._stack.append(span["id"])
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if layer == "sim.propagate":
                span["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
                arcs = tuple((s.skip_delay, s.take_delay) for s in args[0].stages)
                span["slots"] = sum(map(max, arcs)) + 1
                span["entries"] = len(result)
                # A profile is a function of its arcs; sizing a big one costs
                # tens of ms, so it is done once per layout.
                if arcs not in self._sizes:
                    self._sizes[arcs] = profile_bytes(result)
                span["bytes"] = self._sizes[arcs]
            elif layer == "sim.perturb":
                span["paths"] = result.trials * 2 ** len(args[0].stages)
            return result

        return traced

    def metrics(self, ops: int, main_s: float, import_s: float) -> dict[str, float]:
        """Per-operation means of layer time, per-call means of propagation
        counts, and work rates over the layer's time."""
        busy = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            busy[span["name"]] += span["end"] - span["start"]
        props = [s for s in self.spans if s["name"] == "sim.propagate"]
        perturbs = [s for s in self.spans if s["name"] == "sim.perturb"]

        def per_call(key: str) -> float:
            return sum(s[key] for s in props) / len(props) if props else 0.0

        def rate(spans: list[dict], key: str, layer: str) -> float:
            return sum(s[key] for s in spans) / busy[layer] if busy[layer] else 0.0

        values = {f"{layer}_s": busy[layer] / ops for layer in LAYERS}
        values.update({
            "sim.propagate_slots_per_s": rate(props, "slots", "sim.propagate"),
            "sim.propagate_minflt": per_call("minflt"),
            "sim.profile_entries": per_call("entries"),
            "sim.profile_bytes": per_call("bytes"),
            "sim.perturb_paths_per_s": rate(perturbs, "paths", "sim.perturb"),
            "cli.main_s": main_s,
            "cli.import_s": import_s,
        })
        return {name: values[name] for name in METRICS}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans), encoding="utf-8")
