"""Per-layer spans recorded from outside the package.

The tracer replaces a layer's public functions by timing wrappers in the
namespaces of the modules that call them (``boxvas.cli``,
``boxvas.boxreach``, ...), so every call that crosses a module boundary
becomes a span: name, layer, start, end, parent.  Calls a module makes to its
own functions stay inside their caller's span, except where listed below.
Arithmetic helpers called once per path step (``vec_add``, ``path_profile``)
are never wrapped: a span per step would measure the tracer, not the layer.

Counts are computed from the wrapped calls' arguments and results, not read
from inside the program; ``METRICS`` says which is which.
"""
from __future__ import annotations

import functools
import importlib
import json
from math import prod
from time import perf_counter

def _cells(cap) -> int:
    return prod(c + 1 for c in cap)


# Count functions take the wrapped call's positional arguments and result.
# The path is the second argument of every core kernel, the box the second
# of both grid engines.


def _steps(args, result):
    return {"steps": len(args[1]), "traversals": 1}


def _record_steps(args, result):
    # PathRecord.record walks the path twice: effect, then drop/peak
    return {"steps": 2 * len(result.indices), "traversals": 2}


def _grid(args, result):
    return {"cells": _cells(args[1])}


def _lift_cells(args, result):
    t = tuple(args[1])
    return {"cells": _cells(t + t)}


def _semilinear(args, result):
    semi, _ = result
    return {"components": len(semi.components), "explicit": len(semi.explicit)}


def _scan(args, result):
    return {"scan_points": result.deep_lattice_points}


def _counts_steps(args, result):
    return {"counts_steps": sum(args[1])}


# (calling module, attribute, layer, count function).  Layer "search" is the
# module boxvas._search.
CALL_SITES = [
    ("boxvas.cli", "parse_instance", "instances", None),
    ("boxvas.cli", "serialize_instance", "instances", None),
    ("boxvas.cli", "compute_threshold", "boxreach", None),
    ("boxvas.cli", "decide_box_reach", "boxreach", None),
    ("boxvas.cli", "decide_reach_capped", "boxreach", None),
    ("boxvas.cli", "synthesize_box_witness", "boxreach", None),
    ("boxvas.cli", "verify_window", "boxreach", None),
    ("boxvas.cli", "is_box_reaching_trace", "core", _steps),
    ("boxvas.cli", "compute_seed", "geometry", None),
    ("boxvas.cli", "ditc_falsification_scan", "geometry", _scan),
    ("boxvas.cli", "lift_vas", "lift", None),
    ("boxvas.cli", "steinitz_reorder", "steinitz", None),
    ("boxvas.cli", "build_semilinear", "vass1", _semilinear),
    ("boxvas.cli", "vass1_box_decide", "vass1", None),
    # cli imports decide_box_via_lift inside the command, from the module
    ("boxvas.lift", "decide_box_via_lift", "lift", _lift_cells),
    ("boxvas.lift", "bfs_grid", "search", _grid),
    ("boxvas.lift", "reachable_bitmap", "search", _grid),
    ("boxvas.lift", "is_box_reaching_trace", "core", _steps),
    ("boxvas.boxreach", "bfs_grid", "search", _grid),
    ("boxvas.boxreach", "reachable_bitmap", "search", _grid),
    ("boxvas.boxreach", "is_box_reaching_trace", "core", _steps),
    ("boxvas.boxreach", "effect", "core", _steps),
    ("boxvas.boxreach", "is_valid_n_trace", "core", _steps),
    ("boxvas.boxreach", "compute_seed", "geometry", None),
    ("boxvas.boxreach", "cone_from_generators", "geometry", None),
    ("boxvas.boxreach", "default_deep_constant", "geometry", None),
    ("boxvas.boxreach", "int_cone_member", "geometry", None),
    ("boxvas.boxreach", "is_m_deep", "geometry", None),
    ("boxvas.boxreach", "reorder_counts", "steinitz", _counts_steps),
    ("boxvas.geometry", "is_box_reaching_trace", "core", _steps),
    ("boxvas.steinitz", "effect", "core", _steps),
    ("boxvas.steinitz", "drop_peak", "core", _steps),
    # inside their own modules: the exact branch of reorder_counts, and the
    # sweeps and searches build_semilinear runs
    ("boxvas.steinitz", "steinitz_reorder", "steinitz", None),
    ("boxvas.vass1", "vass1_min_ceilings", "vass1", None),
    ("boxvas.vass1", "vass1_box_decide", "vass1", None),
]

# name: (unit, how it is obtained, what it sums)
METRICS = {
    "cli.self_s": ("s", "timed", "run_command minus its child spans"),
    "cli.calls": ("count", "computed", "run_command calls"),
    "instances.parse_s": ("s", "timed", "parse_instance and serialize_instance"),
    "boxreach.self_s": ("s", "timed", "boxreach entry points minus child spans"),
    "core.self_s": ("s", "timed", "path kernels called from other modules"),
    "core.steps": ("count", "computed", "path steps walked by those kernels"),
    "core.traversals_per_witness": ("ratio", "computed",
                                    "kernel traversals per emitted witness"),
    "search.bfs_s": ("s", "timed", "bfs_grid"),
    "search.bfs_cells": ("count", "computed", "grid cells of each BFS box"),
    "search.bitmap_s": ("s", "timed", "reachable_bitmap"),
    "search.bitmap_cells": ("count", "computed", "grid cells of each bitmap"),
    "lift.self_s": ("s", "timed", "lift_vas, decide_box_via_lift minus child spans"),
    "lift.cells": ("count", "computed", "cells of the lifted grids"),
    "geometry.self_s": ("s", "timed", "geometry entry points minus child spans"),
    "geometry.int_cone_calls": ("count", "computed", "int_cone_member calls"),
    "geometry.scan_points": ("count", "computed", "deep lattice points scanned"),
    "steinitz.exact_s": ("s", "timed", "steinitz_reorder, the exact construction"),
    "steinitz.exact_calls": ("count", "computed", "steinitz_reorder calls"),
    "steinitz.counts_s": ("s", "timed", "reorder_counts minus its exact branch"),
    "steinitz.counts_steps": ("count", "computed", "multiset sizes given to reorder_counts"),
    "vass1.build_s": ("s", "timed", "build_semilinear minus child spans"),
    "vass1.min_ceilings_s": ("s", "timed", "vass1_min_ceilings"),
    "vass1.decide_s": ("s", "timed", "vass1_box_decide"),
    "vass1.components": ("count", "computed", "linear components built"),
    "vass1.explicit_values": ("count", "computed", "explicit values built"),
    "vass1.budget_errors": ("count", "computed", "build_semilinear budget errors"),
    "trace.spans": ("count", "computed", "spans recorded"),
    "trace.overhead_pct": ("%", "timed", "traced against untraced batch time"),
    "trace.answers_per_s": ("1/s", "timed", "answers_per_s with tracing on"),
    "trace.headline_s": ("s", "timed", "headline_s with tracing on"),
}


class Tracer:
    """Records spans in memory between ``install``, which patches the call
    sites, and ``uninstall``, which puts the original functions back."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        self._next_id = 0

    def wrap(self, layer: str, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = perf_counter()
            error = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                error = type(e).__name__
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                counts = count(args, result) if count and error is None else {}
                self.spans.append(
                    (frame[0], parent, layer, name, start, end, dur - frame[1], counts, error)
                )

        return wrapper

    def install(self) -> None:
        for module_name, attr, layer, count in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(layer, attr, original, count))
            self._patched.append((module, attr, original))
        core = importlib.import_module("boxvas.core")
        record = core.PathRecord.__dict__["record"]
        core.PathRecord.record = classmethod(
            self.wrap("core", "PathRecord.record", record.__func__, _record_steps)
        )
        self._patched.append((core.PathRecord, "record", record))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        keys = ("id", "parent", "layer", "name", "start", "end", "self_s", "counts", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, rounds: int, witnesses: int) -> dict[str, float]:
        """Per-round sums of the spans, keyed as in ``METRICS``."""
        m = {name: 0.0 for name in METRICS if not name.startswith("trace.")}
        traversals = 0
        for _, _, layer, name, start, end, self_s, counts, error in self.spans:
            dur = end - start
            if layer == "cli":
                m["cli.self_s"] += self_s
                m["cli.calls"] += 1
            elif layer == "instances":
                m["instances.parse_s"] += dur
            elif layer == "boxreach":
                m["boxreach.self_s"] += self_s
            elif layer == "core":
                m["core.self_s"] += self_s
                m["core.steps"] += counts.get("steps", 0)
                traversals += counts.get("traversals", 0)
            elif layer == "search":
                kind = "bfs" if name == "bfs_grid" else "bitmap"
                m[f"search.{kind}_s"] += dur
                m[f"search.{kind}_cells"] += counts.get("cells", 0)
            elif layer == "lift":
                m["lift.self_s"] += self_s
                m["lift.cells"] += counts.get("cells", 0)
            elif layer == "geometry":
                m["geometry.self_s"] += self_s
                m["geometry.int_cone_calls"] += name == "int_cone_member"
                m["geometry.scan_points"] += counts.get("scan_points", 0)
            elif layer == "steinitz":
                if name == "steinitz_reorder":
                    m["steinitz.exact_s"] += dur
                    m["steinitz.exact_calls"] += 1
                else:
                    m["steinitz.counts_s"] += self_s
                    m["steinitz.counts_steps"] += counts.get("counts_steps", 0)
            elif layer == "vass1":
                if name == "build_semilinear":
                    m["vass1.build_s"] += self_s
                    m["vass1.components"] += counts.get("components", 0)
                    m["vass1.explicit_values"] += counts.get("explicit", 0)
                    m["vass1.budget_errors"] += error == "ResourceBudgetError"
                elif name == "vass1_min_ceilings":
                    m["vass1.min_ceilings_s"] += dur
                else:
                    m["vass1.decide_s"] += dur
        out = {k: v / rounds for k, v in m.items()}
        out["core.traversals_per_witness"] = traversals / witnesses if witnesses else 0.0
        return out
