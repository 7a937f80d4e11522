"""Span tracing of fairsplit's layers from outside the package.

``Tracer.patched()`` replaces the public functions of each layer, as
bound in the module that calls them, with wrappers that record one span
per call: name, start, end, parent span and request id.  Spans are kept
in memory; ``layer_metrics`` turns them into per-run self times (a
span's duration minus the part its child spans cover) and call counts,
and ``dump`` writes them out once the run is over.  Nothing under the
package is edited: the originals are put back when the context exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterator

# (module that calls the function, attribute there, span name).  Spans
# sharing a name are summed into one layer metric.
PATCHES = (
    ("cli", "loads_instance", "jsonio.loads_instance"),
    ("cli", "pair_split_to_json", "jsonio.to_json"),
    ("cli", "cycle_split_to_json", "jsonio.to_json"),
    ("cli", "stable_split_to_json", "jsonio.to_json"),
    ("cli", "instance_to_json", "jsonio.to_json"),
    ("cli", "solve_pair_split", "paths.solve_pair_split"),
    ("paths", "solve_pair_split", "paths.solve_pair_split"),
    ("cli", "solve_cycle_split", "paths.solve_cycle_split"),
    ("paths", "compose_splits", "paths.compose_splits"),
    ("cli", "solve_qstable_bruteforce", "paths.solve_qstable_bruteforce"),
    ("cli", "verify_pair_split", "paths.verify"),
    ("paths", "verify_pair_split", "paths.verify"),
    ("cli", "verify_cycle_split", "paths.verify"),
    ("cli", "verify_qstable_split", "paths.verify"),
    ("cli", "lambda_table", "signvectors.lambda_table"),
    ("cli", "tucker_verify", "signvectors.tucker_verify"),
    ("cli", "split_with_advantages", "rounding.split_with_advantages"),
    ("rounding", "search_continuous", "necklace.search_continuous"),
    ("necklace", "find_rational_point", "linsolve.find_rational_point"),
    ("necklace", "verify_continuous", "necklace.verify_continuous"),
    ("rounding", "verify_continuous", "necklace.verify_continuous"),
    ("cli", "verify_discrete", "necklace.verify_discrete"),
    ("rounding", "verify_discrete", "necklace.verify_discrete"),
    ("rounding", "cancel_cycles", "rounding.cancel_cycles"),
    ("rounding", "build_flow_graph", "rounding.build_flow_graph"),
    ("rounding", "round_color_r0", "rounding.round_color"),
    ("rounding", "round_color_r1", "rounding.round_color"),
    ("rounding", "round_color_rq1", "rounding.round_color"),
    ("rounding", "find_b_factor", "matching.find_b_factor"),
)

REQUEST_SPAN = "cli"
LAYER_SPANS = sorted({name for _, _, name in PATCHES})
COUNTED = ("paths.solve_pair_split", "paths.solve_qstable_bruteforce",
           "linsolve.find_rational_point", "matching.find_b_factor")


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, request id]
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.request = 0
        self.rational_hits = 0

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            record = [name, time.perf_counter(), 0.0, parent, self.request]
            self.spans.append(record)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if name == "linsolve.find_rational_point" and result is not None:
                    self.rational_hits += 1
                return result
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()

        return traced

    @contextlib.contextmanager
    def patched(self) -> Iterator[None]:
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(f"fairsplit.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.span(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer self times and call counts, as {metric: (value, unit)}."""
        self_time = {name: 0.0 for name in [REQUEST_SPAN, *LAYER_SPANS]}
        calls = {name: 0 for name in COUNTED}
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            self_time[name] += duration
            if parent >= 0:
                self_time[self.spans[parent][0]] -= duration
            if name in calls:
                calls[name] += 1
        out: dict[str, tuple[float, str]] = {}
        for name, seconds in self_time.items():
            out[f"{name}.self_s" if name == REQUEST_SPAN else f"{name}_s"] = (seconds, "s")
        for name, count in calls.items():
            out[f"{name}.calls"] = (count, "count")
        lp_calls = calls["linsolve.find_rational_point"]
        out["linsolve.hit_ratio"] = (self.rational_hits / lp_calls if lp_calls else 0.0, "ratio")
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
