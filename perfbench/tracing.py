"""In-memory span recorder for traced benchmark repetitions.

A span is recorded around each call into a layer by rebinding the module
attribute through which the package makes that call (``harness.checksum128``
for ``core.checksum128``, ``striped.batch_merge`` for ``merge.batch_merge``
and so on); the package itself is not changed.  ``install`` is only called
in traced repetitions, so untraced ones run the package's own functions.

Each span is ``[name, parent index or -1, start ns, end ns]``; the name is
``<layer>.<function>`` and the layer is the emsort module it belongs to.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from emsort import cli, harness, runform, striped
from emsort.vdisk import Cluster

#: (owner, attribute, span name) of every rebound call site.  The CLI
#: imported the harness functions by name, so it has its own bindings.
TRACE_POINTS = (
    (cli, "main", "cli.main"),
    (cli, "generate_input", "harness.generate_input"),
    (cli, "run_sort", "harness.run_sort"),
    (cli, "verify_output", "harness.verify_output"),
    (cli, "report_stats", "harness.report_stats"),
    (harness, "generate_input", "harness.generate_input"),
    (harness, "run_sort", "harness.run_sort"),
    (harness, "verify_output", "harness.verify_output"),
    (harness, "report_stats", "harness.report_stats"),
    (harness, "checksum128", "core.checksum128"),
    (harness, "form_runs", "runform.form_runs"),
    (harness, "compute_splitters", "selection.compute_splitters"),
    (harness, "external_all_to_all", "redistribute.external_all_to_all"),
    (harness, "local_multiway_merge", "merge.local_multiway_merge"),
    (harness, "striped_sort", "striped.striped_sort"),
    (runform, "internal_parallel_sort", "runform.internal_parallel_sort"),
    (striped, "internal_parallel_sort", "runform.internal_parallel_sort"),
    (striped, "form_striped_runs", "striped.form_striped_runs"),
    (striped, "striped_merge_pass", "striped.striped_merge_pass"),
    (striped, "batch_merge", "merge.batch_merge"),
    (Cluster, "save_images", "vdisk.save_images"),
)
LOAD_IMAGES = "vdisk.load_images"
SPAN_NAMES = sorted({name for _o, _a, name in TRACE_POINTS} | {LOAD_IMAGES})
LAYERS = sorted({name.split(".")[0] for name in SPAN_NAMES})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.sorted_clusters: list[Cluster] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1,
                          time.perf_counter_ns(), 0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter_ns()

        return traced

    def install(self) -> None:
        """Rebind every trace point; lasts for the rest of the process."""
        for owner, attr, name in TRACE_POINTS:
            fn = getattr(owner, attr)
            if attr == "run_sort":
                fn = self._keep_cluster(fn)
            setattr(owner, attr, self.wrap(name, fn))
        Cluster.load_images = classmethod(
            self.wrap(LOAD_IMAGES, Cluster.load_images.__func__))

    def _keep_cluster(self, fn):
        def run_sort(cluster, *args, **kwargs):
            self.sorted_clusters.append(cluster)
            return fn(cluster, *args, **kwargs)

        return run_sort

    def summary(self, scale: float = 1.0) -> dict[str, float]:
        """Inclusive seconds and calls per span name, self seconds per layer;
        seconds are multiplied by ``scale``."""
        inclusive: defaultdict[str, int] = defaultdict(int)
        calls: Counter[str] = Counter()
        covered = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                covered[parent] += end - start
        own: defaultdict[str, int] = defaultdict(int)
        for (name, _parent, start, end), child in zip(self.spans, covered):
            own[name.split(".")[0]] += end - start - child
        out: dict[str, float] = {"trace.spans": len(self.spans)}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = inclusive[name] * scale / 1e9
            out[f"{name}_calls"] = calls[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = own[layer] * scale / 1e9
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns"],
                       "spans": self.spans}, fh)
