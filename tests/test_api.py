"""The package surface: the exported names and the README's library example."""
from __future__ import annotations

import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import emsort
from emsort import Cluster, MachineConfig
from emsort.core import validate_config

README = Path(__file__).resolve().parents[1] / "README.md"
TRACING = README.parent / "perfbench" / "tracing.py"
WORKLOADS = README.parent / "perfbench" / "workloads.json"

PUBLIC = {
    "MachineConfig", "Cluster", "InputSpec", "generate_input", "run_sort",
    "verify_output", "report_stats", "DiskError", "PlanError",
    "SelectionError", "ProtocolError", "__version__",
}

#: ``Cluster``'s methods: allocation of runs and stripes, runs of blocks on
#: one PE, and persistence.
CLUSTER_METHODS = {
    "alloc_blocks", "alloc_stripe", "read_blocks", "peek_blocks",
    "write_blocks", "seed_blocks", "free_blocks", "peak_allocated",
    "save_images", "load_images", "loaded_elements",
}


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library use", 1)[1].split("\n## ", 1)[0]


def test_exports_are_the_documented_api():
    assert sorted(emsort.__all__) == sorted(PUBLIC)
    for name in emsort.__all__:
        assert getattr(emsort, name) is not None
    section = library_section()
    for name in PUBLIC:
        assert f"`{name}`" in section, name


def test_cluster_speaks_in_runs_of_blocks():
    public = {name for name in dir(Cluster) if not name.startswith("_")}
    assert public == CLUSTER_METHODS
    section = library_section()
    for name in CLUSTER_METHODS:
        assert re.search(rf"`(Cluster\.)?{name}\(", section), name


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", library_section(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(Path(emsort.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_trace_points_resolve():
    """Every call the benchmark's tracer rebinds, and the ``Cluster``
    methods it wraps or calls, exist; a renamed one would otherwise fail
    only in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACE_POINTS
    for owner, attr, name in tracing.TRACE_POINTS:
        assert callable(getattr(owner, attr, None)), (owner, attr, name)
    assert isinstance(inspect.getattr_static(Cluster, "load_images"),
                      classmethod)
    assert callable(getattr(Cluster, "peak_allocated", None))


def test_benchmark_workloads_are_valid_configs():
    """Every benchmark workload's machine, built as the benchmark's worker
    builds it, is one its engine accepts; a stricter ``validate_config``
    would otherwise stop only the benchmark."""
    workloads = json.loads(WORKLOADS.read_text(encoding="utf-8"))
    assert workloads
    for name, spec in workloads.items():
        cfg = MachineConfig(**spec["config"], seed=1009)
        assert validate_config(cfg, spec["engine"]) == [], name
