"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py JOB_JSON

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``.  JOB_JSON holds the workload definition (engine, input kind,
machine config, whether it goes through the persisted CLI), the seed,
whether to trace, and a scratch directory inside the checkout.  The
repetition uses only the package's public calls: ``generate_input``,
``run_sort``, ``verify_output`` and ``report_stats`` from ``harness``, or
``cli.main`` for the persisted workload.

Prints one JSON object: host seconds, peak RSS, the digest of the stats
report without its ``wall_seconds`` line, the input fingerprint, the
simulated counts read back from that report, the residual of each
accounting identity and any failures.  A traced repetition adds span
totals per layer and writes its spans to the path given in the job.

Host seconds are reported at a reference machine speed.  The shared
machines this runs on change speed by up to a quarter over tens of
seconds, for all code alike, so each timed phase is bracketed by a fixed
pure-Python calibration kernel and its seconds are scaled by
``REFERENCE_CALIBRATION_S`` over the mean of the two calibrations around
it.  The kernel does not touch emsort and runs with the garbage collector
off, so the package's heap cannot change its cost.
"""
from __future__ import annotations

import contextlib
import gc
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

from emsort import cli, harness
from emsort.core import MachineConfig
from emsort.vdisk import Cluster

WALL_LINE = "# wall_seconds="
CALIBRATION_ELEMENTS = 60000
#: What the calibration kernel takes on the machine the benchmark was
#: defined on (2 vCPUs); it only sets the scale of every reported second.
REFERENCE_CALIBRATION_S = 0.06
MASK64 = (1 << 64) - 1


def calibrate() -> float:
    """Seconds for a fixed kernel: LCG, 64-bit mixing, tuples, a list sort."""
    gc.disable()
    try:
        start = time.perf_counter()
        x = 0x9E3779B97F4A7C15
        items = []
        for i in range(CALIBRATION_ELEMENTS):
            x = (x * 6364136223846793005 + 1442695040888963407) & MASK64
            items.append(((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64, i))
        items.sort()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Clock:
    """Phase timer; every phase is bracketed by calibrations (see above)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.scale: dict[str, float] = {}
        self._last = calibrate()

    @contextlib.contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        yield
        raw = time.perf_counter() - start
        after = calibrate()
        self.scale[name] = REFERENCE_CALIBRATION_S / ((self._last + after) / 2)
        self.seconds[name] = raw * self.scale[name]
        self._last = after


def stats_digest(text: str) -> str:
    kept = [line for line in text.splitlines() if not line.startswith(WALL_LINE)]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def parse_stats(text: str) -> tuple[dict[str, str], dict[str, dict[str, int]]]:
    """Meta lines, and the CSV rows summed over PEs per phase."""
    meta: dict[str, str] = {}
    phases: dict[str, dict[str, int]] = {}
    header: list[str] | None = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            row = dict(zip(header, line.split(",")))
            acc = phases.setdefault(row["phase"], {})
            for column, value in row.items():
                if column not in ("phase", "pe"):
                    acc[column] = acc.get(column, 0) + int(value)
    return meta, phases


def counter_metrics(meta: dict[str, str], phases: dict[str, dict[str, int]]):
    """Simulated counts and identity residuals, from the stats report alone."""
    N, m = int(meta["N"]), int(meta["m"])
    v = int(meta["v_moved"])
    io_total = int(meta["data_element_io"])
    sent = int(meta["data_sent"])
    passes = int(meta["merge_passes"])
    touched = int(meta["selection_touched"])

    def col(phase: str, column: str) -> int:
        return phases.get(phase, {}).get(column, 0)

    selection_reads = col("selection", "blocks_read")
    striped_blocks = (col("striped_merge", "blocks_read")
                      + col("striped_merge", "blocks_written"))
    striped_steps = col("striped_merge", "io_steps")
    metrics = {
        "sim_io_per_elem": io_total / N,
        "sim_sent_per_elem": sent / N,
        "sim_io_steps": sum(p["io_steps"] for p in phases.values()),
        "runform.blocks_io": (col("run_formation", "blocks_read")
                              + col("run_formation", "blocks_written")),
        "runform.sent_per_elem": col("run_formation", "sent") / N,
        "selection.rounds": int(meta["selection_rounds"]),
        "selection.touched": touched,
        "selection.blocks_read": selection_reads,
        "selection.fallbacks": int(meta["selection_fallbacks"]),
        "selection.block_reuse": (1 - selection_reads / touched) if touched else 0.0,
        "redistribute.v_moved_per_elem": v / N,
        "redistribute.k_rounds": int(meta["k_rounds"]),
        "redistribute.overhead_elems": col("all_to_all", "overhead"),
        "redistribute.peak_footprint_frac": int(meta["peak_round_footprint"]) / m,
        "net.sent_elems": sent,
        "net.control_words": sum(p["control"] for p in phases.values()),
        "merge.overhead_elems": col("local_merge", "overhead"),
        "striped.passes": passes,
        "striped.disk_parallelism": (striped_blocks / striped_steps
                                     if striped_steps else 0.0),
    }
    if meta["engine"] == "canonical":
        overheads = sum(col(ph, "overhead") for ph in
                        ("run_formation", "all_to_all", "local_merge"))
        residuals = {
            "data_element_io - (4N + 2V + overheads)":
                io_total - (4 * N + 2 * v + overheads),
            "sent - (formation_sent + V)":
                sent - (col("run_formation", "sent") + v),
        }
    else:
        residuals = {"data_element_io - 2N(passes+1)":
                     io_total - 2 * N * (passes + 1)}
    return metrics, residuals


def run_in_process(spec: dict, cfg: MachineConfig) -> dict:
    clock = Clock()
    with clock.phase("setup_s"):
        cluster = Cluster(cfg)
        gen = harness.generate_input(
            cluster, harness.InputSpec(spec["kind"], cfg.N, cfg.seed))
    with clock.phase("sort_s"):
        result = harness.run_sort(cluster, gen.pe_blocks, spec["engine"])
    with clock.phase("verify_s"):
        verdict = harness.verify_output(cluster, result.layout, gen.count,
                                        gen.total)
    return {
        "times": dict(clock.seconds, total_s=sum(clock.seconds.values())),
        "scale": statistics.mean(clock.scale.values()),
        "failures": list(verdict.failures),
        "stats": harness.report_stats(cfg, result, spec["kind"]),
        "count": gen.count, "total": gen.total,
        "image_bytes": 0,
    }


def run_persisted(spec: dict, cfg: MachineConfig, workdir: str) -> dict:
    """``emsort gen``, ``sort`` and ``verify`` with ``--persist``, in-process."""
    config_path = os.path.join(workdir, "machine.cfg")
    store = os.path.join(workdir, "store")
    stats_path = os.path.join(workdir, "stats.csv")
    shutil.rmtree(store, ignore_errors=True)
    with open(config_path, "w", encoding="utf-8") as fh:
        for key in ("P", "D", "B", "m", "N", "seed", "elem_size"):
            fh.write(f"{key} = {getattr(cfg, key)}\n")
        fh.write(f"randomize = {'on' if cfg.randomize else 'off'}\n")
    commands = {
        "gen": ["gen", "--config", config_path, "--kind", spec["kind"],
                "--persist", store],
        "sort": ["sort", "--persist", store, "--engine", spec["engine"],
                 "--stats", stats_path],
        "verify": ["verify", "--persist", store],
    }
    failures: list[str] = []
    sink = io.StringIO()
    clock = Clock()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for name, argv in commands.items():
            with clock.phase(name):
                code = cli.main(argv)
            if code != 0:
                failures.append(f"emsort {name} exited {code}")
    with open(stats_path, encoding="utf-8") as fh:
        stats = fh.read()
    with open(os.path.join(store, cli.MANIFEST), encoding="utf-8") as fh:
        manifest = json.load(fh)
    wall = next(line for line in stats.splitlines() if line.startswith(WALL_LINE))
    images = glob.glob(os.path.join(store, "pe*_disk*.bin"))
    out = {
        "times": {"setup_s": clock.seconds["gen"],
                  "sort_s": float(wall[len(WALL_LINE):]) * clock.scale["sort"],
                  "verify_s": clock.seconds["verify"],
                  "total_s": sum(clock.seconds.values())},
        "scale": statistics.mean(clock.scale.values()),
        "failures": failures,
        "stats": stats,
        "count": int(manifest["count"]), "total": int(manifest["total"]),
        "image_bytes": sum(os.path.getsize(path) for path in images),
    }
    shutil.rmtree(store)
    return out


def run_job(job: dict) -> dict:
    spec = job["spec"]
    cfg = MachineConfig(**spec["config"], seed=job["seed"])
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["persisted"]:
        rep = run_persisted(spec, cfg, job["workdir"])
    else:
        rep = run_in_process(spec, cfg)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics, residuals = counter_metrics(*parse_stats(rep["stats"]))
    metrics.update(rep["times"])
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["vdisk.image_bytes_per_elem"] = rep["image_bytes"] / cfg.N
    failures = rep["failures"] + [f"identity {name} has residual {value}"
                                  for name, value in residuals.items() if value]
    if tracer is not None:
        metrics.update(tracer.summary(rep["scale"]))
        cluster = tracer.sorted_clusters[-1]
        metrics["vdisk.peak_allocated_blocks"] = sum(
            cluster.peak_allocated(pe) for pe in range(cfg.P))
        tracer.write(job["spans_path"])
    return {"metrics": metrics, "residuals": residuals, "failures": failures,
            "digest": stats_digest(rep["stats"]),
            "count": rep["count"], "total": str(rep["total"])}


if __name__ == "__main__":
    print(json.dumps(run_job(json.loads(sys.argv[1]))))
