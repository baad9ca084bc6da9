"""Benchmark of the emsort simulator: host time, memory and exact counters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs in
a fresh Python process (``worker.py``), one after another with no threads,
so that ``peak_rss_mb`` is that repetition's own peak.  Repetitions run
until ``--seconds`` have passed (at least three, four when tracing), and
every reported time is the median over them.

Every repetition is gated.  It fails when verification fails, when an
accounting identity has a nonzero residual, when its counter digest or
input fingerprint differs from the stored reference of this workload and
seed (``references.json``), or when its digest differs from the first
repetition's.  With ``--trace 1`` the repetitions alternate between
untraced and traced; the per-layer numbers come from the traced ones and
``trace.overhead_s`` is the difference of their median ``total_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric by name, with its unit.  Metric names, units and
bounds are declared in ``BENCHMARK.json`` at the checkout root, and the
workloads in ``workloads.json`` next to this file.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

#: No repetition starts once this much of the run has gone; a run must
#: end within 180 s.
HARD_LIMIT_S = 150.0


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_rep(name: str, spec: dict, seed: int, traced: bool, rep: int,
            timeout: float) -> dict:
    """One repetition in a fresh process; a crash is reported as a failure."""
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    job = {"spec": spec, "seed": seed, "trace": traced, "workdir": str(workdir),
           "spans_path": str(workdir / f"spans-seed{seed}-rep{rep}.json")}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failures": [f"repetition {rep} exceeded {timeout:.0f} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failures": [f"worker exited {proc.returncode}: {tail[0]}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def reference_of(rep: dict) -> dict:
    """What ``references.json`` stores for one (workload, seed)."""
    return {key: rep[key] for key in ("digest", "count", "total")}


def gate(rep: dict, reference: dict | None, first_digest: str | None) -> list[str]:
    problems = list(rep["failures"])
    if "digest" not in rep:
        return problems
    if reference is not None:
        for key, want in reference.items():
            if rep[key] != want:
                problems.append(f"{key} {rep[key]} differs from reference {want}")
    if first_digest is not None and rep["digest"] != first_digest:
        problems.append("counter digest differs between repetitions")
    return problems


def repeat(name: str, spec: dict, seed: int, seconds: float, trace: bool
           ) -> list[tuple[bool, dict]]:
    """Run repetitions for ``seconds``; tracing alternates off and on."""
    shutil.rmtree(WORK / name, ignore_errors=True)
    min_reps = 4 if trace else 3
    start = time.perf_counter()
    reps: list[tuple[bool, dict]] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        began = time.perf_counter()
        remaining = HARD_LIMIT_S - (began - start)
        reps.append((traced, run_rep(name, spec, seed, traced, len(reps),
                                     timeout=remaining + 20)))
        now = time.perf_counter()
        last = now - began
        # Stop where the run ends closest to ``seconds``.
        if len(reps) >= min_reps and now - start + last / 2 >= seconds:
            break
        if now - start + 1.5 * last > HARD_LIMIT_S:
            break
    return reps


def median_of(reps: list[dict], metric: str) -> float:
    return statistics.median(rep["metrics"][metric] for rep in reps)


def measure(name: str, spec: dict, seed: int, seconds: float, trace: bool,
            reference: dict | None, declared: dict) -> dict:
    reps = repeat(name, spec, seed, seconds, trace)
    failed = 0
    first_digest = None
    for number, (_traced, rep) in enumerate(reps):
        problems = gate(rep, reference, first_digest)
        first_digest = first_digest or rep.get("digest")
        if problems:
            failed += 1
            for problem in problems:
                print(f"{name} seed {seed} repetition {number}: FAIL: {problem}",
                      file=sys.stderr)
    measured = [(traced, rep) for traced, rep in reps if "metrics" in rep]
    plain = [rep for traced, rep in measured if not traced]
    traced = [rep for was_traced, rep in measured if was_traced]
    if not plain or (trace and not traced):
        raise RuntimeError(f"{name}: no repetition produced measurements")
    metrics: dict[str, dict] = {}
    if trace:
        for entry in declared["per_layer"]:
            metric = entry["name"]
            if metric == "trace.overhead_s":
                value = median_of(traced, "total_s") - median_of(plain, "total_s")
            else:
                value = median_of(traced, metric)
            metrics[metric] = {"value": value, "unit": entry["unit"]}
    else:
        for entry in declared["end_to_end"]:
            metric = entry["name"]
            if metric == "pass_ratio":
                value = (len(reps) - failed) / len(reps)
            else:
                value = median_of(plain, metric)
            metrics[metric] = {"value": value, "unit": entry["unit"]}
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, workloads: dict | None = None,
         references: dict | None = None) -> int:
    """Run one workload.  ``workloads`` and ``references`` default to the
    files next to this script; the smoke test passes small ones."""
    args = parse_args(argv)
    if not (ROOT / "src" / "emsort" / "__init__.py").is_file():
        print(f"error: no emsort package under {ROOT / 'src'}; run from the "
              "root of an emsort checkout", file=sys.stderr)
        return 2
    if workloads is None:
        workloads = load_json(BENCH / "workloads.json")
    if references is None:
        references = load_json(BENCH / "references.json")["references"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    reference = references.get(args.workload, {}).get(str(args.seed))
    if reference is None:
        print(f"note: no stored counter reference for {args.workload} seed "
              f"{args.seed}; the gate checks verification, identities and "
              "repeatability only", file=sys.stderr)
    result = measure(args.workload, workloads[args.workload], args.seed,
                     args.seconds, bool(args.trace), reference,
                     load_json(ROOT / "BENCHMARK.json"))
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
