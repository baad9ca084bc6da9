"""Record the counter references that the benchmark gates on.

    python3 perfbench/record_references.py

For every workload in ``workloads.json`` and every seed in ``SEEDS`` plus
``HELDOUT_SEED``, runs one untraced repetition and stores its counter
digest (the stats report without ``wall_seconds``) and input fingerprint
``(count, total)`` in ``references.json``.  Entries that already exist are
kept as they are: the references are what later changes must reproduce
exactly, so only a new workload gets new ones.  A repetition that fails
verification or an accounting identity is reported and never recorded.
The held-out seed is kept apart from the seeds used while tuning and gets
its own reference.
"""
from __future__ import annotations

import json
import sys

import run

SEEDS = range(32)
HELDOUT_SEED = 1009


def main() -> int:
    workloads = run.load_json(run.BENCH / "workloads.json")
    path = run.BENCH / "references.json"
    stored = (run.load_json(path) if path.exists()
              else {"heldout_seed": HELDOUT_SEED, "references": {}})
    for name, spec in workloads.items():
        table = stored["references"].setdefault(name, {})
        for seed in [*SEEDS, HELDOUT_SEED]:
            if str(seed) in table:
                continue
            rep = run.run_rep(name, spec, seed, False, 0, 170)
            problems = run.gate(rep, None, None)
            if problems:
                print(f"{name} seed {seed}: not recorded: {problems}",
                      file=sys.stderr)
                return 1
            table[str(seed)] = run.reference_of(rep)
            print(f"{name} seed {seed}: {rep['digest'][:16]}", flush=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
