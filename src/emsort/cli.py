"""Command line interface: gen / sort / verify / experiment.

A persisted run lives in a directory holding one binary image per (PE,
disk), ``manifest.json`` describing the machine, the images' generation,
the input kind and fingerprint, and — after sorting — ``layout.bin``, the
output layout as a PE column and a block-id column.  The input's block ids
are not stored: ``gen`` puts every PE's input in blocks
``0 .. N/(P*B) - 1``.  ``sort`` checks a loaded input's fingerprint
against its manifest before sorting, and refuses the flags that the
manifest fixes.  The process exit code is 0 iff verification passed.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .core import MachineConfig, load_config, validate_config
from .harness import (
    ENGINES,
    INPUT_KINDS,
    InputSpec,
    generate_input,
    loaded_fingerprint,
    report_stats,
    run_experiment_redistribution,
    run_sort,
    verify_output,
)
from .images import IMAGE_NAME
from .vdisk import Cluster, DiskError, OutputLayout

MANIFEST = "manifest.json"
LAYOUT = "layout.bin"

#: The fields of each stage's manifest besides ``stage`` and ``cfg``: what
#: ``gen`` and ``sort`` write and what reading that stage requires.
STAGE_FIELDS = {"input": ("generation", "kind", "count", "total"),
                "output": ("generation", "kind", "count", "total", "layout")}


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="machine config file (key=value lines)")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--randomize", choices=("on", "off"),
                     help="override the config randomize flag")
    sub.add_argument("--kind", choices=INPUT_KINDS,
                     help="input kind (default: random)")


def _generate(args, engines=ENGINES):
    """A cluster of the flags' config, the input generated there and its
    kind; exits unless one of ``engines`` can run the config."""
    cfg = _load_cfg(args)
    _check_cfg(cfg, engines)
    cluster = Cluster(cfg)
    kind = args.kind or "random"
    gen = generate_input(cluster, InputSpec(kind, cfg.N, cfg.seed))
    return cluster, gen, kind


def _load_cfg(args) -> MachineConfig:
    if not args.config:
        raise SystemExit("error: --config is required here")
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.randomize is not None:
        overrides["randomize"] = args.randomize == "on"
    try:
        return load_config(args.config, overrides)
    except (OSError, TypeError, ValueError) as exc:
        raise SystemExit(f"error: {args.config}: {exc}") from None


def _read_manifest(directory: str, stage: str) -> tuple[dict, MachineConfig]:
    """The manifest in ``directory`` and the machine config it records;
    exits with ``error: …`` when either cannot be read, the manifest
    describes another stage, or one of that stage's fields is missing or
    not in shape."""
    path = os.path.join(directory, MANIFEST)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise SystemExit(f"error: {path}: no manifest") from None
    except ValueError as exc:
        raise SystemExit(f"error: {path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise SystemExit(f"error: {path}: not a JSON object")
    try:
        cfg = MachineConfig(**manifest["cfg"])
    except KeyError:
        raise SystemExit(f"error: {path}: no cfg") from None
    except TypeError as exc:
        raise SystemExit(f"error: {path}: bad cfg: {exc}") from None
    if manifest.get("stage") != stage:
        raise SystemExit(f"error: {directory} does not hold an {stage} "
                         f"(stage={manifest.get('stage')!r})")
    for name in STAGE_FIELDS[stage]:
        if name not in manifest:
            raise SystemExit(f"error: {path}: no {name}")
        why = _field_fault(name, manifest[name])
        if why:
            raise SystemExit(f"error: {path}: bad {name}: {why}")
    return manifest, cfg


def _field_fault(name: str, value) -> str | None:
    """Why ``value`` is not the manifest field ``name``, or ``None`` when
    it is: ``kind`` one of :data:`INPUT_KINDS`,
    ``generation`` and ``count`` non-negative ints, ``total`` an int in
    ``[0, 2**128)``, and ``layout`` an object of a known ``engine`` and a
    non-negative int ``blocks``, the length of the columns in
    ``layout.bin``."""
    def is_int(v, top=None) -> bool:
        return type(v) is int and 0 <= v and (top is None or v < top)

    if name == "kind":
        return (None if value in INPUT_KINDS else
                f"must be one of {', '.join(INPUT_KINDS)}, got {value!r}")
    if name in ("generation", "count"):
        return None if is_int(value) else f"must be a non-negative int, got {value!r}"
    if name == "total":
        return (None if is_int(value, 1 << 128) else
                f"must be an int in [0, 2**128), got {value!r}")
    if not isinstance(value, dict):
        return "not an object"
    if value.get("engine") not in ENGINES:
        return (f"engine must be one of {', '.join(ENGINES)}, "
                f"got {value.get('engine')!r}")
    blocks = value.get("blocks")
    if not is_int(blocks):
        return f"blocks must be a non-negative int, got {blocks!r}"
    return None


def _open_stats(path: str | None):
    """``path`` opened for writing, or a null context for ``None``; exits
    with ``error: <path>: …`` when it cannot be opened."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"error: {path}: {exc.strerror}") from None


def _persist(cluster: Cluster, directory: str, stage: str,
             layout: OutputLayout | None = None, **values) -> None:
    """Save the ``stage`` store: the images in a generation no file in
    ``directory`` has yet, for an output the ``layout``, then the manifest,
    whose other fields :data:`STAGE_FIELDS` names and ``values`` holds, by
    one rename.  A crash before the rename leaves the old store as it was;
    after it, the files the new manifest does not name are deleted."""
    os.makedirs(directory, exist_ok=True)       # to list it
    generation = 1 + max((int(m[1]) for m in map(IMAGE_NAME.fullmatch,
                                                  os.listdir(directory)) if m),
                         default=0)
    cluster.save_images(directory, generation)
    if layout is not None:
        layout.save(os.path.join(directory, LAYOUT))
        values["layout"] = {"engine": layout.engine, "blocks": len(layout.pes)}
    values["generation"] = generation
    payload = {"stage": stage, "cfg": asdict(cluster.cfg),
               **{name: values[name] for name in STAGE_FIELDS[stage]}}
    # ``json.dumps`` without ``indent`` runs the C encoder; ``json.dump``
    # never does.
    text = json.dumps(payload, sort_keys=True)
    path = os.path.join(directory, MANIFEST)
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    os.replace(path + ".tmp", path)
    for name in os.listdir(directory):
        match = IMAGE_NAME.fullmatch(name)
        if ((match and int(match[1]) != generation)
                or (name == LAYOUT and layout is None)):
            os.remove(os.path.join(directory, name))


def _check_cfg(cfg: MachineConfig, engines=ENGINES) -> None:
    """Exit with every engine's reasons unless one of ``engines`` can run
    ``cfg``."""
    bad = {engine: validate_config(cfg, engine) for engine in engines}
    if all(bad.values()):
        raise SystemExit("error: bad config: " + "; ".join(
            f"{engine}: {', '.join(reasons)}" for engine, reasons in bad.items()))


def cmd_gen(args) -> int:
    cluster, gen, kind = _generate(args)
    _persist(cluster, args.persist, "input", kind=kind,
             count=gen.count, total=gen.total)
    print(f"generated {gen.count} elements ({kind}) into {args.persist}")
    return 0


def cmd_sort(args) -> int:
    if args.persist and os.path.exists(os.path.join(args.persist, MANIFEST)):
        manifest, cfg = _read_manifest(args.persist, "input")
        fixed = [f"--{name}" for name in ("config", "seed", "kind", "randomize")
                 if getattr(args, name) is not None]
        if fixed:
            raise SystemExit(f"error: {args.persist} holds an input; its "
                             f"manifest fixes {', '.join(fixed)}")
        _check_cfg(cfg, (args.engine,))
        # No input image holds a slot at or above ceil(blocks_per_pe / D).
        cluster = Cluster.load_images(args.persist, cfg, manifest["generation"],
                                      -(-cfg.blocks_per_pe // cfg.D))
        kind, count, total = (manifest["kind"], manifest["count"],
                              manifest["total"])
        if loaded_fingerprint(cluster) != (count, total):
            raise SystemExit(f"error: {args.persist}: the input's fingerprint "
                             "differs from its manifest's")
    else:
        cluster, gen, kind = _generate(args, (args.engine,))
        cfg, count, total = cluster.cfg, gen.count, gen.total

    # Generating into a fresh cluster puts each PE's input in its first ids.
    blocks = [np.arange(cfg.blocks_per_pe) for _ in range(cfg.P)]
    result = run_sort(cluster, blocks, args.engine)
    verdict = verify_output(cluster, result.layout, count, total)
    text = report_stats(cfg, result, kind)
    sys.stdout.write(text)
    if args.stats:
        args.stats.write(text)

    if args.persist and verdict.ok:
        _persist(cluster, args.persist, "output", result.layout, kind=kind,
                 count=count, total=total)
    if verdict.ok:
        print("verification: pass", file=sys.stderr)
        return 0
    for failure in verdict.failures:
        print(f"verification: FAIL: {failure}", file=sys.stderr)
    return 1


def cmd_verify(args) -> int:
    manifest, cfg = _read_manifest(args.persist, "output")
    desc = manifest["layout"]
    _check_cfg(cfg, (desc["engine"],))
    layout = OutputLayout.load(os.path.join(args.persist, LAYOUT),
                               desc["engine"], desc["blocks"], cfg.P)
    # A sorted store's live blocks are exactly its layout's blocks.
    cluster = Cluster.load_images(args.persist, cfg, manifest["generation"],
                                  int(layout.lbs.max(initial=-1)) // cfg.D + 1)
    verdict = verify_output(cluster, layout, manifest["count"],
                            manifest["total"])
    if verdict.ok:
        print("verification: pass")
        return 0
    for failure in verdict.failures:
        print(f"verification: FAIL: {failure}")
    return 1


def cmd_experiment(args) -> int:
    cfg = _load_cfg(args)
    try:
        b_values = tuple(int(v) for v in args.blocks.split(","))
    except ValueError:
        raise SystemExit(f"error: --blocks {args.blocks!r} is not a "
                         "comma-separated list of integers") from None
    try:
        _rows, text = run_experiment_redistribution(
            cfg, kind=args.kind or "random", b_values=b_values,
            trials=args.trials)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    sys.stdout.write(text)
    if args.stats:
        args.stats.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emsort",
        description="Deterministic simulator of a distributed external-"
                    "memory sorting cluster with exact I/O and "
                    "communication accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an input and persist it")
    _add_config_flags(p_gen)
    p_gen.add_argument("--persist", required=True, metavar="DIR")
    p_gen.set_defaults(func=cmd_gen)

    p_sort = sub.add_parser("sort", help="sort (fresh or persisted input)")
    _add_config_flags(p_sort)
    p_sort.add_argument("--engine", choices=ENGINES,
                        default="canonical")
    p_sort.add_argument("--persist", metavar="DIR",
                        help="input directory to load / output directory")
    p_sort.add_argument("--stats", metavar="FILE", help="also write CSV here")
    p_sort.set_defaults(func=cmd_sort)

    p_verify = sub.add_parser("verify", help="re-verify a persisted output")
    p_verify.add_argument("--persist", required=True, metavar="DIR")
    p_verify.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("experiment",
                           help="redistribution volume measurements")
    _add_config_flags(p_exp)
    p_exp.add_argument("--blocks", default="4,16",
                       help="comma-separated block sizes (default: 4,16)")
    p_exp.add_argument("--trials", type=int, default=20)
    p_exp.add_argument("--stats", metavar="FILE", help="also write CSV here")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    store = getattr(args, "persist", None)
    if store and os.path.exists(store) and not os.path.isdir(store):
        raise SystemExit(f"error: {store}: not a directory")
    try:
        # ``--stats FILE`` is opened before the command does any work.
        with _open_stats(getattr(args, "stats", None)) as args.stats:
            return args.func(args)
    except (DiskError, OSError) as exc:     # a store not read or written
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
