"""Command line interface: gen / sort / verify / experiment.

A persisted run lives in a directory holding one binary image per (PE,
disk) plus ``manifest.json`` describing the machine, the input fingerprint,
and — after sorting — the output layout.  The process exit code is 0 iff
verification passed.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict, fields

from .core import MachineConfig, load_config, validate_config
from .harness import (
    ENGINES,
    INPUT_KINDS,
    InputSpec,
    generate_input,
    report_stats,
    run_experiment_redistribution,
    run_sort,
    verify_output,
)
from .vdisk import Cluster, DiskError, OutputLayout

MANIFEST = "manifest.json"

#: The manifest fields that reading each stage needs besides ``cfg``.
STAGE_FIELDS = {"input": ("kind", "count", "total", "pe_blocks"),
                "output": ("count", "total", "layout")}


def _add_config_flags(sub: argparse.ArgumentParser, kinds: bool = True) -> None:
    sub.add_argument("--config", help="machine config file (key=value lines)")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--randomize", choices=("on", "off"),
                     help="override the config randomize flag")
    if kinds:
        sub.add_argument("--kind", choices=INPUT_KINDS, default="random",
                         help="input kind (default: random)")


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
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {args.config}: {exc}") from None


def _read_manifest(directory: str, stage: str) -> tuple[dict, MachineConfig]:
    """The manifest in ``directory`` and the machine config it records;
    exits with ``error: …`` when either cannot be read, a ``cfg`` value has
    the wrong type, the manifest describes another stage, or it lacks a
    field that stage needs."""
    path = os.path.join(directory, MANIFEST)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise SystemExit(f"error: {path}: no manifest") from None
    except ValueError as exc:
        raise SystemExit(f"error: {path}: not valid JSON: {exc}") from None
    try:
        cfg = MachineConfig(**manifest["cfg"])
    except KeyError:
        raise SystemExit(f"error: {path}: no cfg") from None
    except TypeError as exc:
        raise SystemExit(f"error: {path}: bad cfg: {exc}") from None
    for field in fields(MachineConfig):
        value = getattr(cfg, field.name)
        want = bool if field.name == "randomize" else int
        if type(value) is not want:
            raise SystemExit(f"error: {path}: bad cfg: {field.name} must be "
                             f"{want.__name__}, got {value!r}")
    if manifest.get("stage") != stage:
        raise SystemExit(f"error: {directory} does not hold an {stage} "
                         f"(stage={manifest.get('stage')!r})")
    for name in STAGE_FIELDS[stage]:
        if name not in manifest:
            raise SystemExit(f"error: {path}: no {name}")
    if stage == "output":
        why = _layout_fault(manifest["layout"], cfg.P)
        if why:
            raise SystemExit(f"error: {path}: bad layout: {why}")
    return manifest, cfg


def _layout_fault(desc, P: int) -> str | None:
    """Why ``desc`` is not an output layout of a ``P``-PE machine: a known
    ``engine``, that engine's field in shape (``per_pe`` as ``P`` lists of
    ints, ``stripe`` as a list of ``[pe, lb]`` int pairs with ``pe < P``)
    and the other field null; ``None`` when it is one."""
    def is_id(value) -> bool:
        return type(value) is int and value >= 0

    if not isinstance(desc, dict):
        return "not an object"
    engine = desc.get("engine")
    if engine not in ENGINES:
        return f"engine must be one of {', '.join(ENGINES)}, got {engine!r}"
    field, other = (("per_pe", "stripe") if engine == "canonical"
                    else ("stripe", "per_pe"))
    if desc.get(other) is not None:
        return f"{other} must be null for the {engine} engine"
    value = desc.get(field)
    if engine == "canonical":
        if not (isinstance(value, list) and len(value) == P
                and all(isinstance(row, list) and all(map(is_id, row))
                        for row in value)):
            return f"per_pe must be {P} lists of block ids"
    elif not (isinstance(value, list)
              and all(isinstance(addr, list) and len(addr) == 2
                      and all(map(is_id, addr)) and addr[0] < P
                      for addr in value)):
        return f"stripe must be a list of [pe, lb] pairs with pe < {P}"
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


def _persist(cluster: Cluster, directory: str, payload: dict) -> None:
    cluster.save_images(directory)      # creates the directory
    with open(os.path.join(directory, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _check_cfg(cfg: MachineConfig, engines=ENGINES) -> None:
    """Exit with every engine's reasons unless one of ``engines`` can run
    ``cfg``."""
    bad = {engine: validate_config(cfg, engine) for engine in engines}
    if all(bad.values()):
        raise SystemExit("error: bad config: " + "; ".join(
            f"{engine}: {', '.join(reasons)}" for engine, reasons in bad.items()))


def cmd_gen(args) -> int:
    cfg = _load_cfg(args)
    _check_cfg(cfg)
    cluster = Cluster(cfg)
    gen = generate_input(cluster, InputSpec(args.kind, cfg.N, cfg.seed))
    _persist(cluster, args.persist, {
        "stage": "input",
        "cfg": asdict(cfg),
        "kind": args.kind,
        "count": gen.count,
        "total": gen.total,
        "pe_blocks": gen.pe_blocks,
    })
    print(f"generated {gen.count} elements ({args.kind}) into {args.persist}")
    return 0


def cmd_sort(args) -> int:
    if args.persist and os.path.exists(os.path.join(args.persist, MANIFEST)):
        manifest, cfg = _read_manifest(args.persist, "input")
        _check_cfg(cfg, (args.engine,))
        cluster = Cluster.load_images(args.persist, cfg)
        kind = manifest["kind"]
        pe_blocks = [list(map(int, lbs)) for lbs in manifest["pe_blocks"]]
        count, total = int(manifest["count"]), int(manifest["total"])
    else:
        cfg = _load_cfg(args)
        _check_cfg(cfg, (args.engine,))
        cluster = Cluster(cfg)
        gen = generate_input(cluster, InputSpec(args.kind, cfg.N, cfg.seed))
        kind = args.kind
        pe_blocks = gen.pe_blocks
        count, total = gen.count, gen.total

    result = run_sort(cluster, pe_blocks, args.engine)
    verdict = verify_output(cluster, result.layout, count, total)
    text = report_stats(cfg, result, kind)
    sys.stdout.write(text)
    if args.stats:
        args.stats.write(text)

    if args.persist:
        layout = result.layout
        _persist(cluster, args.persist, {
            "stage": "output",
            "cfg": asdict(cfg),
            "kind": kind,
            "count": count,
            "total": total,
            "layout": {
                "engine": layout.engine,
                "per_pe": layout.per_pe,
                "stripe": ([list(addr) for addr in layout.stripe]
                           if layout.stripe is not None else None),
            },
        })
    if verdict.ok:
        print("verification: pass", file=sys.stderr)
        return 0
    for failure in verdict.failures:
        print(f"verification: FAIL: {failure}", file=sys.stderr)
    return 1


def cmd_verify(args) -> int:
    manifest, cfg = _read_manifest(args.persist, "output")
    cluster = Cluster.load_images(args.persist, cfg)
    desc = manifest["layout"]
    stripe = desc.get("stripe")
    layout = OutputLayout(
        desc["engine"],
        per_pe=desc.get("per_pe"),
        stripe=[tuple(addr) for addr in stripe] if stripe is not None else None)
    verdict = verify_output(cluster, layout, int(manifest["count"]),
                            int(manifest["total"]))
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
            cfg, kind=args.kind, b_values=b_values, trials=args.trials)
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
    try:
        # ``--stats FILE`` is opened before the command does any work.
        with _open_stats(getattr(args, "stats", None)) as args.stats:
            return args.func(args)
    except DiskError as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
