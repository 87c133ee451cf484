"""Command-line front end: generate one building, run batch experiments,
or re-render saved layouts.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 a
generation stage failed, 4 unreadable or malformed input files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import secrets
import sys

from .assembly import (
    ROOM_SYMBOLS,
    LayoutError,
    export_json,
    import_json,
    parse_ascii,
    render_ascii,
)
from .doors import DOOR_MODES, WALL_RULES, EntranceError, RepairError
from .grid import DimensionError
from .metrics import BatchError, measure_building, run_batch
from .pipeline import INT_KEYS, RunConfig, generate_building
from .rooms import PlacementError

_STAGE_NAMES = {
    PlacementError: "room placement",
    EntranceError: "entrance placement",
    RepairError: "connectivity repair",
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file; explicit flags override it")
    parser.add_argument("--width", type=int, help="floor width in blocks")
    parser.add_argument("--depth", type=int, help="floor depth in blocks")
    parser.add_argument("--height", type=int,
                        help="wall height in blocks (default 4)")
    parser.add_argument("--seed", type=int,
                        help="random seed; drawn from entropy when omitted")
    parser.add_argument("--rooms", metavar="POLICY",
                        help="room count policy: 'formula' or 'explicit:<n>'")
    parser.add_argument("--max-attempts", type=int, dest="max_attempts",
                        help="placement attempts per room (default 100)")
    parser.add_argument("--ca-glass-prob", type=float, dest="ca_glass_prob",
                        help="initial glass probability (default 0.25)")
    parser.add_argument("--ca-generations", type=int, dest="ca_generations",
                        help="automaton generations (default 10)")
    parser.add_argument("--ca-glass-sums", dest="ca_glass_sums",
                        metavar="SUMS",
                        help="comma-separated neighbor sums that turn a "
                             "cell to glass (default 2,3)")
    parser.add_argument("--door-walls", dest="door_walls",
                        choices=WALL_RULES,
                        help="which walls satisfy a door's adjacent-wall "
                             "rule (default any)")
    parser.add_argument("--door-mode", dest="door_mode",
                        choices=DOOR_MODES,
                        help="door placement: one random pass over the "
                             "walls, or saturate every legal site "
                             "(default sweep)")


def _build_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a "
                             "JSON object")
        data.update(loaded)
    for key in INT_KEYS:
        value = getattr(args, key)
        if value is not None:
            data[key] = value
    if args.rooms is not None:
        data["rooms"] = args.rooms
    if args.door_walls is not None:
        data["door_walls"] = args.door_walls
    if args.door_mode is not None:
        data["door_mode"] = args.door_mode
    ca = data.get("ca", {})
    # The flags merge into an object only; from_dict rejects anything else.
    if isinstance(ca, dict):
        if args.ca_glass_prob is not None:
            ca["init_glass_probability"] = args.ca_glass_prob
        if args.ca_generations is not None:
            ca["generations"] = args.ca_generations
        if args.ca_glass_sums is not None:
            ca["glass_sums"] = [int(part) for part in
                                args.ca_glass_sums.split(",")
                                if part.strip()]
        if ca:
            data["ca"] = ca
    return RunConfig.from_dict(data).validate()


def _resolve_seed(config: RunConfig, label: str) -> int:
    seed = config.seed if config.seed is not None else secrets.randbits(63)
    print(f"{label}: {seed}", file=sys.stderr)
    return seed


def cmd_generate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    # generate always renders the plan, and only so many rooms have a
    # symbol; batch renders nothing and takes any count.
    rooms = config.room_policy.count_for(config.width, config.depth)
    if rooms > len(ROOM_SYMBOLS):
        raise ValueError(
            f"{rooms} rooms cannot be rendered; generate supports at most "
            f"{len(ROOM_SYMBOLS)}")
    seed = _resolve_seed(config, "seed")
    config = config.with_seed(seed)
    try:
        result = generate_building(config, seed)
    except tuple(_STAGE_NAMES) as exc:
        stage = _STAGE_NAMES[type(exc)]
        print(f"generation failed at {stage} (seed {seed}): {exc}",
              file=sys.stderr)
        return 3
    ascii_text = render_ascii(result.plan)
    if args.format in ("json", "both"):
        metrics = dataclasses.asdict(
            measure_building(result.plan, result.report, result.elapsed,
                             result.requested_rooms))
        doc = json.dumps(export_json(result.model, config=config.to_dict(),
                                     metrics=metrics), indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        else:
            print(doc)
    if args.format in ("ascii", "both"):
        if args.format == "ascii" and args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(ascii_text + "\n")
        else:
            print(ascii_text)
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if args.count < 1:
        raise ValueError(f"-n {args.count} must be at least 1")
    if args.workers < 1:
        raise ValueError(f"--workers {args.workers} must be at least 1")
    import os
    cpus = os.cpu_count() or 1
    if args.workers > cpus:
        raise ValueError(f"--workers {args.workers} is more than the "
                         f"{cpus} CPUs of this machine")
    master_seed = _resolve_seed(config, "master seed")
    summary = run_batch(config, args.count, master_seed,
                        workers=args.workers)
    print(summary.format_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary.to_dict(), fh, indent=2)
            fh.write("\n")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith(("{", "[")):
        grid = import_json(json.loads(text)).plan
    else:
        grid = parse_ascii(text)
        grid.validate()
    print(render_ascii(grid))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockhouse",
        description="Generate organically grown voxel buildings: grown "
                    "room plans, granular door placement, and cellular-"
                    "automaton window walls.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate one building")
    _add_config_flags(gen)
    gen.add_argument("--format", choices=("ascii", "json", "both"),
                     default="ascii", help="output form (default ascii)")
    gen.add_argument("--out", metavar="PATH",
                     help="write output here instead of standard output "
                          "(with --format both, JSON goes to the file and "
                          "the layout to standard output)")
    gen.set_defaults(func=cmd_generate)

    batch = sub.add_parser("batch", help="generate many buildings and "
                                         "summarize their metrics")
    _add_config_flags(batch)
    batch.add_argument("-n", "--count", type=int, default=1000,
                       help="buildings to generate (default 1000)")
    batch.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes, at most the CPU "
                            "count (default 1)")
    batch.add_argument("--out", metavar="PATH",
                       help="also write the summary as JSON here")
    batch.set_defaults(func=cmd_batch)

    render = sub.add_parser("render", help="print the layout stored in a "
                                           "JSON or ASCII file")
    render.add_argument("input", help="path to a building JSON or ASCII "
                                      "layout file")
    render.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BatchError as exc:
        print(f"batch failed: {exc}", file=sys.stderr)
        return 3
    except LayoutError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"parse error: line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (DimensionError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
