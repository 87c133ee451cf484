"""The benchmark's workloads: configs in the config-file format, the
user-visible operation timed per building, and why each was chosen.

Each operation takes `generate` and `call` so that the untraced loop and
the traced loop run the same code: untraced, `generate` is
`blockhouse.generate_building` and `call` just calls; traced, `generate`
composes the pipeline stage by stage and `call` records a span.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable

from blockhouse import (
    BuildingMetrics,
    BuildingModel,
    GenerationResult,
    RunConfig,
    export_json,
    import_json,
    measure_building,
    render_ascii,
)


def direct(name: str, fn: Callable, *args):
    """The untraced `call`: no span, just the call."""
    return fn(*args)


@dataclass
class Output:
    """Everything one operation produced, kept for the checks."""
    result: GenerationResult
    metrics: BuildingMetrics | None = None
    doc: dict | None = None          # the document after the JSON codec
    imported: BuildingModel | None = None
    rendered: str | None = None


def generate_only(config, seed, generate, call) -> Output:
    return Output(generate(config, seed))


def generate_and_measure(config, seed, generate, call) -> Output:
    """What `run_batch` does per building."""
    result = generate(config, seed)
    metrics = call("metrics.measure_building", measure_building, result.plan,
                   result.report, result.elapsed, result.requested_rooms)
    return Output(result, metrics)


def _json_codec(doc: dict) -> dict:
    # `generate --format json` writes with indent=2; `render` reads it back.
    return json.loads(json.dumps(doc, indent=2))


def generate_json_render(config, seed, generate, call) -> Output:
    """`blockhouse generate --format json` then `blockhouse render` on its
    output, without the files."""
    result = generate(config, seed)
    metrics = call("metrics.measure_building", measure_building, result.plan,
                   result.report, result.elapsed, result.requested_rooms)
    doc = call("assembly.export_json", export_json, result.model,
               config.with_seed(seed).to_dict(), dataclasses.asdict(metrics))
    loaded = call("cli.json_codec", _json_codec, doc)
    imported = call("assembly.import_json", import_json, loaded)
    rendered = call("assembly.render_ascii", render_ascii, imported.plan)
    return Output(result, metrics, loaded, imported, rendered)


@dataclass(frozen=True)
class Workload:
    name: str
    # RunConfig.from_dict inputs; building seed s uses configs[s % len].
    configs: tuple[dict, ...]
    op: Callable[..., Output]
    why: str
    # Buildings of the recorded master seed checked against reference
    # digests at the start of every run (also the warm-up).
    reference_buildings: int
    # Traced buildings the per-building counts are averaged over; fixed,
    # so the counts repeat exactly for a seed.
    count_buildings: int

    def run_configs(self) -> list[RunConfig]:
        return [RunConfig.from_dict(c).validate() for c in self.configs]


def config_for(configs: list, seed: int):
    """The config the building with this seed runs with."""
    return configs[seed % len(configs)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "batch_7x7",
        ({"width": 7, "depth": 7, "height": 4, "rooms": "explicit:3",
          "door_mode": "sweep"},),
        generate_and_measure,
        "the paper's experiment 1 as run_batch does it; cost is spread over "
        "all stages, so fixed per-building overheads show",
        reference_buildings=200, count_buildings=200),
    Workload(
        "grow_24x24",
        ({"width": 24, "depth": 24, "height": 4, "rooms": "formula",
          "door_mode": "sweep"},),
        generate_only,
        "a large floor where room growth is over 90% of the time and facades "
        "and voxels barely run",
        reference_buildings=8, count_buildings=20),
    Workload(
        "saturate_20x20",
        ({"width": 20, "depth": 20, "height": 4, "rooms": "explicit:20",
          "door_mode": "saturate"},),
        generate_only,
        "saturate door mode, where place_doors dominates; the only workload "
        "that takes that path",
        reference_buildings=10, count_buildings=20),
    # The floor varies per building: at one fixed size the cost barely
    # varies between buildings, so the p50 jumped between the host's fast
    # and slow speeds instead of moving smoothly with their mix.
    Workload(
        "json_tall_mixed",
        tuple({"width": w, "depth": d, "height": 32, "rooms": "formula"}
              for w in (7, 9, 11) for d in (7, 9, 11)),
        generate_json_render,
        "tall walls on 7 to 11 wide floors through generate --format json "
        "and render: facades and the JSON write and read paths dominate",
        reference_buildings=40, count_buildings=50),
)}
