"""Spans timed from outside the package, and `generate_building` composed
from its public stage functions so each stage gets one.

`compose_building` must call the stages in the order and with the
`derive_rng` tags that `blockhouse.pipeline` uses. The traced loop checks
every composed building against `generate_building`'s own output, so a
change to the pipeline that this file does not follow fails the run
instead of timing a program that no longer exists.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Callable

from blockhouse import (
    FloorGrid,
    GenerationResult,
    assemble,
    connected_components,
    derive_rng,
    generate_facades,
    grow_rooms,
    legal_door_sites,
    place_doors,
    place_exterior_door,
    place_rooms,
    repair_connectivity,
    wallify_leftovers,
)

# Work the benchmark does inside a traced building that is not the
# program's: taking counts. Excluded from the traced building time.
COUNTS_SPAN = "perfbench.counts"
BUILDING_SPAN = "building"

# The stage spans inside pipeline.generate_building; whatever time
# generate_building takes beyond their sum is pipeline glue.
GENERATE_STAGES = (
    "grid.floor_grid", "grid.derive_rng", "rooms.place_rooms",
    "rooms.grow_rooms", "doors.wallify_leftovers", "doors.place_doors",
    "doors.place_exterior_door", "doors.connected_components",
    "doors.repair_connectivity", "facade.generate_facades",
    "assembly.assemble",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent, building], where
    parent is the index of the enclosing span or None."""

    def __init__(self):
        self.spans: list[list] = []
        self.building = -1
        self._parent: int | None = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._parent, self.building])
        self._parent = sid
        self.spans[sid][1] = perf_counter()
        return sid

    def close(self, sid: int) -> None:
        end = perf_counter()
        span = self.spans[sid]
        span[2] = end
        self._parent = span[3]

    def call(self, name: str, fn: Callable, *args):
        sid = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(sid)


def compose_building(config, seed: int, tr: Tracer,
                     counts: dict) -> GenerationResult:
    """`pipeline.generate_building` stage by stage, with a span around
    each stage call. Fills `counts` with the work counts taken outside
    the stage spans (`tiles_grown`, `sites_initial`)."""
    root = tr.open("pipeline.generate_building")
    start = perf_counter()
    plan_span = tr.open("pipeline.generate_plan")
    grid = tr.call("grid.floor_grid", FloorGrid, config.width, config.depth)
    requested = config.room_policy.count_for(config.width, config.depth)
    rng = tr.call("grid.derive_rng", derive_rng, seed, "rooms")
    rooms = tr.call("rooms.place_rooms", place_rooms, grid, requested, rng,
                    config.max_attempts)
    sid = tr.open(COUNTS_SPAN)
    seeded = sum(len(room.tiles) for room in rooms)
    tr.close(sid)
    rng = tr.call("grid.derive_rng", derive_rng, seed, "growth")
    tr.call("rooms.grow_rooms", grow_rooms, grid, rooms, rng)
    sid = tr.open(COUNTS_SPAN)
    counts["tiles_grown"] = sum(len(room.tiles) for room in rooms) - seeded
    tr.close(sid)
    tr.call("doors.wallify_leftovers", wallify_leftovers, grid)
    sid = tr.open(COUNTS_SPAN)
    counts["sites_initial"] = len(legal_door_sites(grid, config.wall_rule))
    tr.close(sid)
    rng = tr.call("grid.derive_rng", derive_rng, seed, "doors")
    placed = tr.call("doors.place_doors", place_doors, grid, rng, rooms,
                     config.wall_rule, config.door_mode)
    rng = tr.call("grid.derive_rng", derive_rng, seed, "entrance")
    entrance = tr.call("doors.place_exterior_door", place_exterior_door,
                       grid, rng)
    pre = tr.call("doors.connected_components", connected_components, grid)
    if pre.component_count > 1:
        rng = tr.call("grid.derive_rng", derive_rng, seed, "repair")
        report = tr.call("doors.repair_connectivity", repair_connectivity,
                         grid, rng, rooms)
    else:
        report = pre
    tr.close(plan_span)
    rng = tr.call("grid.derive_rng", derive_rng, seed, "facade")
    facades = tr.call("facade.generate_facades", generate_facades,
                      config.width, config.depth, config.height, config.ca,
                      rng)
    model = tr.call("assembly.assemble", assemble, grid, facades,
                    config.height)
    elapsed = perf_counter() - start
    tr.close(root)
    return GenerationResult(seed, grid, rooms, requested, placed, entrance,
                            pre.component_count, report, model, elapsed)


def output_counts(config, output, counts: dict) -> dict:
    """Add the counts read off a finished operation's output to the ones
    `compose_building` took; all are exact for a given seed."""
    result = output.result
    counts["doors_placed"] = len(result.placed_doors)
    counts["repairs"] = result.report.repairs_applied
    counts["rooms_placed"] = len(result.rooms)
    counts["rooms_requested"] = result.requested_rooms
    counts["pre_repair_connected"] = int(result.pre_repair_components <= 1)
    perimeter = 2 * (config.width + config.depth)
    counts["cell_steps"] = config.ca.generations * config.height * perimeter
    counts["voxels"] = config.width * (config.height + 2) * config.depth
    counts["json_bytes"] = 0 if output.doc is None else json_bytes(output.doc)
    return counts


def json_bytes(doc: dict) -> int:
    """Size of the document as `generate --format json` writes it, less
    its `metrics` block, which holds a wall time and so varies by run."""
    body = {key: value for key, value in doc.items() if key != "metrics"}
    return len(json.dumps(body, indent=2))
