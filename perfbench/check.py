"""Correctness checks run on every benchmarked building, outside the
timed region.

`building_problems` checks the plan invariants on any seed and, where a
reference digest is known, compares the building's digest to it. The
oracles here are written afresh (breadth-first search over a visited
matrix, direct tile counts) rather than calling the package's own
helpers, so agreement is evidence.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import deque

from blockhouse import (
    DOOR,
    EXTERIOR_DOOR,
    FACADE_ORDER,
    INTERIOR_WALL,
    export_json,
    import_json,
    render_ascii,
)


def digest(result, voxel_block: dict) -> str:
    """Hash of the rendered plan, the placed doors in order, the facade
    rows and the exported voxel block."""
    parts = [render_ascii(result.plan)]
    parts.append(";".join(
        f"{site.position[0]},{site.position[1]},{site.axis},"
        f"{site.joined[0]},{site.joined[1]}" for site in result.placed_doors))
    for side in FACADE_ORDER:
        parts.append("/".join(result.model.facades[side].rows()))
    parts.append(json.dumps(voxel_block, sort_keys=True))
    return hashlib.blake2b("\n".join(parts).encode("utf-8"),
                           digest_size=16).hexdigest()


def _passable(tile: int) -> bool:
    return tile >= 0 or tile == DOOR or tile == EXTERIOR_DOOR


def _rooms_separated(plan) -> bool:
    tiles, w, d = plan.tiles, plan.width, plan.depth
    for x in range(w):
        for z in range(d):
            t = tiles[x][z]
            if t < 0:
                continue
            for nx, nz in ((x + 1, z), (x, z + 1)):
                if nx < w and nz < d and tiles[nx][nz] >= 0 \
                        and tiles[nx][nz] != t:
                    return False
    return True


def _tiles_conserved(plan) -> bool:
    # Growth plus wallify leave no empty interior tile: every one is a
    # room tile, an interior wall or a door.
    inner = [plan.tiles[x][z] for x in range(1, plan.width - 1)
             for z in range(1, plan.depth - 1)]
    rooms = sum(1 for t in inner if t >= 0)
    return len(inner) == rooms + inner.count(INTERIOR_WALL) + inner.count(DOOR)


def _all_reachable_from_entrance(plan, entrance) -> bool:
    w, d = plan.width, plan.depth
    seen = [[False] * d for _ in range(w)]
    ex, ez = entrance
    seen[ex][ez] = True
    queue = deque([entrance])
    reached = 1
    while queue:
        x, z = queue.popleft()
        for nx, nz in ((x + 1, z), (x - 1, z), (x, z + 1), (x, z - 1)):
            if (0 <= nx < w and 0 <= nz < d and not seen[nx][nz]
                    and _passable(plan.tiles[nx][nz])):
                seen[nx][nz] = True
                reached += 1
                queue.append((nx, nz))
    passable = sum(1 for column in plan.tiles for t in column if _passable(t))
    return reached == passable


def building_problems(output, expected_digest: str | None = None
                      ) -> list[str]:
    """Every way this operation's output is wrong; empty when it is right."""
    result = output.result
    plan, model = result.plan, result.model
    problems = []
    try:
        plan.validate()
    except ValueError as exc:
        problems.append(f"plan state: {exc}")
    if not _rooms_separated(plan):
        problems.append("two rooms touch")
    if not _tiles_conserved(plan):
        problems.append("interior tiles not conserved")
    if result.entrance is None or plan.entrance() != result.entrance:
        problems.append("entrance missing or not on the plan")
    elif not _all_reachable_from_entrance(plan, result.entrance):
        problems.append("not every passable tile reachable from the entrance")
    if not result.report.connected:
        problems.append("connectivity report says disconnected")
    doc = export_json(model)
    if import_json(json.loads(json.dumps(doc))) != model:
        problems.append("JSON round trip changed the model")
    if output.imported is not None and output.imported != model:
        problems.append("imported model differs from the generated one")
    if output.rendered is not None and output.rendered != render_ascii(plan):
        problems.append("rendered layout differs from the generated plan")
    if (expected_digest is not None
            and digest(result, doc["voxels"]) != expected_digest):
        problems.append("digest differs from the reference")
    return problems


def timeless(output) -> tuple:
    """The output with its wall-time fields zeroed, for comparing a traced
    building with an untraced one."""
    result = dataclasses.replace(output.result, elapsed=0.0)
    metrics = (None if output.metrics is None
               else dataclasses.replace(output.metrics, generation_time=0.0))
    doc = output.doc
    if doc is not None:
        doc = dict(doc, metrics=dict(doc["metrics"], generation_time=0.0))
    return result, metrics, doc, output.imported, output.rendered
