"""Invariant checks, wall and voxel readers, the known unconnectable
seeds and a failure injector, shared across the test suite.

Plans are read through the coordinate accessors of reference.py, which
also holds the one reference for each stage's rules. `ca_step`,
`generated_wall` and `frontier` are the exceptions here: they run the
library's own stepping and frontier code on one wall or room, for tests
to compare with the reference.
"""

import dataclasses
from collections import deque

import blockhouse.metrics
from blockhouse.assembly import AIR, DOOR_OPENING, BuildingModel
from blockhouse.doors import RepairError
from blockhouse.facade import (
    CaParams,
    WallMatrix,
    _run_generations,
    init_wall,
)
from blockhouse.grid import DOOR, INTERIOR_WALL, FloorGrid
from blockhouse.metrics import building_seed
from blockhouse.pipeline import RunConfig
from blockhouse.rooms import touch_map

import reference
from reference import coords, count, inside, interior, neighbors, tile

# Blocks a player can occupy.
PASSABLE_BLOCKS = frozenset({AIR, DOOR_OPENING})
# The two values of a facade cell.
SOLID = 0
GLASS = 1


def block_at(model: BuildingModel, x: int, y: int, z: int) -> int:
    """Block (x, y, z) of the model, read from the flat `xzy` voxels."""
    levels = model.height + 2
    # A flat index past the end of one column would read the next one.
    assert (0 <= x < model.width and 0 <= y < levels
            and 0 <= z < model.depth), f"({x}, {y}, {z}) is outside"
    return model.voxels[(x * model.depth + z) * levels + y]


def wall_cell(matrix: WallMatrix, row: int, col: int) -> int:
    """Cell (row, col) of a wall, SOLID or GLASS, read from its bits."""
    return matrix.bits >> (row * (matrix.length + 1) + col) & 1


def ca_step(matrix: WallMatrix, params: CaParams) -> WallMatrix:
    """One automaton generation, stepped by the code `generate_facades`
    runs."""
    return _run_generations([matrix],
                            dataclasses.replace(params, generations=1))[0]


def generated_wall(height: int, length: int, params: CaParams,
                   rng) -> WallMatrix:
    """A seed wall run for the configured generations, stepped by the
    code `generate_facades` runs."""
    return _run_generations([init_wall(height, length, params, rng)],
                            params)[0]


def wall_of(cells: list[list[int]]) -> WallMatrix:
    """A wall from nested 0/1 lists (bottom row first), built through
    its public row form."""
    return WallMatrix.from_rows(["".join(map(str, row)) for row in cells])


def rooms_are_separated(grid: FloorGrid) -> bool:
    """True when no tiles of two different rooms touch orthogonally."""
    for x, z in coords(grid):
        t = tile(grid, x, z)
        if t < 0:
            continue
        for nx, nz in neighbors(grid, x, z):
            u = tile(grid, nx, nz)
            if u >= 0 and u != t:
                return False
    return True


def room_tiles_connected(grid: FloorGrid, room_id: int) -> bool:
    """True when the room's tiles form one 4-connected blob."""
    tiles = {(x, z) for x, z in coords(grid) if tile(grid, x, z) == room_id}
    if not tiles:
        return True
    start = next(iter(tiles))
    seen = {start}
    queue = deque([start])
    while queue:
        x, z = queue.popleft()
        for n in ((x + 1, z), (x - 1, z), (x, z + 1), (x, z - 1)):
            if n in tiles and n not in seen:
                seen.add(n)
                queue.append(n)
    return seen == tiles


def frontier(grid: FloorGrid, room) -> set:
    """The room's growth candidates as `rooms.touch_map`, the scan
    `grow_rooms` starts from, finds them with only this room listed."""
    return {divmod(i, grid.depth)
            for i in touch_map(grid, [room.id])[1][room.id]}


def voxel_walkable(model: BuildingModel) -> bool:
    """Oracle for 3D traversability: starting at the entrance column,
    walk passable blocks at y in {1, 2} and check every room column of
    the plan gets visited."""
    if model.entrance is None:
        return False
    plan = model.plan
    start = model.entrance
    seen = {start}
    queue = deque([start])
    while queue:
        x, z = queue.popleft()
        for nx, nz in ((x + 1, z), (x - 1, z), (x, z + 1), (x, z - 1)):
            if not inside(plan, nx, nz) or (nx, nz) in seen:
                continue
            if (block_at(model, nx, 1, nz) in PASSABLE_BLOCKS
                    and block_at(model, nx, 2, nz) in PASSABLE_BLOCKS):
                seen.add((nx, nz))
                queue.append((nx, nz))
    rooms = {(x, z) for x, z in coords(plan) if tile(plan, x, z) >= 0}
    return rooms <= seen


def interior_tile_conservation(grid: FloorGrid) -> bool:
    """Interior area must split exactly into room tiles, interior walls,
    and doors once growth and door placement are done."""
    area = (grid.width - 2) * (grid.depth - 2)
    room_tiles = sum(1 for x, z in interior(grid) if tile(grid, x, z) >= 0)
    walls = count(grid, INTERIOR_WALL)
    doors = count(grid, DOOR)
    return area == room_tiles + walls + doors


# reference.UNCONNECTABLE as RunConfig objects.
UNCONNECTABLE = [(RunConfig.from_dict(data), seed)
                 for data, seed in reference.UNCONNECTABLE]


def fail_one_building(monkeypatch, master_seed: int, index: int) -> None:
    """Make batch building `index` of `master_seed` raise RepairError.
    Forked pool workers inherit the patch."""
    real = blockhouse.metrics.generate_building
    bad_seed = building_seed(master_seed, index)

    def fail_one(config, seed):
        if seed == bad_seed:
            raise RepairError("2 regions cannot be joined")
        return real(config, seed)

    monkeypatch.setattr(blockhouse.metrics, "generate_building", fail_one)
