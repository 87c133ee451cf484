"""Independent oracles, and a failure injector, shared across the test
suite.

Everything here recomputes results from first principles using different
data structures and traversal orders than the library, so agreement is
evidence rather than tautology.
"""

from collections import deque

import blockhouse.metrics
from blockhouse import (
    DOOR,
    EMPTY,
    EXTERIOR_DOOR,
    EXTERIOR_WALL,
    INTERIOR_WALL,
    FloorGrid,
    RepairError,
    building_seed,
)
from blockhouse.assembly import PASSABLE_BLOCKS, BuildingModel
from blockhouse.facade import WallMatrix


def ca_oracle_step(matrix: WallMatrix, glass_sums) -> list[list[int]]:
    """Brute-force automaton generation: zero-pad the cells with a solid
    ring and recompute every cell column by column (the implementation
    walks row-major over the unpadded grid)."""
    h, w = matrix.height, matrix.length
    padded = [[0] * (w + 2)]
    for r in range(h):
        padded.append([0] + [matrix.get(r, c) for c in range(w)] + [0])
    padded.append([0] * (w + 2))
    out = [[0] * w for _ in range(h)]
    for c in range(1, w + 1):
        for r in range(1, h + 1):
            total = (padded[r][c] + padded[r - 1][c] + padded[r + 1][c]
                     + padded[r][c - 1] + padded[r][c + 1])
            out[r - 1][c - 1] = 1 if total in glass_sums else 0
    return out


def wall_of(cells: list[list[int]]) -> WallMatrix:
    """A wall from nested 0/1 lists (bottom row first), built through
    its public row form."""
    return WallMatrix.from_rows(["".join(map(str, row)) for row in cells])


def cells_of(matrix: WallMatrix) -> list[list[int]]:
    """A wall's cells as nested 0/1 lists, read one `get` at a time."""
    return [[matrix.get(r, c) for c in range(matrix.length)]
            for r in range(matrix.height)]


def _passable(tile: int) -> bool:
    return tile >= 0 or tile == DOOR or tile == EXTERIOR_DOOR


def passable_components(grid: FloorGrid) -> list[frozenset]:
    """BFS flood-fill oracle with a visited matrix (the implementation
    uses DFS over sets). Returns components in discovery order."""
    visited = [[False] * grid.depth for _ in range(grid.width)]
    comps = []
    for x in range(grid.width):
        for z in range(grid.depth):
            if visited[x][z] or not _passable(grid.get(x, z)):
                continue
            queue = deque([(x, z)])
            visited[x][z] = True
            comp = set()
            while queue:
                cx, cz = queue.popleft()
                comp.add((cx, cz))
                for nx, nz in ((cx + 1, cz), (cx - 1, cz),
                               (cx, cz + 1), (cx, cz - 1)):
                    if (0 <= nx < grid.width and 0 <= nz < grid.depth
                            and not visited[nx][nz]
                            and _passable(grid.get(nx, nz))):
                        visited[nx][nz] = True
                        queue.append((nx, nz))
            comps.append(frozenset(comp))
    return comps


def rooms_are_separated(grid: FloorGrid) -> bool:
    """True when no tiles of two different rooms touch orthogonally."""
    for x, z in grid.coords():
        t = grid.get(x, z)
        if t < 0:
            continue
        for nx, nz in grid.neighbors4(x, z):
            u = grid.get(nx, nz)
            if u >= 0 and u != t:
                return False
    return True


def room_tiles_connected(grid: FloorGrid, room_id: int) -> bool:
    """True when the room's tiles form one 4-connected blob."""
    tiles = {(x, z) for x, z in grid.coords() if grid.get(x, z) == room_id}
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


def growth_candidates_oracle(grid: FloorGrid, room_id: int) -> set:
    """Growth candidates read from `cells` alone: the empty tiles with a
    tile of the room beside them and no tile of another room (the
    implementation steps flat indices out from every room tile at once)."""
    cells, w, d = grid.cells, grid.width, grid.depth

    def beside(x, z):
        return [(nx, nz)
                for nx, nz in ((x + 1, z), (x - 1, z), (x, z + 1), (x, z - 1))
                if 0 <= nx < w and 0 <= nz < d]

    out = set()
    for i, t in enumerate(cells):
        if t != room_id:
            continue
        for x, z in beside(*divmod(i, d)):
            if cells[x * d + z] == EMPTY and all(
                    u < 0 or u == room_id
                    for u in (cells[nx * d + nz] for nx, nz in beside(x, z))):
                out.add((x, z))
    return out


def site_through(site) -> tuple:
    """The two tiles a door site connects, along its passage axis."""
    x, z = site.position
    if site.axis == "x":
        return ((x - 1, z), (x + 1, z))
    return ((x, z - 1), (x, z + 1))


def site_flanks(site) -> tuple:
    """The two tiles beside a door site, perpendicular to passage."""
    x, z = site.position
    if site.axis == "x":
        return ((x, z - 1), (x, z + 1))
    return ((x - 1, z), (x + 1, z))


def site_is_legal(grid: FloorGrid, site, wall_rule: str = "any") -> bool:
    """Door legality recomputed from scratch for one site."""
    x, z = site.position
    if grid.get(x, z) != INTERIOR_WALL:
        return False
    a, b = site_through(site)
    ta, tb = grid.get(*a), grid.get(*b)
    if not (ta >= 0 or ta == DOOR) or not (tb >= 0 or tb == DOOR):
        return False
    if ta != DOOR and tb != DOOR and ta == tb:
        return False
    for nx, nz in grid.neighbors4(x, z):
        t = grid.get(nx, nz)
        if t == INTERIOR_WALL:
            return True
        if wall_rule == "any" and t == EXTERIOR_WALL:
            return True
    return False


def border_owner(x: int, z: int, width: int, depth: int) -> str:
    """Which facade a border column displays, replaying the documented
    paint order north, east, south, west (last writer wins corners)."""
    owner = None
    if z == 0:
        owner = "north"
    if x == width - 1:
        owner = "east"
    if z == depth - 1:
        owner = "south"
    if x == 0:
        owner = "west"
    assert owner is not None, f"({x}, {z}) is not a border tile"
    return owner


def facade_column(side: str, x: int, z: int, width: int, depth: int) -> int:
    """The facade matrix column that paints border tile (x, z)."""
    return x if side in ("north", "south") else z


def expected_glass_count(model: BuildingModel) -> int:
    """Recount the model's glass voxels from the facade matrices alone,
    honoring corner ownership and the entrance carve-out."""
    plan = model.plan
    total = 0
    for x, z in plan.border():
        side = border_owner(x, z, plan.width, plan.depth)
        col = facade_column(side, x, z, plan.width, plan.depth)
        matrix = model.facades[side]
        for y in range(1, model.height + 1):
            if model.entrance == (x, z) and y in (1, 2):
                continue
            total += matrix.get(y - 1, col)
    return total


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
            if not plan.in_bounds(nx, nz) or (nx, nz) in seen:
                continue
            if (model.block_at(nx, 1, nz) in PASSABLE_BLOCKS
                    and model.block_at(nx, 2, nz) in PASSABLE_BLOCKS):
                seen.add((nx, nz))
                queue.append((nx, nz))
    rooms = {(x, z) for x, z in plan.coords() if plan.get(x, z) >= 0}
    return rooms <= seen


def interior_tile_conservation(grid: FloorGrid) -> bool:
    """Interior area must split exactly into room tiles, interior walls,
    and doors once growth and door placement are done."""
    interior = (grid.width - 2) * (grid.depth - 2)
    room_tiles = sum(1 for x, z in grid.interior() if grid.get(x, z) >= 0)
    walls = grid.count(INTERIOR_WALL)
    doors = grid.count(DOOR)
    return interior == room_tiles + walls + doors


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
