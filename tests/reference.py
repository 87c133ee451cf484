"""A slow, direct reference for the whole building pipeline.

`reference_building(config, seed)` replays `generate_building` from the
rules alone. Every stage reads neighbors by (x, z) coordinates and
rescans the plan for each decision it makes, and the stages draw from
the same `derive_rng` streams, in the same order, as the library does.
It shares no rule with the package: from `blockhouse` it takes only the
tile and block constants, FACADE_ORDER, derive_rng, the stage errors and
FloorGrid, which holds the tiles and nothing more. The coordinate
accessors below (`tile`, `set_tile`, `find`, ...) are how the tests
read and write plans, and the stage functions are the tests' one
reference for each rule.

Run as a script, the module needs no pytest. It compares the library
with the reference on a fixed list of configurations and seeds, 40x40
and 64x64 floors among them, prints the first mismatch and exits 1 on
one:

    PYTHONPATH=src python tests/reference.py --check
"""

import math
import sys
from collections import deque, namedtuple

from blockhouse.assembly import (
    AIR,
    DOOR_OPENING,
    FLOOR_SLAB,
    GLASS_BLOCK,
    ROOF_SLAB,
    SOLID_WALL,
)
from blockhouse.doors import EntranceError, RepairError
from blockhouse.facade import FACADE_ORDER
from blockhouse.grid import (
    DOOR,
    EMPTY,
    EXTERIOR_DOOR,
    EXTERIOR_WALL,
    INTERIOR_WALL,
    FloorGrid,
    derive_rng,
)
from blockhouse.rooms import PlacementError

STAGE_ERRORS = (PlacementError, EntranceError, RepairError)

# What one building is made of, in the reference's terms: the plan, the
# rooms as (id, anchor), the doors as (position, axis, joined) in
# placement order, the entrance, the component count before repair, the
# repairs, each facade's rows ('0' solid, '1' glass, bottom row first)
# and the voxel bytes in `xzy` order.
Building = namedtuple("Building", "plan rooms doors entrance "
                      "pre_repair_components repairs facades voxels")


# Coordinate accessors. Tile (x, z) sits at x * depth + z in
# `plan.cells`; nothing else here knows that.

def columns(plan):
    """A snapshot of the tiles as columns: tile (x, z) is [x][z]."""
    d = plan.depth
    return [plan.cells[x * d:(x + 1) * d] for x in range(plan.width)]


def inside(plan, x, z):
    return 0 <= x < plan.width and 0 <= z < plan.depth


def tile(plan, x, z):
    if not inside(plan, x, z):
        raise IndexError(f"position ({x}, {z}) is outside the grid")
    return plan.cells[x * plan.depth + z]


def set_tile(plan, x, z, value):
    if not inside(plan, x, z):
        raise IndexError(f"position ({x}, {z}) is outside the grid")
    plan.cells[x * plan.depth + z] = value


def coords(plan):
    """Every (x, z) of the plan, x-major."""
    return [(x, z) for x in range(plan.width) for z in range(plan.depth)]


def interior(plan):
    """The (x, z) of every tile off the border ring, x-major."""
    return [(x, z) for x in range(1, plan.width - 1)
            for z in range(1, plan.depth - 1)]


def border(plan):
    """The (x, z) of every tile on the border ring, x-major."""
    w, d = plan.width, plan.depth
    return [(x, z) for x, z in coords(plan)
            if x in (0, w - 1) or z in (0, d - 1)]


def neighbors(plan, x, z):
    """The in-bounds orthogonal neighbors of (x, z)."""
    w, d = plan.width, plan.depth
    return [(nx, nz)
            for nx, nz in ((x + 1, z), (x - 1, z), (x, z + 1), (x, z - 1))
            if 0 <= nx < w and 0 <= nz < d]


def find(plan, value):
    """The (x, z) of every tile holding value, x-major."""
    return [(x, z) for x, z in coords(plan) if tile(plan, x, z) == value]


def count(plan, value):
    return len(find(plan, value))


def room_ids(plan):
    """Sorted ids of the rooms with at least one tile left."""
    return sorted({t for x, z in coords(plan) if (t := tile(plan, x, z)) >= 0})


def copy_plan(plan):
    dup = FloorGrid(plan.width, plan.depth)
    for x, z in coords(plan):
        set_tile(dup, x, z, tile(plan, x, z))
    return dup


def new_plan(width, depth):
    """An empty floor: exterior wall on the ring, empty inside."""
    plan = FloorGrid(width, depth)
    for x, z in coords(plan):
        on_ring = x in (0, width - 1) or z in (0, depth - 1)
        set_tile(plan, x, z, EXTERIOR_WALL if on_ring else EMPTY)
    return plan


# Rooms.

def room_count(config):
    """The requested rooms: the explicit count, or the cube root of the
    floor area rounded half up, never below one."""
    if config.room_policy.explicit is not None:
        return config.room_policy.explicit
    return max(1, math.floor(float(config.width * config.depth)
                             ** (1.0 / 3.0) + 0.5))


def square(x, z):
    return [(x, z), (x + 1, z), (x, z + 1), (x + 1, z + 1)]


def seed_fits(t, x, z):
    """In the snapshot t, a 2x2 seed with min corner (x, z) covers only
    empty tiles, and no tile sharing an edge with it is a room tile."""
    tiles = square(x, z)
    edge = [(nx, nz) for sx, sz in tiles for nx, nz in (
        (sx + 1, sz), (sx - 1, sz), (sx, sz + 1), (sx, sz - 1))
        if (nx, nz) not in tiles]
    return (all(t[sx][sz] == EMPTY for sx, sz in tiles)
            and not any(t[nx][nz] >= 0 for nx, nz in edge))


def place_rooms(plan, requested, rng, max_attempts):
    """Seed rooms 0, 1, ... in turn, each with up to max_attempts draws of
    its min corner; a room that finds no space is dropped. Once no corner
    fits anywhere, no room draws again. Returns the rooms as (id,
    anchor)."""
    w, d = plan.width, plan.depth
    corners = [(x, z) for x in range(1, w - 2) for z in range(1, d - 2)]
    rooms = []
    for room_id in range(requested):
        t = columns(plan)
        if not any(seed_fits(t, x, z) for x, z in corners):
            break
        for _ in range(max_attempts):
            x = rng.randint(1, w - 3)
            z = rng.randint(1, d - 3)
            if seed_fits(t, x, z):
                for sx, sz in square(x, z):
                    set_tile(plan, sx, sz, room_id)
                rooms.append((room_id, (x, z)))
                break
    if not rooms:
        raise PlacementError("no room could be placed")
    return rooms


def growth_candidates(plan, room_id):
    """The empty tiles, (x, z) sorted, beside a tile of the room and no
    tile of another room."""
    t = columns(plan)
    found = []
    for x in range(1, plan.width - 1):
        west, here, east = t[x - 1], t[x], t[x + 1]
        for z in range(1, plan.depth - 1):
            if here[z] != EMPTY:
                continue
            near = (west[z], east[z], here[z - 1], here[z + 1])
            if room_id in near and all(v == room_id or v < 0 for v in near):
                found.append((x, z))
    return found


def grow_rooms(plan, ids, rng):
    """Passes of turns in a fresh shuffle of the ids until a whole pass
    claims nothing; on its turn a room claims one of its candidates."""
    claimed = True
    while claimed:
        claimed = False
        order = list(ids)
        rng.shuffle(order)
        for room_id in order:
            candidates = growth_candidates(plan, room_id)
            if candidates:
                set_tile(plan, *rng.choice(candidates), room_id)
                claimed = True


def wallify(plan):
    for x, z in interior(plan):
        if tile(plan, x, z) == EMPTY:
            set_tile(plan, x, z, INTERIOR_WALL)


# Doors.

def through(x, z, axis):
    """The two tiles a door at (x, z) joins: you walk along its axis."""
    if axis == "x":
        return ((x - 1, z), (x + 1, z))
    return ((x, z - 1), (x, z + 1))


def flanks(x, z, axis):
    """The two tiles beside a door at (x, z), across its axis."""
    if axis == "x":
        return ((x, z - 1), (x, z + 1))
    return ((x - 1, z), (x + 1, z))


def joins(a, b):
    """A door between tiles a and b passes: a room or door on each side,
    and two different rooms unless a door is among them."""
    return ((a >= 0 or a == DOOR) and (b >= 0 or b == DOOR)
            and not (a >= 0 and a == b))


def door_axes(t, x, z, wall_rule):
    """The axes, "x" before "z", along which a door may go at interior
    tile (x, z) of the snapshot t: a wall tile with a wall among its
    neighbors (the border ring counts under "any") that joins the tiles
    on either side along the axis."""
    if t[x][z] != INTERIOR_WALL:
        return []
    west, east = t[x - 1][z], t[x + 1][z]
    north, south = t[x][z - 1], t[x][z + 1]
    walls = (INTERIOR_WALL,) if wall_rule == "interior" else (
        INTERIOR_WALL, EXTERIOR_WALL)
    if not any(v in walls for v in (west, east, north, south)):
        return []
    return [axis for axis, a, b in (("x", west, east), ("z", north, south))
            if joins(a, b)]


def door_sites(plan, wall_rule):
    """Every legal (x, z, axis), sorted."""
    t = columns(plan)
    return [(x, z, axis) for x in range(1, plan.width - 1)
            for z in range(1, plan.depth - 1)
            for axis in door_axes(t, x, z, wall_rule)]


def cut(plan, x, z, axis):
    """A door at (x, z), then the flank rule: a room tile beside it
    turns to wall. Returns the flanks converted."""
    set_tile(plan, x, z, DOOR)
    converted = [f for f in flanks(x, z, axis) if tile(plan, *f) >= 0]
    for f in converted:
        set_tile(plan, *f, INTERIOR_WALL)
    return converted


def _door(plan, x, z, axis):
    joined = tuple(tile(plan, *end) for end in through(x, z, axis))
    cut(plan, x, z, axis)
    return ((x, z), axis, joined)


def place_doors(plan, rng, wall_rule, mode):
    """Doors as (position, axis, joined) in placement order. Sweep visits
    the walls present at the start once, in a shuffled (x, z) order, and
    cuts a door wherever one is legal at the visit, drawing the axis only
    when both are; saturate draws from all legal sites until none is
    left."""
    placed = []
    if mode == "sweep":
        walls = find(plan, INTERIOR_WALL)
        rng.shuffle(walls)
        for x, z in walls:
            axes = door_axes(columns(plan), x, z, wall_rule)
            if axes:
                axis = axes[0] if len(axes) == 1 else rng.choice(axes)
                placed.append(_door(plan, x, z, axis))
    else:
        while sites := door_sites(plan, wall_rule):
            placed.append(_door(plan, *rng.choice(sites)))
    return placed


# The entrance and connectivity.

def entrance_sites(plan):
    """Border tiles, (x, z) sorted, with a room tile on their inner side;
    a corner has no inner side."""
    inner = set(interior(plan))
    sites = []
    for x, z in border(plan):
        behind = [n for n in neighbors(plan, x, z) if n in inner]
        if behind and tile(plan, *behind[0]) >= 0:
            sites.append((x, z))
    return sites


def place_entrance(plan, rng):
    sites = entrance_sites(plan)
    if not sites:
        raise EntranceError("no exterior wall tile has a room behind it")
    x, z = rng.choice(sites)
    set_tile(plan, x, z, EXTERIOR_DOOR)
    return (x, z)


def passable(t):
    return t >= 0 or t == DOOR or t == EXTERIOR_DOOR


def components(plan):
    """Breadth-first flood fill of the passable tiles; the components as
    sets of (x, z), in discovery order."""
    t = columns(plan)
    seen = set()
    found = []
    for start in coords(plan):
        if start in seen or not passable(t[start[0]][start[1]]):
            continue
        seen.add(start)
        component = {start}
        queue = deque([start])
        while queue:
            for n in neighbors(plan, *queue.popleft()):
                if n not in seen and passable(t[n[0]][n[1]]):
                    seen.add(n)
                    component.add(n)
                    queue.append(n)
        found.append(component)
    return found


def bridges(plan):
    """Every (x, z, axis), sorted, where a door would join two different
    components."""
    label = {at: k for k, comp in enumerate(components(plan)) for at in comp}
    out = []
    for x, z in interior(plan):
        if tile(plan, x, z) != INTERIOR_WALL:
            continue
        for axis in "xz":
            a, b = (label.get(end) for end in through(x, z, axis))
            if a is not None and b is not None and a != b:
                out.append((x, z, axis))
    return out


def repair(plan, rng):
    """Cut a door at a random bridge until one component is left; returns
    the repairs."""
    repairs = 0
    while len(components(plan)) > 1:
        found = bridges(plan)
        if not found:
            raise RepairError("regions cannot be joined by a single door")
        cut(plan, *rng.choice(found))
        repairs += 1
    return repairs


# Facades and voxels.

def step(rows, glass_sums):
    """One automaton generation: a cell is glass next when the sum of it
    and its four neighbors, outside the wall solid, is in glass_sums."""
    length = len(rows[0])
    edge = [0] * (length + 2)
    padded = [edge] + [[0, *map(int, row), 0] for row in rows] + [edge]
    return ["".join("1" if padded[r][c] + padded[r - 1][c] + padded[r + 1][c]
                    + padded[r][c - 1] + padded[r][c + 1] in glass_sums
                    else "0" for c in range(1, length + 1))
            for r in range(1, len(rows) + 1)]


def wall(height, length, params, rng):
    """A seed wall drawn row by row, bottom first, each cell glass with the
    start probability, then run for the configured generations."""
    p = params.init_glass_probability
    rows = ["".join("1" if rng.random() < p else "0" for _ in range(length))
            for _ in range(height)]
    for _ in range(params.generations):
        rows = step(rows, params.glass_sums)
    return rows


def facade_tiles(plan, side):
    """A side's border tiles in its facade's column order."""
    w, d = plan.width, plan.depth
    return {"north": [(x, 0) for x in range(w)],
            "east": [(w - 1, z) for z in range(d)],
            "south": [(x, d - 1) for x in range(w)],
            "west": [(0, z) for z in range(d)]}[side]


def facades(plan, height, params, rng):
    """Each side's wall, drawn in FACADE_ORDER from one stream."""
    return {side: wall(height, len(facade_tiles(plan, side)), params, rng)
            for side in FACADE_ORDER}


def column(t, height):
    """A tile's column of blocks, bottom up, before any facade."""
    if t >= 0 or t == EMPTY:
        walls = [AIR] * height
    elif t == DOOR:
        walls = [DOOR_OPENING] * 2 + [SOLID_WALL] * (height - 2)
    else:
        walls = [SOLID_WALL] * height
    return [FLOOR_SLAB, *walls, ROOF_SLAB]


def voxels(plan, walls, height, entrance):
    """Every tile's column, the facades painted over the border in
    FACADE_ORDER (a corner keeps the last), then a 2-high opening at the
    entrance; as bytes in x, z, y order."""
    stacks = {(x, z): column(tile(plan, x, z), height)
              for x, z in coords(plan)}
    for side in FACADE_ORDER:
        for c, at in enumerate(facade_tiles(plan, side)):
            for r in range(height):
                stacks[at][r + 1] = (GLASS_BLOCK if walls[side][r][c] == "1"
                                     else SOLID_WALL)
    if entrance is not None:
        stacks[entrance][1:3] = [DOOR_OPENING, DOOR_OPENING]
    return bytes(b for at in coords(plan) for b in stacks[at])


# The pipeline.

def reference_building(config, seed):
    """The building `generate_building(config, seed)` makes, stage by
    stage from the rules above. Raises the stage errors it does."""
    plan = new_plan(config.width, config.depth)
    rooms = place_rooms(plan, room_count(config), derive_rng(seed, "rooms"),
                        config.max_attempts)
    grow_rooms(plan, [room_id for room_id, _ in rooms],
               derive_rng(seed, "growth"))
    wallify(plan)
    doors = place_doors(plan, derive_rng(seed, "doors"), config.wall_rule,
                        config.door_mode)
    entrance = place_entrance(plan, derive_rng(seed, "entrance"))
    pre = len(components(plan))
    repairs = repair(plan, derive_rng(seed, "repair")) if pre > 1 else 0
    walls = facades(plan, config.height, config.ca,
                    derive_rng(seed, "facade"))
    return Building(plan, rooms, doors, entrance, pre, repairs, walls,
                    voxels(plan, walls, config.height, entrance))


def observed(result):
    """A GenerationResult in the reference's terms."""
    return Building(
        result.plan, [(room.id, room.anchor) for room in result.rooms],
        [(site.position, site.axis, site.joined)
         for site in result.placed_doors],
        result.entrance, result.pre_repair_components,
        result.report.repairs_applied,
        {side: result.model.facades[side].rows() for side in FACADE_ORDER},
        bytes(result.model.voxels))


def outcome(build, config, seed):
    """build(config, seed), or the class of the stage error it raised."""
    try:
        return build(config, seed)
    except STAGE_ERRORS as exc:
        return type(exc)


def mismatch(generate_building, config, seed):
    """None when the library and the reference build the same thing for
    (config, seed), else the first field they differ in."""
    got = outcome(generate_building, config, seed)
    want = outcome(reference_building, config, seed)
    if isinstance(got, type) or isinstance(want, type):
        if got is want:
            return None
        return (f"library: {getattr(got, '__name__', 'a building')}, "
                f"reference: {getattr(want, '__name__', 'a building')}")
    for field, a, b in zip(Building._fields, observed(got), want):
        if a != b:
            return f"{field} differs"
    return None


# Configurations, in the config-file form, and seeds whose buildings
# repair cannot connect: a room ends up behind walls two tiles thick on
# every side. The last seed is building 818 of master seed 1.
UNCONNECTABLE = [
    ({"width": 28, "depth": 13, "rooms": "explicit:38",
      "door_mode": "saturate"}, 2393790308),
    ({"width": 20, "depth": 20, "rooms": "explicit:20",
      "door_mode": "saturate"}, 14297754712089186383),
    ({"width": 34, "depth": 18, "rooms": "explicit:58",
      "door_walls": "interior"}, 7656903597643181036),
]

# What --check compares: floors up to 64x64, and the unconnectable seeds,
# which both sides must fail alike.
CHECK_CASES = [
    *[({"width": 7, "depth": 7, "rooms": "explicit:3"}, s) for s in (1, 2)],
    *[({"width": 6, "depth": 12, "rooms": "explicit:3"}, s) for s in (3, 4)],
    ({"width": 15, "depth": 15, "rooms": "explicit:5"}, 5),
    ({"width": 24, "depth": 24}, 6),
    ({"width": 20, "depth": 20, "rooms": "explicit:20",
      "door_mode": "saturate"}, 7),
    ({"width": 20, "depth": 20, "rooms": "explicit:20",
      "door_mode": "saturate", "door_walls": "interior"}, 8),
    ({"width": 31, "depth": 17, "height": 6,
      "ca": {"init_glass_probability": 0.6, "generations": 3,
             "glass_sums": [0, 1, 4, 5]}}, 9),
    ({"width": 13, "depth": 5, "height": 9, "rooms": "explicit:2"}, 10),
    *[({"width": 40, "depth": 40}, s) for s in (11, 12)],
    ({"width": 40, "depth": 40, "rooms": "explicit:30",
      "door_mode": "saturate"}, 13),
    ({"width": 64, "depth": 64}, 14),
    ({"width": 64, "depth": 40, "rooms": "explicit:40",
      "door_mode": "saturate", "door_walls": "interior"}, 15),
    *UNCONNECTABLE,
]


def main(argv):
    if argv != ["--check"]:
        print("usage: python tests/reference.py --check", file=sys.stderr)
        return 2
    # The library side of the comparison; the reference above uses none
    # of it.
    from blockhouse.pipeline import RunConfig, generate_building

    for data, seed in CHECK_CASES:
        config = RunConfig.from_dict(data).validate()
        found = mismatch(generate_building, config, seed)
        if found:
            print(f"{data} seed {seed}: {found}")
            return 1
    print(f"all {len(CHECK_CASES)} buildings match the reference")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
