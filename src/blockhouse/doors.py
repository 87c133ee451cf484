"""Interior door placement, the exterior entrance, and connectivity.

Doors go one at a time into wall tiles that sit between two different
rooms (or next to an existing door), re-checking legality after every
placement until no legal site remains; saturate keeps the legal sites
as a sorted list of int keys and re-checks only the tiles a door
changed. A repair step can force doors through walls that separate
disconnected regions, so every finished plan is traversable.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from .grid import (
    DOOR,
    EMPTY,
    EXTERIOR_DOOR,
    EXTERIOR_WALL,
    INTERIOR_WALL,
    Coord,
    FloorGrid,
    is_room,
)

# Which neighbors satisfy the door rule "adjacent to at least one other
# wall": "any" accepts exterior border walls too, "interior" requires an
# interior wall. "any" is the default; without it, a lone wall tile
# pinched between border walls can never take a door, which strands
# rooms in narrow plans.
WALL_RULES = ("any", "interior")
DEFAULT_WALL_RULE = "any"

# "sweep" visits the walls present when door placement starts, once, in
# random order, placing a door wherever the tile is legal at visit time.
# "saturate" keeps drawing from the full set of sites legal at that moment
# until no site is left; it yields noticeably denser doors (see README).
DOOR_MODES = ("sweep", "saturate")
DEFAULT_DOOR_MODE = "sweep"


class EntranceError(RuntimeError):
    """No exterior wall tile has a room directly behind it."""


class RepairError(RuntimeError):
    """Disconnected regions that no single door can join."""


@dataclass(frozen=True, order=True)
class DoorSite:
    """A wall tile a door could legally occupy, with its passage axis.

    axis is the direction you walk through the door: "x" means the joined
    tiles sit at x-1 and x+1, "z" means z-1 and z+1. joined holds the two
    tile values on those sides (room ids, or DOOR).
    """
    position: Coord
    axis: str
    joined: tuple[int, int]


def wallify_leftovers(grid: FloorGrid) -> None:
    """Turn every interior tile the growth stage left empty into wall."""
    cells = grid.cells
    for i in grid.interior_indices():
        if cells[i] == EMPTY:
            cells[i] = INTERIOR_WALL


def _tile_sites(cells: list[int], d: int, i: int,
                wall_rule: str) -> list[int]:
    # Current-state legality of the interior tile at flat index i: the
    # keys 2 * i + (axis == "z") of its legal sites, x axis first, which
    # sort like the sites themselves. A site needs a wall among the four
    # neighbors ("any" counts the border ring as wall).
    if cells[i] != INTERIOR_WALL:
        return []
    xa, xb, za, zb = around = (cells[i - d], cells[i + d],
                               cells[i - 1], cells[i + 1])
    if INTERIOR_WALL not in around and (
            wall_rule != "any" or EXTERIOR_WALL not in around):
        return []
    # Passage needs a room or door on both sides, and two different
    # rooms unless a door is among them.
    keys = []
    if ((xa >= 0 or xa == DOOR) and (xb >= 0 or xb == DOOR)
            and (xa != xb or xa == DOOR)):
        keys.append(2 * i)
    if ((za >= 0 or za == DOOR) and (zb >= 0 or zb == DOOR)
            and (za != zb or za == DOOR)):
        keys.append(2 * i + 1)
    return keys


def _site(cells: list[int], d: int, key: int) -> DoorSite:
    # The site with key 2 * i + (axis == "z"), joining the current tiles.
    i, step = key >> 1, 1 if key & 1 else d
    return DoorSite(divmod(i, d), "xz"[key & 1],
                    (cells[i - step], cells[i + step]))


def _cut(cells: list[int], d: int, key: int) -> list[int]:
    # A door at site key, then the flank rule: room tiles beside it turn
    # to wall. Returns the indices converted.
    i, step = key >> 1, d if key & 1 else 1
    cells[i] = DOOR
    converted = []
    for f in (i - step, i + step):
        if cells[f] >= 0:
            cells[f] = INTERIOR_WALL
            converted.append(f)
    return converted


def legal_door_sites(grid: FloorGrid,
                     wall_rule: str = DEFAULT_WALL_RULE) -> set[DoorSite]:
    """All (wall tile, axis) pairs where a door may go right now."""
    if wall_rule not in WALL_RULES:
        raise ValueError(f"unknown wall rule {wall_rule!r}")
    cells, d = grid.cells, grid.depth
    return {_site(cells, d, key) for i in grid.interior_indices()
            for key in _tile_sites(cells, d, i, wall_rule)}


def apply_door(grid: FloorGrid, site: DoorSite) -> list[Coord]:
    """Put a door at the site and wall off its two flanking tiles.

    Only room tiles are converted to wall; doors and border walls beside
    the new door are left alone. Returns the flanks it converted.
    """
    (x, z), d = site.position, grid.depth
    key = 2 * (x * d + z) + (site.axis == "z")
    return [divmod(f, d) for f in _cut(grid.cells, d, key)]


def place_doors(grid: FloorGrid, rng: random.Random,
                rooms: object = None,
                wall_rule: str = DEFAULT_WALL_RULE,
                mode: str = DEFAULT_DOOR_MODE) -> list[DoorSite]:
    """Cut doors into the plan's walls; returns them in placement order.

    Both modes re-evaluate legality against the current grid at each
    placement, so doors placed earlier count as passable sides and flank
    conversions can open or close nearby sites; this is what lets
    adjacent doors and short hallways form. The sweep visits each
    starting wall tile once, while saturate keeps going until no legal
    site exists anywhere. Saturate draws from one sorted list of site
    keys (`2 * index + (axis == "z")`) kept with `bisect`, re-checking
    only the door tile, the flanks it converted and their neighbors.
    `rooms` is unused; perfbench's `compose_building` passes it still.
    """
    if mode not in DOOR_MODES:
        raise ValueError(f"unknown door mode {mode!r}")
    if wall_rule not in WALL_RULES:
        raise ValueError(f"unknown wall rule {wall_rule!r}")
    cells, d = grid.cells, grid.depth
    placed: list[DoorSite] = []
    if mode == "sweep":
        tiles = [i for i in grid.interior_indices()
                 if cells[i] == INTERIOR_WALL]
        rng.shuffle(tiles)
        for i in tiles:
            keys = _tile_sites(cells, d, i, wall_rule)
            if keys:  # both axes qualify only on rare cross-shaped tiles
                key = keys[0] if len(keys) == 1 else rng.choice(keys)
                placed.append(_site(cells, d, key))
                _cut(cells, d, key)
        return placed
    # A door changes only its own tile and the flanks it converts, so
    # only those and their neighbors can change legality. The door loses
    # its keys; of the rest, only walls can have any, and the flanks are
    # among the door's neighbors. have[j] is tile j's run of keys in the
    # list, so a re-check splices the list only when that run changes.
    have: list[list[int]] = [[]] * len(cells)
    keys = []
    for i in grid.interior_indices():
        if cells[i] == INTERIOR_WALL:
            have[i] = found = _tile_sites(cells, d, i, wall_rule)
            keys += found
    while keys:
        key = rng.choice(keys)
        placed.append(_site(cells, d, key))
        i = key >> 1
        lo = bisect_left(keys, 2 * i)
        del keys[lo:lo + len(have[i])]
        for c in [i] + _cut(cells, d, key):
            for j in (c - d, c + d, c - 1, c + 1):
                if cells[j] == INTERIOR_WALL:
                    found = _tile_sites(cells, d, j, wall_rule)
                    if found != have[j]:
                        lo = bisect_left(keys, 2 * j)
                        keys[lo:lo + len(have[j])] = found
                        have[j] = found
    return placed


def place_exterior_door(grid: FloorGrid, rng: random.Random) -> Coord:
    """Carve one entrance through the border into a random room.

    Candidates are non-corner border tiles whose single interior neighbor
    is a room tile; corners have no interior neighbor and never qualify.
    """
    cells, d = grid.cells, grid.depth
    last = len(cells) - d
    # (border tile, the interior tile behind it), in border() order.
    behind = [(j, j + d) for j in range(1, d - 1)]
    for j in range(d, last, d):
        behind += ((j, j + 1), (j + d - 1, j + d - 2))
    behind += [(j, j - d) for j in range(last + 1, last + d - 1)]
    candidates = [divmod(j, d) for j, inner in behind
                  if is_room(cells[inner])]
    if not candidates:
        raise EntranceError("no exterior wall tile has a room behind it")
    x, z = rng.choice(candidates)
    grid.put(x, z, EXTERIOR_DOOR)
    return (x, z)


@dataclass(frozen=True)
class ConnectivityReport:
    """Flood-fill summary of the walkable tiles."""
    component_count: int
    components: tuple[frozenset[Coord], ...]  # largest first
    repairs_applied: int = 0

    @property
    def connected(self) -> bool:
        return self.component_count <= 1


def _components(grid: FloorGrid) -> list[list[int]]:
    # Flat indices of each 4-connected group of passable tiles, largest
    # first, ties broken by the smallest index. A group's first index is
    # its smallest, since the scan starts every group there.
    cells, w, d = grid.cells, grid.width, grid.depth
    inner = bytearray(len(cells))  # 1 on interior tiles
    inner[d:-d] = (b"\0" + b"\1" * (d - 2) + b"\0") * (w - 2)
    # Passable and not yet reached.
    todo = [t >= 0 or t == DOOR or t == EXTERIOR_DOOR for t in cells]
    components = []
    for start, pending in enumerate(todo):
        if not pending:
            continue
        todo[start] = False
        stack = [start]
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            if inner[i]:
                around = (i + d, i - d, i + 1, i - 1)
            else:  # border tiles: index arithmetic would wrap
                x, z = divmod(i, d)
                around = [nx * d + nz for nx, nz in grid.neighbors4(x, z)]
            for n in around:
                if todo[n]:
                    todo[n] = False
                    stack.append(n)
        components.append(comp)
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


def _report(grid: FloorGrid, components: list[list[int]],
            repairs_applied: int) -> ConnectivityReport:
    d = grid.depth
    return ConnectivityReport(
        len(components),
        tuple(frozenset([divmod(i, d) for i in comp]) for comp in components),
        repairs_applied)


def connected_components(grid: FloorGrid,
                         repairs_applied: int = 0) -> ConnectivityReport:
    """Group every passable tile (rooms, doors, entrance) into
    4-connected components, largest first."""
    return _report(grid, _components(grid), repairs_applied)


def repair_connectivity(grid: FloorGrid, rng: random.Random,
                        rooms: object = None) -> ConnectivityReport:
    """Force doors through 1-thick walls until the plan is connected.

    Each repair picks uniformly among wall tiles whose opposite neighbors
    lie in different components and converts one to a door with the usual
    flank conversion. Fails if regions are sealed behind 2-thick walls.
    `rooms` is unused, as in `place_doors`.
    """
    cells, d = grid.cells, grid.depth
    repairs = 0
    while True:
        components = _components(grid)
        if len(components) <= 1:
            return _report(grid, components, repairs)
        comp_of = [-1] * len(cells)
        for k, comp in enumerate(components):
            for i in comp:
                comp_of[i] = k
        bridges: list[int] = []  # site keys, ascending
        for i in grid.interior_indices():
            if cells[i] != INTERIOR_WALL:
                continue
            for k, step in ((0, d), (1, 1)):
                ca, cb = comp_of[i - step], comp_of[i + step]
                if ca >= 0 and cb >= 0 and ca != cb:
                    bridges.append(2 * i + k)
        if not bridges:
            raise RepairError(
                f"{len(components)} regions cannot be joined by a "
                "single door anywhere")
        _cut(cells, d, rng.choice(bridges))
        repairs += 1
