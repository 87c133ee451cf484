"""Interior door placement, the exterior entrance, and connectivity.

Doors go one at a time into wall tiles that sit between two different
rooms (or next to an existing door), re-checking legality after every
placement until no legal site remains. A repair step can force doors
through walls that separate disconnected regions, so every finished
plan is traversable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .grid import (
    DOOR,
    EMPTY,
    EXTERIOR_DOOR,
    EXTERIOR_WALL,
    INTERIOR_WALL,
    Coord,
    FloorGrid,
    is_passable,
    is_room,
)
from .rooms import Room

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

    def through(self) -> tuple[Coord, Coord]:
        """The two tiles the door connects."""
        x, z = self.position
        if self.axis == "x":
            return ((x - 1, z), (x + 1, z))
        return ((x, z - 1), (x, z + 1))

    def flanks(self) -> tuple[Coord, Coord]:
        """The two tiles beside the door, perpendicular to passage."""
        x, z = self.position
        if self.axis == "x":
            return ((x, z - 1), (x, z + 1))
        return ((x - 1, z), (x + 1, z))


def wallify_leftovers(grid: FloorGrid) -> None:
    """Turn every interior tile the growth stage left empty into wall."""
    for x, z in grid.interior():
        if grid.get(x, z) == EMPTY:
            grid.put(x, z, INTERIOR_WALL)


def _joinable(a: int, b: int) -> bool:
    # Passage requires rooms or doors on both sides, and they must differ
    # as rooms unless a door is among them.
    if not (is_room(a) or a == DOOR) or not (is_room(b) or b == DOOR):
        return False
    return a == DOOR or b == DOOR or a != b


def _has_wall_neighbor(grid: FloorGrid, x: int, z: int, wall_rule: str) -> bool:
    for nx, nz in grid.neighbors4(x, z):
        t = grid.get(nx, nz)
        if t == INTERIOR_WALL:
            return True
        if wall_rule == "any" and t == EXTERIOR_WALL:
            return True
    return False


def _tile_sites(grid: FloorGrid, x: int, z: int,
                wall_rule: str) -> list[DoorSite]:
    # Current-state legality of one tile: its legal sites, x axis first.
    if grid.get(x, z) != INTERIOR_WALL:
        return []
    if not _has_wall_neighbor(grid, x, z, wall_rule):
        return []
    sites = []
    for axis, (a, b) in (("x", ((x - 1, z), (x + 1, z))),
                         ("z", ((x, z - 1), (x, z + 1)))):
        ta, tb = grid.get(*a), grid.get(*b)
        if _joinable(ta, tb):
            sites.append(DoorSite((x, z), axis, (ta, tb)))
    return sites


def legal_door_sites(grid: FloorGrid,
                     wall_rule: str = DEFAULT_WALL_RULE) -> set[DoorSite]:
    """All (wall tile, axis) pairs where a door may go right now."""
    if wall_rule not in WALL_RULES:
        raise ValueError(f"unknown wall rule {wall_rule!r}")
    return {site for x, z in grid.interior()
            for site in _tile_sites(grid, x, z, wall_rule)}


def apply_door(grid: FloorGrid, site: DoorSite,
               room_map: dict[int, Room] | None = None) -> None:
    """Put a door at the site and wall off its two flanking tiles.

    Only room tiles are converted to wall; doors and border walls beside
    the new door are left alone. room_map, when given, keeps Room.tiles
    in sync with the conversions.
    """
    x, z = site.position
    grid.put(x, z, DOOR)
    for fx, fz in site.flanks():
        t = grid.get(fx, fz)
        if is_room(t):
            grid.put(fx, fz, INTERIOR_WALL)
            if room_map is not None and t in room_map:
                room_map[t].tiles.discard((fx, fz))


def _room_map(rooms: Iterable[Room] | None) -> dict[int, Room] | None:
    if rooms is None:
        return None
    return {room.id: room for room in rooms}


def _site_at(grid: FloorGrid, x: int, z: int, wall_rule: str,
             rng: random.Random) -> DoorSite | None:
    # Picks an axis at random on the rare cross-shaped tile where both
    # axes qualify.
    options = _tile_sites(grid, x, z, wall_rule)
    if not options:
        return None
    return options[0] if len(options) == 1 else rng.choice(options)


def place_doors(grid: FloorGrid, rng: random.Random,
                rooms: Iterable[Room] | None = None,
                wall_rule: str = DEFAULT_WALL_RULE,
                mode: str = DEFAULT_DOOR_MODE) -> list[DoorSite]:
    """Cut doors into the plan's walls; returns them in placement order.

    Both modes re-evaluate legality against the current grid at each
    placement, so doors placed earlier count as passable sides and flank
    conversions can open or close nearby sites; this is what lets
    adjacent doors and short hallways form. The sweep visits each
    starting wall tile once, while saturate keeps going until no legal
    site exists anywhere.
    """
    if mode not in DOOR_MODES:
        raise ValueError(f"unknown door mode {mode!r}")
    if wall_rule not in WALL_RULES:
        raise ValueError(f"unknown wall rule {wall_rule!r}")
    room_map = _room_map(rooms)
    placed: list[DoorSite] = []
    if mode == "sweep":
        tiles = [pos for pos in grid.interior()
                 if grid.get(*pos) == INTERIOR_WALL]
        rng.shuffle(tiles)
        for x, z in tiles:
            site = _site_at(grid, x, z, wall_rule, rng)
            if site is not None:
                apply_door(grid, site, room_map)
                placed.append(site)
        return placed
    # Every legal site keyed by (position, axis), which sorts the same
    # way as the sites themselves. A door changes only its own tile and
    # its flanks, so only those and their neighbors can change legality.
    sites: dict[tuple[Coord, str], DoorSite] = {}

    def refresh(x: int, z: int) -> None:
        sites.pop(((x, z), "x"), None)
        sites.pop(((x, z), "z"), None)
        for site in _tile_sites(grid, x, z, wall_rule):
            sites[site.position, site.axis] = site

    for x, z in grid.interior():
        refresh(x, z)
    while sites:
        site = sites[rng.choice(sorted(sites))]
        apply_door(grid, site, room_map)
        placed.append(site)
        changed = (site.position, *site.flanks())
        for pos in set(changed).union(
                *(grid.neighbors4(*c) for c in changed)):
            refresh(*pos)
    return placed


def place_exterior_door(grid: FloorGrid, rng: random.Random) -> Coord:
    """Carve one entrance through the border into a random room.

    Candidates are non-corner border tiles whose single interior neighbor
    is a room tile; corners have no interior neighbor and never qualify.
    """
    candidates = []
    for x, z in grid.border():
        inner = [(nx, nz) for nx, nz in grid.neighbors4(x, z)
                 if not grid.is_border(nx, nz)]
        if len(inner) == 1 and is_room(grid.get(*inner[0])):
            candidates.append((x, z))
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


def connected_components(grid: FloorGrid,
                         repairs_applied: int = 0) -> ConnectivityReport:
    """Group every passable tile (rooms, doors, entrance) into
    4-connected components, largest first."""
    seen: set[Coord] = set()
    components: list[frozenset[Coord]] = []
    for start in grid.coords():
        if start in seen or not is_passable(grid.get(*start)):
            continue
        stack = [start]
        seen.add(start)
        comp = set()
        while stack:
            x, z = stack.pop()
            comp.add((x, z))
            for n in grid.neighbors4(x, z):
                if n not in seen and is_passable(grid.get(*n)):
                    seen.add(n)
                    stack.append(n)
        components.append(frozenset(comp))
    components.sort(key=lambda c: (-len(c), min(c)))
    return ConnectivityReport(len(components), tuple(components),
                              repairs_applied)


def repair_connectivity(grid: FloorGrid, rng: random.Random,
                        rooms: Iterable[Room] | None = None
                        ) -> ConnectivityReport:
    """Force doors through 1-thick walls until the plan is connected.

    Each repair picks uniformly among wall tiles whose opposite neighbors
    lie in different components and converts one to a door with the usual
    flank conversion. Fails if regions are sealed behind 2-thick walls.
    """
    room_map = _room_map(rooms)
    repairs = 0
    while True:
        report = connected_components(grid, repairs)
        if report.component_count <= 1:
            return report
        comp_of: dict[Coord, int] = {}
        for i, comp in enumerate(report.components):
            for pos in comp:
                comp_of[pos] = i
        bridges: list[DoorSite] = []
        for x, z in grid.interior():
            if grid.get(x, z) != INTERIOR_WALL:
                continue
            for axis, (a, b) in (("x", ((x - 1, z), (x + 1, z))),
                                 ("z", ((x, z - 1), (x, z + 1)))):
                if (a in comp_of and b in comp_of
                        and comp_of[a] != comp_of[b]):
                    bridges.append(
                        DoorSite((x, z), axis, (grid.get(*a), grid.get(*b))))
        if not bridges:
            raise RepairError(
                f"{report.component_count} regions cannot be joined by a "
                "single door anywhere")
        apply_door(grid, rng.choice(sorted(bridges)), room_map)
        repairs += 1
