"""Room counting, 2x2 seed placement, and constrained one-block growth."""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from .grid import EMPTY, Coord, FloorGrid

DEFAULT_MAX_ATTEMPTS = 100
BLOCKED = -2  # the touch value of a tile no room can claim (see touch_map)


class PlacementError(RuntimeError):
    """Not a single room seed could be placed."""


@dataclass
class Room:
    """One room: its id, the min corner of its 2x2 seed, and its plan."""
    id: int
    anchor: Coord
    plan: FloorGrid = field(compare=False, repr=False)

    @property
    def tiles(self) -> set[Coord]:
        """The tiles the room occupies in its plan right now."""
        return set(self.plan.find(self.id))


@dataclass(frozen=True)
class RoomCountPolicy:
    """How many rooms a building gets.

    By default the count is derived from the floor area; an explicit
    count overrides the formula (used to pin experiment configurations).
    """
    explicit: int | None = None

    def __post_init__(self):
        if self.explicit is not None and self.explicit < 1:
            raise ValueError("explicit room count must be >= 1")

    def count_for(self, width: int, depth: int) -> int:
        if self.explicit is not None:
            return self.explicit
        return room_count(width, depth)

    @classmethod
    def parse(cls, text: str) -> "RoomCountPolicy":
        if text == "formula":
            return cls()
        prefix, _, count = text.partition(":")
        # ASCII digits written as str() writes them; int() alone also
        # takes " 3", "+3", "3_0", "٣" and "007".
        if (prefix == "explicit" and count.isascii() and count.isdigit()
                and str(int(count)) == count):
            return cls(explicit=int(count))
        raise ValueError(
            f"bad room policy {text!r}; expected 'formula' or 'explicit:<n>'")

    def __str__(self) -> str:
        return "formula" if self.explicit is None else f"explicit:{self.explicit}"


def room_count(width: int, depth: int) -> int:
    """Room count for a floor: the cube root of the area, rounded half-up,
    never below one."""
    root = float(width * depth) ** (1.0 / 3.0)
    return max(1, math.floor(root + 0.5))


def _seed_fits(grid: FloorGrid, x: int, z: int) -> bool:
    # The 2x2 square at (x, z) must sit on empty tiles and must not touch
    # another room orthogonally: none of the eight tiles that share an
    # edge with it is a room tile. Diagonal contact is allowed.
    c, d = grid.cells, grid.depth
    i = x * d + z
    j = i + d
    return (c[i] == EMPTY and c[i + 1] == EMPTY
            and c[j] == EMPTY and c[j + 1] == EMPTY
            and c[i - 1] < 0 and c[i + 2] < 0
            and c[j - 1] < 0 and c[j + 2] < 0
            and c[i - d] < 0 and c[i - d + 1] < 0
            and c[j + d] < 0 and c[j + d + 1] < 0)


def place_rooms(grid: FloorGrid, count: int, rng: random.Random,
                max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> list[Room]:
    """Drop up to `count` 2x2 room seeds at random interior positions.

    Each room gets up to `max_attempts` uniform draws of its min corner; a
    room that never finds legal space is dropped (its id is not reused).
    Placing a seed only fills empty tiles, so a corner where no seed fits
    never fits again: once no corner is left, the remaining rooms are
    dropped undrawn. Raises PlacementError only if no room at all could
    be placed.
    """
    hi_x, hi_z, d = grid.width - 3, grid.depth - 3, grid.depth
    # Corner c is (1 + c // hi_z, 1 + c % hi_z), x-major; every corner
    # before `first` is known not to fit.
    first, corners = 0, hi_x * hi_z
    rooms: list[Room] = []
    for room_id in range(count):
        while first < corners and not _seed_fits(
                grid, 1 + first // hi_z, 1 + first % hi_z):
            first += 1
        if first == corners:
            break
        for _ in range(max_attempts):
            x = rng.randint(1, hi_x)
            z = rng.randint(1, hi_z)
            if _seed_fits(grid, x, z):
                i = x * d + z
                grid.cells[i:i + 2] = grid.cells[i + d:i + d + 2] = [room_id] * 2
                rooms.append(Room(room_id, (x, z), grid))
                break
    if not rooms:
        raise PlacementError(
            f"no room could be placed in up to {max_attempts} attempts each")
    return rooms


def touch_map(grid: FloorGrid,
              ids: list[int]) -> tuple[list[int], list[list[int]]]:
    """The growth state of a seeded plan, `touch` and the frontiers:
    touch[i] is EMPTY for an empty tile that touches no room, r for one
    that touches only room r, and BLOCKED for every other tile (room,
    wall, border, or empty beside two rooms or a room not in `ids`).
    frontiers[r] is the sorted list of the flat indices (`x * depth + z`)
    whose touch is r: room r's growth candidates.
    """
    cells, d = grid.cells, grid.depth
    listed = set(ids)
    touch = [c if c == EMPTY else BLOCKED for c in cells]
    near = set()
    for i, rid in enumerate(cells):
        if rid >= 0:
            if rid not in listed:
                rid = BLOCKED
            for n in (i + d, i - d, i + 1, i - 1):
                t = touch[n]
                if t == EMPTY:
                    touch[n] = rid
                    near.add(n)
                elif t != rid:
                    touch[n] = BLOCKED
    frontiers: list[list[int]] = [[] for _ in range(max(ids, default=-1) + 1)]
    for n in sorted(near):
        if (t := touch[n]) >= 0:
            frontiers[t].append(n)
    return touch, frontiers


def growth_pass(grid: FloorGrid, ids: list[int], rng: random.Random,
                touch: list[int], frontiers: list[list[int]]) -> int:
    """One full round of turns: shuffle the room order, then let each room
    claim one candidate tile. Returns how many tiles were claimed.

    touch and frontiers come from `touch_map`. A claim blocks its tile
    and reads each neighbour's touch once to keep them up to date.
    """
    cells, d = grid.cells, grid.depth
    order = ids[:]
    rng.shuffle(order)
    claimed = 0
    for rid in order:
        candidates = frontiers[rid]
        if not candidates:
            continue  # skipped, not removed; it may simply be walled in
        i = rng.choice(candidates)
        del candidates[bisect_left(candidates, i)]
        cells[i] = rid
        touch[i] = BLOCKED
        claimed += 1
        # A tile that touched no room now touches only this one; one that
        # touched only another room now touches two. Growth never empties
        # a tile, so a blocked tile stays blocked.
        for n in (i + d, i - d, i + 1, i - 1):
            t = touch[n]
            if t == EMPTY:
                touch[n] = rid
                insort(candidates, n)
            elif t >= 0 and t != rid:
                touch[n] = BLOCKED
                other = frontiers[t]
                del other[bisect_left(other, n)]
    return claimed


def grow_rooms(grid: FloorGrid, rooms: list[Room], rng: random.Random) -> None:
    """Run growth passes until an entire pass claims nothing."""
    ids = [room.id for room in rooms]
    touch, frontiers = touch_map(grid, ids)
    while growth_pass(grid, ids, rng, touch, frontiers):
        pass
