"""Room counting, 2x2 seed placement, and constrained one-block growth."""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from .grid import EMPTY, Coord, FloorGrid

DEFAULT_MAX_ATTEMPTS = 100


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
        if text.startswith("explicit:"):
            return cls(explicit=int(text.split(":", 1)[1]))
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


def _frontiers(grid: FloorGrid, rooms: list[Room]) -> dict[int, list[int]]:
    # Each room's growth candidates as sorted flat indices, from one scan
    # of the plan's room tiles. A candidate is an empty tile orthogonally
    # adjacent to the room and to no other room; border tiles are not
    # empty, so they exclude themselves.
    cells, d = grid.cells, grid.depth
    found: dict[int, set[int]] = {room.id: set() for room in rooms}
    for i, rid in enumerate(cells):
        if rid < 0 or (out := found.get(rid)) is None:
            continue
        for n in (i + d, i - d, i + 1, i - 1):
            if cells[n] == EMPTY and n not in out:
                for m in (n + d, n - d, n + 1, n - 1):
                    if (t := cells[m]) >= 0 and t != rid:
                        break
                else:
                    out.add(n)
    return {rid: sorted(out) for rid, out in found.items()}


def growth_pass(grid: FloorGrid, rooms: list[Room], rng: random.Random,
                frontiers: dict[int, list[int]] | None = None) -> int:
    """One full round of turns: shuffle the order, then let each room claim
    one candidate tile. Returns how many tiles were claimed.

    frontiers maps each room id to the sorted flat indices (`x * depth +
    z`) of its growth candidates (see `_frontiers`), kept up to date
    claim by claim with `bisect`; when omitted, it is built for this pass.
    """
    if frontiers is None:
        frontiers = _frontiers(grid, rooms)
    cells, d = grid.cells, grid.depth
    order = list(rooms)
    rng.shuffle(order)
    claimed = 0
    for room in order:
        candidates = frontiers[room.id]
        if not candidates:
            continue  # skipped, not removed; it may simply be walled in
        rid = room.id
        i = rng.choice(candidates)
        del candidates[bisect_left(candidates, i)]
        cells[i] = rid
        claimed += 1
        # Only this room could have had i as a candidate, since it touched
        # no other room. Its empty neighbors now touch this room: they
        # leave the other rooms' frontiers and join this one unless
        # another room bars them or they are in it already (they touched
        # it beside i). Growth never empties a tile, so a barred tile
        # stays barred and no other frontier can change.
        for n in (i + d, i - d, i + 1, i - 1):
            if cells[n] != EMPTY:
                continue
            barred = present = False
            for m in (n + d, n - d, n + 1, n - 1):
                t = cells[m]
                if t == rid:
                    if m != i:
                        present = True
                elif t >= 0:
                    barred = True
                    other = frontiers.get(t, [])
                    k = bisect_left(other, n)
                    if k < len(other) and other[k] == n:
                        del other[k]
            if not barred and not present:
                insort(candidates, n)
    return claimed


def grow_rooms(grid: FloorGrid, rooms: list[Room], rng: random.Random) -> None:
    """Run growth passes until an entire pass claims nothing."""
    frontiers = _frontiers(grid, rooms)
    while rooms and growth_pass(grid, rooms, rng, frontiers):
        pass
