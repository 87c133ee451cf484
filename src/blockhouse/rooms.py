"""Room counting, 2x2 seed placement, and constrained one-block growth."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .grid import EMPTY, Coord, FloorGrid, is_room

DEFAULT_MAX_ATTEMPTS = 100


class PlacementError(RuntimeError):
    """Not a single room seed could be placed."""


@dataclass
class Room:
    """One room: its id, the min corner of its 2x2 seed, and every tile
    it has grown to occupy."""
    id: int
    anchor: Coord
    tiles: set[Coord] = field(default_factory=set)


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
    # another room orthogonally. Diagonal contact is allowed.
    for sx, sz in ((x, z), (x + 1, z), (x, z + 1), (x + 1, z + 1)):
        if grid.get(sx, sz) != EMPTY:
            return False
        for nx, nz in grid.neighbors4(sx, sz):
            if is_room(grid.get(nx, nz)):
                return False
    return True


def place_rooms(grid: FloorGrid, count: int, rng: random.Random,
                max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> list[Room]:
    """Drop up to `count` 2x2 room seeds at random interior positions.

    Each room gets `max_attempts` uniform draws of its min corner; a room
    that never finds legal space is dropped (its id is not reused). Raises
    PlacementError only if no room at all could be placed.
    """
    rooms: list[Room] = []
    for room_id in range(count):
        for _ in range(max_attempts):
            x = rng.randint(1, grid.width - 3)
            z = rng.randint(1, grid.depth - 3)
            if _seed_fits(grid, x, z):
                square = {(x, z), (x + 1, z), (x, z + 1), (x + 1, z + 1)}
                for sx, sz in square:
                    grid.put(sx, sz, room_id)
                rooms.append(Room(room_id, (x, z), set(square)))
                break
    if not rooms:
        raise PlacementError(
            f"no room could be placed in {max_attempts} attempts each")
    return rooms


def _other_rooms(grid: FloorGrid, x: int, z: int, room_id: int) -> list[int]:
    # Rooms other than room_id orthogonally adjacent to (x, z); any one of
    # them bars room_id from claiming the tile.
    return [t for mx, mz in grid.neighbors4(x, z)
            if is_room(t := grid.get(mx, mz)) and t != room_id]


def growth_candidates(grid: FloorGrid, room: Room) -> set[Coord]:
    """Empty tiles the room may claim this turn: orthogonally adjacent to
    the room, not orthogonally adjacent to any other room, and never a
    border wall (border tiles are not empty, so they exclude themselves)."""
    out: set[Coord] = set()
    for x, z in room.tiles:
        for nx, nz in grid.neighbors4(x, z):
            if ((nx, nz) not in out and grid.get(nx, nz) == EMPTY
                    and not _other_rooms(grid, nx, nz, room.id)):
                out.add((nx, nz))
    return out


def growth_pass(grid: FloorGrid, rooms: list[Room], rng: random.Random,
                frontiers: dict[int, set[Coord]] | None = None) -> int:
    """One full round of turns: shuffle the order, then let each room claim
    one candidate tile. Returns how many tiles were claimed.

    frontiers maps each room id to its `growth_candidates` and is kept up
    to date claim by claim; when omitted, it is built for this pass.
    """
    if frontiers is None:
        frontiers = {room.id: growth_candidates(grid, room) for room in rooms}
    order = list(rooms)
    rng.shuffle(order)
    claimed = 0
    for room in order:
        candidates = frontiers[room.id]
        if not candidates:
            continue  # skipped, not removed; it may simply be walled in
        x, z = rng.choice(sorted(candidates))
        grid.put(x, z, room.id)
        room.tiles.add((x, z))
        claimed += 1
        # Only this room could have had (x, z) as a candidate, since it
        # touched no other room. Its empty neighbors now touch this room:
        # they leave the other rooms' frontiers and join this one unless
        # another room bars them. Growth never empties a tile, so a barred
        # tile stays barred and no other frontier can change.
        candidates.discard((x, z))
        for nx, nz in grid.neighbors4(x, z):
            if grid.get(nx, nz) != EMPTY:
                continue
            others = _other_rooms(grid, nx, nz, room.id)
            for other in others:
                if other in frontiers:
                    frontiers[other].discard((nx, nz))
            if not others:
                candidates.add((nx, nz))
    return claimed


def grow_rooms(grid: FloorGrid, rooms: list[Room], rng: random.Random) -> None:
    """Run growth passes until an entire pass claims nothing."""
    frontiers = {room.id: growth_candidates(grid, room) for room in rooms}
    while rooms and growth_pass(grid, rooms, rng, frontiers):
        pass
