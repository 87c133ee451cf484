"""Tile grid primitives and the seeded randomness used by every stage.

Coordinates are (x, z) pairs with x in [0, width) and z in [0, depth);
the origin sits at one corner of the floor. Tiles are plain ints: any
value >= 0 is a room tile carrying its room id, and the named states
below are negative.

A floor is stored as one flat list, `FloorGrid.cells`, with tile (x, z)
at index `x * depth + z`. The four neighbours of index i are i - depth,
i + depth, i - 1 and i + 1, and the indices sort exactly like their
(x, z) pairs, so a draw from a sorted list of indices picks the same
tile as a draw from the sorted coordinates. The exterior wall ring is
the sentinel: every interior tile's neighbours lie inside the grid, so
the plan stages read them without bounds checks. That arithmetic wraps
between columns on the ring itself, so loops that may meet a border
tile (flood fill, anything over a parsed or hand-built grid) keep to
interior indices or bound by coordinates. `sides()` alone defines the
ring: each side's border indices, ascending as its facade's columns,
and the step inward, which from a corner lands on the ring. `tiles` is
a read-only `tiles[x][z]` snapshot for readers outside the package.
"""

from __future__ import annotations

import hashlib
import random

Coord = tuple[int, int]

EMPTY = -1
EXTERIOR_WALL = -2
INTERIOR_WALL = -3
DOOR = -4
EXTERIOR_DOOR = -5

# Border walls plus room for one 2x2 seed with clearance on every side.
MIN_DIMENSION = 5

class DimensionError(ValueError):
    """A requested dimension is outside the supported range."""


class FloorGrid:
    """Rectangular tile field for a single story, read and written
    through `cells`, the flat list the module docstring describes.

    The border ring is exterior wall from construction onward; stages only
    ever rewrite interior tiles, except for the one entrance carved into
    the border at the end of the plan stage.
    """

    def __init__(self, width: int, depth: int):
        if width < MIN_DIMENSION:
            raise DimensionError(
                f"width {width} is too small (minimum {MIN_DIMENSION})")
        if depth < MIN_DIMENSION:
            raise DimensionError(
                f"depth {depth} is too small (minimum {MIN_DIMENSION})")
        self.width = width
        self.depth = depth
        self.cells = cells = [EMPTY] * (width * depth)
        for r, _ in self.sides().values():
            cells[r.start:r.stop:r.step] = [EXTERIOR_WALL] * len(r)

    def sides(self) -> dict[str, tuple[range, int]]:
        """{side: (tiles, inward)} in facade order (north, east, south,
        west): the side's border indices ascending, which is also its
        facade's column order, and the index step to the tile behind."""
        d, n = self.depth, len(self.cells)
        return {"north": (range(0, n, d), 1), "east": (range(n - d, n), -d),
                "south": (range(d - 1, n, d), -1), "west": (range(d), d)}

    @property
    def tiles(self) -> list[list[int]]:
        """A fresh tiles[x][z] copy of the floor."""
        d = self.depth
        return [self.cells[i:i + d] for i in range(0, len(self.cells), d)]

    def interior_indices(self) -> list[int]:
        """Flat indices of the interior tiles, ascending (x-major)."""
        d = self.depth
        return [i for column in range(d, len(self.cells) - d, d)
                for i in range(column + 1, column + d - 1)]

    def entrance(self) -> Coord | None:
        if EXTERIOR_DOOR in self.cells:  # the first in `cells` order
            return divmod(self.cells.index(EXTERIOR_DOOR), self.depth)
        return None

    def validate(self) -> None:
        """Check the border/interior state partition, raising ValueError on
        the first violation. Cheap enough to run after every stage."""
        cells, d = self.cells, self.depth
        entrances = 0
        for i in sorted({j for r, _ in self.sides().values() for j in r}):
            t = cells[i]
            if t == EXTERIOR_DOOR:
                entrances += 1
            elif t != EXTERIOR_WALL:
                raise ValueError(f"border tile {divmod(i, d)} holds state {t}")
        if entrances > 1:
            raise ValueError(f"{entrances} entrances on the border, expected at most 1")
        for i in self.interior_indices():
            t = cells[i]
            if t < 0 and t not in (EMPTY, INTERIOR_WALL, DOOR):
                x, z = divmod(i, d)
                raise ValueError(f"interior tile ({x}, {z}) holds state {t}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FloorGrid):
            return NotImplemented
        return (self.width == other.width and self.depth == other.depth
                and self.cells == other.cells)

    def __repr__(self) -> str:
        return f"FloorGrid({self.width}x{self.depth})"


def derive_seed(seed: int, *tags: object) -> int:
    """Stable 64-bit seed for a named sub-stream of `seed`.

    Hash-based so that adding draws to one stage never perturbs another,
    and stable across processes (unlike the builtin hash()).
    """
    key = ":".join([str(int(seed))] + [str(t) for t in tags])
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_rng(seed: int, *tags: object) -> random.Random:
    return random.Random(derive_seed(seed, *tags))
