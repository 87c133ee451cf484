"""Solid/glass facade mosaics from a neighbor-sum cellular automaton.

Each facade starts as random noise (one cell in four glass) and runs a
fixed number of synchronous generations. A cell's next state looks at
the sum of itself plus its orthogonal neighbors: the cell becomes glass
exactly when that sum lands in the configured set, otherwise solid.
Neighbors beyond the edge count as solid, which biases glass away from
the wall rim.

A wall is one int. Row r, column c (row 0 the bottom course) is bit
r * (length + 1) + c, and the spare bit above each row's last column is
always 0. A one-column shift of the whole wall therefore never carries a
cell into the next row, and one generation is a few dozen bitwise
operations on the int: the five neighbor-sum inputs are the wall and its
four shifts, added bit-sliced into three sum planes.

Walls of one length step together as one stack: wall k of the stack
starts at row k * (height + 1), so an all-zero row lies between each
wall and the next. A cell next to that row sees a solid neighbor, just
as at the wall's real edge, and the mask clears whatever a generation
leaves in it. North and south share a stack, as do east and west, and
on a square floor all four do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# 100x the default, far more than a pattern needs to settle; the bound
# keeps a mistyped count from running for minutes or hours.
MAX_GENERATIONS = 1000

# Facades are always generated in this order so that a given seed yields
# the same four matrices no matter how they are later consumed.
FACADE_ORDER = ("north", "east", "south", "west")


@dataclass(frozen=True)
class CaParams:
    """Knobs for the facade automaton; defaults give the classic look."""
    init_glass_probability: float = 0.25
    generations: int = 10
    glass_sums: frozenset[int] = frozenset({2, 3})

    def __post_init__(self):
        if not 0.0 <= self.init_glass_probability <= 1.0:
            raise ValueError(
                f"init_glass_probability {self.init_glass_probability} "
                "is outside [0, 1]")
        if self.generations < 0:
            raise ValueError(f"generations {self.generations} is negative")
        if self.generations > MAX_GENERATIONS:
            raise ValueError(f"generations {self.generations} is too large "
                             f"(maximum {MAX_GENERATIONS})")
        if not frozenset(self.glass_sums) <= frozenset(range(6)):
            raise ValueError(f"glass_sums {set(self.glass_sums)} has values "
                             "outside 0..5")
        # Normalize so callers can pass any iterable of ints.
        object.__setattr__(self, "glass_sums", frozenset(self.glass_sums))


@dataclass
class WallMatrix:
    """One facade's cells, packed: row r, column c is bit
    r * (length + 1) + c, with row 0 the bottom course and column 0 the
    minimum-coordinate end of the side. Every bit outside the cells is
    0, and an all-solid wall is 0."""
    height: int
    length: int
    bits: int = 0

    def __post_init__(self):
        if self.height < 1 or self.length < 1:
            raise ValueError(
                f"wall must be at least 1x1, got {self.height}x{self.length}")
        # A set spare bit or a bit past the top row would shift into
        # other cells, and assemble would paint a column too long.
        if self.bits & ~_valid_cells(self.height, self.length):
            raise ValueError(f"bits {self.bits:#x} fall outside the "
                             f"{self.height}x{self.length} wall's cells")

    def rows(self) -> list[str]:
        """Cells as '0'/'1' strings, bottom row first."""
        l, bits = self.length, self.bits
        mask, fmt = (1 << l) - 1, f"0{l}b"
        return [format(bits >> r * (l + 1) & mask, fmt)[::-1]
                for r in range(self.height)]

    @classmethod
    def from_rows(cls, rows: list[str]) -> "WallMatrix":
        """Inverse of rows(). Rejects an empty wall, ragged rows and any
        character other than '0' or '1'."""
        if not rows or not rows[0]:
            raise ValueError("wall has no cells")
        length = len(rows[0])
        for r, row in enumerate(rows):
            if len(row) != length:
                raise ValueError(
                    f"row {r} has {len(row)} cells, expected {length}")
        # Row r's string, reversed, is the bits of row r from column 0
        # up; joining the rows with "0" puts a zero in each spare bit.
        text = "0".join(rows)
        if not set(text) <= {"0", "1"}:
            raise ValueError("cells must be '0' or '1'")
        return cls(len(rows), length, int(text[::-1], 2))


def init_wall(height: int, length: int, params: CaParams,
              rng: random.Random) -> WallMatrix:
    """Random starting wall: each cell is independently glass with the
    configured probability. Cells are drawn row by row, bottom first."""
    p, draw = params.init_glass_probability, rng.random
    # Cell i = r * length + c sits at bit i + r.
    bits = sum([1 << (i + i // length) for i in range(height * length)
                if draw() < p])
    return WallMatrix(height, length, bits)


def _valid_cells(height: int, length: int) -> int:
    # One row's cells, repeated in every row: the repunit of the stride
    # times the row mask.
    stride = length + 1
    return (((1 << stride * height) - 1) // ((1 << stride) - 1)
            * ((1 << length) - 1))


def _next_bits(x: int, stride: int, valid: int,
               glass_sums: frozenset[int]) -> int:
    # The five inputs are the cell and its neighbors on the right, left,
    # above and below. The spare bits stop the column shifts at the row
    # ends; whatever the shifts leave in a spare bit or past the top row
    # is cleared by the final mask, since every step below is bitwise.
    a, b, c, d = x >> 1, x << 1, x >> stride, x << stride
    # Two full adders and a half adder: sum = s0 + 2 * s1 + 4 * s2.
    t = x ^ a ^ b
    c1 = (x & a) | (b & (x ^ a))
    s0 = t ^ c ^ d
    c2 = (c & d) | (t & (c ^ d))
    s1, s2 = c1 ^ c2, c1 & c2
    out = 0
    for k in glass_sums:
        out |= ((s0 if k & 1 else ~s0) & (s1 if k & 2 else ~s1)
                & (s2 if k & 4 else ~s2))
    return out & valid


def _run_generations(walls: list[WallMatrix],
                     params: CaParams) -> list[WallMatrix]:
    # Step walls of one size as a single stack (see the module docstring).
    h, l, n = walls[0].height, walls[0].length, len(walls)
    block = (h + 1) * (l + 1)
    bits = sum(wall.bits << k * block for k, wall in enumerate(walls))
    # One wall's cells, repeated every block: times the block's repunit.
    valid = (_valid_cells(h, l)
             * (((1 << block * n) - 1) // ((1 << block) - 1)))
    for _ in range(params.generations):
        bits = _next_bits(bits, l + 1, valid, params.glass_sums)
    mask = (1 << block) - 1
    return [WallMatrix(h, l, bits >> k * block & mask) for k in range(n)]


def generate_facades(width: int, depth: int, height: int, params: CaParams,
                     rng: random.Random) -> dict[str, WallMatrix]:
    """The four facades of a width x depth building, keyed by side.

    North/south walls run along x (length = width), east/west along z
    (length = depth). Walls are initialized in a fixed order (north,
    east, south, west) so the draw sequence is reproducible; walls of
    equal length then run their generations as one stack.
    """
    lengths = {"north": width, "south": width, "east": depth, "west": depth}
    walls = {side: init_wall(height, lengths[side], params, rng)
             for side in FACADE_ORDER}
    stepped: dict[str, WallMatrix] = {}
    for length in {width, depth}:
        sides = [side for side in FACADE_ORDER if lengths[side] == length]
        stepped.update(zip(sides, _run_generations(
            [walls[side] for side in sides], params)))
    return {side: stepped[side] for side in FACADE_ORDER}
