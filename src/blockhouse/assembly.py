"""Extrude a finished floor plan into a voxel model, and move plans and
models between ASCII, JSON, and memory.

Voxel space is voxels[x][y][z] with y up: slab floor at y = 0, slab roof
at y = height + 1, and the plan extruded through the wall courses in
between. Facade matrices replace the extruded border in a fixed order
(north, east, south, west), so each corner column belongs to the last
side that painted it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .facade import FACADE_ORDER, GLASS, WallMatrix
from .grid import (
    DOOR,
    EMPTY,
    EXTERIOR_DOOR,
    EXTERIOR_WALL,
    INTERIOR_WALL,
    Coord,
    DimensionError,
    FloorGrid,
    is_room,
)

AIR = 0
SOLID_WALL = 1
GLASS_BLOCK = 2
FLOOR_SLAB = 3
ROOF_SLAB = 4
DOOR_OPENING = 5

BLOCK_NAMES = {
    AIR: "air",
    SOLID_WALL: "solid_wall",
    GLASS_BLOCK: "glass",
    FLOOR_SLAB: "floor_slab",
    ROOF_SLAB: "roof_slab",
    DOOR_OPENING: "door_opening",
}
BLOCK_CODES = {name: code for code, name in BLOCK_NAMES.items()}

# Blocks a player can occupy.
PASSABLE_BLOCKS = frozenset({AIR, DOOR_OPENING})

DEFAULT_HEIGHT = 4
MIN_HEIGHT = 3

SCHEMA_VERSION = 1

# Room ids render as one character each; 36 symbols is the ceiling.
ROOM_SYMBOLS = "0123456789abcdefghijklmnopqrstuvwxyz"


class LayoutError(ValueError):
    """A plan cannot be rendered to or recovered from a serial form."""


@dataclass
class BuildingModel:
    """A fully assembled building: plan, wall height, the four facade
    matrices, the voxel volume, and where the entrance is."""
    plan: FloorGrid
    height: int
    facades: dict[str, WallMatrix]
    voxels: list[list[list[int]]]  # voxels[x][y][z]
    entrance: Coord | None

    @property
    def width(self) -> int:
        return self.plan.width

    @property
    def depth(self) -> int:
        return self.plan.depth

    def block_at(self, x: int, y: int, z: int) -> int:
        return self.voxels[x][y][z]

    def count_block(self, block: int) -> int:
        return sum(column.count(block)
                   for plane in self.voxels for column in plane)


def _facade_columns(side: str, width: int, depth: int) -> list[tuple[int, int]]:
    # The (x, z) run of a side, index order = facade column order, so
    # column 0 sits at the minimum coordinate end.
    if side == "north":
        return [(x, 0) for x in range(width)]
    if side == "south":
        return [(x, depth - 1) for x in range(width)]
    if side == "east":
        return [(width - 1, z) for z in range(depth)]
    if side == "west":
        return [(0, z) for z in range(depth)]
    raise ValueError(f"unknown side {side!r}")


def assemble(plan: FloorGrid, facades: dict[str, WallMatrix],
             height: int = DEFAULT_HEIGHT) -> BuildingModel:
    """Build the voxel volume for a processed plan.

    Needs all four facades sized to their sides; door tiles get 2-high
    openings, and the entrance is carved through its facade column.
    """
    if height < MIN_HEIGHT:
        raise DimensionError(
            f"height {height} is too small (minimum {MIN_HEIGHT})")
    w, d = plan.width, plan.depth
    for side in FACADE_ORDER:
        if side not in facades:
            raise DimensionError(f"facade '{side}' is missing")
        m = facades[side]
        need = w if side in ("north", "south") else d
        if m.height != height or m.length != need:
            raise DimensionError(
                f"facade '{side}' is {m.height}x{m.length}, "
                f"expected {height}x{need}")

    levels = height + 2
    voxels = [[[AIR] * d for _ in range(levels)] for _ in range(w)]
    for x in range(w):
        for z in range(d):
            voxels[x][0][z] = FLOOR_SLAB
            voxels[x][levels - 1][z] = ROOF_SLAB

    for i, t in enumerate(plan.cells):
        if is_room(t) or t == EMPTY:
            continue  # columns start as air
        x, z = divmod(i, d)
        for y in range(1, height + 1):
            if t == DOOR and y <= 2:
                voxels[x][y][z] = DOOR_OPENING
            else:
                voxels[x][y][z] = SOLID_WALL

    # Facades repaint the border columns; later sides win the corners.
    for side in FACADE_ORDER:
        m = facades[side]
        for col, (x, z) in enumerate(_facade_columns(side, w, d)):
            for y in range(1, height + 1):
                cell = m.cells[y - 1][col]
                voxels[x][y][z] = GLASS_BLOCK if cell == GLASS else SOLID_WALL

    entrance = plan.entrance()
    if entrance is not None:
        ex, ez = entrance
        voxels[ex][1][ez] = DOOR_OPENING
        voxels[ex][2][ez] = DOOR_OPENING

    return BuildingModel(plan, height, dict(facades), voxels, entrance)


_TILE_CHARS = {
    EXTERIOR_WALL: "#",
    INTERIOR_WALL: "*",
    DOOR: "D",
    EXTERIOR_DOOR: "E",
    EMPTY: ".",
}
_CHAR_TILES = {ch: t for t, ch in _TILE_CHARS.items()}


def tile_char(tile: int) -> str:
    """The one-character form of a tile ('#', '*', 'D', 'E', '.', or a
    room symbol)."""
    if is_room(tile):
        if tile >= len(ROOM_SYMBOLS):
            raise LayoutError(
                f"room id {tile} has no symbol (ids above "
                f"{len(ROOM_SYMBOLS) - 1} cannot be rendered)")
        return ROOM_SYMBOLS[tile]
    return _TILE_CHARS[tile]


def render_ascii(plan: FloorGrid) -> str:
    """One text line per depth row; x increases left to right."""
    cells, d = plan.cells, plan.depth
    return "\n".join("".join(tile_char(t) for t in cells[z::d])
                     for z in range(d))


def parse_ascii(text: str) -> FloorGrid:
    """Inverse of render_ascii. Rejects ragged rows and any character
    outside the render alphabet, naming the offending position."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise LayoutError("no rows to parse")
    width = len(lines[0])
    for z, line in enumerate(lines):
        if len(line) != width:
            raise LayoutError(
                f"row {z} has {len(line)} characters, expected {width}")
    depth = len(lines)
    grid = FloorGrid(width, depth)
    cells = grid.cells
    for z, line in enumerate(lines):
        for x, ch in enumerate(line):
            if ch in _CHAR_TILES:
                cells[x * depth + z] = _CHAR_TILES[ch]
            elif ch in ROOM_SYMBOLS:
                cells[x * depth + z] = ROOM_SYMBOLS.index(ch)
            else:
                raise LayoutError(
                    f"unknown character {ch!r} at row {z}, column {x}")
    return grid


def export_json(model: BuildingModel, config: dict | None = None,
                metrics: dict | None = None) -> dict:
    """Serialize a model to a plain dict (see FORMATS.md).

    Voxels are stored as a palette of the block kinds present plus one
    palette index per cell, flattened x-major, then z, then y.
    """
    levels = model.height + 2
    present = sorted({model.voxels[x][y][z]
                      for x in range(model.width)
                      for y in range(levels)
                      for z in range(model.depth)})
    palette = [BLOCK_NAMES[code] for code in present]
    index_of = {code: i for i, code in enumerate(present)}
    blocks = [index_of[model.voxels[x][y][z]]
              for x in range(model.width)
              for z in range(model.depth)
              for y in range(levels)]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "width": model.width,
        "depth": model.depth,
        "wall_height": model.height,
        "entrance": list(model.entrance) if model.entrance else None,
        "plan": render_ascii(model.plan).splitlines(),
        "facades": {side: model.facades[side].rows()
                    for side in FACADE_ORDER},
        "voxels": {
            "order": "xzy",
            "size": [model.width, levels, model.depth],
            "palette": palette,
            "blocks": blocks,
        },
        "metrics": metrics,
    }
    return doc


def import_json(doc: dict) -> BuildingModel:
    """Rebuild a BuildingModel from an export_json document."""
    if not isinstance(doc, dict):
        raise LayoutError(
            f"building document must be a JSON object, not "
            f"{type(doc).__name__}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise LayoutError(f"unsupported schema_version {version!r}")
    try:
        plan = parse_ascii("\n".join(doc["plan"]))
        height = int(doc["wall_height"])
        facades = {side: WallMatrix.from_rows(doc["facades"][side])
                   for side in FACADE_ORDER}
        vox = doc["voxels"]
        w, levels, d = vox["size"]
        palette = vox["palette"]
        codes = [BLOCK_CODES[name] for name in palette]
        blocks = vox["blocks"]
        if len(blocks) != w * d * levels:
            raise LayoutError(
                f"voxel array has {len(blocks)} entries, "
                f"expected {w * d * levels}")
        if blocks and min(blocks) < 0:
            raise LayoutError(
                f"negative palette index {min(blocks)} in voxels.blocks")
        voxels = [[[AIR] * d for _ in range(levels)] for _ in range(w)]
        i = 0
        for x in range(w):
            for z in range(d):
                for y in range(levels):
                    voxels[x][y][z] = codes[blocks[i]]
                    i += 1
        entrance = tuple(doc["entrance"]) if doc.get("entrance") else None
    except (KeyError, IndexError, TypeError) as exc:
        raise LayoutError(f"malformed building document: {exc}") from exc
    return BuildingModel(plan, height, facades, voxels, entrance)


def write_json(model: BuildingModel, path: str,
               config: dict | None = None,
               metrics: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(export_json(model, config, metrics), fh, indent=2)
        fh.write("\n")
