"""Extrude a finished floor plan into a voxel model, and move plans and
models between ASCII, JSON, and memory.

Voxel space is one flat buffer of block codes, y up, laid out in the
exported `xzy` order: the column under plan tile i = x * depth + z is
voxels[i * levels:(i + 1) * levels], with levels = height + 2, so block
(x, y, z) sits at (x * depth + z) * levels + y. Each column holds the
slab floor at y = 0, the slab roof at y = height + 1, and the plan
extruded through the wall courses in between. Facade matrices replace
the extruded border in a fixed order (north, east, south, west), so each
corner column belongs to the last side that painted it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .facade import FACADE_ORDER, WallMatrix
from .grid import (
    DOOR,
    EMPTY,
    EXTERIOR_DOOR,
    EXTERIOR_WALL,
    INTERIOR_WALL,
    Coord,
    DimensionError,
    FloorGrid,
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
    voxels: bytearray  # block (x, y, z) at (x * depth + z) * levels + y
    entrance: Coord | None

    @property
    def width(self) -> int:
        return self.plan.width

    @property
    def depth(self) -> int:
        return self.plan.depth


# Facade cell characters '0' and '1' to the blocks they paint.
_FACADE_BLOCKS = bytes.maketrans(b"01", bytes([SOLID_WALL, GLASS_BLOCK]))


def assemble(plan: FloorGrid, facades: dict[str, WallMatrix],
             height: int = DEFAULT_HEIGHT) -> BuildingModel:
    """Build the voxel volume for a processed plan.

    Needs all four facades sized to their sides; door tiles get 2-high
    openings, and the entrance is carved through its facade column.
    """
    if height < MIN_HEIGHT:
        raise DimensionError(
            f"height {height} is too small (minimum {MIN_HEIGHT})")
    levels = height + 2
    walls = [SOLID_WALL] * height
    air_column = bytes([FLOOR_SLAB, *[AIR] * height, ROOF_SLAB])
    wall_column = bytes([FLOOR_SLAB, *walls, ROOF_SLAB])
    door_column = bytes([FLOOR_SLAB, DOOR_OPENING, DOOR_OPENING,
                         *walls[2:], ROOF_SLAB])
    columns = {t: air_column if t >= 0 or t == EMPTY
               else door_column if t == DOOR else wall_column
               for t in set(plan.cells)}
    voxels = bytearray(b"".join(map(columns.__getitem__, plan.cells)))

    # Facades repaint the border columns; later sides win the corners.
    sides = plan.sides()
    for side in FACADE_ORDER:
        if side not in facades:
            raise DimensionError(f"facade '{side}' is missing")
        m, tiles = facades[side], sides[side][0]
        if m.height != height or m.length != len(tiles):
            raise DimensionError(
                f"facade '{side}' is {m.height}x{m.length}, "
                f"expected {height}x{len(tiles)}")
        # The wall's bits as text from bit 0 up: cell (r, c) is character
        # r * stride + c, so column c is every stride-th one from c.
        stride = m.length + 1
        cells = format(m.bits, f"0{height * stride}b")[::-1].encode()
        cells = cells.translate(_FACADE_BLOCKS)
        for col, i in enumerate(tiles):
            start = i * levels + 1
            voxels[start:start + height] = cells[col::stride]

    entrance = plan.entrance()
    if entrance is not None:
        start = (entrance[0] * plan.depth + entrance[1]) * levels + 1
        voxels[start:start + 2] = bytes([DOOR_OPENING, DOOR_OPENING])

    return BuildingModel(plan, height, dict(facades), voxels, entrance)


# Every tile's one character: the named states, then room ids 0-35.
_TILE_CHARS = {EXTERIOR_WALL: "#", INTERIOR_WALL: "*", DOOR: "D",
               EXTERIOR_DOOR: "E", EMPTY: ".", **dict(enumerate(ROOM_SYMBOLS))}
_CHAR_TILES = {ch: t for t, ch in _TILE_CHARS.items()}


def render_ascii(plan: FloorGrid) -> str:
    """One text line per depth row; x increases left to right."""
    cells, d = plan.cells, plan.depth
    try:
        return "\n".join("".join(map(_TILE_CHARS.__getitem__, cells[z::d]))
                         for z in range(d))
    except KeyError as exc:
        t = exc.args[0]
        raise LayoutError(f"tile state {t} has no symbol" if t < 0 else (
            f"room id {t} has no symbol (ids above "
            f"{len(ROOM_SYMBOLS) - 1} cannot be rendered)")) from None


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
            if ch not in _CHAR_TILES:
                raise LayoutError(
                    f"unknown character {ch!r} at row {z}, column {x}")
            cells[x * depth + z] = _CHAR_TILES[ch]
    return grid


def export_json(model: BuildingModel, config: dict | None = None,
                metrics: dict | None = None) -> dict:
    """Serialize a model to a plain dict (see FORMATS.md).

    Voxels are stored as a palette of the block kinds present plus one
    palette index per cell, flattened x-major, then z, then y: the order
    the model already holds them in, so only the codes are remapped.
    """
    levels = model.height + 2
    present = sorted(set(model.voxels))
    palette = [BLOCK_NAMES[code] for code in present]
    table = bytearray(256)
    for index, code in enumerate(present):
        table[code] = index
    blocks = list(model.voxels.translate(table))
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
    """Rebuild a BuildingModel from an export_json document.

    The model is assembled again from the plan, the facades and the wall
    height; a document whose voxels or entrance disagree with that model
    is rejected."""
    if not isinstance(doc, dict):
        raise LayoutError(
            f"building document must be a JSON object, not "
            f"{type(doc).__name__}")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise LayoutError(f"unsupported schema_version {version!r}")
    try:
        plan = parse_ascii("\n".join(doc["plan"]))
        dims = [doc["width"], doc["depth"]]
        if (dims != [plan.width, plan.depth]
                or not set(map(type, dims)) <= {int}):
            raise LayoutError(f"width and depth {dims!r} contradict the "
                              f"{plan.width}x{plan.depth} plan")
        height = doc["wall_height"]
        if type(height) is not int:  # not 4.0, "4" or true
            raise LayoutError(f"wall_height {height!r} is not an integer")
        facades = {}
        for side in FACADE_ORDER:
            try:
                facades[side] = WallMatrix.from_rows(doc["facades"][side])
            except ValueError as exc:
                raise LayoutError(f"facade '{side}': {exc}") from exc
        vox = doc["voxels"]
        if vox["order"] != "xzy":
            raise LayoutError(f"voxels.order {vox['order']!r} is not 'xzy'")
        size = vox["size"]
        if len(size) != 3 or not set(map(type, size)) <= {int}:
            raise LayoutError(f"voxels.size must be 3 integers, not {size!r}")
        w, levels, d = size
        codes = bytes(BLOCK_CODES[name] for name in vox["palette"])
        blocks = vox["blocks"]
        if len(blocks) != w * d * levels:
            raise LayoutError(
                f"voxel array has {len(blocks)} entries, "
                f"expected {w * d * levels}")
        if not set(map(type, blocks)) <= {int}:
            raise LayoutError("voxels.blocks must hold plain integers")
        try:
            indices = bytes(blocks)
        except ValueError:  # an index below 0 or above 255
            low = min(blocks)
            raise LayoutError(f"negative palette index {low}" if low < 0 else
                              f"palette index {max(blocks)} is above 255")
        # An index past the palette decodes to 255, which no block is.
        voxels = indices.translate((codes + b"\xff" * 256)[:256])
        entrance = tuple(doc["entrance"]) if doc.get("entrance") else None
        if entrance and not set(map(type, entrance)) <= {int}:
            raise LayoutError(f"entrance {list(entrance)!r} is not integers")
    except (KeyError, IndexError, TypeError, DimensionError) as exc:
        raise LayoutError(f"malformed building document: {exc}") from exc
    try:
        plan.validate()
        model = assemble(plan, facades, height)
    except ValueError as exc:  # DimensionError, or a plan that fails validate
        raise LayoutError(str(exc)) from exc
    if ((w, levels, d) != (model.width, model.height + 2, model.depth)
            or voxels != model.voxels or entrance != model.entrance):
        raise LayoutError("voxels or entrance contradict the plan and "
                          "facades")
    return model
