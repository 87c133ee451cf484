"""Voxel assembly and the ASCII/JSON serial forms."""

import json
import random

import pytest

from blockhouse import (
    AIR,
    DOOR_OPENING,
    FLOOR_SLAB,
    GLASS,
    GLASS_BLOCK,
    ROOF_SLAB,
    SOLID_WALL,
    CaParams,
    DimensionError,
    FloorGrid,
    LayoutError,
    RunConfig,
    assemble,
    export_json,
    generate_building,
    generate_facades,
    import_json,
    parse_ascii,
    render_ascii,
)
from blockhouse.assembly import (
    BLOCK_NAMES,
    PASSABLE_BLOCKS,
    SCHEMA_VERSION,
    tile_char,
    write_json,
)

from helpers import (
    border_owner,
    expected_glass_count,
    facade_column,
    voxel_walkable,
)

PLAN_SMALL = """\
#####
#0*1#
E0D1#
#0*1#
#####
"""


def _small_model(height=3, rng_seed=2, **ca_kwargs):
    plan = parse_ascii(PLAN_SMALL)
    params = CaParams(**ca_kwargs) if ca_kwargs else CaParams()
    facades = generate_facades(5, 5, height, params, random.Random(rng_seed))
    return assemble(plan, facades, height)


def _generated(seed, width=9, depth=7):
    return generate_building(RunConfig(width=width, depth=depth), seed).model


def test_volume_dimensions():
    model = _small_model()
    assert model.width == 5
    assert model.depth == 5
    assert model.height == 3
    assert len(model.voxels) == 5
    assert len(model.voxels[0]) == 5  # height + floor + roof
    assert len(model.voxels[0][0]) == 5


def test_floor_and_roof_slabs():
    model = _small_model()
    levels = model.height + 1
    for x in range(5):
        for z in range(5):
            assert model.block_at(x, 0, z) == FLOOR_SLAB
            assert model.block_at(x, levels, z) == ROOF_SLAB
    assert model.count_block(FLOOR_SLAB) == 25
    assert model.count_block(ROOF_SLAB) == 25


def test_column_extrusion():
    model = _small_model()
    for y in (1, 2, 3):
        assert model.block_at(1, y, 1) == AIR  # room
        assert model.block_at(2, y, 1) == SOLID_WALL  # interior wall
    assert model.block_at(2, 1, 2) == DOOR_OPENING
    assert model.block_at(2, 2, 2) == DOOR_OPENING
    assert model.block_at(2, 3, 2) == SOLID_WALL  # lintel over the door


def test_entrance_carved_through_facade():
    model = _small_model()
    assert model.entrance == (0, 2)
    assert model.block_at(0, 1, 2) == DOOR_OPENING
    assert model.block_at(0, 2, 2) == DOOR_OPENING
    west = model.facades["west"]
    expected = GLASS_BLOCK if west.get(2, 2) == GLASS else SOLID_WALL
    assert model.block_at(0, 3, 2) == expected


def test_border_columns_come_from_owner_facades():
    model = _small_model()
    for x, z in model.plan.border():
        side = border_owner(x, z, model.width, model.depth)
        matrix = model.facades[side]
        col = facade_column(side, x, z, model.width, model.depth)
        for y in range(1, model.height + 1):
            if (x, z) == model.entrance and y <= 2:
                continue
            cell = matrix.get(y - 1, col)
            want = GLASS_BLOCK if cell == GLASS else SOLID_WALL
            assert model.block_at(x, y, z) == want


def test_corner_ownership():
    assert border_owner(0, 0, 5, 5) == "west"
    assert border_owner(4, 0, 5, 5) == "east"
    assert border_owner(4, 4, 5, 5) == "south"
    assert border_owner(0, 4, 5, 5) == "west"
    assert border_owner(2, 0, 5, 5) == "north"
    assert border_owner(2, 4, 5, 5) == "south"
    assert border_owner(0, 2, 5, 5) == "west"
    assert border_owner(4, 2, 5, 5) == "east"


def test_rejects_height_below_minimum():
    plan = parse_ascii(PLAN_SMALL)
    facades = generate_facades(5, 5, 2, CaParams(), random.Random(0))
    with pytest.raises(DimensionError):
        assemble(plan, facades, 2)


def test_rejects_missing_or_misshapen_facades():
    plan = parse_ascii(PLAN_SMALL)
    facades = generate_facades(5, 5, 3, CaParams(), random.Random(0))
    short = dict(facades)
    del short["east"]
    with pytest.raises(DimensionError, match="east"):
        assemble(plan, short, 3)
    wrong = generate_facades(6, 5, 3, CaParams(), random.Random(0))
    with pytest.raises(DimensionError, match="north"):
        assemble(plan, wrong, 3)


def test_glass_counts_match_facade_recount():
    for seed in range(8):
        model = _generated(seed)
        assert model.count_block(GLASS_BLOCK) == expected_glass_count(model)


def test_generated_models_are_walkable():
    for seed in range(8):
        model = _generated(seed)
        assert voxel_walkable(model)
        assert PASSABLE_BLOCKS == {AIR, DOOR_OPENING}


def test_tile_symbols():
    assert tile_char(0) == "0"
    assert tile_char(10) == "a"
    assert tile_char(35) == "z"
    with pytest.raises(LayoutError):
        tile_char(36)


def test_render_ascii_example():
    grid = FloorGrid(5, 5)
    grid.put(1, 1, 0)
    grid.put(2, 1, 0)
    grid.put(3, 3, 11)
    assert render_ascii(grid) == "#####\n#00.#\n#...#\n#..b#\n#####"


def test_render_rejects_oversized_room_ids():
    grid = FloorGrid(5, 5)
    grid.put(1, 1, 36)
    with pytest.raises(LayoutError):
        render_ascii(grid)


def test_parse_render_round_trip():
    assert render_ascii(parse_ascii(PLAN_SMALL)) == PLAN_SMALL.strip()
    for seed in range(10):
        plan = _generated(seed).plan
        assert parse_ascii(render_ascii(plan)) == plan


def test_parse_rejects_bad_text():
    with pytest.raises(LayoutError):
        parse_ascii("")
    with pytest.raises(LayoutError, match="row 1"):
        parse_ascii("#####\n####\n#####\n#####\n#####")
    with pytest.raises(LayoutError, match="row 1, column 2"):
        parse_ascii("#####\n#0%0#\n#####\n#####\n#####")
    # Texts below the 5x5 floor-plan minimum fail the dimension check.
    with pytest.raises(DimensionError):
        parse_ascii("###\n###\n###")


def test_export_document_shape():
    model = _small_model()
    doc = export_json(model, config={"width": 5}, metrics={"doors": 1})
    assert doc["schema_version"] == SCHEMA_VERSION == 1
    assert doc["width"] == 5
    assert doc["depth"] == 5
    assert doc["wall_height"] == 3
    assert doc["entrance"] == [0, 2]
    assert doc["plan"] == PLAN_SMALL.strip().splitlines()
    assert set(doc["facades"]) == {"north", "east", "south", "west"}
    assert doc["facades"]["north"] == model.facades["north"].rows()
    assert doc["config"] == {"width": 5}
    assert doc["metrics"] == {"doors": 1}
    vox = doc["voxels"]
    assert vox["order"] == "xzy"
    assert vox["size"] == [5, 5, 5]
    assert set(vox["palette"]) <= set(BLOCK_NAMES.values())
    assert len(vox["blocks"]) == 5 * 5 * 5
    assert max(vox["blocks"]) < len(vox["palette"])


def test_export_block_order_is_x_then_z_then_y():
    model = _small_model()
    doc = export_json(model)
    codes = {name: i for i, name in enumerate(doc["voxels"]["palette"])}
    levels = model.height + 2
    for x, y, z in ((0, 0, 0), (2, 1, 2), (4, 4, 4), (1, 3, 2)):
        flat = x * (model.depth * levels) + z * levels + y
        name = BLOCK_NAMES[model.block_at(x, y, z)]
        assert doc["voxels"]["blocks"][flat] == codes[name]


def test_palette_lists_only_present_blocks():
    all_solid = _small_model(init_glass_probability=0.0, generations=0)
    doc = export_json(all_solid)
    assert "glass" not in doc["voxels"]["palette"]
    assert "door_opening" in doc["voxels"]["palette"]
    glassy = _small_model()
    if glassy.count_block(GLASS_BLOCK):
        assert "glass" in export_json(glassy)["voxels"]["palette"]


def test_json_round_trip():
    for seed in range(5):
        model = _generated(seed)
        restored = import_json(export_json(model))
        assert restored == model


def test_import_rejects_wrong_schema():
    doc = export_json(_small_model())
    doc["schema_version"] = 99
    with pytest.raises(LayoutError, match="schema_version"):
        import_json(doc)


def test_import_rejects_malformed_documents():
    doc = export_json(_small_model())
    del doc["voxels"]
    with pytest.raises(LayoutError, match="malformed"):
        import_json(doc)
    doc = export_json(_small_model())
    doc["voxels"]["blocks"] = doc["voxels"]["blocks"][:-3]
    with pytest.raises(LayoutError, match="expected"):
        import_json(doc)


def test_import_rejects_negative_palette_index():
    # A negative index would wrap around to the end of the palette.
    doc = export_json(_small_model())
    doc["voxels"]["blocks"][5] = -1
    with pytest.raises(LayoutError, match="negative palette index -1"):
        import_json(doc)


@pytest.mark.parametrize("doc", [[1, 2], "text", 3, None])
def test_import_rejects_documents_that_are_not_objects(doc):
    with pytest.raises(LayoutError, match="must be a JSON object"):
        import_json(doc)


def test_write_json_round_trips_through_disk(tmp_path):
    model = _small_model()
    path = tmp_path / "building.json"
    write_json(model, str(path), config={"seed": 1})
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["config"] == {"seed": 1}
    assert import_json(doc) == model
