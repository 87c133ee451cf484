"""Voxel assembly and the ASCII/JSON serial forms."""

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
    assert len(model.voxels) == 5 * 5 * 5  # levels = height + floor + roof


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


@pytest.mark.parametrize("past", [0, 1, 250])
def test_import_rejects_palette_index_past_the_palette(past):
    # Put the index on an air block: air is code 0, so a decode that
    # padded the palette with zeros would let it through.
    doc = export_json(_small_model())
    palette, blocks = doc["voxels"]["palette"], doc["voxels"]["blocks"]
    blocks[blocks.index(palette.index("air"))] = len(palette) + past
    with pytest.raises(LayoutError, match="contradict|above 255"):
        import_json(doc)


@pytest.mark.parametrize("doc", [[1, 2], "text", 3, None])
def test_import_rejects_documents_that_are_not_objects(doc):
    with pytest.raises(LayoutError, match="must be a JSON object"):
        import_json(doc)


def test_block_at_rejects_coordinates_outside_the_volume():
    model = _generated(3)
    w, levels, d = model.width, model.height + 2, model.depth
    assert model.block_at(w - 1, levels - 1, d - 1) == ROOF_SLAB
    for x, y, z in ((-1, 0, 0), (w, 0, 0), (0, -1, 0), (0, levels, 0),
                    (0, 0, -1), (0, 0, d), (1, 1, d), (w - 2, levels, 3)):
        with pytest.raises(IndexError, match="outside"):
            model.block_at(x, y, z)
    assert sum(model.count_block(code) for code in BLOCK_NAMES) \
        == w * levels * d


def test_import_rejects_any_single_changed_block():
    doc = export_json(_small_model())
    blocks = doc["voxels"]["blocks"]
    kinds = len(doc["voxels"]["palette"])
    for i, original in enumerate(blocks):
        for other in range(kinds):
            if other == original:
                continue
            blocks[i] = other
            with pytest.raises(LayoutError, match="contradict"):
                import_json(doc)
        blocks[i] = original
    assert import_json(doc) == _small_model()


def test_import_rejects_a_moved_entrance():
    doc = export_json(_small_model())
    assert doc["entrance"] == [0, 2]
    for moved in ([0, 1], [2, 0], None):
        doc["entrance"] = moved
        with pytest.raises(LayoutError, match="contradict"):
            import_json(doc)


def test_import_rejects_a_flipped_facade_cell():
    doc = export_json(_small_model())
    north = doc["facades"]["north"]
    row = north[1]
    # Column 2 of the north facade paints (2, 0), away from the corners
    # the east and west facades own and from the entrance.
    north[1] = row[:2] + ("0" if row[2] == "1" else "1") + row[3:]
    with pytest.raises(LayoutError, match="contradict"):
        import_json(doc)


def test_import_rejects_misshapen_facades():
    doc = export_json(_small_model())
    doc["facades"]["east"][-1] = doc["facades"]["east"][-1][:-1]
    with pytest.raises(LayoutError, match="facade 'east'"):
        import_json(doc)
    doc = export_json(_small_model())
    doc["facades"]["north"] = [row[:-1] for row in doc["facades"]["north"]]
    with pytest.raises(LayoutError, match="facade 'north' is 3x4"):
        import_json(doc)
    doc = export_json(_small_model())
    doc["facades"]["south"] = doc["facades"]["south"][:-1]
    with pytest.raises(LayoutError, match="facade 'south'"):
        import_json(doc)


@pytest.mark.parametrize("cell", ["2", "x", " ", "_", "-", "+"])
def test_import_rejects_facade_cells_other_than_0_and_1(cell):
    doc = export_json(_small_model())
    row = doc["facades"]["north"][1]
    doc["facades"]["north"][1] = row[:2] + cell + row[3:]
    with pytest.raises(LayoutError, match="facade 'north'"):
        import_json(doc)


@pytest.mark.parametrize("rows", [[], [""], ["", "", ""]])
def test_import_rejects_facades_without_cells(rows):
    doc = export_json(_small_model())
    doc["facades"]["west"] = rows
    with pytest.raises(LayoutError, match="facade 'west'"):
        import_json(doc)


def test_import_rejects_a_wall_height_below_the_minimum():
    doc = export_json(_small_model())
    doc["wall_height"] = 2
    with pytest.raises(LayoutError, match="height 2 is too small"):
        import_json(doc)


def test_import_rejects_a_voxel_size_that_disagrees_with_the_plan():
    model = _generated(5, width=9, depth=7)
    doc = export_json(model)
    assert doc["voxels"]["size"] == [9, 6, 7]
    # Same number of blocks, so only the size itself can give it away.
    doc["voxels"]["size"] = [7, 6, 9]
    with pytest.raises(LayoutError, match="contradict"):
        import_json(doc)
    doc = export_json(model)
    doc["voxels"]["size"] = [9, 6, 8]
    doc["voxels"]["blocks"] += doc["voxels"]["blocks"][:6 * 9]
    with pytest.raises(LayoutError, match="contradict"):
        import_json(doc)
