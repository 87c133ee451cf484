"""End-to-end generation and the run configuration contract."""

import dataclasses

import pytest

from blockhouse.facade import CaParams
from blockhouse.grid import DOOR, EMPTY, DimensionError
from blockhouse.pipeline import RunConfig, generate_building
from blockhouse.rooms import RoomCountPolicy

from helpers import (
    interior,
    interior_tile_conservation,
    passable_components,
    rooms_are_separated,
)


def test_validate_returns_self_for_chaining():
    config = RunConfig(width=7, depth=7)
    assert config.validate() is config


def test_validate_rejects_bad_fields():
    with pytest.raises(DimensionError):
        RunConfig(width=4, depth=7).validate()
    with pytest.raises(DimensionError):
        RunConfig(width=7, depth=4).validate()
    with pytest.raises(DimensionError):
        RunConfig(width=7, depth=7, height=2).validate()
    with pytest.raises(DimensionError, match="width 257 is too large"):
        RunConfig(width=257, depth=7).validate()
    with pytest.raises(DimensionError, match="depth 257 is too large"):
        RunConfig(width=7, depth=257).validate()
    with pytest.raises(DimensionError, match="height 255 is too large"):
        RunConfig(width=7, depth=7, height=255).validate()
    with pytest.raises(ValueError):
        RunConfig(width=7, depth=7, max_attempts=0).validate()
    with pytest.raises(ValueError):
        RunConfig(width=7, depth=7, wall_rule="sturdy").validate()
    with pytest.raises(ValueError):
        RunConfig(width=7, depth=7, door_mode="greedy").validate()


def test_validate_caps_explicit_rooms_at_the_interior_tiles():
    # 5x5 has 9 interior tiles; 3 rooms do not all fit but may be asked.
    for rooms in (3, 9):
        RunConfig(width=5, depth=5,
                  room_policy=RoomCountPolicy(explicit=rooms)).validate()
    with pytest.raises(ValueError, match="rooms 10 is more than the 9 "):
        RunConfig(width=5, depth=5,
                  room_policy=RoomCountPolicy(explicit=10)).validate()


def test_validate_accepts_the_largest_dimensions():
    # height + 2 levels fill Minecraft's 256-block build height.
    RunConfig(width=256, depth=256, height=254).validate()


def test_with_seed_copies():
    base = RunConfig(width=7, depth=7)
    seeded = base.with_seed(42)
    assert seeded.seed == 42
    assert base.seed is None
    assert seeded.width == 7


def test_dict_round_trip():
    config = RunConfig(width=9, depth=7, height=5, seed=3,
                       room_policy=RoomCountPolicy(4), max_attempts=50,
                       ca=CaParams(0.3, 7, frozenset({1, 2})),
                       wall_rule="interior", door_mode="saturate")
    data = config.to_dict()
    assert data["rooms"] == "explicit:4"
    assert data["door_walls"] == "interior"
    assert data["ca"]["glass_sums"] == [1, 2]
    assert RunConfig.from_dict(data) == config


def test_from_dict_minimal_uses_defaults():
    config = RunConfig.from_dict({"width": 7, "depth": 8})
    assert config == RunConfig(width=7, depth=8)
    assert config.height == 4
    assert str(config.room_policy) == "formula"


def test_from_dict_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"width": 7, "depth": 7, "wdith": 9})
    with pytest.raises(ValueError, match="unknown ca keys"):
        RunConfig.from_dict({"width": 7, "depth": 7,
                             "ca": {"glass_probability": 0.5}})
    with pytest.raises(ValueError, match="width"):
        RunConfig.from_dict({"depth": 7})
    with pytest.raises(ValueError, match="'ca'"):
        RunConfig.from_dict({"width": 7, "depth": 7, "ca": [2, 3]})
    for key in ("width", "depth", "height", "seed", "max_attempts"):
        for value in (7.9, 7.0, True, False, "7", [7]):
            with pytest.raises(ValueError, match=f"'{key}'"):
                RunConfig.from_dict({"width": 7, "depth": 7, key: value})
    for key in ("width", "depth", "height", "max_attempts"):
        with pytest.raises(ValueError, match=f"'{key}'"):
            RunConfig.from_dict({"width": 7, "depth": 7, key: None})
    assert RunConfig.from_dict({"width": 7, "depth": 7,
                                "seed": None}).seed is None
    for key in ("rooms", "door_walls", "door_mode"):
        for value in (None, 3, True, ["sweep"], {"explicit": 3}):
            with pytest.raises(ValueError,
                               match=f"config key '{key}' must be a string"):
                RunConfig.from_dict({"width": 7, "depth": 7, key: value})
    for ca, key in (({"generations": 2.5}, "ca.generations"),
                    ({"generations": True}, "ca.generations"),
                    ({"generations": "3"}, "ca.generations"),
                    ({"glass_sums": [2.7]}, r"ca.glass_sums\[0\]"),
                    ({"glass_sums": [2, True]}, r"ca.glass_sums\[1\]"),
                    ({"glass_sums": "23"}, "ca.glass_sums"),
                    ({"glass_sums": 2}, "ca.glass_sums"),
                    ({"init_glass_probability": "x"},
                     "ca.init_glass_probability"),
                    ({"init_glass_probability": True},
                     "ca.init_glass_probability"),
                    ({"init_glass_probability": None},
                     "ca.init_glass_probability")):
        with pytest.raises(ValueError, match=f"'{key}'"):
            RunConfig.from_dict({"width": 7, "depth": 7, "ca": ca})
    assert RunConfig.from_dict(
        {"width": 7, "depth": 7,
         "ca": {"init_glass_probability": 1, "generations": 0,
                "glass_sums": [0, 5]}}).ca == CaParams(1, 0, {0, 5})


@pytest.mark.parametrize("width,depth", [(7, 7), (6, 12), (9, 9)])
def test_generated_plans_are_valid(width, depth):
    config = RunConfig(width=width, depth=depth)
    for seed in range(15):
        result = generate_building(config, seed)
        plan, report, pre = (result.plan, result.report,
                             result.pre_repair_components)
        plan.validate()
        assert plan.count(EMPTY) == 0
        assert plan.entrance() == result.entrance
        assert result.requested_rooms == config.room_policy.count_for(
            width, depth)
        assert report.connected
        assert len(passable_components(plan)) <= 1
        assert pre >= 1
        assert rooms_are_separated(plan)
        assert interior_tile_conservation(plan)
        # Door flanks may split a room's remaining tiles (the fragments
        # stay reachable through the doors), but the room records must
        # mirror the grid exactly.
        for room in result.rooms:
            assert room.tiles == set(plan.find(room.id))
        assert plan.count(DOOR) == (len(result.placed_doors)
                                    + report.repairs_applied)
        assert (report.repairs_applied == 0) == (pre == 1)


def test_generation_deterministic():
    config = RunConfig(width=9, depth=9)
    a = generate_building(config, 123)
    b = generate_building(config, 123)
    assert a.plan == b.plan
    assert a.placed_doors == b.placed_doors
    assert a.entrance == b.entrance
    assert a.model.facades == b.model.facades
    assert a.model.voxels == b.model.voxels
    c = generate_building(config, 124)
    assert a.plan != c.plan


def test_facade_settings_leave_the_plan_alone():
    # Stages draw from named sub-streams, so reconfiguring the automaton
    # cannot shift the randomness the 2D stages consume.
    base = RunConfig(width=9, depth=9)
    tweaked = RunConfig(width=9, depth=9,
                        ca=CaParams(generations=3, init_glass_probability=0.5))
    a = generate_building(base, 55)
    b = generate_building(tweaked, 55)
    assert a.plan == b.plan
    assert a.entrance == b.entrance
    assert a.model.facades != b.model.facades


def test_height_leaves_the_plan_alone():
    short = generate_building(RunConfig(width=9, depth=9, height=3), 55)
    tall = generate_building(RunConfig(width=9, depth=9, height=6), 55)
    assert short.plan == tall.plan
    assert len(short.model.voxels) == 9 * 5 * 9
    assert len(tall.model.voxels) == 9 * 8 * 9


def test_door_mode_leaves_earlier_stages_alone():
    sweep = generate_building(RunConfig(width=9, depth=9), 77)
    saturate = generate_building(
        RunConfig(width=9, depth=9, door_mode="saturate"), 77)
    assert sweep.plan.room_ids() == saturate.plan.room_ids()
    assert sweep.requested_rooms == saturate.requested_rooms
    # Room footprint before door conversion is identical, so every room
    # tile in one run is a room, door, or wall tile in the other.
    for x, z in interior(sweep.plan):
        a, b = sweep.plan.get(x, z), saturate.plan.get(x, z)
        assert (a >= 0 or a == DOOR) == (b >= 0 or b == DOOR) or a != b


def test_result_provenance():
    config = RunConfig(width=7, depth=7, height=4)
    result = generate_building(config, 9)
    assert result.seed == 9
    assert result.elapsed > 0
    assert result.model.plan == result.plan
    assert result.model.height == 4
    assert result.entrance == result.plan.entrance()
    assert result.requested_rooms == 4
    fields = {f.name for f in dataclasses.fields(result)}
    assert {"seed", "plan", "rooms", "requested_rooms", "placed_doors",
            "entrance", "pre_repair_components", "report", "model",
            "elapsed"} == fields
