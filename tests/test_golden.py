"""Golden output digest: pins every generated building, bit for bit.

For each configuration below, the rendered plan, the placed doors in
order, the facade rows and the exported voxel block of a fixed run of
seeds are hashed into one digest and compared with a constant. Any
change to what the generator builds, however small, changes a digest.

The constants were recorded from the code before the growth frontier
and the saturate door-site map became incremental, so they also prove
that those optimisations changed no building. Re-record them only in a
change that is meant to alter the generated buildings, and say so in it:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json

import pytest

from blockhouse import (
    FACADE_ORDER,
    RoomCountPolicy,
    RunConfig,
    building_seed,
    export_json,
    generate_building,
    render_ascii,
)

MASTER_SEED = 20260816

# name -> (config, number of seeds)
CONFIGS = {
    "7x7 explicit:3 sweep": (
        RunConfig(width=7, depth=7, room_policy=RoomCountPolicy(3)), 120),
    "6x12 explicit:3 sweep": (
        RunConfig(width=6, depth=12, room_policy=RoomCountPolicy(3)), 120),
    "15x15 explicit:5 sweep": (
        RunConfig(width=15, depth=15, room_policy=RoomCountPolicy(5)), 40),
    "24x24 formula sweep": (
        RunConfig(width=24, depth=24, height=4), 12),
    "20x20 explicit:20 saturate any": (
        RunConfig(width=20, depth=20, height=4,
                  room_policy=RoomCountPolicy(20), door_mode="saturate",
                  wall_rule="any"), 12),
    "20x20 explicit:20 saturate interior": (
        RunConfig(width=20, depth=20, height=4,
                  room_policy=RoomCountPolicy(20), door_mode="saturate",
                  wall_rule="interior"), 12),
}

GOLDEN = {
    "7x7 explicit:3 sweep": "b1205ee63fd023674433b223b7d1f84c",
    "6x12 explicit:3 sweep": "09b368d417b0203a2a6b2492fc5b37d6",
    "15x15 explicit:5 sweep": "3f62744849aa0b345572ca429e4a21dc",
    "24x24 formula sweep": "c43459a6e162739dc249201ed15f4674",
    "20x20 explicit:20 saturate any": "d6866bf921b56bbd7fc315643fadf368",
    "20x20 explicit:20 saturate interior": "7a706d93e4d8ac5a55d93fe3be752775",
}


def building_parts(result) -> list[str]:
    parts = [render_ascii(result.plan)]
    parts.append(";".join(
        f"{site.position[0]},{site.position[1]},{site.axis},"
        f"{site.joined[0]},{site.joined[1]}" for site in result.placed_doors))
    for side in FACADE_ORDER:
        parts.append("/".join(result.model.facades[side].rows()))
    parts.append(json.dumps(export_json(result.model)["voxels"],
                            sort_keys=True))
    return parts


def config_digest(config: RunConfig, seeds: int) -> str:
    h = hashlib.blake2b(digest_size=16)
    for i in range(seeds):
        result = generate_building(config, building_seed(MASTER_SEED, i))
        h.update("\n".join(building_parts(result)).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_golden_digest(name):
    config, seeds = CONFIGS[name]
    assert config_digest(config, seeds) == GOLDEN[name]


if __name__ == "__main__":
    for name, (config, seeds) in CONFIGS.items():
        print(f"    {name!r}: {config_digest(config, seeds)!r},")
