"""Golden output digest: pins every generated building, bit for bit.

For each configuration below, the rendered plan, the placed doors in
order, the facade rows and the exported voxel block of a fixed run of
seeds are hashed into one digest and compared with a constant. Any
change to what the generator builds, however small, changes a digest.
A second digest per configuration pins the plan-stage artifacts the
first one does not see: each room's anchor and final tile set, the
component count before repair, the repairs applied, the final component
count and the final plan's components, largest first. The library
reports only a count, so the components come from the flood fill of
reference.py, sorted the way the report's components were when the
constants were recorded. Two non-square floors make sure a transposed
tile layout cannot pass. A third digest pins the exact text
`generate --format json` writes for each building, less its `metrics`
block, which holds a wall time.

The first six building constants were recorded from the code before the
growth frontier and the saturate door-site map became incremental; the
artifact constants and the non-square configurations were recorded
before the floor became one flat tile list; the text constants and the
tall and minimum-height configurations were recorded before the voxels
became one flat buffer; the two configurations with non-default
automaton settings (glass sums 0, 1, 4 and 5 with a 0.6 start and three
generations, and a 40-wide, 20-high seed wall with no generations) were
recorded before each facade became one packed int. So they also prove
that those optimisations changed no building and no exported byte.
Re-record them only in a change that is meant to alter the generated
buildings, and say so in it:

    PYTHONPATH=src python tests/test_golden.py

Run as a script, the module needs no pytest, so any interpreter can
compare all three digest sets with the constants; it exits 1 on a
mismatch:

    PYTHONPATH=src python tests/test_golden.py --check
"""

import functools
import hashlib
import json
import sys

from blockhouse.assembly import export_json, render_ascii
from blockhouse.facade import FACADE_ORDER, CaParams
from blockhouse.metrics import building_seed
from blockhouse.pipeline import RunConfig, generate_building
from blockhouse.rooms import RoomCountPolicy

from reference import components

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
    "31x17 formula sweep": (
        RunConfig(width=31, depth=17, height=4), 16),
    "17x31 explicit:12 saturate": (
        RunConfig(width=17, depth=31, height=4,
                  room_policy=RoomCountPolicy(12), door_mode="saturate"), 12),
    "11x9 formula height 32": (
        RunConfig(width=11, depth=9, height=32), 12),
    "9x7 explicit:3 height 3": (
        RunConfig(width=9, depth=7, height=3,
                  room_policy=RoomCountPolicy(3)), 40),
    "13x5 explicit:2 height 9 ca 0145": (
        RunConfig(width=13, depth=5, height=9,
                  room_policy=RoomCountPolicy(2),
                  ca=CaParams(0.6, 3, frozenset({0, 1, 4, 5}))), 24),
    "40x6 formula height 20 ca gen 0": (
        RunConfig(width=40, depth=6, height=20,
                  ca=CaParams(generations=0)), 6),
}

GOLDEN = {
    "7x7 explicit:3 sweep": "b1205ee63fd023674433b223b7d1f84c",
    "6x12 explicit:3 sweep": "09b368d417b0203a2a6b2492fc5b37d6",
    "15x15 explicit:5 sweep": "3f62744849aa0b345572ca429e4a21dc",
    "24x24 formula sweep": "c43459a6e162739dc249201ed15f4674",
    "20x20 explicit:20 saturate any": "d6866bf921b56bbd7fc315643fadf368",
    "20x20 explicit:20 saturate interior": "7a706d93e4d8ac5a55d93fe3be752775",
    "31x17 formula sweep": "a7a2aeb09cff1ed6efa97016ef4fb8e4",
    "17x31 explicit:12 saturate": "bb436367b9b4fd07e5601d980235390a",
    "11x9 formula height 32": "2709567a759874b3e9aef22e956b1c68",
    "9x7 explicit:3 height 3": "ee2c2e8ff359b8b5d854475d7d94f1d3",
    "13x5 explicit:2 height 9 ca 0145": "8fa343abef66583238ffb8ace67144b3",
    "40x6 formula height 20 ca gen 0": "3e52addcc5b2b7b1997f02a5f016f701",
}

GOLDEN_ARTIFACTS = {
    "7x7 explicit:3 sweep": "6f752cd77cdcdf62ed619e8a3365d1dd",
    "6x12 explicit:3 sweep": "fcc842f004b3f6c713cf9e0f14e5898b",
    "15x15 explicit:5 sweep": "facac48f3c04086124cc035afc729043",
    "24x24 formula sweep": "0a35d1fba032feb6972b4cef3b14dd63",
    "20x20 explicit:20 saturate any": "628a2bec4f524ef6fcb08cab32d8930f",
    "20x20 explicit:20 saturate interior": "5805971b56b76287ad324b09e1c2dad5",
    "31x17 formula sweep": "0a8ffd610553744ca281a391f0f0593e",
    "17x31 explicit:12 saturate": "a10c2a628cef30d68822475f73371ee7",
    "11x9 formula height 32": "56102709fe5ae027aad2ec493c098b9e",
    "9x7 explicit:3 height 3": "68c7505ab8cc25164ed2582cf4fdeb7c",
    "13x5 explicit:2 height 9 ca 0145": "35a00ff36283b118f25813b78462960f",
    "40x6 formula height 20 ca gen 0": "dadee23d09b86e122713c1f0691e9954",
}

GOLDEN_TEXT = {
    "7x7 explicit:3 sweep": "f44662f34ac499338886f93c499b8c74",
    "6x12 explicit:3 sweep": "075edf17dc5a875d486f752c51306866",
    "15x15 explicit:5 sweep": "f7a98755a10ec0162fd42a2a19b02c95",
    "24x24 formula sweep": "0f4f0c6de552347ee7806a5c98a04fd1",
    "20x20 explicit:20 saturate any": "cbf7707ace0869a4f6c7b24fb10642d5",
    "20x20 explicit:20 saturate interior": "e02577ff09e1493cdcc04bc6ee688fd2",
    "31x17 formula sweep": "7ccf0d3c571117a273a1bfc32c5d0cd8",
    "17x31 explicit:12 saturate": "d72bd17f5fb58c71bf878e368249ed8e",
    "11x9 formula height 32": "d9d2d3541b61ff34cf97841de35c3377",
    "9x7 explicit:3 height 3": "22f96263f3c8fb6d281b4a96f6b4bef9",
    "13x5 explicit:2 height 9 ca 0145": "cb88ff6e9f3781ddbd95146d3f8cc416",
    "40x6 formula height 20 ca gen 0": "36fda840cf46d9d46d2077ae4bcaf4bd",
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


def artifact_parts(result) -> list[str]:
    parts = [f"{room.id}@{room.anchor[0]},{room.anchor[1]}:" + ";".join(
        f"{x},{z}" for x, z in sorted(room.tiles)) for room in result.rooms]
    parts.append(f"pre {result.pre_repair_components} "
                 f"repairs {result.report.repairs_applied} "
                 f"components {result.report.component_count}")
    # The final plan's components, largest first, ties broken by the
    # smallest coordinate: the order the recorded constants hash.
    found = sorted(components(result.plan),
                   key=lambda comp: (-len(comp), min(comp)))
    parts.extend(";".join(f"{x},{z}" for x, z in sorted(comp))
                 for comp in found)
    return parts


def exported_text(config, result) -> str:
    return json.dumps(export_json(
        result.model, config=config.with_seed(result.seed).to_dict()),
        indent=2)


@functools.cache
def config_digests(name: str) -> tuple[str, str, str]:
    """(building, artifact, exported text) digests of one configuration."""
    config, seeds = CONFIGS[name]
    building = hashlib.blake2b(digest_size=16)
    artifacts = hashlib.blake2b(digest_size=16)
    text = hashlib.blake2b(digest_size=16)
    for i in range(seeds):
        result = generate_building(config, building_seed(MASTER_SEED, i))
        building.update("\n".join(building_parts(result)).encode("utf-8"))
        building.update(b"\0")
        artifacts.update("\n".join(artifact_parts(result)).encode("utf-8"))
        artifacts.update(b"\0")
        text.update(exported_text(config, result).encode("utf-8"))
        text.update(b"\0")
    return building.hexdigest(), artifacts.hexdigest(), text.hexdigest()


# Column i of config_digests() against its constants.
PINNED = {"GOLDEN": GOLDEN, "GOLDEN_ARTIFACTS": GOLDEN_ARTIFACTS,
          "GOLDEN_TEXT": GOLDEN_TEXT}


def pytest_generate_tests(metafunc):
    # A pytest hook, so the module itself imports no pytest.
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", list(CONFIGS))


def test_golden_digest(name):
    assert config_digests(name)[0] == GOLDEN[name]


def test_golden_artifact_digest(name):
    assert config_digests(name)[1] == GOLDEN_ARTIFACTS[name]


def test_golden_exported_text_digest(name):
    assert config_digests(name)[2] == GOLDEN_TEXT[name]


if __name__ == "__main__":
    digests = {name: config_digests(name) for name in CONFIGS}
    if sys.argv[1:] == ["--check"]:
        wrong = [f"{label} {name!r}: {row[column]} != {pinned[name]}"
                 for column, (label, pinned) in enumerate(PINNED.items())
                 for name, row in digests.items()
                 if row[column] != pinned[name]]
        print("\n".join(wrong)
              or f"all {len(PINNED) * len(digests)} digests match")
        sys.exit(1 if wrong else 0)
    for column, label in enumerate(PINNED):
        print(f"{label} = {{")
        for name, row in digests.items():
            print(f"    {name!r}: {row[column]!r},")
        print("}")
