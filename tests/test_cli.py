"""Command-line behavior: outputs, config handling, and exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from blockhouse.assembly import parse_ascii
from blockhouse.cli import build_parser, main
from blockhouse.metrics import building_seed
from blockhouse.pipeline import CONFIG_KEYS, RunConfig
from blockhouse.rooms import PlacementError

from helpers import fail_one_building


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


GEN77 = ("generate", "--width", "7", "--depth", "7", "--seed", "5")
# Child interpreters import the package from this checkout.
CHECKOUT_ENV = {**os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def test_generate_prints_a_plan(capsys):
    rc, out, err = run(capsys, *GEN77)
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(len(line) == 7 for line in lines)
    parse_ascii(out).validate()
    assert "seed: 5" in err


def test_generate_deterministic(capsys):
    _, first, _ = run(capsys, *GEN77)
    _, second, _ = run(capsys, *GEN77)
    assert first == second


def test_random_seed_is_echoed_and_reusable(capsys):
    rc, out, err = run(capsys, "generate", "--width", "7", "--depth", "7")
    assert rc == 0
    seed = err.split("seed:")[1].strip()
    rc, replay, _ = run(capsys, "generate", "--width", "7", "--depth", "7",
                        "--seed", seed)
    assert rc == 0
    assert replay == out


def test_generate_json_document(capsys):
    rc, out, err = run(capsys, *GEN77, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["config"]["seed"] == 5
    assert doc["config"]["rooms"] == "formula"
    assert doc["metrics"]["interior_door_count"] >= 0
    assert doc["metrics"]["room_count"] >= 1
    assert len(doc["plan"]) == 7


def test_generate_json_to_file(capsys, tmp_path):
    path = tmp_path / "b.json"
    rc, out, _ = run(capsys, *GEN77, "--format", "json", "--out", str(path))
    assert rc == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["config"]["width"] == 7


def test_generate_both_splits_outputs(capsys, tmp_path):
    path = tmp_path / "b.json"
    rc, out, _ = run(capsys, *GEN77, "--format", "both", "--out", str(path))
    assert rc == 0
    assert out.startswith("#")
    assert json.loads(path.read_text())["schema_version"] == 1


def test_generate_rejects_small_width(capsys):
    rc, _, err = run(capsys, "generate", "--width", "4", "--depth", "7")
    assert rc == 2
    assert "invalid configuration" in err


@pytest.mark.parametrize("key,value,limit", [
    ("width", 257, 256), ("depth", 257, 256), ("height", 255, 254)])
@pytest.mark.parametrize("command", ["generate", "batch"])
def test_dimensions_above_the_maximum_exit_two(capsys, monkeypatch, tmp_path,
                                               command, key, value, limit):
    def never(*args, **kwargs):
        raise AssertionError("generated a building past the size limit")

    monkeypatch.setattr("blockhouse.cli.generate_building", never)
    monkeypatch.setattr("blockhouse.cli.run_batch", never)
    sizes = {"width": 7, "depth": 7, key: value}
    expected = [f"invalid configuration: {key} {value} is too large "
                f"(maximum {limit})"]
    flags = [f"--{k}={v}" for k, v in sizes.items()]
    rc, out, err = run(capsys, command, *flags)
    assert (rc, out, err.splitlines()) == (2, "", expected)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(sizes))
    rc, out, err = run(capsys, command, "--config", str(config))
    assert (rc, out, err.splitlines()) == (2, "", expected)


@pytest.mark.parametrize("command", ["generate", "batch"])
def test_ca_generations_above_the_maximum_exit_two(capsys, monkeypatch,
                                                   tmp_path, command):
    def never(*args, **kwargs):
        raise AssertionError("ran the automaton past its generation limit")

    monkeypatch.setattr("blockhouse.cli.generate_building", never)
    monkeypatch.setattr("blockhouse.cli.run_batch", never)
    expected = ["invalid configuration: generations 100000000 is too large "
                "(maximum 1000)"]
    rc, out, err = run(capsys, command, "--width", "7", "--depth", "7",
                       "--ca-generations", "100000000")
    assert (rc, out, err.splitlines()) == (2, "", expected)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"width": 7, "depth": 7,
                                  "ca": {"generations": 100000000}}))
    rc, out, err = run(capsys, command, "--config", str(config))
    assert (rc, out, err.splitlines()) == (2, "", expected)


def test_generate_rejects_bad_rooms_policy(capsys):
    rc, _, err = run(capsys, *GEN77, "--rooms", "explicit:zero")
    assert rc == 2
    rc, _, err = run(capsys, *GEN77, "--rooms", "cubic")
    assert rc == 2
    for policy in ("explicit: 3", "explicit:+3", "explicit:\u0663",
                   "explicit:3_0", "explicit:007"):
        rc, out, err = run(capsys, *GEN77, "--rooms", policy)
        assert (rc, out) == (2, "")
        assert err.splitlines() == [
            f"invalid configuration: bad room policy {policy!r}; expected "
            "'formula' or 'explicit:<n>'"]


def test_batch_rejects_more_rooms_than_interior_tiles(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran a batch it should have refused")

    monkeypatch.setattr("blockhouse.cli.run_batch", never)
    rc, out, err = run(capsys, "batch", "--width", "7", "--depth", "7",
                       "--rooms", "explicit:10000", "-n", "1", "--seed", "1")
    assert (rc, out) == (2, "")
    assert err.splitlines() == [
        "invalid configuration: rooms 10000 is more than the 25 interior "
        "tiles of a 7x7 floor"]


def test_generate_rejects_bad_glass_sums(capsys):
    rc, _, err = run(capsys, *GEN77, "--ca-glass-sums", "2,many")
    assert rc == 2
    rc, _, err = run(capsys, *GEN77, "--ca-glass-sums", "2,9")
    assert rc == 2
    assert "invalid configuration" in err


def test_stage_failures_exit_three(capsys, monkeypatch):
    def boom(config, seed):
        raise PlacementError("no seed fits")

    monkeypatch.setattr("blockhouse.cli.generate_building", boom)
    rc, _, err = run(capsys, *GEN77)
    assert rc == 3
    assert "room placement" in err
    assert "seed 5" in err


def test_batch_table(capsys):
    rc, out, err = run(capsys, "batch", "--width", "7", "--depth", "7",
                       "--seed", "3", "-n", "8")
    assert rc == 0
    assert "master seed: 3" in err
    assert out.splitlines()[0].startswith("buildings")
    assert "8" in out.splitlines()[0]
    assert "mean room area" in out
    assert "pre-repair connectivity" in out


def _without_time(table):
    return [line for line in table.splitlines() if "total time" not in line]


def test_batch_deterministic(capsys):
    args = ("batch", "--width", "7", "--depth", "7", "--seed", "3", "-n", "8")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert _without_time(first) == _without_time(second)


def test_batch_summary_file(capsys, tmp_path):
    path = tmp_path / "summary.json"
    rc, _, _ = run(capsys, "batch", "--width", "7", "--depth", "7",
                   "--seed", "3", "-n", "8", "--out", str(path))
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["n"] == 8
    assert doc["master_seed"] == 3
    assert doc["config"]["width"] == 7
    assert list(doc) == [
        "n", "config", "master_seed", "mean_avg_room_area", "room_area_ci95",
        "mean_door_count", "door_count_ci95", "pre_repair_connectivity_rate",
        "total_repairs", "total_time"]


def test_batch_rejects_bad_counts(capsys):
    rc, _, err = run(capsys, "batch", "--width", "7", "--depth", "7",
                     "--seed", "1", "-n", "0")
    assert rc == 2
    rc, _, err = run(capsys, "batch", "--width", "7", "--depth", "7",
                     "--seed", "1", "-n", "4", "--workers", "0")
    assert rc == 2


def test_render_json_file(capsys, tmp_path):
    path = tmp_path / "b.json"
    run(capsys, *GEN77, "--format", "json", "--out", str(path))
    rc, rendered, _ = run(capsys, "render", str(path))
    assert rc == 0
    rc, direct, _ = run(capsys, *GEN77)
    assert rendered == direct


def test_render_ascii_file(capsys, tmp_path):
    _, plan, _ = run(capsys, *GEN77)
    path = tmp_path / "plan.txt"
    path.write_text(plan)
    rc, rendered, _ = run(capsys, "render", str(path))
    assert rc == 0
    assert rendered == plan


def test_render_rejects_bad_inputs(capsys, tmp_path):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("#####\n####\n#####\n#####\n#####\n")
    rc, _, err = run(capsys, "render", str(ragged))
    assert rc == 4
    assert "row 1" in err

    alien = tmp_path / "alien.txt"
    alien.write_text("#####\n#0?0#\n#####\n#####\n#####\n")
    rc, _, err = run(capsys, "render", str(alien))
    assert rc == 4
    assert "column" in err

    rc, _, err = run(capsys, "render", str(tmp_path / "missing.txt"))
    assert rc == 4
    assert "i/o error" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    rc, _, err = run(capsys, "render", str(broken))
    assert rc == 4
    assert "line 1" in err

    stale = tmp_path / "stale.json"
    doc = {"schema_version": 99}
    stale.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "render", str(stale))
    assert rc == 4
    assert "schema_version" in err


@pytest.mark.parametrize("text", ["[1,2]", " [1, 2]\n", "[nope"])
def test_render_rejects_json_that_is_not_an_object(capsys, tmp_path, text):
    path = tmp_path / "array.json"
    path.write_text(text)
    rc, out, err = run(capsys, "render", str(path))
    assert rc == 4
    assert out == ""
    assert err.startswith("parse error:")
    assert len(err.strip().splitlines()) == 1


# Bytes that are not UTF-8, and JSON nested past the decoder's recursion
# limit.
UNREADABLE = {"not-utf-8": b'\xff\xfe{"width": 7, "depth": 7}',
              "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000}


@pytest.mark.parametrize("content", UNREADABLE.values(), ids=list(UNREADABLE))
@pytest.mark.parametrize("command", [("render",), ("generate", "--config")],
                         ids=["render", "config"])
def test_unreadable_input_files_exit_four(capsys, tmp_path, command,
                                          content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    rc, out, err = run(capsys, *command, str(path))
    assert rc == 4
    assert out == ""
    assert err.startswith("parse error:")
    assert len(err.strip().splitlines()) == 1


def _flip_roof_block(doc):
    blocks = doc["voxels"]["blocks"]
    blocks[doc["voxels"]["size"][1] - 1] = doc["voxels"]["palette"].index(
        "air")


def _move_entrance(doc):
    doc["entrance"] = [doc["entrance"][0], doc["entrance"][1] + 1]


def _cut_facade_row(doc):
    doc["facades"]["west"][-1] = doc["facades"]["west"][-1][:-1]


def _lower_wall_height(doc):
    doc["wall_height"] = 2


@pytest.mark.parametrize("mutate", [_flip_roof_block, _move_entrance,
                                    _cut_facade_row, _lower_wall_height])
def test_render_rejects_documents_that_contradict_their_plan(
        capsys, tmp_path, mutate):
    path = tmp_path / "b.json"
    run(capsys, *GEN77, "--format", "json", "--out", str(path))
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "render", str(path))
    assert rc == 4
    assert out == ""
    assert err.startswith("parse error:")
    assert len(err.strip().splitlines()) == 1


def _floats(values):
    return [float(v) for v in values]


def _first_solid_wall_as_true(blocks):
    # Palette index 1 is solid_wall, and true == 1 in Python.
    blocks = list(blocks)
    blocks[blocks.index(1)] = True
    return blocks


def _missing(value):
    """Marks a field the test deletes rather than rewrites."""


def _room_on_the_border(plan):
    # The facades repaint the border columns, so the voxels still agree
    # with the rebuilt model; only plan validation sees this.
    plan = list(plan)
    x = plan[0].index("#", 1)
    plan[0] = plan[0][:x] + "0" + plan[0][x + 1:]
    return plan


@pytest.mark.parametrize("field,value", [
    (("schema_version",), True),
    (("schema_version",), 1.0),
    (("voxels", "size"), [7.0, 6.0, 7.0]),
    (("voxels", "blocks"), _first_solid_wall_as_true),
    (("entrance",), _floats),
    (("plan",), _room_on_the_border),
    (("voxels", "size"), [7, 6]),
    (("voxels", "size"), [7, 6, 7, 1]),
    (("voxels", "size"), 7),
    (("wall_height",), "abc"),
    (("wall_height",), "4"),
    (("wall_height",), 4.0),
    (("wall_height",), True),
    (("wall_height",), None),
    (("plan",), ["###"]),
    (("plan",), "#"),
    (("width",), 99),
    (("width",), "x"),
    (("width",), 7.0),
    (("depth",), 6),
    (("depth",), None),
    (("voxels", "order"), "yxz"),
    (("voxels", "order"), None),
    (("width",), _missing),
    (("depth",), _missing),
    (("voxels", "order"), _missing),
], ids=lambda v: (".".join(v) if isinstance(v, tuple)
                  else v.__name__ if callable(v) else repr(v)))
def test_render_rejects_malformed_fields(capsys, tmp_path, field, value):
    # The document is otherwise the one generate wrote, with wall height
    # 4 and a 7x6x7 voxel volume. A function value rewrites the field,
    # and _missing deletes it.
    path = tmp_path / "b.json"
    run(capsys, *GEN77, "--format", "json", "--out", str(path))
    doc = json.loads(path.read_text())
    *parents, key = field
    target = doc
    for name in parents:
        target = target[name]
    if value is _missing:
        del target[key]
    else:
        target[key] = value(target[key]) if callable(value) else value
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "render", str(path))
    assert rc == 4
    assert out == ""
    assert err.startswith("parse error:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_python_dash_m_blockhouse_renders_a_file(capsys, tmp_path):
    # `python -m blockhouse` from a checkout, with only src/ on the path.
    path = tmp_path / "b.json"
    run(capsys, *GEN77, "--format", "json", "--out", str(path))
    _, layout, _ = run(capsys, *GEN77)
    proc = subprocess.run(
        [sys.executable, "-m", "blockhouse", "render", str(path)],
        capture_output=True, text=True, timeout=60, env=CHECKOUT_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == layout
    assert proc.stderr == ""


@pytest.mark.parametrize("cell", ["2", "x", " ", "_"])
def test_render_rejects_facade_cells_other_than_0_and_1(capsys, tmp_path,
                                                       cell):
    path = tmp_path / "b.json"
    run(capsys, *GEN77, "--format", "json", "--out", str(path))
    doc = json.loads(path.read_text())
    north = doc["facades"]["north"]
    north[0] = cell + north[0][1:]
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "render", str(path))
    assert rc == 4
    assert out == ""
    assert err.startswith("parse error: facade 'north'")
    assert len(err.strip().splitlines()) == 1


def test_render_rejects_invalid_layouts(capsys, tmp_path):
    # Two entrances parse fine but fail plan validation.
    path = tmp_path / "twodoors.txt"
    path.write_text("#E#E#\n#000#\n#000#\n#000#\n#####\n")
    rc, _, err = run(capsys, "render", str(path))
    assert rc == 2
    assert "entrances" in err


def test_config_file_with_flag_overrides(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"width": 9, "depth": 7, "seed": 5, "rooms": "explicit:2",
         "ca": {"generations": 4}}))
    rc, out, _ = run(capsys, "generate", "--config", str(config))
    assert rc == 0
    assert len(out.strip().splitlines()[0]) == 9
    rc, out, _ = run(capsys, "generate", "--config", str(config),
                     "--width", "7")
    assert rc == 0
    assert len(out.strip().splitlines()[0]) == 7


def test_config_file_errors(capsys, tmp_path):
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"width": 7, "depth": 7, "doors": 9}))
    rc, _, err = run(capsys, "generate", "--config", str(typo))
    assert rc == 2
    assert "unknown config keys" in err

    broken = tmp_path / "broken.json"
    broken.write_text('{"width": 7,,}')
    rc, _, err = run(capsys, "generate", "--config", str(broken))
    assert rc == 4

    listy = tmp_path / "list.json"
    listy.write_text("[7, 7]")
    rc, _, err = run(capsys, "generate", "--config", str(listy))
    assert rc == 2

    rc, _, err = run(capsys, "generate", "--config",
                     str(tmp_path / "absent.json"))
    assert rc == 4


def test_config_file_rejects_non_integer_fields(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"width": 7.9, "depth": True}))
    rc, out, err = run(capsys, "generate", "--config", str(config))
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [
        "invalid configuration: config key 'width' must be an integer, "
        "not 7.9"]
    config.write_text(json.dumps({"width": 7, "depth": True}))
    rc, _, err = run(capsys, "generate", "--config", str(config))
    assert rc == 2
    assert "'depth' must be an integer" in err


@pytest.mark.parametrize("key", ["rooms", "door_walls", "door_mode"])
def test_config_file_rejects_null_string_fields(capsys, tmp_path, key):
    # Only the seed may be null; a null here is not the default or 'None'.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"width": 7, "depth": 7, key: None}))
    rc, out, err = run(capsys, "generate", "--config", str(config))
    assert (rc, out) == (2, "")
    assert err.splitlines() == [
        f"invalid configuration: config key '{key}' must be a string, "
        "not None"]


def test_config_file_rejects_non_integer_automaton_fields(capsys, tmp_path):
    config = tmp_path / "config.json"
    for ca, key in (({"generations": 2.5}, "ca.generations"),
                    ({"glass_sums": [2.7]}, "ca.glass_sums[0]"),
                    ({"glass_sums": "23"}, "ca.glass_sums"),
                    ({"init_glass_probability": "x"},
                     "ca.init_glass_probability")):
        config.write_text(json.dumps({"width": 7, "depth": 7, "ca": ca}))
        rc, out, err = run(capsys, "generate", "--config", str(config))
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(
            f"invalid configuration: config key '{key}' must be")


def test_generate_rejects_more_rooms_than_symbols(capsys, monkeypatch):
    def never(config, seed):
        raise AssertionError("generated a building it cannot render")

    monkeypatch.setattr("blockhouse.cli.generate_building", never)
    for fmt in ("ascii", "json"):
        rc, out, err = run(capsys, "generate", "--width", "30", "--depth",
                           "30", "--rooms", "explicit:45", "--format", fmt)
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [
            "invalid configuration: 45 rooms cannot be rendered; generate "
            "supports at most 36"]


def test_batch_takes_more_rooms_than_symbols(capsys):
    rc, out, _ = run(capsys, "batch", "--width", "30", "--depth", "30",
                     "--rooms", "explicit:45", "-n", "1", "--seed", "1")
    assert rc == 0
    assert "buildings" in out


def test_door_flags_reach_the_pipeline(capsys):
    base = run(capsys, *GEN77)[1]
    saturated = run(capsys, *GEN77, "--door-mode", "saturate")[1]
    assert base != saturated
    assert saturated.count("D") >= base.count("D")
    rc, _, _ = run(capsys, *GEN77, "--door-walls", "interior")
    assert rc == 0


def test_console_script_runs():
    # Runs the [project.scripts] target the way the wrapper that pip
    # installs for it does, so no installed `blockhouse` is needed on PATH.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["blockhouse"]
    module, _, attr = target.partition(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'blockhouse'\n"
        f"sys.exit({attr}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "generate", "--width", "7",
         "--depth", "7", "--seed", "5"],
        capture_output=True, text=True, timeout=60, env=CHECKOUT_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), proc.stderr
    assert "seed: 5" in proc.stderr, proc.stderr


def test_module_main_guard():
    proc = subprocess.run(
        [sys.executable, "-m", "blockhouse.cli", "generate", "--width", "7",
         "--depth", "7", "--seed", "5"],
        capture_output=True, text=True, timeout=60, env=CHECKOUT_ENV)
    assert proc.returncode == 0
    assert proc.stdout.strip()


@pytest.mark.parametrize("ca", [[2, 3], None, "x", 5])
@pytest.mark.parametrize("flags", [(), ("--ca-generations", "3")])
def test_config_file_rejects_automaton_settings_that_are_not_an_object(
        capsys, tmp_path, ca, flags):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"width": 7, "depth": 7, "ca": ca}))
    rc, out, err = run(capsys, "generate", "--config", str(config), *flags)
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [
        "invalid configuration: 'ca' must be an object of automaton "
        "settings"]


def test_automaton_flags_merge_into_the_config_object(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"width": 7, "depth": 7, "seed": 5,
                                  "ca": {"generations": 1}}))
    rc, out, _ = run(capsys, "generate", "--config", str(config),
                     "--format", "json", "--ca-glass-sums", "1,4")
    assert rc == 0
    ca = json.loads(out)["config"]["ca"]
    assert ca["generations"] == 1
    assert ca["glass_sums"] == [1, 4]


def test_batch_failure_in_a_worker_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    fail_one_building(monkeypatch, 4, 1)
    rc, out, err = run(capsys, "batch", "--width", "7", "--depth", "7",
                       "--seed", "4", "-n", "4", "--workers", "2")
    assert rc == 3
    assert out == ""
    assert err.splitlines() == [
        "master seed: 4",
        f"batch failed: building 1 (seed {building_seed(4, 1)}) failed: "
        "2 regions cannot be joined"]


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if a process pool is ever constructed."""
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


@pytest.mark.parametrize("cpus,workers", [(2, 3), (4, 64), (None, 2)])
def test_batch_rejects_more_workers_than_cpus(capsys, monkeypatch, no_pool,
                                              cpus, workers):
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    rc, out, err = run(capsys, "batch", "--width", "7", "--depth", "7",
                       "--seed", "1", "-n", "4", "--workers", str(workers))
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [
        f"invalid configuration: --workers {workers} is more than the "
        f"{cpus or 1} CPUs of this machine"]


def test_batch_accepts_workers_up_to_the_cpu_count(capsys, monkeypatch,
                                                   no_pool):
    # One building needs no pool, whatever --workers asks for.
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    rc, out, _ = run(capsys, "batch", "--width", "7", "--depth", "7",
                     "--seed", "1", "-n", "1", "--workers", "8")
    assert rc == 0
    assert out.splitlines()[0].split() == ["buildings", "1"]


def test_readme_flag_table_matches_the_parser_and_defaults():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("Shared configuration flags")[1].split("\n\n")[1]
    documented, stated = set(), {}
    for row in table.splitlines()[2:]:
        flags_cell, meaning = row.strip("|").split("|")
        flags = re.findall(r"`(--[a-z-]+)", flags_cell)
        documented.update(flags)
        # "default 4", "default `2,3`" or "`any` (default)".
        for match in re.findall(r"default `?([\w.,]+)|`([^`]+)` \(default\)",
                                meaning):
            for flag in flags:
                stated[flag] = "".join(match)

    config_flags = {"--config"} | {key.flag for key in CONFIG_KEYS}
    assert documented == config_flags
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    for command in ("generate", "batch"):
        options = {option for action in subcommands[command]._actions
                   for option in action.option_strings}
        assert config_flags <= options, command

    # Width and depth have no default, and the seed's is None.
    defaults = RunConfig(width=None, depth=None).to_dict()
    defaults.update({f"ca.{name}": value
                     for name, value in defaults.pop("ca").items()})
    expected = {key.flag: ",".join(map(str, value))
                if isinstance(value, list) else str(value)
                for key in CONFIG_KEYS
                if (value := defaults[key.path]) is not None}
    assert stated == expected
