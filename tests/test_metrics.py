"""Measurements, confidence intervals, and the batch harness."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockhouse

from blockhouse.assembly import parse_ascii
from blockhouse.doors import (
    ConnectivityReport,
    RepairError,
    connected_components,
)
from blockhouse.grid import DOOR, derive_seed
from blockhouse.metrics import (
    BatchError,
    building_seed,
    confidence_interval,
    measure_building,
    run_batch,
)
from blockhouse.pipeline import RunConfig, generate_building
from blockhouse.rooms import RoomCountPolicy

from helpers import fail_one_building, interior_tile_conservation

PLAN_ONE_ROOM = """\
#####
#000#
E000#
#000#
#####
"""

PLAN_WITH_DOOR = """\
#####
#0*1#
E0D1#
#0*1#
#####
"""


def test_confidence_interval_known_values():
    assert confidence_interval([5.0, 5.0, 5.0, 5.0]) == (5.0, 0.0)
    mean, half = confidence_interval([0.0, 2.0])
    assert mean == 1.0
    assert half == pytest.approx(1.96)
    assert confidence_interval([3.5]) == (3.5, 0.0)


def test_confidence_interval_shrinks_with_n():
    wide = confidence_interval([0.0, 2.0] * 5)[1]
    narrow = confidence_interval([0.0, 2.0] * 500)[1]
    assert narrow < wide
    assert narrow == pytest.approx(1.96 / math.sqrt(1000), rel=0.01)


def test_confidence_interval_rejects_empty():
    with pytest.raises(ValueError):
        confidence_interval([])


def test_measure_single_room_plan():
    plan = parse_ascii(PLAN_ONE_ROOM)
    report = connected_components(plan)
    m = measure_building(plan, report, 0.125)
    assert m.room_count == 1
    assert m.room_areas == (9,)
    assert m.avg_room_area == 9.0
    assert m.interior_door_count == 0
    assert m.connected_before_repair
    assert m.repairs_applied == 0
    assert m.generation_time == 0.125


def test_measure_counts_interior_doors_only():
    plan = parse_ascii(PLAN_WITH_DOOR)
    m = measure_building(plan, connected_components(plan), 0.0)
    assert m.interior_door_count == 1
    assert m.room_areas == (3, 3)


def test_dropped_rooms_count_as_zero_area():
    plan = parse_ascii(PLAN_ONE_ROOM)
    report = connected_components(plan)
    m = measure_building(plan, report, 0.0, requested_rooms=3)
    assert m.room_count == 1
    assert m.room_areas == (9, 0, 0)
    assert m.avg_room_area == 3.0


def test_repairs_mark_plan_as_initially_disconnected():
    plan = parse_ascii(PLAN_WITH_DOOR)
    report = ConnectivityReport(1, repairs_applied=2)
    m = measure_building(plan, report, 0.0)
    assert not m.connected_before_repair
    assert m.repairs_applied == 2


def test_measured_areas_conserve_interior_tiles():
    config = RunConfig(width=7, depth=7, room_policy=RoomCountPolicy(3))
    for seed in range(10):
        result = generate_building(config, seed)
        m = measure_building(result.plan, result.report, result.elapsed,
                             result.requested_rooms)
        interior = 5 * 5
        walls = interior - sum(m.room_areas) - m.interior_door_count
        assert walls >= 0
        assert interior_tile_conservation(result.plan)
        assert len(m.room_areas) == 3


def test_room_areas_match_per_room_counts_on_a_dense_plan():
    config = RunConfig(width=64, depth=64, room_policy=RoomCountPolicy(150),
                       door_mode="saturate")
    result = generate_building(config, 3)
    plan = result.plan
    m = measure_building(plan, result.report, result.elapsed,
                         result.requested_rooms)
    assert m.room_areas == tuple(plan.cells.count(rid) for rid in range(150))
    assert m.room_count == len(plan.room_ids()) > 100
    assert m.interior_door_count == plan.count(DOOR)


def test_building_seed_derivation():
    assert building_seed(99, 0) == derive_seed(99, "building", 0)
    seeds = {building_seed(99, i) for i in range(100)}
    assert len(seeds) == 100
    assert building_seed(99, 7) == building_seed(99, 7)


def test_batch_of_one_has_zero_width_interval():
    config = RunConfig(width=7, depth=7)
    summary = run_batch(config, 1, master_seed=5)
    assert summary.n == 1
    assert summary.room_area_ci95 == 0.0
    assert summary.door_count_ci95 == 0.0
    assert summary.master_seed == 5
    assert summary.config == config.to_dict()


def test_batch_rejects_empty_run():
    with pytest.raises(ValueError):
        run_batch(RunConfig(width=7, depth=7), 0, master_seed=1)


def _stable_fields(summary):
    d = summary.to_dict()
    del d["total_time"]
    return d


def test_batch_deterministic_for_a_master_seed():
    config = RunConfig(width=7, depth=7, room_policy=RoomCountPolicy(3))
    a = run_batch(config, 12, master_seed=31)
    b = run_batch(config, 12, master_seed=31)
    assert _stable_fields(a) == _stable_fields(b)
    c = run_batch(config, 12, master_seed=32)
    assert _stable_fields(a) != _stable_fields(c)


def test_batch_parallel_matches_serial():
    config = RunConfig(width=7, depth=7, room_policy=RoomCountPolicy(3))
    serial = run_batch(config, 12, master_seed=8, workers=1)
    parallel = run_batch(config, 12, master_seed=8, workers=2)
    assert _stable_fields(serial) == _stable_fields(parallel)


def test_batch_summary_ranges():
    summary = run_batch(RunConfig(width=7, depth=7), 20, master_seed=3)
    assert 0.0 <= summary.pre_repair_connectivity_rate <= 1.0
    assert summary.total_repairs >= 0
    assert summary.mean_avg_room_area > 0
    assert summary.total_time > 0


def test_batch_wraps_stage_failures(monkeypatch):
    def boom(config, seed):
        raise RuntimeError("stage exploded")

    monkeypatch.setattr("blockhouse.metrics.generate_building", boom)
    config = RunConfig(width=7, depth=7)
    with pytest.raises(BatchError) as info:
        run_batch(config, 3, master_seed=21)
    assert info.value.index == 0
    assert info.value.seed == building_seed(21, 0)
    assert "seed" in str(info.value)


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_error_survives_the_worker_pool(monkeypatch, workers):
    fail_one_building(monkeypatch, 21, 2)
    config = RunConfig(width=7, depth=7)
    with pytest.raises(BatchError) as info:
        run_batch(config, 4, master_seed=21, workers=workers)
    assert (info.value.index, info.value.seed) == (2, building_seed(21, 2))
    assert isinstance(info.value.cause, RepairError)
    assert str(info.value) == (f"building 2 (seed {building_seed(21, 2)}) "
                               "failed: 2 regions cannot be joined")


def test_summary_table_and_dict():
    summary = run_batch(RunConfig(width=7, depth=7), 5, master_seed=2)
    table = summary.format_table()
    lines = table.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("buildings")
    assert "mean room area" in table
    assert "mean door count" in table
    assert chr(0xB1) in table  # plus-minus between mean and interval
    keys = set(summary.to_dict())
    assert {"n", "config", "master_seed", "mean_avg_room_area",
            "mean_door_count", "pre_repair_connectivity_rate",
            "total_repairs", "total_time"} <= keys


def test_import_leaves_statistics_and_the_process_pool_unloaded():
    # Both are imported where a batch needs them, so `generate` and
    # `render` never pay for them.
    src = str(Path(blockhouse.__file__).resolve().parents[1])
    code = ("import sys, blockhouse; print(sorted(m for m in "
            "('statistics', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    assert proc.stdout.strip() == "[]"


class PoolRequested(Exception):
    pass


def test_batch_starts_no_more_workers_than_buildings(monkeypatch):
    # Only the requested pool size is checked; no process is started.
    import concurrent.futures

    requested = []

    def record(max_workers=None, **kwargs):
        requested.append(max_workers)
        raise PoolRequested

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
    config = RunConfig(width=7, depth=7, room_policy=RoomCountPolicy(3))
    with pytest.raises(PoolRequested):
        run_batch(config, 3, master_seed=8, workers=64)
    assert requested == [3]
    single = run_batch(config, 1, master_seed=8, workers=64)
    assert requested == [3]
    assert _stable_fields(single) == _stable_fields(
        run_batch(config, 1, master_seed=8, workers=1))
