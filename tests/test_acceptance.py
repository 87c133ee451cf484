"""Acceptance gate: statistical reproduction, connectivity, performance,
oracle equivalence, and the property and degenerate suites.

Each criterion prints one line, "criterion N: PASS - ..." or
"criterion N: FAIL - ...", then asserts. Run with -s to watch them live:

    pytest -s tests/test_acceptance.py
"""

import itertools
import random

import pytest

from blockhouse.assembly import (
    export_json,
    import_json,
    parse_ascii,
    render_ascii,
)
from blockhouse.doors import (
    legal_door_sites,
    place_doors,
    wallify_leftovers,
)
from blockhouse.facade import CaParams
from blockhouse.grid import DimensionError, FloorGrid, derive_rng
from blockhouse.metrics import building_seed, run_batch
from blockhouse.pipeline import RunConfig, generate_building
from blockhouse.rooms import (
    RoomCountPolicy,
    grow_rooms,
    growth_pass,
    place_rooms,
    room_count,
    touch_map,
)

from helpers import (
    apply_door,
    ca_oracle_step,
    ca_step,
    cells_of,
    interior_tile_conservation,
    passable_components,
    rooms_are_separated,
    voxel_walkable,
    wall_of,
)

MASTER_SEED = 20260816
N = 1000

EXP1 = RunConfig(width=7, depth=7, room_policy=RoomCountPolicy(3))
EXP2 = RunConfig(width=6, depth=12, room_policy=RoomCountPolicy(3))
EXP3 = RunConfig(width=15, depth=15, room_policy=RoomCountPolicy(5))


def report(number, body):
    """Run one criterion, printing its PASS/FAIL line before any raise."""
    try:
        detail = body()
    except BaseException as exc:
        print(f"criterion {number}: FAIL - {exc}")
        raise
    print(f"criterion {number}: PASS - {detail}")


@pytest.fixture(scope="module")
def exp1():
    return run_batch(EXP1, N, MASTER_SEED, workers=1)


@pytest.fixture(scope="module")
def exp2():
    return run_batch(EXP2, N, MASTER_SEED, workers=1)


@pytest.fixture(scope="module")
def exp3():
    return run_batch(EXP3, N, MASTER_SEED, workers=1)


def _check_means(summary, area_target, area_tol, door_target, door_tol):
    area, doors = summary.mean_avg_room_area, summary.mean_door_count
    assert abs(area - area_target) <= area_tol, (
        f"mean room area {area:.3f} outside {area_target} +/- {area_tol}")
    assert abs(doors - door_target) <= door_tol, (
        f"mean door count {doors:.3f} outside {door_target} +/- {door_tol}")
    return (f"mean area {area:.2f} (target {area_target} +/- {area_tol}), "
            f"mean doors {doors:.2f} (target {door_target} +/- {door_tol}), "
            f"n={summary.n}")


def test_criterion_1_experiment_7x7(exp1):
    report(1, lambda: _check_means(exp1, 5.72, 1.0, 3.92, 1.5))


def test_criterion_2_experiment_6x12(exp2):
    report(2, lambda: _check_means(exp2, 9.56, 1.5, 5.40, 1.5))


def test_criterion_3_experiment_15x15(exp3):
    report(3, lambda: _check_means(exp3, 23.78, 4.0, 18.21, 5.0))


def test_criterion_4_connectivity(exp1, exp2, exp3):
    def body():
        details = []
        for name, config, summary in (("7x7", EXP1, exp1),
                                      ("6x12", EXP2, exp2),
                                      ("15x15", EXP3, exp3)):
            connected_pre = 0
            for i in range(N):
                result = generate_building(config,
                                           building_seed(MASTER_SEED, i))
                comps = passable_components(result.plan)
                assert len(comps) == 1, (
                    f"{name} building {i}: {len(comps)} components "
                    "after the pipeline")
                if result.pre_repair_components == 1:
                    connected_pre += 1
            rate = connected_pre / N
            assert rate == summary.pre_repair_connectivity_rate, (
                f"{name}: independent pre-repair rate {rate} does not "
                f"match the batch summary")
            assert rate >= 0.95, (
                f"{name}: pre-repair connectivity {rate:.3f} below 0.95")
            details.append(f"{name} pre-repair {rate:.3f}, "
                           f"{summary.total_repairs} repairs")
        return ("post-pipeline connectivity 1.000 in all three batches "
                "(flood-fill verified); " + "; ".join(details))

    report(4, body)


def test_criterion_5_performance(exp1, exp3):
    def body():
        t1, t3 = exp1.total_time, exp3.total_time
        assert t1 <= 8.0, f"experiment 1 took {t1:.2f} s (limit 8 s)"
        assert t3 <= 160.0, f"experiment 3 took {t3:.2f} s (limit 160 s)"
        return (f"experiment 1: {t1:.2f} s (limit 8 s), "
                f"experiment 3: {t3:.2f} s (limit 160 s), single worker")

    report(5, body)


def test_criterion_6_automaton_oracle():
    def body():
        params = CaParams()
        checked = 0
        for h in range(1, 10):
            for length in range(1, 10):
                if h * length > 9:
                    continue
                for bits in itertools.product((0, 1), repeat=h * length):
                    cells = [list(bits[r * length:(r + 1) * length])
                             for r in range(h)]
                    wall = wall_of(cells)
                    got = cells_of(ca_step(wall, params))
                    want = ca_oracle_step(wall, params.glass_sums)
                    assert got == want, (
                        f"mismatch on {h}x{length} state {bits}")
                    checked += 1
        rng = random.Random(1234)
        for _ in range(1000):
            cells = [[rng.randint(0, 1) for _ in range(8)] for _ in range(8)]
            wall = wall_of(cells)
            assert cells_of(ca_step(wall, params)) == ca_oracle_step(
                wall, params.glass_sums)
        return (f"{checked} exhaustive matrices (all shapes with <= 9 "
                "cells) plus 1000 random 8x8, zero mismatches")

    report(6, body)


def test_criterion_7_room_count_formula():
    def body():
        assert room_count(9, 9) == 4, f"room_count(9, 9) = {room_count(9, 9)}"
        return "room_count(9, 9) = 4"

    report(7, body)


def test_criterion_8_property_suite():
    def body():
        # Rooms never touch after growth.
        for seed in range(25):
            grid = FloorGrid(9, 9)
            rooms = place_rooms(grid, 4, derive_rng(seed, "rooms"))
            grow_rooms(grid, rooms, derive_rng(seed, "growth"))
            assert rooms_are_separated(grid), f"rooms touch (seed {seed})"

        # Growth claims monotonically and every run terminates.
        for seed in range(10):
            grid = FloorGrid(9, 9)
            rng = derive_rng(seed, "grow")
            rooms = place_rooms(grid, 4, rng)
            ids = [r.id for r in rooms]
            touch, frontiers = touch_map(grid, ids)
            total = sum(len(r.tiles) for r in rooms)
            for _ in range(9 * 9 + 1):
                claimed = growth_pass(grid, ids, rng, touch, frontiers)
                now = sum(len(r.tiles) for r in rooms)
                assert now == total + claimed, "claims must add one tile each"
                total = now
                if claimed == 0:
                    break
            else:
                raise AssertionError(f"growth did not terminate (seed {seed})")

        # Every placed door was legal against the grid it was cut into.
        for seed in range(10):
            grid = FloorGrid(9, 9)
            rooms = place_rooms(grid, 4, derive_rng(seed, "rooms"))
            grow_rooms(grid, rooms, derive_rng(seed, "growth"))
            wallify_leftovers(grid)
            replay = grid.copy()
            for site in place_doors(grid, derive_rng(seed, "doors"), rooms):
                assert site in legal_door_sites(replay), (
                    f"door {site} was not legal when placed (seed {seed})")
                apply_door(replay, site)
            assert replay == grid, "replaying the doors diverged"

        # Tile conservation and lossless round trips on full pipelines.
        for seed in range(10):
            result = generate_building(EXP1, seed)
            assert interior_tile_conservation(result.plan)
            assert parse_ascii(render_ascii(result.plan)) == result.plan
            assert import_json(export_json(result.model)) == result.model
            assert voxel_walkable(result.model)

        # Batches are reproducible, serial or parallel.
        def stable(s):
            d = s.to_dict()
            del d["total_time"]
            return d

        a = run_batch(EXP1, 60, master_seed=99, workers=1)
        b = run_batch(EXP1, 60, master_seed=99, workers=1)
        c = run_batch(EXP1, 60, master_seed=99, workers=2)
        assert stable(a) == stable(b) == stable(c), (
            "batch results changed across runs or worker counts")

        return ("separation, growth monotonicity/termination, door "
                "legality replay, tile conservation, ASCII/JSON round "
                "trips, and batch determinism (serial == parallel) all hold")

    report(8, body)


def test_criterion_9_degenerate_inputs():
    def body():
        # Smallest legal floor with a single room, end to end.
        tiny = RunConfig(width=5, depth=5, room_policy=RoomCountPolicy(1))
        for seed in range(5):
            result = generate_building(tiny, seed)
            result.plan.validate()
            assert len(passable_components(result.plan)) == 1
            assert voxel_walkable(result.model)

        # Requesting more rooms than fit drops the extras silently.
        crowded = RunConfig(width=5, depth=5, room_policy=RoomCountPolicy(3))
        for seed in range(5):
            result = generate_building(crowded, seed)
            assert len(result.plan.room_ids()) == 1, (
                "a 5x5 interior fits exactly one seed")
            assert result.requested_rooms == 3

        # Dimension floors are enforced everywhere.
        with pytest.raises(DimensionError):
            RunConfig(width=4, depth=9).validate()
        with pytest.raises(DimensionError):
            RunConfig(width=9, depth=4).validate()
        with pytest.raises(DimensionError):
            RunConfig(width=9, depth=9, height=2).validate()
        with pytest.raises(DimensionError):
            FloorGrid(3, 9)

        return ("5x5 single-room pipeline succeeds, over-requested rooms "
                "drop without error, undersized dimensions are rejected")

    report(9, body)
