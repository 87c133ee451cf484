"""Room counting, seed placement, and growth."""

import pytest

from blockhouse.grid import EMPTY, INTERIOR_WALL, FloorGrid, derive_rng
from blockhouse.rooms import (
    PlacementError,
    Room,
    RoomCountPolicy,
    grow_rooms,
    growth_pass,
    place_rooms,
    room_count,
    touch_map,
)

from helpers import (
    coords,
    frontier,
    interior,
    rooms_are_separated,
    room_tiles_connected,
)


def test_room_count_known_values():
    assert room_count(9, 9) == 4
    assert room_count(7, 7) == 4
    assert room_count(15, 15) == 6
    assert room_count(6, 12) == 4
    assert room_count(5, 5) == 3


def test_room_count_never_below_one():
    for w in range(5, 20):
        for d in range(5, 20):
            assert room_count(w, d) >= 1


def test_room_count_policy_modes():
    assert RoomCountPolicy().count_for(7, 7) == 4
    assert RoomCountPolicy(explicit=3).count_for(7, 7) == 3
    assert str(RoomCountPolicy()) == "formula"
    assert str(RoomCountPolicy(explicit=5)) == "explicit:5"
    assert RoomCountPolicy.parse("formula") == RoomCountPolicy()
    assert RoomCountPolicy.parse("explicit:4") == RoomCountPolicy(explicit=4)
    with pytest.raises(ValueError):
        RoomCountPolicy.parse("five")
    with pytest.raises(ValueError):
        RoomCountPolicy.parse("explicit:x")
    # Only ASCII digits, so that str() gives back the text parsed.
    for text in ("explicit: 3", "explicit:+3", "explicit:\u0663",
                 "explicit:3_0", "explicit:3 ", "explicit:", "explicit",
                 "explicit:007", "explicit:00"):
        with pytest.raises(ValueError, match="bad room policy"):
            RoomCountPolicy.parse(text)
    with pytest.raises(ValueError):
        RoomCountPolicy(explicit=0)


def test_place_rooms_two_in_seven_by_seven():
    for seed in range(25):
        grid = FloorGrid(7, 7)
        rooms = place_rooms(grid, 2, derive_rng(seed, "rooms"))
        assert len(rooms) == 2
        assert sum(grid.count(r.id) for r in rooms) == 8
        assert rooms_are_separated(grid)
        for room in rooms:
            ax, az = room.anchor
            square = {(ax, az), (ax + 1, az), (ax, az + 1), (ax + 1, az + 1)}
            assert room.tiles == square
            for x, z in square:
                assert (x, z) in interior(grid)
                assert grid.get(x, z) == room.id


def test_place_rooms_single_room_in_minimum_grid():
    for seed in range(10):
        grid = FloorGrid(5, 5)
        rooms = place_rooms(grid, 1, derive_rng(seed, "rooms"))
        assert len(rooms) == 1
        assert all(1 <= x <= 3 and 1 <= z <= 3 for x, z in rooms[0].tiles)


def test_place_rooms_drops_unplaceable_rooms():
    # A 5x5 grid has a 3x3 interior; every pair of 2x2 squares inside it
    # overlaps or touches, so only the first room can ever land.
    for seed in range(25):
        grid = FloorGrid(5, 5)
        rooms = place_rooms(grid, 3, derive_rng(seed, "rooms"))
        assert len(rooms) == 1
        assert rooms[0].id == 0


def test_place_rooms_error_when_nothing_fits():
    grid = FloorGrid(5, 5)
    for x, z in interior(grid):
        grid.put(x, z, INTERIOR_WALL)
    with pytest.raises(PlacementError):
        place_rooms(grid, 2, derive_rng(0, "rooms"))


def test_growth_candidates_ring_around_lone_seed():
    grid = FloorGrid(9, 9)
    for x, z in ((4, 4), (5, 4), (4, 5), (5, 5)):
        grid.put(x, z, 0)
    room = Room(0, (4, 4), grid)
    expected = {(3, 4), (3, 5), (6, 4), (6, 5), (4, 3), (5, 3), (4, 6), (5, 6)}
    assert frontier(grid, room) == expected


def test_growth_candidates_exclude_tiles_near_other_rooms():
    # Two seeds one column apart: the gap column tiles neighbor both
    # rooms, so neither room may claim them.
    grid = FloorGrid(9, 7)
    a = Room(0, (1, 2), grid)
    b = Room(1, (4, 2), grid)
    for room in (a, b):
        ax, az = room.anchor
        for x, z in ((ax, az), (ax + 1, az), (ax, az + 1), (ax + 1, az + 1)):
            grid.put(x, z, room.id)
    gap = {(3, 2), (3, 3)}
    assert gap & frontier(grid, a) == set()
    assert gap & frontier(grid, b) == set()


def test_room_left_out_of_the_list_still_bars_its_neighbours():
    # Room 1 sits three columns from room 0 but is not passed to growth:
    # it never grows, and room 0 never claims a tile beside it.
    grid = FloorGrid(9, 7)
    for room_id, (ax, az) in ((0, (1, 2)), (1, (5, 2))):
        for x, z in ((ax, az), (ax + 1, az), (ax, az + 1), (ax + 1, az + 1)):
            grid.put(x, z, room_id)
    kept = set(grid.find(1))
    beside = {(x + dx, z + dz) for x, z in kept
              for dx, dz in ((1, 0), (-1, 0), (0, 1), (0, -1))} - kept
    grow_rooms(grid, [Room(0, (1, 2), grid)], derive_rng(5, "growth"))
    assert set(grid.find(1)) == kept
    assert rooms_are_separated(grid)
    assert all(grid.get(x, z) != 0 for x, z in beside)
    assert grid.count(0) > 4


def test_growth_candidates_empty_when_boxed_in():
    grid = FloorGrid(6, 6)
    room = Room(0, (1, 1), grid)
    for x, z in ((1, 1), (2, 1), (1, 2), (2, 2)):
        grid.put(x, z, 0)
    for x, z in ((3, 1), (3, 2), (1, 3), (2, 3), (3, 3)):
        grid.put(x, z, 1)
    assert frontier(grid, room) == set()


def test_single_room_grows_to_fill_interior():
    grid = FloorGrid(7, 7)
    rooms = place_rooms(grid, 1, derive_rng(3, "rooms"))
    grow_rooms(grid, rooms, derive_rng(3, "growth"))
    assert grid.count(rooms[0].id) == 25
    assert grid.count(EMPTY) == 0


def test_growth_is_monotone_and_terminates():
    for seed in range(10):
        grid = FloorGrid(9, 9)
        rooms = place_rooms(grid, 3, derive_rng(seed, "rooms"))
        rng = derive_rng(seed, "growth")
        ids = [r.id for r in rooms]
        touch, frontiers = touch_map(grid, ids)
        passes = 0
        before = {r.id: set(r.tiles) for r in rooms}
        while growth_pass(grid, ids, rng, touch, frontiers):
            passes += 1
            assert passes <= 7 * 7, "growth failed to terminate"
            for room in rooms:
                assert before[room.id] <= room.tiles
                before[room.id] = set(room.tiles)


def test_grown_rooms_stay_separated_and_connected():
    for seed in range(30):
        grid = FloorGrid(9, 9)
        rooms = place_rooms(grid, 3, derive_rng(seed, "rooms"))
        grow_rooms(grid, rooms, derive_rng(seed, "growth"))
        assert rooms_are_separated(grid)
        for room in rooms:
            assert room_tiles_connected(grid, room.id)
            assert {(x, z) for x, z in coords(grid)
                    if grid.get(x, z) == room.id} == room.tiles


def test_no_leftover_tile_is_anyones_candidate():
    for seed in range(20):
        grid = FloorGrid(8, 10)
        rooms = place_rooms(grid, 4, derive_rng(seed, "rooms"))
        grow_rooms(grid, rooms, derive_rng(seed, "growth"))
        for room in rooms:
            assert frontier(grid, room) == set()


def test_placement_and_growth_are_deterministic():
    def build(seed):
        grid = FloorGrid(9, 9)
        rooms = place_rooms(grid, 3, derive_rng(seed, "rooms"))
        grow_rooms(grid, rooms, derive_rng(seed, "growth"))
        return grid, {r.id: frozenset(r.tiles) for r in rooms}

    g1, t1 = build(11)
    g2, t2 = build(11)
    assert g1 == g2
    assert t1 == t2
