"""Oracle tests for the plan stage's two incremental loops.

Growth keeps each room's frontier, a sorted list of tile indices, up to
date claim by claim, and saturate door placement keeps a sorted list of
legal site keys up to date door by door. The references below are the
rescanning algorithms they replace: growth recomputes every room's
candidates from `cells` on every turn (`growth_candidates_oracle` in
helpers.py, which shares no code with `growth_candidates`), and
saturate recomputes `legal_door_sites` after every door. Both draw
from the same sorted lists, so for every seed the library must consume
the same random numbers and build exactly the same plan.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from blockhouse import (
    DOOR,
    EMPTY,
    INTERIOR_WALL,
    WALL_RULES,
    FloorGrid,
    PlacementError,
    Room,
    apply_door,
    derive_rng,
    grow_rooms,
    growth_candidates,
    legal_door_sites,
    place_doors,
    place_rooms,
    wallify_leftovers,
)
from blockhouse.rooms import growth_pass

from helpers import growth_candidates_oracle

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

sizes = st.integers(min_value=5, max_value=30)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
room_counts = st.integers(min_value=1, max_value=40)
obstacle_shares = st.sampled_from([0.0, 0.0, 0.05, 0.15])
wall_rules = st.sampled_from(WALL_RULES)


def reference_grow(grid, rooms, rng):
    """Growth as a fixed point of full rescans."""
    def one_pass():
        order = list(rooms)
        rng.shuffle(order)
        claimed = 0
        for room in order:
            candidates = growth_candidates_oracle(grid, room.id)
            if not candidates:
                continue
            x, z = rng.choice(sorted(candidates))
            grid.put(x, z, room.id)
            claimed += 1
        return claimed

    while rooms and one_pass():
        pass


def reference_saturate(grid, rng, wall_rule):
    """Saturate door placement as a fixed point of full rescans."""
    placed = []
    while sites := legal_door_sites(grid, wall_rule):
        site = rng.choice(sorted(sites))
        apply_door(grid, site)
        placed.append(site)
    return placed


def seeded_floor(width, depth, count, seed, obstacles):
    """A floor with some interior tiles walled off at random (so growth
    meets odd shapes), then room seeds placed on what is left."""
    grid = FloorGrid(width, depth)
    rng = random.Random(seed)
    for x, z in grid.interior():
        if rng.random() < obstacles:
            grid.put(x, z, INTERIOR_WALL)
    try:
        rooms = place_rooms(grid, count, derive_rng(seed, "rooms"))
    except PlacementError:
        rooms = []
    return grid, rooms


def tiles_of(rooms):
    return [(room.id, sorted(room.tiles)) for room in rooms]


@SETTINGS
@given(sizes, sizes, room_counts, seeds, obstacle_shares)
def test_grow_rooms_matches_rescanning_growth(width, depth, count, seed,
                                              obstacles):
    grid, rooms = seeded_floor(width, depth, count, seed, obstacles)
    ref_grid, ref_rooms = copy.deepcopy((grid, rooms))
    rng = derive_rng(seed, "growth")
    ref_rng = derive_rng(seed, "growth")

    grow_rooms(grid, rooms, rng)
    reference_grow(ref_grid, ref_rooms, ref_rng)

    assert grid == ref_grid
    assert tiles_of(rooms) == tiles_of(ref_rooms)
    assert rng.getstate() == ref_rng.getstate()


@SETTINGS
@given(sizes, sizes, room_counts, seeds, obstacle_shares)
def test_frontiers_equal_growth_candidates_after_every_pass(
        width, depth, count, seed, obstacles):
    # growth_pass keeps each frontier as a sorted list of flat indices
    # x * depth + z.
    grid, rooms = seeded_floor(width, depth, count, seed, obstacles)
    rng = derive_rng(seed, "growth")
    frontiers = {room.id: sorted(
        x * depth + z for x, z in growth_candidates_oracle(grid, room.id))
        for room in rooms}
    while rooms and growth_pass(grid, rooms, rng, frontiers):
        for room in rooms:
            frontier = frontiers[room.id]
            assert ({divmod(i, depth) for i in frontier}
                    == growth_candidates_oracle(grid, room.id)
                    == growth_candidates(grid, room))
            assert all(a < b for a, b in zip(frontier, frontier[1:]))
    # The final pass claimed nothing because every frontier is empty.
    assert all(not growth_candidates_oracle(grid, room.id) for room in rooms)


@SETTINGS
@given(sizes, sizes, seeds, obstacle_shares)
def test_growth_candidates_match_oracle_on_arbitrary_tile_fields(
        width, depth, seed, obstacles):
    # Rooms of any shape, split into pieces or touching each other,
    # among walls, doors and empty tiles.
    grid = FloorGrid(width, depth)
    rng = random.Random(seed)
    for x, z in grid.interior():
        if rng.random() < obstacles:
            grid.put(x, z, rng.choice([INTERIOR_WALL, DOOR]))
        else:
            grid.put(x, z, rng.choice([EMPTY, EMPTY, EMPTY, 0, 1, 2]))
    for room_id in range(3):
        room = Room(room_id, min(grid.find(room_id), default=(1, 1)), grid)
        assert (growth_candidates(grid, room)
                == growth_candidates_oracle(grid, room_id))


@SETTINGS
@given(sizes, sizes, room_counts, seeds, obstacle_shares, wall_rules)
def test_saturate_matches_rescanning_placement(width, depth, count, seed,
                                               obstacles, wall_rule):
    grid, rooms = seeded_floor(width, depth, count, seed, obstacles)
    grow_rooms(grid, rooms, derive_rng(seed, "growth"))
    wallify_leftovers(grid)
    ref_grid, ref_rooms = copy.deepcopy((grid, rooms))
    rng = derive_rng(seed, "doors")
    ref_rng = derive_rng(seed, "doors")

    placed = place_doors(grid, rng, rooms, wall_rule, "saturate")
    ref_placed = reference_saturate(ref_grid, ref_rng, wall_rule)

    assert placed == ref_placed
    assert grid == ref_grid
    assert tiles_of(rooms) == tiles_of(ref_rooms)
    assert rng.getstate() == ref_rng.getstate()


@SETTINGS
@given(sizes, sizes, seeds, wall_rules)
def test_saturate_matches_rescanning_on_arbitrary_tile_fields(
        width, depth, seed, wall_rule):
    # Tile fields no growth run would leave behind: rooms touching,
    # scattered doors, room ids repeated far apart. Legality still
    # changes only next to each new door.
    grid = FloorGrid(width, depth)
    rng = random.Random(seed)
    palette = [INTERIOR_WALL] * 6 + [DOOR] + [0, 1, 2, 3]
    for x, z in grid.interior():
        grid.put(x, z, rng.choice(palette))
    ref_grid = grid.copy()
    draw_rng = derive_rng(seed, "doors")
    ref_draw_rng = derive_rng(seed, "doors")

    placed = place_doors(grid, draw_rng, None, wall_rule, "saturate")
    ref_placed = reference_saturate(ref_grid, ref_draw_rng, wall_rule)

    assert placed == ref_placed
    assert grid == ref_grid
    assert not legal_door_sites(grid, wall_rule)
