"""The plan stage's two incremental loops against the reference.

Growth keeps a touch map and each room's frontier, a sorted list of
tile indices, up to date claim by claim, and saturate door placement
keeps a sorted list of legal site keys up to date door by door. The
stages of reference.py rescan the plan by coordinates for every
decision instead: growth recomputes the room's candidates on every
turn, and saturate recomputes every legal site after every door. Both
draw from the same sorted lists, so for every seed the library must
consume the same random numbers and build exactly the same plan.
"""

import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from blockhouse.doors import (
    WALL_RULES,
    legal_door_sites,
    place_doors,
    wallify_leftovers,
)
from blockhouse.grid import DOOR, EMPTY, INTERIOR_WALL, FloorGrid, derive_rng
from blockhouse.rooms import (
    BLOCKED,
    PlacementError,
    Room,
    grow_rooms,
    growth_pass,
    place_rooms,
    room_count,
    touch_map,
)

import reference
from helpers import frontier
from reference import (
    columns,
    coords,
    copy_plan,
    find,
    growth_candidates,
    interior,
    neighbors,
    set_tile,
)

# Each @given test also pins its examples with a fixed @seed, which
# overrides derandomize: derandomize alone derives them from the test's
# source, so any edit to a test body would swap what it covers.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

sizes = st.integers(min_value=5, max_value=30)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
room_counts = st.integers(min_value=1, max_value=40)
obstacle_shares = st.sampled_from([0.0, 0.0, 0.05, 0.15])
wall_rules = st.sampled_from(WALL_RULES)


def seeded_floor(width, depth, count, seed, obstacles):
    """A floor with some interior tiles walled off at random (so growth
    meets odd shapes), then room seeds placed on what is left."""
    grid = FloorGrid(width, depth)
    rng = random.Random(seed)
    for x, z in interior(grid):
        if rng.random() < obstacles:
            set_tile(grid, x, z, INTERIOR_WALL)
    try:
        rooms = place_rooms(grid, count, derive_rng(seed, "rooms"))
    except PlacementError:
        rooms = []
    return grid, rooms


def placed(sites):
    return [(site.position, site.axis, site.joined) for site in sites]


@SETTINGS
@seed(1)
@given(sizes, sizes, room_counts, seeds, obstacle_shares)
def test_grow_rooms_matches_rescanning_growth(width, depth, count, seed,
                                              obstacles):
    grid, rooms = seeded_floor(width, depth, count, seed, obstacles)
    ref_grid = copy_plan(grid)
    rng = derive_rng(seed, "growth")
    ref_rng = derive_rng(seed, "growth")

    grow_rooms(grid, rooms, rng)
    reference.grow_rooms(ref_grid, [room.id for room in rooms], ref_rng)

    assert grid == ref_grid
    assert rng.getstate() == ref_rng.getstate()


def touch_oracle(grid, ids):
    """The touch map read from the plan by coordinates: EMPTY for an empty
    tile with no room tile beside it, r for one beside tiles of room r
    alone when r is in `ids`, and BLOCKED for every other tile."""
    t = columns(grid)
    out = []
    for x, z in coords(grid):
        if t[x][z] != EMPTY:
            out.append(BLOCKED)
            continue
        near = {u for nx, nz in neighbors(grid, x, z)
                if (u := t[nx][nz]) >= 0}
        if not near:
            out.append(EMPTY)
        elif len(near) == 1 and (r := near.pop()) in ids:
            out.append(r)
        else:
            out.append(BLOCKED)
    return out


def frontiers_of(touch, ids):
    """Each listed room's frontier: the sorted indices whose touch is it."""
    out = {rid: [] for rid in ids}
    for i, t in enumerate(touch):
        if t >= 0:
            out[t].append(i)
    return out


@SETTINGS
@seed(2)
@given(sizes, sizes, room_counts, seeds, obstacle_shares)
def test_frontiers_equal_growth_candidates_after_every_pass(
        width, depth, count, seed, obstacles):
    # growth_pass keeps the touch map and each frontier, a sorted list of
    # flat indices x * depth + z; here both start from the oracle.
    grid, rooms = seeded_floor(width, depth, count, seed, obstacles)
    rng = derive_rng(seed, "growth")
    ids = [room.id for room in rooms]
    touch = touch_oracle(grid, ids)
    start = frontiers_of(touch, ids)
    frontiers = [start.get(rid, []) for rid in range(max(ids, default=-1) + 1)]
    while growth_pass(grid, ids, rng, touch, frontiers):
        # A fresh scan of the grown plan finds the state kept claim by claim.
        assert touch_map(grid, ids) == (touch, frontiers)
        for room in rooms:
            assert ([divmod(i, depth) for i in frontiers[room.id]]
                    == growth_candidates(grid, room.id))
    # The final pass claimed nothing because every frontier is empty.
    assert all(not growth_candidates(grid, room.id) for room in rooms)


@pytest.mark.parametrize("size, seed, obstacles",
                         [(40, 1, 0.0), (40, 2, 0.15), (64, 3, 0.15)])
def test_touch_map_matches_rescan_after_every_pass_on_large_floors(
        size, seed, obstacles):
    # The hypothesis floors stop at 30; formula room counts here give 12
    # and 16 rooms. A per-turn replay costs seconds at 64x64, so the
    # touch map and frontiers are rescanned after every pass instead.
    grid, rooms = seeded_floor(size, size, room_count(size, size), seed,
                               obstacles)
    grown = copy_plan(grid)
    grown_rng = derive_rng(seed, "growth")
    grow_rooms(grown, [Room(room.id, room.anchor, grown) for room in rooms],
               grown_rng)
    rng = derive_rng(seed, "growth")
    ids = [room.id for room in rooms]
    touch, frontiers = touch_map(grid, ids)
    passes = 0
    while growth_pass(grid, ids, rng, touch, frontiers):
        passes += 1
        assert touch == touch_oracle(grid, ids)
        kept = {rid: frontiers[rid] for rid in ids}
        assert kept == frontiers_of(touch, ids)
    assert passes > size
    assert grid == grown
    assert rng.getstate() == grown_rng.getstate()


@SETTINGS
@seed(3)
@given(sizes, sizes, seeds, obstacle_shares)
def test_growth_candidates_match_oracle_on_arbitrary_tile_fields(
        width, depth, seed, obstacles):
    # Rooms of any shape, split into pieces or touching each other,
    # among walls, doors and empty tiles.
    grid = FloorGrid(width, depth)
    rng = random.Random(seed)
    for x, z in interior(grid):
        if rng.random() < obstacles:
            set_tile(grid, x, z, rng.choice([INTERIOR_WALL, DOOR]))
        else:
            set_tile(grid, x, z, rng.choice([EMPTY, EMPTY, EMPTY, 0, 1, 2]))
    for room_id in range(3):
        room = Room(room_id, min(find(grid, room_id), default=(1, 1)), grid)
        assert frontier(grid, room) == set(growth_candidates(grid, room_id))
    # Room 1 left out of the list bars the tiles beside it.
    for ids in ([0, 1, 2], [0, 2]):
        assert touch_map(grid, ids)[0] == touch_oracle(grid, ids)


@SETTINGS
@seed(4)
@given(sizes, sizes, room_counts, seeds, obstacle_shares, wall_rules)
def test_saturate_matches_rescanning_placement(width, depth, count, seed,
                                               obstacles, wall_rule):
    grid, rooms = seeded_floor(width, depth, count, seed, obstacles)
    grow_rooms(grid, rooms, derive_rng(seed, "growth"))
    wallify_leftovers(grid)
    ref_grid = copy_plan(grid)
    rng = derive_rng(seed, "doors")
    ref_rng = derive_rng(seed, "doors")

    got = place_doors(grid, rng, rooms, wall_rule, "saturate")
    want = reference.place_doors(ref_grid, ref_rng, wall_rule, "saturate")

    assert placed(got) == want
    assert grid == ref_grid
    assert rng.getstate() == ref_rng.getstate()


@SETTINGS
@seed(5)
@given(sizes, sizes, seeds, wall_rules)
def test_saturate_matches_rescanning_on_arbitrary_tile_fields(
        width, depth, seed, wall_rule):
    # Tile fields no growth run would leave behind: rooms touching,
    # scattered doors, room ids repeated far apart. Legality still
    # changes only next to each new door.
    grid = FloorGrid(width, depth)
    rng = random.Random(seed)
    palette = [INTERIOR_WALL] * 6 + [DOOR] + [0, 1, 2, 3]
    for x, z in interior(grid):
        set_tile(grid, x, z, rng.choice(palette))
    ref_grid = copy_plan(grid)
    assert ({(site.position, site.axis)
             for site in legal_door_sites(grid, wall_rule)}
            == {((x, z), axis)
                for x, z, axis in reference.door_sites(grid, wall_rule)})
    draw_rng = derive_rng(seed, "doors")
    ref_draw_rng = derive_rng(seed, "doors")

    got = place_doors(grid, draw_rng, None, wall_rule, "saturate")
    want = reference.place_doors(ref_grid, ref_draw_rng, wall_rule,
                                 "saturate")

    assert placed(got) == want
    assert grid == ref_grid
    assert not legal_door_sites(grid, wall_rule)
