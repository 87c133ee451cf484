"""Oracle tests for three exact shortcuts in the per-building stages.

Room seeding stops drawing once no corner can take a seed, the facade
automaton steps walls of equal length as one stacked int, and assembly
builds the voxel buffer from premade columns. The references below are
the direct forms they replace: 100 draws for every room, each wall
stepped on its own by a brute-force recompute, and one column per tile
decided by its kind. The library must produce exactly what they do.
"""

import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from blockhouse.assembly import (
    AIR,
    DOOR_OPENING,
    FLOOR_SLAB,
    ROOF_SLAB,
    SOLID_WALL,
    assemble,
)
from blockhouse.facade import (
    FACADE_ORDER,
    CaParams,
    generate_facades,
    init_wall,
)
from blockhouse.grid import (
    DOOR,
    EMPTY,
    EXTERIOR_WALL,
    INTERIOR_WALL,
    FloorGrid,
    derive_rng,
)
from blockhouse.rooms import PlacementError, Room, _seed_fits, place_rooms

from helpers import (
    block_at,
    ca_oracle_step,
    generated_wall,
    interior,
    wall_of,
)

# Each @given test also pins its examples with a fixed @seed, which
# overrides derandomize: derandomize alone derives them from the test's
# source, so any edit to a test body would swap what it covers.
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)

sizes = st.integers(min_value=5, max_value=30)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
room_counts = st.integers(min_value=1, max_value=40)
attempts = st.integers(min_value=1, max_value=100)
obstacle_shares = st.sampled_from([0.0, 0.0, 0.05, 0.15, 0.4])


def reference_place_rooms(grid, count, rng, max_attempts):
    """Seeding as first written: every room makes all its draws."""
    rooms = []
    for room_id in range(count):
        for _ in range(max_attempts):
            x = rng.randint(1, grid.width - 3)
            z = rng.randint(1, grid.depth - 3)
            if _seed_fits(grid, x, z):
                square = {(x, z), (x + 1, z), (x, z + 1), (x + 1, z + 1)}
                for sx, sz in square:
                    grid.put(sx, sz, room_id)
                rooms.append(Room(room_id, (x, z), grid))
                break
    if not rooms:
        raise PlacementError("no room placed")
    return rooms


def obstructed_floor(width, depth, seed, obstacles):
    grid = FloorGrid(width, depth)
    rng = random.Random(seed)
    for x, z in interior(grid):
        if rng.random() < obstacles:
            grid.put(x, z, INTERIOR_WALL)
    return grid


def placed_or_none(grid, count, rng, max_attempts, place):
    try:
        rooms = place(grid, count, rng, max_attempts)
    except PlacementError:
        return None
    return [(room.id, room.anchor, sorted(room.tiles)) for room in rooms]


@SETTINGS
@seed(6)
@given(sizes, sizes, room_counts, attempts, seeds, obstacle_shares)
def test_place_rooms_matches_drawing_every_attempt(width, depth, count,
                                                   max_attempts, seed,
                                                   obstacles):
    grid = obstructed_floor(width, depth, seed, obstacles)
    ref_grid = grid.copy()

    got = placed_or_none(grid, count, derive_rng(seed, "rooms"),
                         max_attempts, place_rooms)
    want = placed_or_none(ref_grid, count, derive_rng(seed, "rooms"),
                          max_attempts, reference_place_rooms)

    assert got == want
    assert grid.cells == ref_grid.cells


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.randints = 0

    def randint(self, a, b):
        self.randints += 1
        return super().randint(a, b)


@pytest.mark.parametrize("seed", range(20))
def test_seeding_stops_drawing_once_no_corner_fits(seed):
    # Any seed in a 5x5 floor's 3x3 interior blocks every other corner,
    # and the first draw on an empty floor always fits.
    rng = CountingRandom(seed)
    rooms = place_rooms(FloorGrid(5, 5), 3, rng)
    assert [room.id for room in rooms] == [0]
    assert rng.randints == 2


@pytest.mark.parametrize("corner", [(x, z) for x in range(1, 5)
                                    for z in range(1, 4)])
def test_seeding_finds_a_lone_free_corner(corner):
    # A 7x6 floor walled in everywhere but one seed's square: the walk
    # must not stop before that corner, wherever it is.
    grid = FloorGrid(7, 6)
    x, z = corner
    for tile in interior(grid):
        if tile not in {(x, z), (x + 1, z), (x, z + 1), (x + 1, z + 1)}:
            grid.put(*tile, INTERIOR_WALL)
    ref_grid = grid.copy()
    rooms = place_rooms(grid, 2, random.Random(7))
    ref_rooms = reference_place_rooms(ref_grid, 2, random.Random(7), 100)
    assert [(room.id, room.anchor) for room in rooms] == [(0, corner)]
    assert [(room.id, room.anchor) for room in ref_rooms] == [(0, corner)]
    assert grid.cells == ref_grid.cells


def test_seeding_draws_nothing_on_a_floor_with_no_corner():
    grid = FloorGrid(6, 6)
    for x, z in interior(grid):
        if (x + z) % 2:
            grid.put(x, z, INTERIOR_WALL)
    rng = CountingRandom(1)
    with pytest.raises(PlacementError):
        place_rooms(grid, 4, rng)
    assert rng.randints == 0


def replayed_walls(width, depth, height, params, seed):
    """init_wall for each side in FACADE_ORDER on a fresh rng, then every
    wall stepped alone by the brute-force oracle."""
    lengths = {"north": width, "south": width, "east": depth, "west": depth}
    rng = random.Random(seed)
    walls = {}
    for side in FACADE_ORDER:
        wall = init_wall(height, lengths[side], params, rng)
        for _ in range(params.generations):
            wall = wall_of(ca_oracle_step(wall, params.glass_sums))
        walls[side] = wall
    return walls


GLASS_SUMS = [{0, 1, 4, 5}, {0}, {2, 3}, {1, 4}, {5}, set()]


@pytest.mark.parametrize("width,depth", [(9, 6), (5, 40), (6, 9), (7, 7)])
@pytest.mark.parametrize("generations", [0, 3])
@pytest.mark.parametrize("glass_sums", GLASS_SUMS)
def test_stacked_facades_match_walls_stepped_alone(width, depth,
                                                   generations, glass_sums):
    params = CaParams(init_glass_probability=0.45, generations=generations,
                      glass_sums=glass_sums)
    for seed, height in ((1, 3), (2, 1), (3, 6)):
        got = generate_facades(width, depth, height, params,
                               random.Random(seed))
        assert list(got) == list(FACADE_ORDER)
        assert got == replayed_walls(width, depth, height, params, seed)


@pytest.mark.parametrize("glass_sums", GLASS_SUMS)
def test_single_wall_matches_the_oracle(glass_sums):
    params = CaParams(init_glass_probability=0.45, generations=3,
                      glass_sums=glass_sums)
    for seed, (height, length) in enumerate(((4, 9), (1, 5), (7, 1))):
        want = init_wall(height, length, params, random.Random(seed))
        for _ in range(3):
            want = wall_of(ca_oracle_step(want, glass_sums))
        got = generated_wall(height, length, params, random.Random(seed))
        assert got == want


def tile_column(tile, height):
    """An interior column's blocks, bottom up, from its tile alone."""
    if tile >= 0 or tile == EMPTY:
        walls = [AIR] * height
    elif tile == DOOR:
        walls = [DOOR_OPENING] * 2 + [SOLID_WALL] * (height - 2)
    else:
        walls = [SOLID_WALL] * height
    return [FLOOR_SLAB, *walls, ROOF_SLAB]


@SETTINGS
@seed(7)
@given(sizes, sizes, seeds, st.integers(min_value=3, max_value=9))
def test_assembled_columns_follow_their_tiles(width, depth, seed, height):
    grid = FloorGrid(width, depth)
    rng = random.Random(seed)
    # No entrance tile: assemble carves the entrance's column apart.
    palette = [EMPTY, INTERIOR_WALL, EXTERIOR_WALL, DOOR, 0, 1, 7, 40]
    for x, z in interior(grid):
        grid.put(x, z, rng.choice(palette))
    facades = generate_facades(width, depth, height, CaParams(), rng)
    model = assemble(grid, facades, height)
    assert len(model.voxels) == width * depth * (height + 2)
    for x, z in interior(grid):
        column = [block_at(model, x, y, z) for y in range(height + 2)]
        assert column == tile_column(grid.get(x, z), height)
