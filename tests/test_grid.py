"""Grid primitives: construction, access, validation, seed derivation."""

import pytest

from blockhouse import (
    DOOR,
    EMPTY,
    EXTERIOR_DOOR,
    EXTERIOR_WALL,
    INTERIOR_WALL,
    MIN_DIMENSION,
    DimensionError,
    FloorGrid,
    derive_rng,
    derive_seed,
    is_passable,
    is_room,
    parse_ascii,
)


def test_minimum_dimensions_enforced():
    with pytest.raises(DimensionError, match="width 4"):
        FloorGrid(4, 9)
    with pytest.raises(DimensionError, match="depth 3"):
        FloorGrid(9, 3)
    grid = FloorGrid(MIN_DIMENSION, MIN_DIMENSION)
    assert grid.width == grid.depth == MIN_DIMENSION


def test_fresh_grid_is_walled_shell_around_empty_interior():
    grid = FloorGrid(7, 9)
    for x, z in grid.border():
        assert grid.get(x, z) == EXTERIOR_WALL
    for x, z in grid.interior():
        assert grid.get(x, z) == EMPTY
    assert grid.count(EXTERIOR_WALL) == 7 * 9 - 5 * 7
    assert grid.count(EMPTY) == 5 * 7


def test_get_put_bounds_checking():
    grid = FloorGrid(5, 5)
    grid.put(2, 2, 7)
    assert grid.get(2, 2) == 7
    with pytest.raises(IndexError):
        grid.get(5, 0)
    with pytest.raises(IndexError):
        grid.put(0, -1, EMPTY)


def test_neighbors4_order_and_bounds():
    grid = FloorGrid(5, 5)
    assert grid.neighbors4(2, 2) == [(3, 2), (1, 2), (2, 3), (2, 1)]
    assert set(grid.neighbors4(0, 0)) == {(1, 0), (0, 1)}
    with pytest.raises(IndexError):
        grid.neighbors4(9, 9)


def test_tile_predicates():
    assert is_room(0) and is_room(35)
    assert not is_room(EMPTY)
    assert is_passable(DOOR) and is_passable(EXTERIOR_DOOR) and is_passable(3)
    assert not is_passable(INTERIOR_WALL) and not is_passable(EMPTY)


def test_find_count_room_ids_entrance():
    grid = FloorGrid(6, 6)
    grid.put(1, 1, 0)
    grid.put(2, 1, 0)
    grid.put(3, 3, 4)
    grid.put(2, 2, DOOR)
    assert grid.count(0) == 2
    assert grid.find(4) == [(3, 3)]
    assert grid.room_ids() == [0, 4]
    assert grid.entrance() is None
    grid.put(0, 2, EXTERIOR_DOOR)
    assert grid.entrance() == (0, 2)


@pytest.mark.parametrize("width,depth", [(6, 6), (7, 11), (12, 5)])
def test_entrance_on_each_side(width, depth):
    # Every non-corner border tile of the four sides in turn.
    tiles = ([(0, z) for z in range(1, depth - 1)]
             + [(width - 1, z) for z in range(1, depth - 1)]
             + [(x, 0) for x in range(1, width - 1)]
             + [(x, depth - 1) for x in range(1, width - 1)])
    for x, z in tiles:
        grid = FloorGrid(width, depth)
        assert grid.entrance() is None
        grid.put(x, z, EXTERIOR_DOOR)
        assert grid.entrance() == (x, z) == grid.find(EXTERIOR_DOOR)[0]


def test_entrance_of_a_plan_with_two_is_the_first_in_cells_order():
    # (3, 0) on the north side and (0, 2) on the west side: cells run x
    # major, so the west entrance comes first.
    grid = parse_ascii("""\
###E##
#0000#
E0000#
#0000#
######
""")
    assert grid.find(EXTERIOR_DOOR) == [(0, 2), (3, 0)]
    assert grid.entrance() == (0, 2)
    grid.put(0, 2, EXTERIOR_WALL)
    assert grid.entrance() == (3, 0)
    grid.put(3, 0, EXTERIOR_WALL)
    assert grid.entrance() is None


def test_copy_is_independent():
    grid = FloorGrid(5, 5)
    dup = grid.copy()
    dup.put(2, 2, 9)
    assert grid.get(2, 2) == EMPTY
    assert dup.get(2, 2) == 9


def test_equality_tracks_tiles_and_shape():
    a = FloorGrid(5, 6)
    b = FloorGrid(5, 6)
    assert a == b
    b.put(1, 1, 0)
    assert a != b
    assert a != FloorGrid(6, 5)


def test_validate_accepts_fresh_grid():
    FloorGrid(5, 5).validate()


def test_validate_rejects_bad_border_and_interior_states():
    grid = FloorGrid(5, 5)
    grid.put(0, 2, DOOR)
    with pytest.raises(ValueError, match=r"border tile \(0, 2\)"):
        grid.validate()

    grid = FloorGrid(5, 5)
    grid.put(2, 2, EXTERIOR_WALL)
    with pytest.raises(ValueError, match=r"interior tile \(2, 2\)"):
        grid.validate()

    grid = FloorGrid(5, 5)
    grid.put(0, 1, EXTERIOR_DOOR)
    grid.put(0, 2, EXTERIOR_DOOR)
    with pytest.raises(ValueError, match="2 entrances"):
        grid.validate()


def test_validate_names_the_first_bad_border_tile_in_border_order():
    # Large enough that a set of the ring's indices iterates out of order.
    ring = list(FloorGrid(20, 9).border())
    for k, (x, z) in enumerate(ring):
        for later in ring[k:]:
            grid = FloorGrid(20, 9)
            grid.put(*later, EMPTY)
            grid.put(x, z, 0)
            first = rf"border tile \({x}, {z}\) holds state 0"
            with pytest.raises(ValueError, match=first):
                grid.validate()
        # Each ring tile counts once, corners included.
        grid = FloorGrid(20, 9)
        grid.put(x, z, EXTERIOR_DOOR)
        grid.validate()


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(1, "rooms") == derive_seed(1, "rooms")
    assert derive_seed(1, "rooms") != derive_seed(1, "growth")
    assert derive_seed(1, "rooms") != derive_seed(2, "rooms")
    assert derive_seed(7, "building", 0) != derive_seed(7, "building", 1)
    for tag in ("rooms", "doors", "facade"):
        assert 0 <= derive_seed(123, tag) < 2 ** 64


def test_derive_rng_reproduces_streams():
    a = [derive_rng(42, "x").random() for _ in range(5)]
    b = [derive_rng(42, "x").random() for _ in range(5)]
    c = [derive_rng(42, "y").random() for _ in range(5)]
    assert a == b
    assert a != c
