"""Door legality, placement modes, the entrance, and connectivity repair."""

import random

import pytest

from blockhouse.assembly import parse_ascii
from blockhouse.doors import (
    DoorSite,
    EntranceError,
    RepairError,
    connected_components,
    legal_door_sites,
    place_doors,
    place_exterior_door,
    repair_connectivity,
    wallify_leftovers,
)
from blockhouse.grid import (
    DOOR,
    EXTERIOR_DOOR,
    EXTERIOR_WALL,
    INTERIOR_WALL,
    FloorGrid,
    derive_rng,
)
from blockhouse.rooms import Room, grow_rooms, place_rooms

from helpers import (
    apply_door,
    border,
    interior,
    neighbors,
    passable_components,
    site_flanks,
    site_is_legal,
    site_through,
)

# Exactly one wall tile joins the two rooms: (3, 2) along the x axis.
PLAN_ONE_SITE = """\
######
#00**#
#00*1#
#00**#
######
"""

# Rooms separated by a 2-thick wall slab; no single door can join them.
PLAN_SEALED = """\
#######
#00**1#
#00**1#
#00**1#
#######
"""


def _grown(seed, width=9, depth=9, count=4):
    """A post-growth, pre-door grid plus its rooms."""
    grid = FloorGrid(width, depth)
    rooms = place_rooms(grid, count, derive_rng(seed, "rooms"))
    grow_rooms(grid, rooms, derive_rng(seed, "growth"))
    wallify_leftovers(grid)
    return grid, rooms


def test_door_site_through_and_flanks():
    site = DoorSite((4, 2), "x", (0, 1))
    assert site_through(site) == ((3, 2), (5, 2))
    assert site_flanks(site) == ((4, 1), (4, 3))
    site = DoorSite((4, 2), "z", (1, 0))
    assert site_through(site) == ((4, 1), (4, 3))
    assert site_flanks(site) == ((3, 2), (5, 2))
    # The library reads the axes the same way: a door inside one room
    # converts exactly its two flanks and leaves the joined tiles, and
    # every legal site joins the tiles on its through sides.
    for axis in "xz":
        grid = parse_ascii("#######\n" + "#00000#\n" * 5 + "#######\n")
        site = DoorSite((3, 3), axis, (0, 0))
        assert apply_door(grid, site) == list(site_flanks(site))
        assert [grid.get(*t) for t in site_through(site)] == [0, 0]
    grid, _ = _grown(3, 11, 11, 5)
    sites = legal_door_sites(grid)
    assert sites
    for site in sites:
        assert site.joined == tuple(grid.get(*t) for t in site_through(site))


def test_wallify_fills_only_leftover_interior():
    grid = FloorGrid(7, 7)
    grid.put(1, 1, 0)
    grid.put(2, 1, 0)
    grid.put(3, 3, DOOR)
    wallify_leftovers(grid)
    assert grid.get(1, 1) == 0
    assert grid.get(2, 1) == 0
    assert grid.get(3, 3) == DOOR
    assert grid.count(INTERIOR_WALL) == 25 - 3
    before = grid.copy()
    wallify_leftovers(grid)
    assert grid == before


def test_single_legal_site_fixture():
    grid = parse_ascii(PLAN_ONE_SITE)
    expected = DoorSite((3, 2), "x", (0, 1))
    assert legal_door_sites(grid, "any") == {expected}
    assert legal_door_sites(grid, "interior") == {expected}


def test_wall_between_same_room_is_never_a_site():
    grid = parse_ascii("""\
#####
#0*0#
#000#
#000#
#####
""")
    assert legal_door_sites(grid, "any") == set()


def test_wall_with_no_wall_neighbor_is_not_a_site():
    # (2, 2) joins the rooms on both axes but touches no other wall.
    grid = parse_ascii("""\
#####
#000#
#0*1#
#111#
#####
""")
    assert legal_door_sites(grid, "any") == set()
    assert legal_door_sites(grid, "interior") == set()


def test_border_wall_counts_only_under_any_rule():
    # The lone wall's only wall neighbor is the border above it.
    grid = parse_ascii("""\
#####
#0*1#
#001#
#011#
#####
""")
    assert legal_door_sites(grid, "any") == {DoorSite((2, 1), "x", (0, 1))}
    assert legal_door_sites(grid, "interior") == set()


def test_door_counts_as_a_joinable_side():
    # Not a reachable plan, but legality is a pure function of the grid:
    # the wall at (1, 2) joins a door above to the room below.
    grid = parse_ascii("""\
#####
#D00#
#*00#
#000#
#####
""")
    assert legal_door_sites(grid, "any") == {DoorSite((1, 2), "z", (DOOR, 0))}
    assert legal_door_sites(grid, "interior") == set()


def test_unknown_wall_rule_rejected():
    grid = parse_ascii(PLAN_ONE_SITE)
    with pytest.raises(ValueError):
        legal_door_sites(grid, "both")
    with pytest.raises(ValueError):
        place_doors(grid, random.Random(0), wall_rule="outer")
    with pytest.raises(ValueError):
        place_doors(grid, random.Random(0), mode="drill")


def test_apply_door_converts_room_flanks():
    grid = parse_ascii("""\
#####
#000#
#000#
#000#
#####
""")
    room = Room(0, (1, 1), grid)
    converted = apply_door(grid, DoorSite((2, 2), "x", (0, 0)))
    assert converted == [(2, 1), (2, 3)]
    assert grid.get(2, 2) == DOOR
    assert grid.get(2, 1) == INTERIOR_WALL
    assert grid.get(2, 3) == INTERIOR_WALL
    assert grid.get(1, 2) == 0
    assert grid.get(3, 2) == 0
    assert (2, 1) not in room.tiles
    assert (2, 3) not in room.tiles
    assert (1, 2) in room.tiles


def test_apply_door_leaves_wall_and_border_flanks_alone():
    grid = parse_ascii("""\
#####
#0*1#
#001#
#011#
#####
""")
    # Only the room flank at (2, 2) is converted and returned.
    assert apply_door(grid, DoorSite((2, 1), "x", (0, 1))) == [(2, 2)]
    assert grid.get(2, 1) == DOOR
    assert grid.get(2, 0) == EXTERIOR_WALL
    assert grid.get(2, 2) == INTERIOR_WALL
    # Both flanks are interior walls already.
    grid = parse_ascii(PLAN_ONE_SITE)
    assert apply_door(grid, DoorSite((3, 2), "x", (0, 1))) == []
    assert grid.get(3, 1) == grid.get(3, 3) == INTERIOR_WALL


def test_place_doors_on_one_site_fixture():
    grid = parse_ascii(PLAN_ONE_SITE)
    placed = place_doors(grid, random.Random(7))
    assert placed == [DoorSite((3, 2), "x", (0, 1))]
    assert grid.get(3, 2) == DOOR
    assert grid.get(3, 1) == INTERIOR_WALL
    assert grid.get(3, 3) == INTERIOR_WALL


@pytest.mark.parametrize("mode", ["sweep", "saturate"])
def test_placed_doors_replay_as_legal_sites(mode):
    for seed in range(15):
        grid, rooms = _grown(seed)
        replay = grid.copy()
        placed = place_doors(grid, derive_rng(seed, "doors"),
                             rooms=rooms, mode=mode)
        positions = [site.position for site in placed]
        assert len(set(positions)) == len(positions)
        for site in placed:
            assert site in legal_door_sites(replay)
            assert site_is_legal(replay, site, "any")
            apply_door(replay, site)
        assert replay == grid


def test_saturate_exhausts_every_site():
    for seed in range(10):
        grid, rooms = _grown(seed)
        place_doors(grid, derive_rng(seed, "doors"), rooms=rooms,
                    mode="saturate")
        assert legal_door_sites(grid) == set()


def test_door_stages_ignore_the_rooms_argument():
    # Rooms read their tiles off the plan, so handing them to the door
    # stages, positionally as perfbench's compose_building does, changes
    # no door, report or tile. Interior-only walls on a narrow floor
    # leave some plans for repair to join.
    repaired = 0
    for mode in ("sweep", "saturate"):
        for seed in range(15):
            runs = []
            for rooms_arg in (True, False):
                grid, rooms = _grown(seed, 15, 6, 5)
                doors_rng = derive_rng(seed, "doors")
                repair_rng = derive_rng(seed, "repair")
                if rooms_arg:
                    placed = place_doors(grid, doors_rng, rooms, "interior",
                                         mode)
                    report = repair_connectivity(grid, repair_rng, rooms)
                else:
                    placed = place_doors(grid, doors_rng,
                                         wall_rule="interior", mode=mode)
                    report = repair_connectivity(grid, repair_rng)
                runs.append((placed, report, grid,
                             [room.tiles for room in rooms]))
            assert runs[0] == runs[1]
            repaired += report.repairs_applied
    assert repaired  # some seeds needed a repair


def test_place_doors_deterministic():
    grid_a, rooms_a = _grown(42)
    grid_b, rooms_b = _grown(42)
    doors_a = place_doors(grid_a, derive_rng(9, "doors"), rooms=rooms_a)
    doors_b = place_doors(grid_b, derive_rng(9, "doors"), rooms=rooms_b)
    assert doors_a == doors_b
    assert grid_a == grid_b


def test_sweep_visits_each_starting_wall_once():
    # A sweep can never place more doors than there were walls to visit.
    for seed in range(10):
        grid, _ = _grown(seed)
        walls = grid.count(INTERIOR_WALL)
        placed = place_doors(grid, derive_rng(seed, "doors"))
        assert len(placed) <= walls


def test_entrance_on_only_candidate():
    grid = parse_ascii("""\
#####
#*0*#
#***#
#***#
#####
""")
    for seed in range(5):
        g = grid.copy()
        assert place_exterior_door(g, random.Random(seed)) == (2, 0)
        assert g.get(2, 0) == EXTERIOR_DOOR


def test_entrance_properties():
    for seed in range(20):
        grid, _ = _grown(seed)
        pos = place_exterior_door(grid, derive_rng(seed, "entrance"))
        x, z = pos
        ring = border(grid)
        assert pos in ring
        assert pos not in ((0, 0), (grid.width - 1, 0),
                           (0, grid.depth - 1),
                           (grid.width - 1, grid.depth - 1))
        assert grid.get(x, z) == EXTERIOR_DOOR
        inner = [n for n in neighbors(grid, x, z) if n not in ring]
        assert len(inner) == 1
        assert grid.get(*inner[0]) >= 0
        assert grid.entrance() == pos


def entrance_oracle(grid, rng):
    """The entrance as a draw over the (x, z)-sorted non-corner border
    tiles that have a room tile behind them, or None if there are none."""
    inside = set(interior(grid))
    candidates = []
    for x, z in border(grid):
        inner = [n for n in neighbors(grid, x, z) if n in inside]
        if len(neighbors(grid, x, z)) == 3 and grid.get(*inner[0]) >= 0:
            candidates.append((x, z))
    return rng.choice(candidates) if candidates else None


def test_entrance_matches_the_oracle():
    pick = random.Random(5)
    for seed in range(300):
        width, depth = pick.randint(5, 30), pick.randint(5, 30)
        if seed % 2:
            grid, _ = _grown(seed, width, depth, pick.randint(1, 12))
        else:  # arbitrary interiors, rooms anywhere or nowhere
            grid = FloorGrid(width, depth)
            palette = pick.choice([[INTERIOR_WALL, DOOR, 0, 1, 2],
                                   [INTERIOR_WALL] * 30 + [DOOR, 3],
                                   [INTERIOR_WALL, DOOR]])
            for x, z in interior(grid):
                grid.put(x, z, pick.choice(palette))
        expected = entrance_oracle(grid, derive_rng(seed, "entrance"))
        carved = grid.copy()
        if expected is None:
            with pytest.raises(EntranceError):
                place_exterior_door(carved, derive_rng(seed, "entrance"))
            continue
        assert place_exterior_door(
            carved, derive_rng(seed, "entrance")) == expected
        grid.put(*expected, EXTERIOR_DOOR)
        assert carved == grid


def test_entrance_fails_when_no_room_touches_border():
    grid = parse_ascii("""\
#####
#***#
#***#
#***#
#####
""")
    with pytest.raises(EntranceError):
        place_exterior_door(grid, random.Random(0))


def test_components_match_flood_fill_oracle():
    for seed in range(20):
        grid, rooms = _grown(seed)
        place_doors(grid, derive_rng(seed, "doors"), rooms=rooms)
        report = connected_components(grid)
        assert report.component_count == len(passable_components(grid))


SIDES = {"x = 0": lambda w, d, x, z: x == 0,
         "x = w - 1": lambda w, d, x, z: x == w - 1,
         "z = 0": lambda w, d, x, z: z == 0,
         "z = d - 1": lambda w, d, x, z: z == d - 1}


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("width,depth", [(9, 9), (7, 12), (13, 6)])
def test_components_match_oracle_with_entrance_on_each_side(width, depth,
                                                             side):
    # Border tiles take the coordinate path: on them, index offsets wrap
    # to the far side of the floor or the next column.
    on_side = SIDES[side]
    for seed in range(4):
        grid, rooms = _grown(seed, width, depth)
        place_doors(grid, derive_rng(seed, "doors"), rooms=rooms)
        for x, z in border(grid):
            corner = len(neighbors(grid, x, z)) == 2
            if corner or not on_side(width, depth, x, z):
                continue
            carved = grid.copy()
            carved.put(x, z, EXTERIOR_DOOR)
            report = connected_components(carved)
            assert report.component_count == len(passable_components(carved))


@pytest.mark.parametrize("width,depth", [(9, 9), (7, 12), (13, 6)])
def test_components_keep_border_openings_apart(width, depth):
    # Every non-corner border tile is an opening and the interior is all
    # wall, so each side is its own component. Index offsets on a border
    # tile would reach the far end of the next or previous column, or the
    # opposite side, and join them.
    grid = FloorGrid(width, depth)
    wallify_leftovers(grid)
    for x, z in border(grid):
        if len(neighbors(grid, x, z)) == 3:
            grid.put(x, z, EXTERIOR_DOOR)
    report = connected_components(grid)
    assert report.component_count == len(passable_components(grid)) == 4


def test_report_connected_property():
    grid = parse_ascii(PLAN_ONE_SITE)
    assert connected_components(grid).component_count == 2
    apply_door(grid, DoorSite((3, 2), "x", (0, 1)))
    report = connected_components(grid)
    assert report.component_count == 1
    assert report.connected


def test_repair_leaves_connected_plan_alone():
    grid = parse_ascii(PLAN_ONE_SITE)
    apply_door(grid, DoorSite((3, 2), "x", (0, 1)))
    before = grid.copy()
    report = repair_connectivity(grid, random.Random(3))
    assert report.repairs_applied == 0
    assert grid == before


def test_repair_bridges_two_rooms_with_one_door():
    for seed in range(5):
        grid = parse_ascii(PLAN_ONE_SITE)
        report = repair_connectivity(grid, random.Random(seed))
        assert report.repairs_applied == 1
        assert report.connected
        assert grid.get(3, 2) == DOOR


def test_repair_fails_behind_two_thick_walls():
    grid = parse_ascii(PLAN_SEALED)
    with pytest.raises(RepairError):
        repair_connectivity(grid, random.Random(0))


def test_repair_connects_many_seeds():
    # Doorless grown plans are maximally fragmented; repair must still
    # stitch every one of them together.
    for seed in range(15):
        grid, rooms = _grown(seed, 11, 7, 4)
        report = repair_connectivity(grid, derive_rng(seed, "repair"),
                                     rooms=rooms)
        assert report.connected
        assert len(passable_components(grid)) <= 1
        for room in rooms:
            assert room.tiles == set(grid.find(room.id))


def _oracle_bridges(grid):
    # (position, axis) of every wall tile whose two through sides lie in
    # different components of the flood-fill oracle.
    comp_of = {t: k for k, comp in enumerate(passable_components(grid))
               for t in comp}
    bridges = set()
    for x, z in interior(grid):
        if grid.get(x, z) != INTERIOR_WALL:
            continue
        for axis, a, b in (("x", (x - 1, z), (x + 1, z)),
                           ("z", (x, z - 1), (x, z + 1))):
            if a in comp_of and b in comp_of and comp_of[a] != comp_of[b]:
                bridges.add(((x, z), axis))
    return bridges


def _repair_draws(grid, rng):
    """Run repair on grid; return, for each repair, the grid before it
    and the sites (as position and axis) it drew the door from."""
    draws = []
    draw = rng.choice

    def choice(keys):
        # Site keys are 2 * (x * depth + z) + (axis == "z").
        draws.append((grid.copy(), [(divmod(k >> 1, grid.depth), "xz"[k & 1])
                                    for k in keys]))
        return draw(keys)

    rng.choice = choice
    try:
        repair_connectivity(grid, rng)
    except RepairError:
        assert not _oracle_bridges(grid)
    return draws


def test_repair_bridges_join_different_oracle_components():
    # Doorless plans grown among random wall obstacles, and PLAN_SEALED,
    # where no wall tile bridges two components and repair must give up.
    grids = [parse_ascii(PLAN_SEALED)]
    for seed in range(16):
        grid = FloorGrid(13, 9)
        rng = random.Random(seed)
        for x, z in interior(grid):
            if rng.random() < 0.15:
                grid.put(x, z, INTERIOR_WALL)
        rooms = place_rooms(grid, 6, derive_rng(seed, "rooms"))
        grow_rooms(grid, rooms, derive_rng(seed, "growth"))
        wallify_leftovers(grid)
        grids.append(grid)
    repairs = 0
    for grid in grids:
        for before, sites in _repair_draws(grid, random.Random(0)):
            assert len(sites) == len(set(sites))
            assert set(sites) == _oracle_bridges(before)
            repairs += 1
    assert repairs > len(grids)
