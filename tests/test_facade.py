"""Facade automaton: parameters, seeding, stepping, full walls."""

import random

import pytest

from blockhouse.facade import (
    FACADE_ORDER,
    CaParams,
    WallMatrix,
    generate_facades,
    init_wall,
)

from helpers import (
    GLASS,
    SOLID,
    ca_oracle_step,
    ca_step,
    cells_of,
    generated_wall,
    wall_cell,
    wall_of,
)


def test_params_defaults():
    params = CaParams()
    assert params.init_glass_probability == 0.25
    assert params.generations == 10
    assert params.glass_sums == frozenset({2, 3})


def test_params_normalize_glass_sums():
    params = CaParams(glass_sums=[3, 2, 2])
    assert params.glass_sums == frozenset({2, 3})
    assert isinstance(params.glass_sums, frozenset)


def test_params_validation():
    with pytest.raises(ValueError):
        CaParams(init_glass_probability=-0.1)
    with pytest.raises(ValueError):
        CaParams(init_glass_probability=1.5)
    with pytest.raises(ValueError):
        CaParams(generations=-1)
    with pytest.raises(ValueError, match=r"too large \(maximum 1000\)"):
        CaParams(generations=1001)
    assert CaParams(generations=1000).generations == 1000
    with pytest.raises(ValueError):
        CaParams(glass_sums={2, 6})


def test_matrix_defaults_to_solid():
    wall = WallMatrix(3, 4)
    assert wall.bits.bit_count() == 0
    assert wall.rows() == ["0000", "0000", "0000"]
    with pytest.raises(ValueError):
        WallMatrix(0, 4)
    with pytest.raises(ValueError):
        WallMatrix(3, 0)


@pytest.mark.parametrize("bits", [1 << 4, 1 << 15, -1, -(1 << 20)])
def test_matrix_rejects_bits_outside_its_cells(bits):
    # 3x4: bits 4, 9 and 14 are spare, and 15 is past the top row.
    assert WallMatrix(3, 4, 0b1111_01111_01111).bits.bit_count() == 12
    with pytest.raises(ValueError, match="outside"):
        WallMatrix(3, 4, bits)


def test_matrix_rows_round_trip():
    wall = WallMatrix.from_rows(["0101", "1100", "0011"])
    assert wall.height == 3
    assert wall.length == 4
    assert wall_cell(wall, 0, 1) == GLASS
    assert wall_cell(wall, 1, 3) == SOLID
    assert wall.bits.bit_count() == 6
    assert WallMatrix.from_rows(wall.rows()) == wall


def test_init_wall_probability_extremes():
    rng = random.Random(1)
    empty = init_wall(4, 6, CaParams(init_glass_probability=0.0), rng)
    assert empty.bits.bit_count() == 0
    full = init_wall(4, 6, CaParams(init_glass_probability=1.0), rng)
    assert full.bits.bit_count() == 24


def test_init_wall_glass_fraction():
    wall = init_wall(100, 100, CaParams(), random.Random(77))
    fraction = wall.bits.bit_count() / (100 * 100)
    assert abs(fraction - 0.25) < 0.02


def test_all_solid_is_a_fixed_point():
    wall = WallMatrix(4, 5)
    assert ca_step(wall, CaParams()) == wall


def test_lone_glass_cell_dies():
    wall = WallMatrix.from_rows(["000", "010", "000"])
    assert ca_step(wall, CaParams()).bits.bit_count() == 0


def test_glass_pair_survives():
    # Each cell sees itself plus one glass neighbor: sum 2, stays glass.
    wall = WallMatrix.from_rows(["11"])
    assert ca_step(wall, CaParams()) == wall


def test_edges_pad_with_solid():
    # A lone 1x1 glass cell sums to 1 because the outside contributes 0.
    wall = WallMatrix.from_rows(["1"])
    assert ca_step(wall, CaParams()).rows() == ["0"]
    zero_sums = CaParams(glass_sums={0})
    assert ca_step(WallMatrix(2, 2), zero_sums).bits.bit_count() == 4


def test_step_worked_example():
    wall = WallMatrix.from_rows([
        "0110",
        "0100",
        "0001",
    ])
    # Sums: row 0 -> 1,3,2,1  row 1 -> 1,2,2,1  row 2 -> 0,1,1,1
    assert ca_step(wall, CaParams()).rows() == [
        "0110",
        "0110",
        "0000",
    ]


def test_step_matches_oracle_on_random_walls():
    rng = random.Random(5)
    params = CaParams()
    for _ in range(200):
        cells = [[rng.randint(0, 1) for _ in range(7)] for _ in range(5)]
        wall = wall_of(cells)
        assert cells_of(ca_step(wall, params)) == ca_oracle_step(
            wall, params.glass_sums)


# Single rows and columns, and rows longer than 64 cells, so the packed
# step's shifts cross the int's internal digits and machine words.
ODD_SHAPES = [(1, 1), (1, 9), (9, 1), (1, 70), (70, 1), (3, 70), (70, 3),
              (5, 7), (4, 64), (2, 65)]


@pytest.mark.parametrize("mask", range(64))
def test_step_matches_oracle_for_every_glass_sum_set(mask):
    sums = frozenset(k for k in range(6) if mask >> k & 1)
    params = CaParams(glass_sums=sums)
    rng = random.Random(mask)
    for h, l in ODD_SHAPES:
        for density in (0.2, 0.5, 0.8):
            cells = [[int(rng.random() < density) for _ in range(l)]
                     for _ in range(h)]
            wall = wall_of(cells)
            stepped = ca_step(wall, params)
            assert cells_of(stepped) == ca_oracle_step(
                wall, sums), f"{h}x{l} glass_sums {sorted(sums)}"
            # No bit outside the cells: the packed form is canonical.
            assert WallMatrix.from_rows(stepped.rows()) == stepped


def test_packed_walls_round_trip_through_rows():
    rng = random.Random(8)
    for h, l in ODD_SHAPES:
        for p in (0.0, 0.3, 1.0):
            params = CaParams(init_glass_probability=p, generations=2,
                              glass_sums={0, 1, 4, 5})
            for wall in (init_wall(h, l, params, rng),
                         generated_wall(h, l, params, rng)):
                rows = wall.rows()
                assert WallMatrix.from_rows(rows) == wall
                assert wall.bits.bit_count() == sum(row.count("1")
                                                    for row in rows)
                assert rows == ["".join(str(wall_cell(wall, r, c))
                                        for c in range(l))
                                for r in range(h)]


@pytest.mark.parametrize("rows", [
    [], [""], ["", ""], ["01", "1"], ["0", "01"], ["012"], ["0_1"],
    [" 01"], ["01 "], ["+1"], ["-1"], ["0b1"], ["\uff11"]])
def test_from_rows_rejects_malformed_walls(rows):
    with pytest.raises(ValueError):
        WallMatrix.from_rows(rows)


def test_generate_wall_zero_generations_is_the_seed():
    params = CaParams(generations=0)
    raw = generated_wall(6, 9, params, random.Random(42))
    seeded = init_wall(6, 9, params, random.Random(42))
    assert raw == seeded


def test_generate_wall_deterministic():
    a = generated_wall(5, 12, CaParams(), random.Random(3))
    b = generated_wall(5, 12, CaParams(), random.Random(3))
    assert a == b
    c = generated_wall(5, 12, CaParams(), random.Random(4))
    assert a != c


def test_generated_walls_settle_into_sparse_glass():
    total = 0
    for seed in range(50):
        wall = generated_wall(8, 20, CaParams(), random.Random(seed))
        glass = wall.bits.bit_count()
        total += glass
        assert glass < 8 * 20
    assert total > 0


def test_facades_shapes_and_keys():
    walls = generate_facades(9, 6, 4, CaParams(), random.Random(11))
    assert set(walls) == set(FACADE_ORDER)
    assert walls["north"].length == 9
    assert walls["south"].length == 9
    assert walls["east"].length == 6
    assert walls["west"].length == 6
    assert all(w.height == 4 for w in walls.values())


def test_facades_deterministic_and_drawn_in_order():
    a = generate_facades(9, 6, 4, CaParams(), random.Random(11))
    b = generate_facades(9, 6, 4, CaParams(), random.Random(11))
    assert a == b
    # North is drawn first, so it alone matches a fresh stream.
    north = generated_wall(4, 9, CaParams(), random.Random(11))
    assert a["north"] == north
