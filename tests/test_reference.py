"""The library against the coordinate-only reference in reference.py.

Every building `generate_building` makes must equal the one the
reference replays from the rules: the plan, the rooms, the doors in
order, the entrance, the component count before repair, the repairs,
the facades and the voxels. A seed that fails must fail in both, with
the same stage error. `python tests/reference.py --check` runs the same
comparison on fixed 40x40 and 64x64 floors, which are too slow to
replay here.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from blockhouse.doors import DOOR_MODES, WALL_RULES, RepairError
from blockhouse.facade import CaParams
from blockhouse.pipeline import RunConfig, generate_building
from blockhouse.rooms import RoomCountPolicy

from helpers import UNCONNECTABLE
from reference import mismatch, reference_building


@st.composite
def configs(draw):
    """Floors 5-30 on each side, heights 3-8, both door modes and wall
    rules, any automaton settings, and formula or 1-40 rooms, capped at
    the interior."""
    width = draw(st.integers(5, 30))
    depth = draw(st.integers(5, 30))
    cap = min(40, (width - 2) * (depth - 2))
    rooms = draw(st.none() | st.integers(1, cap))
    ca = CaParams(draw(st.floats(0.0, 1.0)), draw(st.integers(0, 12)),
                  frozenset(draw(st.sets(st.integers(0, 5)))))
    return RunConfig(width=width, depth=depth,
                     height=draw(st.integers(3, 8)),
                     room_policy=RoomCountPolicy(rooms),
                     max_attempts=draw(st.sampled_from([1, 3, 100])), ca=ca,
                     wall_rule=draw(st.sampled_from(WALL_RULES)),
                     door_mode=draw(st.sampled_from(DOOR_MODES))).validate()


# The fixed @seed pins the examples: derandomize alone derives them from
# the test's source, so an edit to its body would swap what it covers.
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@seed(8)
@given(configs(), st.integers(0, 2**64 - 1))
def test_library_builds_what_the_reference_builds(config, seed):
    assert mismatch(generate_building, config, seed) is None


@pytest.mark.parametrize("config, seed", UNCONNECTABLE)
def test_reference_fails_the_unconnectable_seeds_too(config, seed):
    with pytest.raises(RepairError):
        reference_building(config, seed)
