"""Organic voxel building generator.

Floor plans grow from 2x2 room seeds one block per turn, doors are cut
wherever local wall rules allow, facades come from a neighbor-sum
cellular automaton, and the result assembles into a voxel model. All
of it is reproducible from a single integer seed.

The root exports the library entry points, the stages the benchmark
composes and the errors the entry points raise; import anything else
from its module.
"""

from .assembly import (
    BuildingModel,
    LayoutError,
    assemble,
    export_json,
    import_json,
    render_ascii,
)
from .doors import (
    EntranceError,
    RepairError,
    connected_components,
    legal_door_sites,
    place_doors,
    place_exterior_door,
    repair_connectivity,
    wallify_leftovers,
)
from .facade import FACADE_ORDER, generate_facades
from .grid import (
    DOOR,
    EXTERIOR_DOOR,
    INTERIOR_WALL,
    DimensionError,
    FloorGrid,
    derive_rng,
)
from .metrics import (
    BatchError,
    BuildingMetrics,
    building_seed,
    measure_building,
    run_batch,
)
from .pipeline import GenerationResult, RunConfig, generate_building
from .rooms import PlacementError, RoomCountPolicy, grow_rooms, place_rooms

__version__ = "0.1.0"
