"""Organic voxel building generator.

Floor plans grow from 2x2 room seeds one block per turn, doors are cut
wherever local wall rules allow, facades come from a neighbor-sum
cellular automaton, and the result assembles into a voxel model. All
of it is reproducible from a single integer seed.
"""

from .assembly import (
    AIR,
    DEFAULT_HEIGHT,
    DOOR_OPENING,
    FLOOR_SLAB,
    GLASS_BLOCK,
    MIN_HEIGHT,
    ROOF_SLAB,
    SOLID_WALL,
    BuildingModel,
    LayoutError,
    assemble,
    export_json,
    import_json,
    parse_ascii,
    render_ascii,
)
from .doors import (
    DEFAULT_DOOR_MODE,
    DEFAULT_WALL_RULE,
    DOOR_MODES,
    WALL_RULES,
    ConnectivityReport,
    DoorSite,
    EntranceError,
    RepairError,
    apply_door,
    connected_components,
    legal_door_sites,
    place_doors,
    place_exterior_door,
    repair_connectivity,
    wallify_leftovers,
)
from .facade import (
    FACADE_ORDER,
    GLASS,
    SOLID,
    CaParams,
    WallMatrix,
    ca_step,
    generate_facades,
    generate_wall,
    init_wall,
)
from .grid import (
    DOOR,
    EMPTY,
    EXTERIOR_DOOR,
    EXTERIOR_WALL,
    INTERIOR_WALL,
    MIN_DIMENSION,
    Coord,
    DimensionError,
    FloorGrid,
    derive_rng,
    derive_seed,
    is_passable,
    is_room,
)
from .metrics import (
    BatchError,
    BatchSummary,
    BuildingMetrics,
    building_seed,
    confidence_interval,
    measure_building,
    run_batch,
)
from .pipeline import (
    GenerationResult,
    RunConfig,
    generate_building,
)
from .rooms import (
    PlacementError,
    Room,
    RoomCountPolicy,
    grow_rooms,
    growth_candidates,
    place_rooms,
    room_count,
)

__version__ = "0.1.0"
