"""Single-building pipeline: grow a plan, cut doors, run the facade
automaton, and assemble the voxel model.

Every stage draws from its own named sub-stream of the building seed,
so a change in how many numbers one stage consumes never shifts the
randomness of the stages after it.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, replace

from .assembly import DEFAULT_HEIGHT, MIN_HEIGHT, BuildingModel, assemble
from .doors import (
    DEFAULT_DOOR_MODE,
    DEFAULT_WALL_RULE,
    DOOR_MODES,
    WALL_RULES,
    ConnectivityReport,
    DoorSite,
    connected_components,
    place_doors,
    place_exterior_door,
    repair_connectivity,
    wallify_leftovers,
)
from .facade import CaParams, generate_facades
from .grid import MIN_DIMENSION, Coord, DimensionError, FloorGrid, derive_rng
from .rooms import (
    DEFAULT_MAX_ATTEMPTS,
    Room,
    RoomCountPolicy,
    grow_rooms,
    place_rooms,
)


# Floors up to a GDMC build area's 256 blocks; the height + 2 levels
# (floor and roof included) must fit Minecraft's 256-block height.
MAX_DIMENSION = 256
MAX_HEIGHT = 254

# A config value's JSON types, keyed by how error messages name them.
_JSON_TYPES = {"an integer": (int,), "a number": (int, float),
               "a string": (str,), "a list of integers": (list,)}

# One row of CONFIG_KEYS: a key's path in the config file ("ca.<name>"
# nests under "ca"), the RunConfig (for ca keys, CaParams) field it sets,
# CLI flag, JSON type, the inclusive (low, high) bounds (high None: no
# maximum) or allowed strings that validate checks (None: neither;
# CaParams checks its own), CLI help and, where the flag's name will not
# do, metavar. Not a dataclass: building one adds to every import's time.
ConfigKey = namedtuple("ConfigKey", "path field flag kind allowed help "
                       "metavar", defaults=[None])

# In config-file order: to_dict writes the keys, and the CLI lists the
# flags, in this order.
CONFIG_KEYS = (
    ConfigKey("width", "width", "--width", "an integer",
              (MIN_DIMENSION, MAX_DIMENSION), "floor width in blocks"),
    ConfigKey("depth", "depth", "--depth", "an integer",
              (MIN_DIMENSION, MAX_DIMENSION), "floor depth in blocks"),
    ConfigKey("height", "height", "--height", "an integer",
              (MIN_HEIGHT, MAX_HEIGHT), "wall height in blocks"),
    ConfigKey("seed", "seed", "--seed", "an integer", None,
              "random seed; drawn from entropy when omitted"),
    ConfigKey("rooms", "room_policy", "--rooms", "a string", None,
              "room count policy: 'formula' or 'explicit:<n>'", "POLICY"),
    ConfigKey("max_attempts", "max_attempts", "--max-attempts", "an integer",
              (1, None), "placement attempts per room"),
    ConfigKey("ca.init_glass_probability", "init_glass_probability",
              "--ca-glass-prob", "a number", None,
              "initial glass probability"),
    ConfigKey("ca.generations", "generations", "--ca-generations",
              "an integer", None, "automaton generations"),
    ConfigKey("ca.glass_sums", "glass_sums", "--ca-glass-sums",
              "a list of integers", None, "comma-separated neighbor sums "
              "that turn a cell to glass", "SUMS"),
    ConfigKey("door_walls", "wall_rule", "--door-walls", "a string",
              WALL_RULES, "which walls satisfy a door's adjacent-wall rule"),
    ConfigKey("door_mode", "door_mode", "--door-mode", "a string",
              DOOR_MODES, "door placement: one random pass over the walls, "
              "or saturate every legal site"),
)


def _require(path: str, value, kind: str) -> None:
    # An exact type test: bool is an int subclass, and 7.9 or true must
    # not pass as 7 or 1.
    if type(value) not in _JSON_TYPES[kind]:
        raise ValueError(f"config key '{path}' must be {kind}, not {value!r}")
    for i, item in enumerate(value if kind == "a list of integers" else ()):
        _require(f"{path}[{i}]", item, "an integer")


@dataclass(frozen=True)
class RunConfig:
    """Everything one generation run depends on, validated up front."""
    width: int
    depth: int
    height: int = DEFAULT_HEIGHT
    seed: int | None = None
    room_policy: RoomCountPolicy = RoomCountPolicy()
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    ca: CaParams = CaParams()
    wall_rule: str = DEFAULT_WALL_RULE
    door_mode: str = DEFAULT_DOOR_MODE

    def validate(self) -> "RunConfig":
        """Check every field against the stage preconditions; returns
        self so calls can chain."""
        for key in CONFIG_KEYS:
            if key.allowed is None:
                continue
            value = getattr(self, key.field)
            if key.kind == "a string":
                if value not in key.allowed:
                    raise ValueError(f"{key.path} {value!r} is not one of "
                                     f"{key.allowed}")
                continue
            low, high = key.allowed
            if value < low:
                raise DimensionError(
                    f"{key.path} {value} is too small (minimum {low})")
            if high is not None and value > high:
                raise DimensionError(
                    f"{key.path} {value} is too large (maximum {high})")
        # Unplaced rooms are still counted, so cap requests at the interior.
        rooms = self.room_policy.count_for(self.width, self.depth)
        tiles = (self.width - 2) * (self.depth - 2)
        if rooms > tiles:
            raise ValueError(f"rooms {rooms} is more than the {tiles} interior"
                             f" tiles of a {self.width}x{self.depth} floor")
        return self

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        data: dict = {}
        for key in CONFIG_KEYS:
            section, _, name = key.path.rpartition(".")
            value = getattr(self.ca if section else self, key.field)
            if key.kind == "a string":
                value = str(value)  # the room policy's text
            elif key.kind == "a list of integers":
                value = sorted(value)
            (data.setdefault(section, {}) if section else data)[name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build a config from a plain dict (the config-file format).
        Unknown keys are rejected so typos fail loudly."""
        data = dict(data)
        ca = data.pop("ca", {})
        if not isinstance(ca, dict):
            raise ValueError("'ca' must be an object of automaton settings")
        # The keys of each section left to read, and the fields read.
        left = {"": data, "ca": dict(ca)}
        fields: dict = {"": {}, "ca": {}}
        for key in CONFIG_KEYS:
            section, _, name = key.path.rpartition(".")
            if name in left[section]:
                value = left[section].pop(name)
                # Only the seed may be null (drawn at random).
                if value is not None or key.path != "seed":
                    _require(key.path, value, key.kind)
                if key.field == "room_policy":
                    value = RoomCountPolicy.parse(value)
                fields[section][key.field] = value
        if left["ca"]:
            raise ValueError(f"unknown ca keys: {sorted(left['ca'])}")
        if data:
            raise ValueError(f"unknown config keys: {sorted(data)}")
        if "width" not in fields[""] or "depth" not in fields[""]:
            raise ValueError("config needs both 'width' and 'depth'")
        return cls(**fields[""], ca=CaParams(**fields["ca"]))


@dataclass
class GenerationResult:
    """Everything produced for one building, plus its provenance."""
    seed: int
    plan: FloorGrid
    rooms: list[Room]
    requested_rooms: int
    placed_doors: list[DoorSite]
    entrance: Coord
    pre_repair_components: int
    report: ConnectivityReport
    model: BuildingModel
    elapsed: float


def generate_building(config: RunConfig, seed: int) -> GenerationResult:
    """The full pipeline for one seed: seed rooms, grow, wall off
    leftovers, place doors, carve the entrance, check and if needed
    repair connectivity, then run the facade automaton and assemble the
    voxel model."""
    start = time.perf_counter()
    plan = FloorGrid(config.width, config.depth)
    requested = config.room_policy.count_for(config.width, config.depth)
    rooms = place_rooms(plan, requested, derive_rng(seed, "rooms"),
                        config.max_attempts)
    grow_rooms(plan, rooms, derive_rng(seed, "growth"))
    wallify_leftovers(plan)
    placed = place_doors(plan, derive_rng(seed, "doors"),
                         wall_rule=config.wall_rule, mode=config.door_mode)
    entrance = place_exterior_door(plan, derive_rng(seed, "entrance"))
    pre = connected_components(plan)
    if pre.component_count > 1:
        report = repair_connectivity(plan, derive_rng(seed, "repair"))
    else:
        report = pre
    facades = generate_facades(config.width, config.depth, config.height,
                               config.ca, derive_rng(seed, "facade"))
    model = assemble(plan, facades, config.height)
    elapsed = time.perf_counter() - start
    return GenerationResult(seed, plan, rooms, requested, placed, entrance,
                            pre.component_count, report, model, elapsed)
