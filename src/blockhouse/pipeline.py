"""Single-building pipeline: grow a plan, cut doors, run the facade
automaton, and assemble the voxel model.

Every stage draws from its own named sub-stream of the building seed,
so a change in how many numbers one stage consumes never shifts the
randomness of the stages after it.
"""

from __future__ import annotations

import time
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
# The config keys that hold plain integers, each also a CLI flag.
INT_KEYS = ("width", "depth", "height", "seed", "max_attempts")


def _require(key: str, value, types: tuple = (int,),
             what: str = "an integer") -> None:
    # An exact type test: bool is an int subclass, and 7.9 or true must
    # not pass as 7 or 1.
    if type(value) not in types:
        raise ValueError(f"config key '{key}' must be {what}, not {value!r}")


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
        for key, low, high in (("width", MIN_DIMENSION, MAX_DIMENSION),
                               ("depth", MIN_DIMENSION, MAX_DIMENSION),
                               ("height", MIN_HEIGHT, MAX_HEIGHT)):
            value = getattr(self, key)
            if value < low:
                raise DimensionError(
                    f"{key} {value} is too small (minimum {low})")
            if value > high:
                raise DimensionError(
                    f"{key} {value} is too large (maximum {high})")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts {self.max_attempts} must be at least 1")
        if self.wall_rule not in WALL_RULES:
            raise ValueError(
                f"wall rule {self.wall_rule!r} is not one of {WALL_RULES}")
        if self.door_mode not in DOOR_MODES:
            raise ValueError(
                f"door mode {self.door_mode!r} is not one of {DOOR_MODES}")
        return self

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "depth": self.depth,
            "height": self.height,
            "seed": self.seed,
            "rooms": str(self.room_policy),
            "max_attempts": self.max_attempts,
            "ca": {
                "init_glass_probability": self.ca.init_glass_probability,
                "generations": self.ca.generations,
                "glass_sums": sorted(self.ca.glass_sums),
            },
            "door_walls": self.wall_rule,
            "door_mode": self.door_mode,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build a config from a plain dict (the config-file format).
        Unknown keys are rejected so typos fail loudly."""
        data = dict(data)
        ca_data = data.pop("ca", {})
        if not isinstance(ca_data, dict):
            raise ValueError("'ca' must be an object of automaton settings")
        known_ca = {"init_glass_probability", "generations", "glass_sums"}
        bad = set(ca_data) - known_ca
        if bad:
            raise ValueError(f"unknown ca keys: {sorted(bad)}")
        ca_kwargs = dict(ca_data)
        if "generations" in ca_kwargs:
            _require("ca.generations", ca_kwargs["generations"])
        if "init_glass_probability" in ca_kwargs:
            _require("ca.init_glass_probability",
                     ca_kwargs["init_glass_probability"], (int, float),
                     "a number")
        if "glass_sums" in ca_kwargs:
            sums = ca_kwargs["glass_sums"]
            _require("ca.glass_sums", sums, (list,), "a list of integers")
            for i, v in enumerate(sums):
                _require(f"ca.glass_sums[{i}]", v)
            ca_kwargs["glass_sums"] = frozenset(sums)
        rooms_text = data.pop("rooms", None)
        kwargs: dict = {}
        for key in INT_KEYS:
            if key in data:
                value = data.pop(key)
                # Only the seed may be null (drawn at random).
                if key != "seed" or value is not None:
                    _require(key, value)
                kwargs[key] = value
        if "door_walls" in data:
            kwargs["wall_rule"] = str(data.pop("door_walls"))
        if "door_mode" in data:
            kwargs["door_mode"] = str(data.pop("door_mode"))
        if data:
            raise ValueError(f"unknown config keys: {sorted(data)}")
        if "width" not in kwargs or "depth" not in kwargs:
            raise ValueError("config needs both 'width' and 'depth'")
        if rooms_text is not None:
            kwargs["room_policy"] = RoomCountPolicy.parse(str(rooms_text))
        if ca_kwargs:
            kwargs["ca"] = CaParams(**ca_kwargs)
        return cls(**kwargs)


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
    placed = place_doors(plan, derive_rng(seed, "doors"), rooms,
                         config.wall_rule, config.door_mode)
    entrance = place_exterior_door(plan, derive_rng(seed, "entrance"))
    pre = connected_components(plan)
    if pre.component_count > 1:
        report = repair_connectivity(plan, derive_rng(seed, "repair"), rooms)
    else:
        report = pre
    facades = generate_facades(config.width, config.depth, config.height,
                               config.ca, derive_rng(seed, "facade"))
    model = assemble(plan, facades, config.height)
    elapsed = time.perf_counter() - start
    return GenerationResult(seed, plan, rooms, requested, placed, entrance,
                            pre.component_count, report, model, elapsed)
