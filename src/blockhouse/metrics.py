"""Per-building measurements and the batch experiment harness.

A batch generates n buildings from seeds derived off one master seed,
then aggregates room-area and door-count means with 95% confidence
intervals. Because each building's seed depends only on (master seed,
index), results are identical whether the batch runs on one worker or
many.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import asdict, dataclass

from .doors import ConnectivityReport
from .grid import DOOR, FloorGrid, derive_seed
from .pipeline import RunConfig, generate_building

# 97.5th percentile of the standard normal; n=1000 makes the normal
# approximation appropriate.
Z_95 = 1.96


class BatchError(RuntimeError):
    """A building inside a batch failed; carries its index and seed."""

    def __init__(self, index: int, seed: int, cause: Exception):
        super().__init__(f"building {index} (seed {seed}) failed: {cause}")
        self.index = index
        self.seed = seed
        self.cause = cause

    def __reduce__(self):  # pool workers send it back pickled
        return type(self), (self.index, self.seed, self.cause)


@dataclass(frozen=True)
class BuildingMetrics:
    """What one finished building measures."""
    room_count: int
    room_areas: tuple[int, ...]
    avg_room_area: float
    interior_door_count: int
    connected_before_repair: bool
    repairs_applied: int
    generation_time: float


@dataclass(frozen=True)
class BatchSummary:
    """Aggregates over one batch; half-widths are 95% CIs."""
    n: int
    config: dict
    master_seed: int
    mean_avg_room_area: float
    room_area_ci95: float
    mean_door_count: float
    door_count_ci95: float
    pre_repair_connectivity_rate: float
    total_repairs: int
    total_time: float

    def to_dict(self) -> dict:
        return asdict(self)

    def format_table(self) -> str:
        rows = [
            ("buildings", f"{self.n}"),
            ("mean room area", f"{self.mean_avg_room_area:.2f} "
                               f"± {self.room_area_ci95:.2f}"),
            ("mean door count", f"{self.mean_door_count:.2f} "
                                f"± {self.door_count_ci95:.2f}"),
            ("pre-repair connectivity",
             f"{self.pre_repair_connectivity_rate:.3f}"),
            ("repairs applied", f"{self.total_repairs}"),
            ("total time", f"{self.total_time:.2f} s"),
        ]
        label_width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{label_width}}  {value}"
                         for label, value in rows)


def confidence_interval(samples: list[float]) -> tuple[float, float]:
    """Sample mean and its 95% half-width (normal approximation,
    sample standard deviation). A single sample has half-width 0."""
    # Imported here: statistics pulls in fractions and decimal, which
    # only a batch summary needs.
    import statistics

    if not samples:
        raise ValueError("no samples to summarize")
    mean = statistics.fmean(samples)
    if len(samples) == 1:
        return mean, 0.0
    s = statistics.stdev(samples)
    return mean, Z_95 * s / math.sqrt(len(samples))


def measure_building(plan: FloorGrid, report: ConnectivityReport,
                     elapsed: float,
                     requested_rooms: int | None = None) -> BuildingMetrics:
    """Read the metrics off a finished plan.

    Room areas come from final tile occupancy, so they already account
    for the tiles door placement converted to wall. When the requested
    room count is known, rooms that were dropped at placement (or eaten
    entirely by conversions) contribute a zero-area entry, so the average
    is over the rooms asked for, not just the survivors. Door count is
    the interior doors only; the entrance is not included.
    """
    counts = Counter(plan.cells)
    surviving = sorted(tile for tile in counts if tile >= 0)
    if requested_rooms is None:
        ids: list[int] = surviving
    else:
        ids = list(range(max(requested_rooms,
                             max(surviving, default=-1) + 1)))
    areas = tuple(counts[rid] for rid in ids)
    # What statistics.fmean computes, without importing it.
    avg = math.fsum(areas) / len(areas) if areas else 0.0
    return BuildingMetrics(
        room_count=len(surviving),
        room_areas=areas,
        avg_room_area=avg,
        interior_door_count=counts[DOOR],
        connected_before_repair=report.repairs_applied == 0,
        repairs_applied=report.repairs_applied,
        generation_time=elapsed,
    )


def building_seed(master_seed: int, index: int) -> int:
    """The seed building `index` of a batch runs with."""
    return derive_seed(master_seed, "building", index)


def _measure_one(config: RunConfig, master_seed: int,
                 index: int) -> BuildingMetrics:
    seed = building_seed(master_seed, index)
    try:
        result = generate_building(config, seed)
        return measure_building(result.plan, result.report, result.elapsed,
                                result.requested_rooms)
    except Exception as exc:
        raise BatchError(index, seed, exc) from exc


def run_batch(config: RunConfig, n: int, master_seed: int,
              workers: int = 1) -> BatchSummary:
    """Generate n buildings and aggregate their metrics.

    workers > 1 spreads buildings over a pool of at most n processes;
    seeds are per-index, so the summary matches the single-worker run
    exactly (timing aside).
    """
    config.validate()
    if n < 1:
        raise ValueError(f"batch size {n} must be at least 1")
    # A pool starts all its processes up front, busy or not.
    workers = min(workers, n)
    start = time.perf_counter()
    if workers <= 1:
        per_building = [_measure_one(config, master_seed, i)
                        for i in range(n)]
    else:
        # Imported here: the pool pulls in multiprocessing, pickle and
        # socket, which a single-worker run never needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_building = list(pool.map(
                _measure_one, [config] * n, [master_seed] * n, range(n),
                chunksize=max(1, n // (workers * 8))))
    total_time = time.perf_counter() - start

    area_mean, area_ci = confidence_interval(
        [m.avg_room_area for m in per_building])
    door_mean, door_ci = confidence_interval(
        [float(m.interior_door_count) for m in per_building])
    connected = sum(1 for m in per_building if m.connected_before_repair)
    return BatchSummary(
        n=n,
        config=config.to_dict(),
        master_seed=master_seed,
        mean_avg_room_area=area_mean,
        room_area_ci95=area_ci,
        mean_door_count=door_mean,
        door_count_ci95=door_ci,
        pre_repair_connectivity_rate=connected / n,
        total_repairs=sum(m.repairs_applied for m in per_building),
        total_time=total_time,
    )
