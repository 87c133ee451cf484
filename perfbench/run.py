"""Benchmark for blockhouse: per-building latency and throughput on four
workloads, and per-stage times from spans taken outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload batch_7x7 --seed 1 --seconds 25 \
        --trace 0

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
is a separate traced run that prints the per-layer metrics. `--workload
all` runs every workload, each in its own process. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it are a readable report. The
result with its environment, load averages, ratio bases and failures,
and (traced) every span, are also written under `.bench_results/`.
`perfbench/selftest.py` checks the benchmark itself, and
`perfbench/record_reference.py` re-records `reference.json`.

Each workload is a closed loop with one client: the next building starts
only after the previous one finished and was checked. Per-building seeds
come from `blockhouse.building_seed(--seed, index)`, so a seed fixes the
inputs. Every building is checked outside the timed region (see
check.py). A run starts by regenerating the recorded master seed's first
buildings and comparing them with reference.json; that pass is also the
warm-up.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_results"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

sys.path.insert(0, str(SRC))
try:
    import blockhouse
except ModuleNotFoundError:
    raise SystemExit(f"no blockhouse package under {SRC}")
if Path(blockhouse.__file__).resolve().parent != SRC / "blockhouse":
    raise SystemExit(f"blockhouse imported from {blockhouse.__file__}, "
                     f"not from {SRC}")

from blockhouse import building_seed, generate_building  # noqa: E402

from check import building_problems, timeless  # noqa: E402
from stages import (  # noqa: E402
    BUILDING_SPAN,
    COUNTS_SPAN,
    GENERATE_STAGES,
    Tracer,
    compose_building,
    output_counts,
)
from workloads import WORKLOADS, config_for, direct  # noqa: E402

# p90 needs ten samples beyond it.
MIN_BUILDINGS = 100
# Set-up is timed in this many fresh interpreters, after one warm-up
# that also leaves the compiled sources in place.
SETUP_REPEATS = 11

END_TO_END = {
    "building_ms_p50": "ms",
    "building_ms_p90": "ms",
    "buildings_per_s": "1/s",
    "setup_s": "s",
    "ok_fraction": "ratio",
    "peak_rss_mb": "MB",
}

# Span names whose mean time per building is reported as "<name>.ms".
STAGE_METRICS = GENERATE_STAGES + (
    "metrics.measure_building", "assembly.export_json", "cli.json_codec",
    "assembly.import_json", "assembly.render_ascii",
)
# Per-building counts, averaged over a workload's first count_buildings
# traced buildings: (metric, count key, unit).
COUNT_METRICS = (
    ("rooms.tiles_grown", "tiles_grown", "count"),
    ("doors.sites_initial", "sites_initial", "count"),
    ("doors.doors_placed", "doors_placed", "count"),
    ("doors.repairs", "repairs", "count"),
    ("doors.pre_repair_connected_ratio", "pre_repair_connected", "ratio"),
    ("facade.cell_steps", "cell_steps", "count"),
    ("assembly.voxels", "voxels", "count"),
    ("assembly.json_bytes", "json_bytes", "bytes"),
)
# Cost per unit of work: (metric, stage span, count key, unit, scale).
RATIO_METRICS = (
    ("rooms.grow_rooms.us_per_tile", "rooms.grow_rooms", "tiles_grown",
     "us/tile", 1e6),
    ("doors.place_doors.us_per_door", "doors.place_doors", "doors_placed",
     "us/door", 1e6),
    ("facade.ns_per_cell_step", "facade.generate_facades", "cell_steps",
     "ns/cell_step", 1e9),
)

PER_LAYER = {f"{name}.ms": "ms" for name in STAGE_METRICS}
PER_LAYER.update({name: unit for name, _, unit in COUNT_METRICS})
PER_LAYER.update({name: unit for name, _, _, unit, _ in RATIO_METRICS})
PER_LAYER.update({
    "rooms.placed_ratio": "ratio",
    "pipeline.generate_building.ms": "ms",
    "pipeline.unattributed.ms": "ms",
    "pipeline.trace_overhead_pct": "%",
})

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import blockhouse, json
for config in json.loads(sys.argv[2]):
    blockhouse.RunConfig.from_dict(config).validate()
print(time.perf_counter() - start)
"""


def measure_setup(configs: tuple[dict, ...], repeats: int) -> float:
    """Median time to import blockhouse and build and validate the
    workload's RunConfigs, each time in a fresh interpreter."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC),
           json.dumps(configs)]
    times = []
    for i in range(repeats + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=True, timeout=60, cwd=ROOT)
        if i:
            times.append(float(proc.stdout))
    return statistics.median(times)


def traced_op(workload, config, seed: int, tracer: Tracer):
    """The workload's operation with every stage in its own span, under
    one BUILDING_SPAN. Returns the output and its counts."""
    counts: dict = {}
    root = tracer.open(BUILDING_SPAN)
    output = workload.op(
        config, seed,
        lambda c, s: compose_building(c, s, tracer, counts), tracer.call)
    tracer.close(root)
    return output, output_counts(config, output, counts)


def _failure(label: str, problems: list[str]) -> str:
    return f"{label}: {'; '.join(problems)}"


def reference_pass(workload, configs, references: dict,
                   trace: bool) -> tuple[int, list[str]]:
    """Regenerate the recorded master seed's first buildings and compare
    their digests (and, traced, their counts and traced composition) with
    the references. Returns buildings attempted and failures."""
    buildings = references["workloads"][workload.name]
    master = references["master_seed"]
    failures = []
    for i, expected in enumerate(buildings):
        seed = building_seed(master, i)
        config = config_for(configs, seed)
        try:
            output = workload.op(config, seed, generate_building, direct)
            problems = building_problems(output, expected["digest"])
            if trace:
                traced, counts = traced_op(workload, config, seed, Tracer())
                if timeless(traced) != timeless(output):
                    problems.append("traced composition differs from "
                                    "generate_building")
                if counts != expected["counts"]:
                    problems.append(f"counts {counts} differ from the "
                                    f"reference {expected['counts']}")
        except Exception:
            problems = [traceback.format_exc(limit=-1).strip()]
        if problems:
            failures.append(_failure(f"reference building {i}", problems))
    return len(buildings), failures


def timed_loop(workload, configs, seed: int, seconds: float,
               min_buildings: int):
    """Untraced closed loop. Returns per-building seconds of the operation
    alone, buildings attempted, and failures."""
    samples: list[float] = []
    failures: list[str] = []
    op = workload.op
    start = perf_counter()
    i = 0
    while i < min_buildings or perf_counter() - start < seconds:
        bseed = building_seed(seed, i)
        config = config_for(configs, bseed)
        try:
            t0 = perf_counter()
            output = op(config, bseed, generate_building, direct)
            t1 = perf_counter()
            samples.append(t1 - t0)
            problems = building_problems(output)
        except Exception:
            problems = [traceback.format_exc(limit=-1).strip()]
        if problems:
            failures.append(_failure(f"building {i} (seed {bseed})",
                                     problems))
        i += 1
    return samples, i, failures


class Record(NamedTuple):
    """One traced building: its untraced operation and generate_building
    times, and its counts."""
    building: int
    op_s: float
    generate_s: float
    counts: dict


def traced_loop(workload, configs, seed: int, seconds: float,
                min_buildings: int):
    """Each building twice, untraced and traced, in alternating order so
    neither side always runs warm. The traced output must equal the
    untraced one. Returns the tracer, per-building records, buildings
    attempted and failures."""
    tracer = Tracer()
    records: list[Record] = []
    failures: list[str] = []
    start = perf_counter()
    i = 0
    while i < min_buildings or perf_counter() - start < seconds:
        bseed = building_seed(seed, i)
        config = config_for(configs, bseed)
        tracer.building = i
        try:
            if i % 2:
                traced, counts = traced_op(workload, config, bseed, tracer)
            t0 = perf_counter()
            plain = workload.op(config, bseed, generate_building, direct)
            t1 = perf_counter()
            if not i % 2:
                traced, counts = traced_op(workload, config, bseed, tracer)
            records.append(Record(i, t1 - t0, plain.result.elapsed, counts))
            problems = building_problems(plain)
            if timeless(traced) != timeless(plain):
                problems.append("traced composition differs from "
                                "generate_building")
        except Exception:
            problems = [traceback.format_exc(limit=-1).strip()]
        if problems:
            failures.append(_failure(f"building {i} (seed {bseed})",
                                     problems))
        i += 1
    return tracer, records, i, failures


def end_to_end_metrics(samples, attempted, failed,
                       setup_s) -> tuple[dict, dict]:
    """The end-to-end metrics, plus the sample count behind each timing."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "building_ms_p50": statistics.median(samples) * 1e3,
        "building_ms_p90": statistics.quantiles(samples, n=10)[-1] * 1e3,
        "buildings_per_s": len(samples) / sum(samples),
        "setup_s": setup_s,
        "ok_fraction": 1.0 - failed / attempted,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    bases = {
        "building_ms_p50": {"samples": len(samples)},
        "building_ms_p90": {"samples": len(samples)},
        "buildings_per_s": {"buildings": len(samples),
                            "timed_s": sum(samples)},
    }
    return metrics, bases


def per_layer_metrics(workload, tracer: Tracer, records) -> tuple[dict, dict]:
    """Per-layer metrics from the spans and counts, plus the base of each
    ratio (total time and total units over all traced buildings)."""
    n = len(records)
    totals: dict[str, float] = {}
    traced_op_s: dict[int, float] = {}
    stages_s: dict[int, float] = {}
    for name, t0, t1, _parent, building in tracer.spans:
        duration = t1 - t0
        totals[name] = totals.get(name, 0.0) + duration
        if name == BUILDING_SPAN:
            traced_op_s[building] = traced_op_s.get(building, 0.0) + duration
        elif name == COUNTS_SPAN:
            traced_op_s[building] -= duration
        if name in GENERATE_STAGES:
            stages_s[building] = stages_s.get(building, 0.0) + duration

    metrics = {f"{name}.ms": totals.get(name, 0.0) / n * 1e3
               for name in STAGE_METRICS}
    prefix = [r.counts for r in records[:workload.count_buildings]]
    for metric, key, _ in COUNT_METRICS:
        metrics[metric] = statistics.fmean(c[key] for c in prefix)
    metrics["rooms.placed_ratio"] = (sum(c["rooms_placed"] for c in prefix)
                                     / sum(c["rooms_requested"]
                                           for c in prefix))
    bases = {}
    for metric, stage, key, _, scale in RATIO_METRICS:
        units = sum(r.counts[key] for r in records)
        seconds = totals.get(stage, 0.0)
        metrics[metric] = seconds * scale / units if units else 0.0
        bases[metric] = {"stage_s": seconds, key: units, "buildings": n}
    metrics["pipeline.generate_building.ms"] = statistics.fmean(
        r.generate_s for r in records) * 1e3
    # Paired per building, so host speed drifting between buildings cancels.
    metrics["pipeline.unattributed.ms"] = statistics.median(
        r.generate_s - stages_s[r.building] for r in records) * 1e3
    plain_p50 = statistics.median(r.op_s for r in records)
    traced_p50 = statistics.median(traced_op_s.values())
    metrics["pipeline.trace_overhead_pct"] = (
        (traced_p50 - plain_p50) / plain_p50 * 100.0)
    bases["pipeline.trace_overhead_pct"] = {
        "untraced_p50_ms": plain_p50 * 1e3,
        "traced_p50_ms": traced_p50 * 1e3,
        "buildings": n}
    return metrics, bases


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.blake2b(digest_size=16)
    for path in sorted((SRC / "blockhouse").glob("*.py")):
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "kernel": os.uname().release,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def _require_completed(done: list, failures: list[str]) -> None:
    if len(done) < 2:
        raise SystemExit("too few buildings completed to measure; first "
                         f"failure: {failures[0] if failures else 'none'}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 references: dict | None = None,
                 min_buildings: int = MIN_BUILDINGS,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run. Returns the result line plus the details that go
    to the report: environment, load, ratio bases, failures and spans.
    min_buildings applies to the untraced loop; the traced loop runs at
    least the workload's count_buildings."""
    workload = WORKLOADS[name]
    if references is None:
        references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    load_before = os.getloadavg()
    setup_s = 0.0 if trace else measure_setup(workload.configs,
                                              setup_repeats)
    configs = workload.run_configs()
    attempted, failures = reference_pass(workload, configs, references,
                                         trace)
    tracer = None
    if trace:
        tracer, records, loop_attempted, loop_failures = traced_loop(
            workload, configs, seed, seconds, workload.count_buildings)
        attempted += loop_attempted
        failures += loop_failures
        _require_completed(records, failures)
        metrics, bases = per_layer_metrics(workload, tracer, records)
        units = PER_LAYER
    else:
        samples, loop_attempted, loop_failures = timed_loop(
            workload, configs, seed, seconds, min_buildings)
        attempted += loop_attempted
        failures += loop_failures
        _require_completed(samples, failures)
        metrics, bases = end_to_end_metrics(samples, attempted,
                                            len(failures), setup_s)
        units = END_TO_END
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }
    return {
        "line": line,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "bases": bases,
        "failures": failures,
        "spans": tracer.spans if tracer else None,
    }


def report_lines(run: dict) -> list[str]:
    """The readable report printed before the result line."""
    env = run["environment"]
    lines = [
        f"workload {run['workload']}  seed {run['seed']}  "
        f"trace {int(run['trace'])}  seconds {run['seconds']}",
        f"python {env['python']}  nproc {env['nproc']}  "
        f"cpu {env['cpu_model']}",
        f"commit {env['git_commit']}  source {env['source_digest']}",
        "load average before {:.2f} {:.2f} {:.2f}".format(
            *run["load_before"])
        + "  after {:.2f} {:.2f} {:.2f}".format(*run["load_after"]),
    ]
    metrics = run["line"]["metrics"]
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        lines.append(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    for name, base in run["bases"].items():
        lines.append(f"  base of {name}: {json.dumps(base)}")
    line = run["line"]
    lines.append(f"buildings attempted {line['attempted']}, "
                 f"failed {line['failed']}")
    lines.extend(f"  FAILED {f}" for f in run["failures"][:10])
    return lines


def write_results(run: dict) -> None:
    """Keep the result, its environment and the spans after the run."""
    OUT.mkdir(exist_ok=True)
    stem = f"{run['workload']}-seed{run['seed']}-trace{int(run['trace'])}"
    spans = run.pop("spans")
    (OUT / f"{stem}.json").write_text(json.dumps(run, indent=2) + "\n",
                                      encoding="utf-8")
    if spans is not None:
        # One line per span: [name, start_us, end_us, parent, building],
        # times from the first span's start, parent a line index or null.
        base = spans[0][1] if spans else 0.0
        with gzip.open(OUT / f"{stem}-spans.jsonl.gz", "wt",
                       encoding="utf-8") as fh:
            for name, t0, t1, parent, building in spans:
                fh.write(json.dumps([name, round((t0 - base) * 1e6, 1),
                                     round((t1 - base) * 1e6, 1), parent,
                                     building]) + "\n")


def run_all(args) -> int:
    """Every workload in its own process; the last line combines them,
    with each metric named <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed the buildings' seeds derive from")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print("\n".join(report_lines(run)))
    line = run["line"]
    write_results(run)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
