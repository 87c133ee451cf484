"""Quick self-test of the benchmark itself.

Runs every workload at minimum size with tracing off and on, and checks
that each emits every metric BENCHMARK.json names, with its unit. Checks
that a corrupted reference digest, and a corrupted reference count, are
counted as failed buildings rather than passed. Checks the command-line
contract: the last line is the result object, and in a directory without
the package sources the command fails without printing one.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

from run import OUT, REFERENCE, ROOT, run_workload
from workloads import WORKLOADS

RUN = ROOT / "perfbench" / "run.py"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def require(problems: list[str], ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        problems.append(message)


def quick_run(name: str, trace: bool, references: dict) -> dict:
    return run_workload(name, seed=1, seconds=0, trace=trace,
                        references=references, min_buildings=2,
                        setup_repeats=1)["line"]


def check_metric_names(problems, spec: dict, references: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    require(problems, names == list(WORKLOADS),
            "BENCHMARK.json lists the workloads run.py defines")
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            line = quick_run(name, trace, references)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {key: m["unit"] for key, m in line["metrics"].items()}
            require(problems, got == want,
                    f"{name} trace={int(trace)} emits every {section} "
                    "metric with its unit")
            require(problems, line["correct"] and line["failed"] == 0,
                    f"{name} trace={int(trace)} passes its checks")


def check_corruption_is_caught(problems, references: dict) -> None:
    bad = copy.deepcopy(references)
    bad["workloads"]["batch_7x7"][0]["digest"] = "0" * 32
    line = quick_run("batch_7x7", False, bad)
    require(problems, not line["correct"] and line["failed"] == 1
            and line["metrics"]["ok_fraction"]["value"] < 1.0,
            "a corrupted reference digest counts as one failed building")

    bad = copy.deepcopy(references)
    bad["workloads"]["grow_24x24"][0]["counts"]["tiles_grown"] += 1
    line = quick_run("grow_24x24", True, bad)
    require(problems, not line["correct"] and line["failed"] == 1,
            "a corrupted reference count counts as one failed building")


def check_command_line(problems) -> None:
    args = ["--workload", "batch_7x7", "--seed", "1", "--seconds", "0",
            "--trace", "0"]
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=180)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    require(problems, proc.returncode == 0 and set(last) == RESULT_KEYS,
            "the command exits 0 and ends with the result object")

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", *args], cwd=bare,
            capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(problems,
            proc.returncode != 0 and '"correct"' not in proc.stdout,
            "without the package sources the command fails and prints no "
            "result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    problems: list[str] = []
    check_metric_names(problems, spec, references)
    check_corruption_is_caught(problems, references)
    check_command_line(problems)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
