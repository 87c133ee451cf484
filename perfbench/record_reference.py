"""Record reference.json from the current code: for each workload, the
digest and the counts of the first buildings of the recorded master
seed.

The references pin today's output, so re-record only in a change that
is meant to alter the generated buildings, and say so in that change:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json

from run import REFERENCE, traced_op
from blockhouse import building_seed, export_json, generate_building
from check import building_problems, digest
from stages import Tracer
from workloads import WORKLOADS, config_for, direct

MASTER_SEED = 20260816


def record() -> dict:
    workloads = {}
    for name, workload in WORKLOADS.items():
        configs = workload.run_configs()
        buildings = []
        for i in range(workload.reference_buildings):
            seed = building_seed(MASTER_SEED, i)
            config = config_for(configs, seed)
            output = workload.op(config, seed, generate_building, direct)
            problems = building_problems(output)
            if problems:
                raise SystemExit(f"{name} building {i}: {problems}")
            voxels = export_json(output.result.model)["voxels"]
            _, counts = traced_op(workload, config, seed, Tracer())
            buildings.append({"digest": digest(output.result, voxels),
                              "counts": counts})
        workloads[name] = buildings
    return {"master_seed": MASTER_SEED, "workloads": workloads}


def write(references: dict) -> None:
    # One line per building, so a re-recording diffs building by building.
    lines = ["{", f'"master_seed": {references["master_seed"]},',
             '"workloads": {']
    names = list(references["workloads"])
    for n, name in enumerate(names):
        lines.append(f'"{name}": [')
        buildings = references["workloads"][name]
        lines.extend(json.dumps(b, sort_keys=True)
                     + ("," if i < len(buildings) - 1 else "")
                     for i, b in enumerate(buildings))
        lines.append("]" + ("," if n < len(names) - 1 else ""))
    lines += ["}", "}"]
    REFERENCE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write(record())
