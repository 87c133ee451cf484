"""The benchmark's own correctness gate, run as a test.

Before timing anything, `perfbench/run.py` regenerates the first
buildings of a recorded master seed for every workload and compares
them with `perfbench/reference.json`: their digests, the counts a
traced run takes, and the traced stage-by-stage composition against
`generate_building`. Running that pass here makes three breakages test
failures instead of benchmark failures: a public name that `perfbench`
imports going away, a pipeline change that `compose_building` does not
follow, and a change to any reference building.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.fixture(scope="module")
def run():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        import run
        yield run


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_buildings_match(run, name):
    references = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    workload = run.WORKLOADS[name]
    attempted, failures = run.reference_pass(
        workload, workload.run_configs(), references, trace=True)
    assert attempted == len(references["workloads"][name]) > 0
    assert failures == []
