"""Smoke test of the benchmark itself, at n = 2 so that it runs in seconds.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--n", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    stdout, result = run_bench(workload, trace)
    printed = workloads.PER_LAYER_UNITS if trace else {**workloads.END_TO_END_UNITS, "error_rate": "1"}
    for name, unit in printed.items():
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}\b", stdout, re.M), name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def test_tampered_records_are_an_error(tmp_path):
    """Negative control: the CLI-against-library check must catch altered records."""
    run = workloads.Run(kind="cli", n=2, shots=1000, seed=5, seconds=0.1,
                        trace=False, work=tmp_path)
    _, _, records, report = run.roundtrip("rt0", run.op_seed(0), traced=False)
    lib = workloads.build_library(2)
    assert workloads.verify_roundtrip(lib, records, report) == []

    # reverse the counts of every basis: totals stay valid, outcomes move
    payload = json.loads(records.read_text())
    for record in payload["records"]:
        counts = [item["count"] for item in record["data"]]
        for item, count in zip(record["data"], reversed(counts)):
            item["count"] = count
    records.write_text(json.dumps(payload))
    problems = workloads.verify_roundtrip(lib, records, report)
    assert any("differs from the library" in p for p in problems)
