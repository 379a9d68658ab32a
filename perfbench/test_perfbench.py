"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench

- the smoke pass runs every workload at reduced size with tracing off and
  on, prints every metric of BENCHMARK.json with its unit, and passes the
  output check against the shipped smoke references;
- every count metric of the traced run repeats exactly from run to run, so
  later changes can cite them as counts;
- without the program next to it the benchmark exits nonzero and prints
  no result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_pass_prints_every_metric_and_passes_the_output_check():
    proc = _run("--smoke")
    assert _result(proc) == {"smoke": "pass"}, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == 2 * len(SPEC["workloads"])
    for result in results:
        assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_layer_counts_repeat_exactly(workload):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    args = ("--workload", workload, "--seed", "5", "--seconds", "0",
            "--trace", "1", "--smoke")
    first, second = (_result(_run(*args))["metrics"] for _ in range(2))
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name
        if first[name]["unit"] == "count":
            assert float(first[name]["value"]).is_integer(), name


def test_exits_nonzero_without_the_program():
    bare = os.path.join(ROOT, ".perfbench-out", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                    "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
