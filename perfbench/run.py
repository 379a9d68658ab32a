"""dfsearch benchmark: three CLI workloads, end-to-end timings, traced layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload subset-grid --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke          # reduced sizes, every workload

Each run launches fresh interpreters with ``src`` on ``PYTHONPATH``: a few
that only import ``dfsearch.cli`` (set-up time), then one worker per
iteration, each running the workload's CLI calls one after another (see
``workloads.py`` and ``worker.py``).  The CSVs every call writes are checked against the shipped
references (``check.py``).

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, taken from
spans the benchmark records around the package's public functions
(``spans.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it,
prefixed ``detail``, records every sample, failures, byte identity of the
CSVs (``csv_identical``), the machine and the versions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
from workloads import WORKLOADS, calls_for  # noqa: E402

OUT_DIR = ".perfbench-out"
SETUP_PROBES = 3
# hard stop for a run's workers, so that a run always ends within 180 s
RUN_LIMIT_S = 160.0
OVERHEAD = "trace.overhead_s"


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _launch_probe(env: dict) -> float:
    """Seconds from launching an interpreter until dfsearch.cli is imported."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--probe"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import of dfsearch.cli failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def launch_worker(env, workload, seed, trace, smoke, work, timeout) -> dict:
    """Run one iteration in a fresh worker; return its result, with the
    set-up time it paid ('setup_s') and its launch-to-exit time ('elapsed_s')."""
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--work", work,
           "--result", result_path]
    if smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark worker failed:\n{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result.pop("ready") - t0
    result["elapsed_s"] = elapsed
    return result


def _git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def benchmark_spec() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run; returns the result object (with a 'detail' key).

    Iterations, each in a fresh worker, repeat while the next one is
    expected to end within `seconds`; at least one runs.  With `trace`,
    untraced and traced workers alternate in pairs, so that the tracing
    overhead is measured under the same conditions.
    """
    spec = benchmark_spec()
    env = _child_env()
    stop = time.monotonic() + RUN_LIMIT_S
    work = os.path.abspath(os.path.join(OUT_DIR, f"work-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup = [_launch_probe(env) for _ in range(1 if smoke else SETUP_PROBES)]
        iterations = []
        start = time.monotonic()
        while True:
            traced = trace and len(iterations) % 2 == 1
            iterations.append(launch_worker(
                env, workload, seed, traced, smoke,
                os.path.join(work, f"it{len(iterations)}"),
                timeout=max(1.0, stop - time.monotonic())))
            if trace and len(iterations) % 2:
                continue  # finish the untraced/traced pair
            step = 2 if trace else 1
            per_step = statistics.median(
                sum(it["elapsed_s"] for it in iterations[k:k + step])
                for k in range(0, len(iterations), step))
            if time.monotonic() - start + per_step > seconds:
                break
        if trace:
            spans_path = os.path.join(
                OUT_DIR, f"spans-{workload}{'-smoke' if smoke else ''}-seed{seed}.json")
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump([it.pop("spans") for it in iterations if it["traced"]], fh)
        return _summarize(spec, workload, seed, trace, smoke, setup, iterations)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _summarize(spec, workload, seed, trace, smoke, setup, iterations) -> dict:
    calls = calls_for(workload, smoke)
    manifest = check.load_manifest()[check.reference_key(workload, smoke)]
    attempted = failed = identical = 0
    problems = []
    for it in iterations:
        for j, rec in enumerate(it["calls"]):
            p = dict(calls[j].config).get("p")
            errors, same = check.check_call(rec, j, seed, manifest, p)
            attempted += 1
            failed += bool(errors)
            identical += same
            problems.extend(f"{rec['command']}: {e}" for e in errors[:3])

    untraced = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    walls = [it["wall_s"] for it in untraced]
    setup = setup + [it["setup_s"] for it in iterations]
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        # counts are equal in every traced iteration, and the median of
        # equal values is that value exactly
        metrics = {name: statistics.median(it["layers"][name] for it in traced)
                   for name in units if name != OVERHEAD}
        if OVERHEAD in units:
            metrics[OVERHEAD] = (statistics.median(it["wall_s"] for it in traced)
                                 - statistics.median(walls))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in untraced),
        }
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    detail = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "iterations": len(iterations),
        "wall_s_samples": len(walls),
        "wall_s_each": walls,
        "traced_wall_s_each": [it["wall_s"] for it in traced],
        "setup_s_each": setup,
        "peak_rss_mb_each": [it["peak_rss_mb"] for it in untraced],
        "fail_frac": failed / attempted,
        "csv_identical": identical,
        "has_reference": str(seed) in manifest,
        "problems": problems[:20],
        "environment": dict(iterations[0]["environment"], git_commit=_git_commit()),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "detail": detail,
    }


def _emit(result: dict) -> None:
    detail = result.pop("detail")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


def smoke_all() -> int:
    """Reduced-size pass over every workload with tracing off and on."""
    spec = benchmark_spec()
    ok = True
    for w in spec["workloads"]:
        for trace in (False, True):
            result = run_once(w["name"], 0, 0.0, trace, smoke=True)
            declared = spec["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(
                        got["value"], (int, float)):
                    print(f"smoke: {w['name']} trace={int(trace)} metric {m['name']} "
                          f"missing or without unit", file=sys.stderr)
                    ok = False
            if not result["correct"]:
                print(f"smoke: {w['name']} trace={int(trace)} output check failed: "
                      f"{result['detail']['problems']}", file=sys.stderr)
                ok = False
            _emit(result)
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes; without --workload, check every workload")
    args = ap.parse_args(argv)
    if not (os.path.isfile(os.path.join("src", "dfsearch", "cli.py"))
            and os.path.isfile("BENCHMARK.json")):
        print("perfbench: run from the root of a dfsearch checkout "
              "(src/dfsearch and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    if args.workload is None:
        if args.smoke:
            return smoke_all()
        ap.error("--workload is required")
    seconds = benchmark_spec()["run_seconds"] if args.seconds is None else args.seconds
    _emit(run_once(args.workload, args.seed, seconds, bool(args.trace), args.smoke))
    return 0


if __name__ == "__main__":
    sys.exit(main())
