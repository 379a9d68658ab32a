"""One fresh interpreter of a benchmark run.

``python perfbench/worker.py --probe`` imports ``dfsearch.cli`` and prints
the monotonic clock reading at which the import finished; the parent
subtracts its own reading from just before the launch to get the set-up
time a CLI user pays.

``python perfbench/worker.py --workload W --seed N --trace T --work DIR
--result FILE [--smoke]`` runs one iteration, the workload's whole call
sequence, through ``dfsearch.cli.main`` and writes FILE: the wall time of
the ``main()`` calls, a record per call, the peak RSS of this process, the
moment the import finished, and the environment.  With ``--trace 1`` the
tracer is installed first, and the spans and the per-layer metrics named in
``BENCHMARK.json`` go into FILE too.  Every iteration gets a fresh
interpreter, as a CLI user's does.

The CSVs themselves are checked by the parent after this process exits.
"""

import time

import dfsearch.cli  # noqa: E402  (the import ends the set-up interval)

READY = time.monotonic()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402

from workloads import calls_for  # noqa: E402

_OVERHEAD = "trace.overhead_s"


def _run_call(call, seed: int, config_path: str, out_dir: str) -> dict:
    argv = [call.command, "--config", config_path, "--out", out_dir]
    if call.seeded:
        argv += ["--seed", str(seed)]
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            code = dfsearch.cli.main(argv)
        except Exception:  # a crashing call is a failed call, not a dead run
            traceback.print_exc()
            code = "exception"
    return {"command": call.command, "exit": code, "out": out_dir,
            "stderr": err.getvalue()[-2000:]}


def _run_iteration(calls, seed, work, tracer):
    """Run one iteration; return (wall seconds of its main() calls, call records)."""
    configs = []
    for j, call in enumerate(calls):
        path = os.path.join(work, f"config{j}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(call.config_text())
        configs.append(path)
    records = []
    wall = 0.0
    for j, call in enumerate(calls):
        out_dir = os.path.join(work, f"call{j}")
        t0 = time.perf_counter()
        if tracer is None:
            rec = _run_call(call, seed, configs[j], out_dir)
        else:
            rec = tracer.span("cli", _run_call, (call, seed, configs[j], out_dir))
        wall += time.perf_counter() - t0
        records.append(rec)
    return wall, records


def environment() -> dict:
    """Machine and software record kept with every result (stdlib only)."""
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
    except TypeError:  # numpy < 1.25 has no mode argument
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "DFSEARCH_THREADS": os.environ.get("DFSEARCH_THREADS", "unset"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--work")
    ap.add_argument("--result")
    args = ap.parse_args()
    if args.probe:
        print(repr(READY))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    os.makedirs(args.work, exist_ok=True)
    wall, records = _run_iteration(calls_for(args.workload, args.smoke), args.seed,
                                   args.work, tracer)
    result = {
        "ready": READY,
        "traced": tracer is not None,
        "wall_s": wall,
        "calls": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        from spans import layer_metrics

        with open("BENCHMARK.json", encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        result["spans"] = tracer.spans
        result["layers"] = layer_metrics(tracer.spans, [n for n in names if n != _OVERHEAD])
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
