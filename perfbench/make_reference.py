"""Record the reference CSVs that ``check.py`` compares benchmark outputs with.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

For every workload it runs one iteration of the full-size calls at each
seed in ``FULL_SEEDS`` and of the smoke calls at ``SMOKE_SEEDS``, and
rewrites ``perfbench/reference/``.  The first seed is the default seed of
``run.py``; the second is held out, so a claim tuned on the first can be
checked on it.  A run at any other seed gets the structural and
statistical checks only.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import shutil
import sys

import check
from run import OUT_DIR, _child_env, launch_worker
from workloads import WORKLOADS

FULL_SEEDS = (0, 1)
SMOKE_SEEDS = (0,)


def _outputs(workload: str, seed: int, smoke: bool) -> dict:
    work = os.path.abspath(os.path.join(OUT_DIR, "make-reference"))
    shutil.rmtree(work, ignore_errors=True)
    calls = launch_worker(_child_env(), workload, seed, False, smoke, work, None)["calls"]
    files = {}
    for j, rec in enumerate(calls):
        if rec["exit"] != 0:
            raise SystemExit(f"{workload} seed {seed} call {j} failed: {rec['stderr']}")
        for name in sorted(os.listdir(rec["out"])):
            if name.endswith(".csv"):
                with open(os.path.join(rec["out"], name), "rb") as fh:
                    files[f"call{j}/{name}"] = fh.read()
    shutil.rmtree(work)
    return files


def main() -> int:
    shutil.rmtree(check.REFERENCE_DIR, ignore_errors=True)
    os.makedirs(check.REFERENCE_DIR)
    manifest: dict = {}
    for workload in WORKLOADS:
        for smoke, seeds in ((False, FULL_SEEDS), (True, SMOKE_SEEDS)):
            entry = manifest.setdefault(check.reference_key(workload, smoke), {})
            for seed in seeds:
                entry[str(seed)] = {}
                for key, data in _outputs(workload, seed, smoke).items():
                    sha = hashlib.sha256(data).hexdigest()
                    entry[str(seed)][key] = sha
                    with open(check.blob_path(sha), "wb") as raw:
                        with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as gz:
                            gz.write(data)
                print(f"{check.reference_key(workload, smoke)} seed {seed}: "
                      f"{len(entry[str(seed)])} files", flush=True)
    with open(check.MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
