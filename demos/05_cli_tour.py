"""A tour of the dfsearch command-line harness.

Runs all three subcommands against temporary config files and shows the
reproducibility contract: every run writes a resolved-config sidecar, and
re-running from the sidecar reproduces the outputs byte for byte.
"""

import pathlib
import tempfile

from dfsearch.cli import main


def run(argv):
    print("$ dfsearch " + " ".join(argv))
    code = main(argv)
    print(f"  -> exit {code}")
    assert code == 0
    return code


with tempfile.TemporaryDirectory(prefix="dfsearch-tour-") as tmp:
    root = pathlib.Path(tmp)
    print(f"working under {root}\n")

    # 1. closed-form curves for a sparse signal
    curves_cfg = root / "curves.cfg"
    curves_cfg.write_text("regime=sparse\nsparsity=10\nrho=8.0\nlambda_count=51\n")
    run(["curves", "--config", str(curves_cfg), "--out", str(root / "curves"), "--svg"])

    # 2. Monte Carlo df/sdf grid on a correlated design (small, for speed)
    sim_cfg = root / "sim.cfg"
    sim_cfg.write_text(
        "procedures=lasso,relaxed-lasso\nn=20\np=10\nsupport=0,1,2,3,4\n"
        "reps=200\nseed=0\nlambda_count=6\n"
    )
    run(["simulate", "--config", sim_cfg.as_posix(), "--out", str(root / "sim"), "--svg"])

    # 3. Stein checks: identity residuals plus a df decomposition
    stein_cfg = root / "stein.cfg"
    stein_cfg.write_text(
        "mode=both\nn=6\nprocedures=hard-threshold,best-subset\nreps=200\nseed=0\n"
    )
    run(["stein-check", "--config", str(stein_cfg), "--out", str(root / "stein")])

    # 4. reproducibility: rerun each command from its own sidecar
    for sub, out in (("curves", "curves"), ("simulate", "sim"), ("stein-check", "stein")):
        side = root / out / "resolved-config.txt"
        rerun = root / f"{out}-rerun"
        run([sub, "--config", str(side), "--out", str(rerun)])
        for path in sorted((root / out).glob("*.csv")):
            again = rerun / path.name
            same = path.read_bytes() == again.read_bytes()
            print(f"  {path.name}: rerun byte-identical = {same}")
            assert same

    print("\nfiles written:")
    for path in sorted(root.rglob("*")):
        if path.is_file():
            print(f"  {path.relative_to(root)}")
