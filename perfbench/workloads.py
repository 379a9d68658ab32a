"""The benchmark's workloads: which CLI calls each one makes, and why.

A workload is a closed loop: one process makes its CLI calls one after
another through ``dfsearch.cli.main``, and the next iteration starts only
when the previous one has finished.  One iteration is the workload's whole
call sequence.  ``seeded`` calls receive the benchmark's ``--seed``; the
``curves`` subcommand has no seed key (it is a closed form), so it runs
unseeded.

Every workload runs with the defaults a CLI user gets: ``DFSEARCH_THREADS``
unset and OpenBLAS choosing its own thread count.

Smoke configs are reduced sizes of the same calls.  They exercise every
code path the full workloads exercise in a few seconds, for the smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, config pairs, and whether the
    benchmark seed is passed with ``--seed``."""

    command: str
    config: tuple
    seeded: bool

    def config_text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.config)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    smoke_calls: tuple


_BLOCK_DESIGN = (
    ("n", 30), ("p", 16), ("block_sizes", "8,8"),
    ("corr_low", 0.4), ("corr_high", 0.9),
    ("support", "0,1,2,8"), ("lambda_count", 10),
)

_SMOKE_BLOCK_DESIGN = (
    ("n", 20), ("p", 8), ("block_sizes", "4,4"),
    ("corr_low", 0.4), ("corr_high", 0.9),
    ("support", "0,1,4"), ("lambda_count", 4),
)

_STEIN_PROCEDURES = ("procedures", "hard-threshold,best-subset,relaxed-lasso")
_CURVES = (("regime", "dense"), ("rho", 1.0))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="subset-grid",
            calls=(Call("simulate", (("procedures", "best-subset"),) + _BLOCK_DESIGN
                        + (("reps", 300),), True),),
            smoke_calls=(Call("simulate", (("procedures", "best-subset"),)
                              + _SMOKE_BLOCK_DESIGN + (("reps", 20),), True),),
        ),
        Workload(
            name="lasso-grid",
            calls=(Call("simulate", (("procedures", "lasso,relaxed-lasso,ridge"),)
                        + _BLOCK_DESIGN + (("reps", 2000),), True),),
            smoke_calls=(Call("simulate", (("procedures", "lasso,relaxed-lasso,ridge"),)
                              + _SMOKE_BLOCK_DESIGN + (("reps", 50),), True),),
        ),
        Workload(
            name="stein-scan",
            calls=(
                Call("stein-check", (("mode", "both"), ("n", 8), _STEIN_PROCEDURES,
                                     ("reps", 20)), True),
                Call("curves", _CURVES + (("p", 1000), ("lambda_count", 1001),
                                          ("active_count", 200)), False),
            ),
            smoke_calls=(
                Call("stein-check", (("mode", "both"), ("n", 4), _STEIN_PROCEDURES,
                                     ("reps", 3), ("grid_points", 256), ("mus", "0"),
                                     ("sigmas", "1")), True),
                Call("curves", _CURVES + (("p", 50), ("lambda_count", 21),
                                          ("active_count", 10)), False),
            ),
        ),
    )
}


def calls_for(workload: str, smoke: bool) -> tuple:
    w = WORKLOADS[workload]
    return w.smoke_calls if smoke else w.calls
