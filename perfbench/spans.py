"""In-memory span tracer that wraps dfsearch's public functions from outside.

The benchmark records spans from its own code, without touching the
package: ``Tracer.install`` replaces every binding through which the CLI
reaches a layer's public functions with a timing wrapper, for the rest of
the process (a traced worker runs one iteration and exits).  Modules import
these functions
by name, so each module's own binding is patched (for example
``montecarlo.draw_responses`` and ``stein.draw_responses``).

A span is (name, start, end, parent) plus exact counts taken from the call
arguments.  A call into a layer whose innermost open span already has the
same name is not recorded again (closed forms call each other through their
module attributes), so inclusive times never count a layer twice.

Counts attached to spans:

- ``rows``: responses passed to a fit, a refit or a draw;
- ``support_rows``: 2^p times rows for a best-subset enumeration;
- ``unique_supports``: distinct active sets handed to a refit;
- ``reps``: replications of a Stein decomposition.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

from dfsearch import cli, closedform, fitters, montecarlo, stein

_FIT_PREFIX = "fitters."
_REFIT_SPAN = "fitters.refit_on_active_sets"
_STEIN_SPAN = "stein.stein_decompose_df"

# every span name the tracer can emit, and the statistics kept per span
SPAN_NAMES = frozenset(
    [_FIT_PREFIX + kind for kind in fitters.KINDS]
    + [_REFIT_SPAN, "montecarlo.draw_responses", "montecarlo.run_grid",
       "montecarlo.estimate_df", _STEIN_SPAN, "stein.univariate",
       "closedform", "config", "model", "cli"]
)
SPAN_STATS = frozenset(["s", "self_s", "calls", "rows", "support_rows",
                        "unique_supports", "reps"])
# ratios over all Stein decompositions: fit rows and fit calls per replication
STEIN_RATIOS = {"stein.fit_rows_per_rep": "rows", "stein.fit_calls_per_rep": "calls"}


class Tracer:
    """Records spans around the patched calls, in memory."""

    def __init__(self):
        self.spans: list = []  # dicts: name, start, end, parent index, counts
        self._stack: list = []

    def span(self, name: str, fn, args=(), kwargs=None, counts=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        if self._stack and self.spans[self._stack[-1]]["name"] == name:
            return fn(*args, **kwargs)
        rec = {"name": name, "start": 0.0, "end": 0.0,
               "parent": self._stack[-1] if self._stack else -1, "counts": counts or {}}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _patch(self, owner, attr, name, counter=None):
        """Replace owner.attr by a wrapper recording a span per call.

        ``name`` is a span name, or a function of the call's bound arguments
        returning one (None: no span).  ``counter`` maps the bound arguments
        to the span's counts.
        """
        fn = getattr(owner, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if callable(name) or counter:
                bound = sig.bind(*args, **kwargs).arguments
            span_name = name(bound) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            return self.span(span_name, fn, args, kwargs, counter and counter(bound))

        setattr(owner, attr, wrapper)

    def install(self):
        """Patch every binding the CLI reaches a layer through."""
        self._patch(fitters.FitProcedure, "fit_many",
                    lambda a: _FIT_PREFIX + a["self"].kind,
                    lambda a: _fit_counts(a["self"].kind, a["self"].design.p, a["Y"]))
        for owner in (fitters, montecarlo):
            # other kinds loop over FitProcedure.fit_many, which is traced
            self._patch(owner, "fit_path",
                        lambda a: "fitters.best-subset" if a["kind"] == "best-subset" else None,
                        lambda a: _fit_counts("best-subset", a["design"].p, a["Y"]))
            self._patch(owner, "refit_on_active_sets", _REFIT_SPAN,
                        lambda a: {"rows": len(a["masks"]),
                                   "unique_supports": _unique_rows(a["masks"])})
        for owner in (montecarlo, stein):
            self._patch(owner, "draw_responses", "montecarlo.draw_responses",
                        lambda a: {"rows": int(a["reps"])})
        self._patch(cli, "run_grid", "montecarlo.run_grid")
        self._patch(cli, "estimate_df", "montecarlo.estimate_df")
        self._patch(cli, "stein_decompose_df", _STEIN_SPAN, lambda a: {"reps": int(a["reps"])})
        for attr in ("stein_lhs_univariate", "stein_rhs_univariate"):
            self._patch(cli, attr, "stein.univariate")
        for attr in ("read_config", "resolve_options", "format_resolved"):
            self._patch(cli, attr, "config")
        for attr in ("gen_block_design", "gen_orthogonal_design"):
            self._patch(cli, attr, "model")
        # cli reaches closed forms as cf.<name>, so the module attributes are
        # the bindings; nested closed-form calls fold into the outer span
        for attr in closedform.__all__:
            if inspect.isfunction(getattr(closedform, attr)):
                self._patch(closedform, attr, "closedform")

def _fit_counts(kind: str, p: int, Y) -> dict:
    rows = int(np.shape(Y)[0])
    if kind == "best-subset":
        return {"rows": rows, "support_rows": (1 << p) * rows}
    return {"rows": rows}


def _unique_rows(masks) -> int:
    # one opaque bytes item per packed row: unique(axis=0) is about 10x slower,
    # and this runs inside the caller's span
    packed = np.ascontiguousarray(np.packbits(np.asarray(masks, dtype=bool), axis=1))
    return int(np.unique(packed.view(f"V{packed.shape[1]}")).size)


def layer_metrics(records: list, names) -> dict:
    """Values of the named layer metrics from the spans of one traced
    iteration.  A layer the workload never entered
    reads 0.  Times are in seconds; counts are exact.  A name the tracer
    cannot produce raises ValueError."""
    for name in names:
        span, _, stat = name.rpartition(".")
        if name not in STEIN_RATIOS and (span not in SPAN_NAMES or stat not in SPAN_STATS):
            raise ValueError(f"unknown layer metric {name!r}")
    child_time = [0.0] * len(records)
    for r in records:
        if r["parent"] >= 0:
            child_time[r["parent"]] += r["end"] - r["start"]

    totals: dict = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for i, r in enumerate(records):
        name = r["name"]
        dur = r["end"] - r["start"]
        add(name + ".s", dur)
        add(name + ".self_s", dur - child_time[i])
        add(name + ".calls", 1)
        for key, value in r["counts"].items():
            add(f"{name}.{key}", value)
        if (name.startswith(_FIT_PREFIX) and name != _REFIT_SPAN
                and _has_ancestor(records, i, _STEIN_SPAN)):
            add("stein.fit.rows", r["counts"]["rows"])
            add("stein.fit.calls", 1)

    out = {}
    reps = totals.get(_STEIN_SPAN + ".reps", 0)
    for name in names:
        if name in STEIN_RATIOS:
            out[name] = totals.get("stein.fit." + STEIN_RATIOS[name], 0) / reps if reps else 0.0
        else:
            out[name] = totals.get(name, 0)
    return out


def _has_ancestor(records: list, i: int, name: str) -> bool:
    p = records[i]["parent"]
    while p >= 0:
        if records[p]["name"] == name:
            return True
        p = records[p]["parent"]
    return False
