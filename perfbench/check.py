"""Output checks for the CSVs a benchmark call writes.

References live in ``reference/``: ``manifest.json`` maps
``<workload>[-smoke]`` -> seed -> ``call<j>/<file>`` -> the SHA-256 of the
file's bytes at the commit that recorded them, and ``<sha16>.csv.gz`` holds
the bytes.  ``make_reference.py`` writes both.

A call fails when its exit code is nonzero, or when any CSV it should have
written:

- is missing, or its schema line, header or row count differs from the
  reference (the first shipped seed stands in for seeds without one);
- has a numeric cell that is not finite where the reference has a number,
  or a text cell that differs;
- lies outside the tolerance of the reference for this seed.  Columns that
  do not depend on the seed (penalty grids, closed forms, quadratures, every
  ``curves`` table) are compared on every seed;
- breaks a statistical invariant: standard errors are nonnegative, mean
  active-set sizes lie in [0, p], and a Stein decomposition agrees with its
  independent df estimate within 6 combined standard errors (at 20
  replications a 6-SE miss has probability below 1e-5 per row).

The tolerance is 1e-9 * (1 + |reference|), widened for Monte Carlo
estimates to 1e-3 of their own standard error: a change below a thousandth
of the sampling noise is not a change in the estimate.  Byte identity with
the reference is reported separately (``csv_identical``) and never fails a
call.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
MANIFEST = os.path.join(REFERENCE_DIR, "manifest.json")

_RTOL = 1e-9
_SE_FRACTION = 1e-3
_SE_BOUND = 6.0

# estimate column -> its standard-error column, per schema
_SE_OF = {
    "simulate-v1": {"df_hat": "se", "sdf_hat": "sdf_se"},
    "stein-decompose-v1": {"divergence_term": "decomposition_se",
                           "boundary_term": "decomposition_se", "df_hat": "df_se"},
}
# columns that do not depend on the seed; None means every column
_SEED_FREE = {
    "simulate-v1": ("procedure", "lambda"),
    "stein-decompose-v1": ("procedure", "closed_form_if_available"),
    "stein-univariate-v1": None,
    "curves-v1": None,
    "curves-by-active-v1": None,
}


def reference_key(workload: str, smoke: bool) -> str:
    return workload + ("-smoke" if smoke else "")


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def blob_path(sha: str) -> str:
    return os.path.join(REFERENCE_DIR, sha[:16] + ".csv.gz")


def _read_blob(sha: str) -> str:
    with gzip.open(blob_path(sha), "rt", encoding="utf-8", newline="") as fh:
        return fh.read()


def _parse(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# schema: "):
        raise ValueError("missing schema line")
    schema = lines[0][len("# schema: "):]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if not rows:
        raise ValueError("missing header")
    return schema, rows[0], rows[1:]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare(schema, header, rows, ref_rows, columns):
    """Yield an error for each cell of `columns` outside tolerance."""
    se_of = _SE_OF.get(schema, {})
    col = {name: i for i, name in enumerate(header)}
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        for name in columns:
            i = col[name]
            a, b = _number(row[i]), _number(ref[i])
            if b is None or a is None:
                if row[i] != ref[i]:
                    yield f"row {r} {name}: {row[i]!r} != reference {ref[i]!r}"
                continue
            tol = _RTOL * (1.0 + abs(b))
            if name in se_of:
                tol = max(tol, _SE_FRACTION * abs(float(ref[col[se_of[name]]])))
            if not abs(a - b) <= tol:
                yield f"row {r} {name}: {a!r} vs reference {b!r} (tol {tol:.3g})"


def _invariants(schema, header, rows, p):
    col = {name: i for i, name in enumerate(header)}
    for r, row in enumerate(rows):
        v = {name: _number(row[i]) for name, i in col.items()}
        for name in ("se", "sdf_se", "decomposition_se", "df_se"):
            if name in v and not v[name] >= 0:
                yield f"row {r} {name} = {row[col[name]]} is not a standard error"
        if schema == "simulate-v1" and not 0 <= v["mean_active"] <= p:
            yield f"row {r} mean_active = {v['mean_active']} outside [0, {p}]"
        if schema == "stein-decompose-v1":
            gap = abs(v["divergence_term"] + v["boundary_term"] - v["df_hat"])
            se = math.hypot(v["decomposition_se"], v["df_se"])
            if not gap <= _SE_BOUND * se:
                yield (f"row {r} ({row[0]}): divergence + boundary differs from df_hat "
                       f"by {gap:.4g} > {_SE_BOUND:g} SE ({se:.4g})")


def check_file(path: str, structure_sha: str, value_sha, p: int):
    """Check one CSV.  Returns (errors, byte_identical)."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as err:
        return [f"{os.path.basename(path)}: {err}"], False
    errors = []
    ref_schema, ref_header, ref_rows = _parse(_read_blob(structure_sha))
    try:
        schema, header, rows = _parse(text)
    except ValueError as err:
        return [f"{os.path.basename(path)}: {err}"], False
    if (schema, header, len(rows)) != (ref_schema, ref_header, len(ref_rows)):
        return [f"{os.path.basename(path)}: schema {schema!r}, {len(header)} columns, "
                f"{len(rows)} rows; expected {ref_schema!r}, {len(ref_header)} columns, "
                f"{len(ref_rows)} rows"], False
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(header):
            errors.append(f"row {r} has {len(row)} cells")
            continue
        for name, cell, ref_cell in zip(header, row, ref):
            x = _number(cell)
            if _number(ref_cell) is not None and (x is None or not math.isfinite(x)):
                errors.append(f"row {r} {name}: {cell!r} is not a finite number")
    if not errors:
        errors.extend(_invariants(schema, header, rows, p))
        if value_sha is not None:
            _, _, value_rows = _parse(_read_blob(value_sha))
            errors.extend(_compare(schema, header, rows, value_rows, header))
        else:
            seed_free = _SEED_FREE.get(schema, ())
            errors.extend(_compare(schema, header, rows, ref_rows,
                                   header if seed_free is None else seed_free))
    identical = value_sha is not None and hashlib.sha256(
        text.encode("utf-8")).hexdigest() == value_sha
    return [f"{os.path.basename(path)}: {e}" for e in errors], identical


def check_call(record: dict, index: int, seed: int, manifest_entry: dict, p: int):
    """Check the outputs of the index-th call of an iteration.

    Returns (errors, byte_identical); byte_identical is False when this
    seed has no reference.
    """
    if record["exit"] != 0:
        return [f"exit code {record['exit']}: {record.get('stderr', '').strip()}"], False
    seeds = sorted(manifest_entry, key=int)
    structure = manifest_entry[seeds[0]]
    values = manifest_entry.get(str(seed))
    prefix = f"call{index}/"
    errors, identical = [], values is not None
    for key in sorted(k for k in structure if k.startswith(prefix)):
        path = os.path.join(record["out"], key[len(prefix):])
        errs, same = check_file(path, structure[key], values and values[key], p)
        errors.extend(errs)
        identical = identical and same
    if not os.path.isfile(os.path.join(record["out"], "resolved-config.txt")):
        errors.append("resolved-config.txt missing")
    return errors, identical
