"""Deterministic CSV/JSON report serialization.

Output must be byte-identical across reruns and parallelism degrees, so all
floats are rendered with repr (shortest round-trip form), JSON keys are
sorted, and nothing time- or host-dependent is ever written. Infinite values
appear as "inf" in CSV and as the (non-strict JSON) Infinity literal in JSON,
which Python's json module reads back exactly.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

from .errors import InvalidInputError
from .experiments import Report


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def to_csv(report: Report) -> str:
    lines = [f"# schema={report.schema}"]
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(_cell(row.get(c)) for c in report.columns))
    return "\n".join(lines) + "\n"


def to_json(report: Report, per_trial: bool = False) -> str:
    doc = {
        "schema": report.schema,
        "config": report.config,
        "columns": list(report.columns),
        "rows": report.rows,
        "warnings": list(report.warnings),
    }
    if per_trial:
        doc["per_trial"] = report.per_trial
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_report(report: Report, path: str, fmt: str, per_trial: bool = False) -> None:
    if fmt == "csv":
        text = to_csv(report)
    elif fmt == "json":
        text = to_json(report, per_trial=per_trial)
    else:
        raise ValueError(f"unknown format: {fmt}")
    # rename a finished file beside the target over it: no partial report
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_json_report(path: str) -> dict:
    """Read a JSON report; a file that is not a JSON object raises InvalidInputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError
        raise InvalidInputError(f"{path} is not a JSON report: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path} is not a JSON report: top level is not an object")
    return doc
