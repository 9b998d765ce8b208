"""Machine-readable experiment reports with a stable, versioned schema.

Every numeric claim in a report is recomputed from the artifact being
reported on; nothing is copied from expectations.  Timings are included
for humans and excluded from any determinism guarantee.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

from . import __version__

SCHEMA_VERSION = 1


def new_report(command: str, parameters: dict, seed: int | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "oddbook",
        "tool_version": __version__,
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "checks": [],
        "counts": {},
        "timings_ms": {},
    }


def add_check(report: dict, name: str, ok: bool, **details) -> None:
    entry = {"name": name, "pass": bool(ok)}
    if details:
        entry["details"] = details
    report["checks"].append(entry)


def all_checks_pass(report: dict) -> bool:
    return all(c["pass"] for c in report["checks"])


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")


@contextlib.contextmanager
def timed(report: dict, name: str):
    """Record the block's wall time in report['timings_ms'][name], also
    when the block raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        report["timings_ms"][name] = round((time.perf_counter() - start) * 1000.0, 3)
