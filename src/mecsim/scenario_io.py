"""Scenario file format: JSON load/save with atomic writes.

The on-disk layout mirrors ``Scenario`` field for field; the formal schema
lives in ``schemas/scenario.schema.json`` next to this module. All indices
are 0-based; per-slot arrays are indexed [t][k] or [t][i][j] with i the
hosting-cloud row and j the station column.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from .errors import ParseError
from .model import Scenario, validate_scenario

__all__ = [
    "load_scenario",
    "read_json",
    "save_scenario",
    "scenario_digest",
    "write_text_atomic",
    "SCHEMA_PATH",
]

SCHEMA_PATH = Path(__file__).parent / "schemas" / "scenario.schema.json"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str | Path, what: str) -> Any:
    """The parsed JSON document of a UTF-8 file; ParseError, its message
    starting ``what`` and the path, when the file is not UTF-8 or not JSON.
    OSError propagates."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path} is not UTF-8 text: {exc}") from None
    try:
        return json.loads(text)
    except ValueError as exc:  # bad syntax, or an integer over Python's digit limit
        raise ParseError(f"{what} {path} is not readable JSON: {exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file."""
    return validate_scenario(read_json(path, "scenario file"))


def save_scenario(s: Scenario, path: str | Path) -> None:
    """Serialize atomically; round-trips field-for-field through load_scenario."""
    text = json.dumps(s.to_mapping(), indent=2, sort_keys=True) + "\n"
    write_text_atomic(path, text)


def scenario_digest(path: str | Path) -> str:
    """sha256 hex digest of the scenario file bytes, for run provenance."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
