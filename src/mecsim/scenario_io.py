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
import secrets
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


def _create_temp(path: Path) -> tuple[int, Path]:
    """A new temp file beside ``path``, open for writing, and its path.

    It is created with mode 0o666 less the umask, the mode ``open(path,
    "w")`` gives a new file (``tempfile.mkstemp`` would give 0o600, which
    the rename keeps). ``O_EXCL`` refuses a name that exists, so a clash
    draws a new name.
    """
    while True:
        tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place;
    the file gets the mode a plain ``open(path, "w")`` would give it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = _create_temp(path)
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
