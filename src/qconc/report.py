"""Deterministic machine-readable reports.

A Report collects the command echo, input digests, named numeric results,
status flags, and version stamps.  Serialization is canonical: keys sorted
at every level and floats printed with 17 significant digits, so a report
parsed back and re-serialized is byte-identical and two runs with the same
inputs and seeds produce the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import ParseError


@dataclass(frozen=True)
class Report:
    """One command's outputs in serializable form."""

    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    versions: dict[str, str] = field(default_factory=dict)


def file_digest(path) -> str:
    """Hex SHA-256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def canonical_json(value) -> str:
    """Canonical JSON text: sorted keys, 17-significant-digit floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(json.dumps(str(k)) + ":" + canonical_json(v) for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def report_to_json(report: Report) -> str:
    return canonical_json(
        {
            "command": report.command,
            "inputs": report.inputs,
            "results": report.results,
            "flags": report.flags,
            "versions": report.versions,
        }
    )


def report_from_json(text: str) -> Report:
    """Parse a serialized report; inverse of report_to_json."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("report must be a JSON object")
    missing = {"command", "inputs", "results", "flags", "versions"} - set(obj)
    if missing:
        raise ParseError(f"report is missing keys {sorted(missing)}")
    return Report(
        command=obj["command"],
        inputs=obj["inputs"],
        results=obj["results"],
        flags=obj["flags"],
        versions=obj["versions"],
    )


def render_text(report: Report) -> str:
    """Human-readable rendering: one aligned key-value line per entry."""
    lines = [f"command: {report.command}"]
    for path, digest in sorted(report.inputs.items()):
        lines.append(f"input: {path} sha256={digest}")
    for key in sorted(report.results):
        lines.append(f"{key}: {canonical_json(report.results[key])}")
    for key in sorted(report.flags):
        lines.append(f"{key}: {canonical_json(report.flags[key])}")
    return "\n".join(lines)
