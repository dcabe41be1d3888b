"""Persistence and caching of sweep results.

File layout: a single header line ``#qrm-sweep v1 {json}`` carrying the
metadata (including the column names in order), then one CSV row per grid
point. Numbers are serialized with 17 significant digits so round trips are
lossless.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaError

SCHEMA_VERSION = 1
# Identity of the numerics behind a record, one version per numerics family:
# "ed" (sector ground state, linear response, QFI peak) and "pp" (polaron
# ansatz). A record's hash carries the versions of the families it uses, so
# changing one turns exactly the records computed by its older numerics into
# misses. Change a family's version whenever a computation of it that feeds
# a record changes.
CODE_VERSIONS = {"ed": "qrabi-0.1.0+ed-sized-eigensolve", "pp": "qrabi-0.1.0+pp-one-rerun-rule"}
MAGIC = "#qrm-sweep"


def code_version(*families: str) -> dict:
    """The ``code_version`` metadata of a record computed by ``families``."""
    return {family: CODE_VERSIONS[family] for family in sorted(families)}


@dataclass
class SweepRecord:
    """One persisted sweep: metadata plus a (points x columns) numeric payload."""

    meta: dict
    columns: list[str]
    data: np.ndarray
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if self.data.shape[1] != len(self.columns):
            raise SchemaError(
                f"payload has {self.data.shape[1]} columns, header lists {len(self.columns)}"
            )

    def content_hash(self) -> str:
        return compute_hash(self.meta)

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]


def compute_hash(meta: dict) -> str:
    """Stable content hash over the identifying metadata.

    Only the keys that determine the computation enter the hash; payload
    ordering and presentation do not. A record that names no code version
    counts as computed by every family.
    """
    identity = {
        k: meta.get(k)
        for k in ("omega", "Omega", "grid", "tolerances", "code_version", "kind",
                  "gc2_variant")
    }
    if identity.get("code_version") is None:
        identity["code_version"] = code_version(*CODE_VERSIONS)
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def save(record: SweepRecord, path) -> None:
    """Write a record; NaN payloads are rejected."""
    if np.any(~np.isfinite(record.data)):
        raise SchemaError("refusing to save non-finite payload values")
    header = dict(record.meta)
    header["columns"] = record.columns
    header.setdefault("code_version", code_version(*CODE_VERSIONS))
    lines = [f"{MAGIC} v{record.schema_version} {json.dumps(header, sort_keys=True)}"]
    for row in record.data:
        lines.append(",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load(path) -> SweepRecord:
    """Read a record; schema mismatches and corrupt rows raise with position."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not a sweep file: {exc}", offset=exc.start)
    lines = text.splitlines()
    if not lines or not lines[0].startswith(MAGIC):
        raise SchemaError(f"not a sweep file: missing {MAGIC} header", offset=0)
    head = lines[0][len(MAGIC):].strip()
    try:
        version_tag, json_part = head.split(" ", 1)
    except ValueError:
        raise SchemaError("malformed header line", offset=0)
    if version_tag != f"v{SCHEMA_VERSION}":
        raise SchemaError(
            f"schema version {version_tag} needs migration (supported: v{SCHEMA_VERSION})"
        )
    try:
        header = json.loads(json_part)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"corrupt header JSON: {exc}", offset=exc.pos)
    if not isinstance(header, dict) or not isinstance(header.get("columns"), list):
        raise SchemaError("header is not a JSON object with a column list", offset=0)
    columns = header.pop("columns")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError as exc:
            raise SchemaError(f"corrupt row at line {lineno}: {exc}", offset=lineno)
        if len(rows[-1]) != len(columns):
            raise SchemaError(
                f"row at line {lineno} has {len(rows[-1])} fields, expected {len(columns)}",
                offset=lineno,
            )
    return SweepRecord(meta=header, columns=columns, data=np.array(rows))


def cache_path(cache_dir, digest: str) -> Path:
    return Path(cache_dir) / f"{digest}.sweep"


def lookup(cache_dir, digest: str) -> SweepRecord | None:
    """Exact-hash cache lookup; returns None on a miss, and for a corrupt
    record, which the caller then recomputes and ``store`` replaces."""
    path = cache_path(cache_dir, digest)
    if not path.exists():
        return None
    try:
        record = load(path)
    except SchemaError:
        return None
    if record.content_hash() != digest:
        return None
    return record


def store(cache_dir, record: SweepRecord) -> Path:
    """Save a record under its content hash, atomically.

    The record is written to a temporary file in the cache directory and
    renamed onto its path, so a reader sees the old file or the whole new
    one, and a writer that dies leaves at most a stray temporary file.
    """
    cache = Path(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache, record.content_hash())
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        save(record, tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path
