"""The committed ED outputs in ``tests/golden/`` as a test of the cache rule.

A cached record is served whenever its ``CODE_VERSIONS`` entry matches, so
ED numerics that move without a version bump would be served stale. This
test reruns the golden commands in process against a fresh cache and
compares every output with the committed files: headers exactly, apart from
``code_version``, and every numeric cell to ``RTOL`` relative, NaN matching
NaN. A moved cell fails with the instruction to bump ``CODE_VERSIONS["ed"]``
and regenerate; a bumped version fails until the files are regenerated.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from qrabi import store

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN_DIR / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RTOL = 1e-12
BUMP = ('bump store.CODE_VERSIONS["ed"] and regenerate the files with '
        '"PYTHONPATH=src python tests/golden/regenerate.py"')


def _cell_matches(new: float, old: float) -> bool:
    if math.isnan(old) or math.isnan(new):
        return math.isnan(old) and math.isnan(new)
    return abs(new - old) <= RTOL * max(abs(new), abs(old))


def _split_csv(text: str):
    """(header line, cell rows) of a sweep-store or map CSV file."""
    head, *rows = text.splitlines()
    return head, [[float(v) for v in row.split(",")] for row in rows]


def _header(line: str):
    """A sweep-store header without its ``code_version``; other headers as they are."""
    if not line.startswith(store.MAGIC):
        return line
    tag, meta = line[len(store.MAGIC):].strip().split(" ", 1)
    meta = json.loads(meta)
    meta.pop("code_version")
    return tag, meta


def _json_cells(value, path=""):
    """(path, number) pairs of a JSON document, and its non-numeric leaves."""
    if isinstance(value, dict):
        return [cell for key in sorted(value) for cell in _json_cells(value[key], f"{path}.{key}")]
    if isinstance(value, list):
        return [cell for k, item in enumerate(value) for cell in _json_cells(item, f"{path}[{k}]")]
    return [(path, value)]


def _moved_cells(name: str, new: str, old: str) -> list[str]:
    """Descriptions of the cells of file ``name`` that differ between two texts."""
    if name.endswith(".json"):
        new_cells, old_cells = _json_cells(json.loads(new)), _json_cells(json.loads(old))
        if [p for p, _ in new_cells] != [p for p, _ in old_cells]:
            return [f"{name}: the document's structure changed"]
        return [f"{name}{p}: {a!r} != {b!r}" for (p, a), (_, b) in zip(new_cells, old_cells)
                if not (_cell_matches(a, b) if isinstance(b, float) else a == b)]
    new_head, new_rows = _split_csv(new)
    old_head, old_rows = _split_csv(old)
    moved = []
    if _header(new_head) != _header(old_head):
        moved.append(f"{name}: header {new_head!r} != {old_head!r}")
    if [len(r) for r in new_rows] != [len(r) for r in old_rows]:
        return moved + [f"{name}: the table's shape changed"]
    for i, (new_row, old_row) in enumerate(zip(new_rows, old_rows)):
        moved += [f"{name} row {i} column {j}: {a!r} != {b!r}"
                  for j, (a, b) in enumerate(zip(new_row, old_row)) if not _cell_matches(a, b)]
    return moved


def test_golden_version_is_current():
    recorded = (GOLDEN_DIR / golden.VERSION_FILE).read_text().strip()
    assert recorded == store.CODE_VERSIONS["ed"], (
        f'CODE_VERSIONS["ed"] is {store.CODE_VERSIONS["ed"]!r}, but tests/golden was made '
        f'under {recorded!r}: regenerate the files with '
        f'"PYTHONPATH=src python tests/golden/regenerate.py"')


def test_ed_outputs_match_the_golden_files(tmp_path, monkeypatch):
    monkeypatch.delenv("QRM_CACHE_DIR", raising=False)
    golden.run(tmp_path, tmp_path / "cache")
    moved = []
    for name in golden.FILES:
        moved += _moved_cells(name, (tmp_path / name).read_text(),
                              (GOLDEN_DIR / name).read_text())
    assert not moved, f"ED outputs moved ({BUMP}):\n" + "\n".join(moved[:20])


@pytest.mark.parametrize("name", golden.FILES)
def test_moved_cell_is_detected(name):
    # the comparison is not vacuous: a relative change of 1e-9 in the first
    # numeric cell of each golden file is reported
    text = (GOLDEN_DIR / name).read_text()
    if name.endswith(".json"):
        doc = json.loads(text)
        doc["data"][0][1] *= 1.0 + 1e-9
        moved = json.dumps(doc)
    else:
        head, first, *rest = text.splitlines()
        cells = first.split(",")
        cells[1] = repr(float(cells[1]) * (1.0 + 1e-9))
        moved = "\n".join([head, ",".join(cells), *rest])
    assert _moved_cells(name, text, text) == []
    assert len(_moved_cells(name, moved, text)) == 1
