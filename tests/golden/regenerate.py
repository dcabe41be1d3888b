"""Write the golden ED outputs that ``tests/test_golden.py`` compares against.

Runs the ``qrabi`` commands of ``COMMANDS`` in process, against a fresh
cache, and writes their output files into this directory together with
``ed_version.txt``, the ``store.CODE_VERSIONS["ed"]`` they were made under.
Run it from the repository root after bumping that version:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from qrabi import store
from qrabi.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent
VERSION_FILE = "ed_version.txt"
# (arguments, output option, files written); every command exits 0
COMMANDS = (
    (["qfi-sweep", "--method", "ed", "-w", "0.1", "-w", "0.01", "--gbar-steps", "21"],
     "qfi_sweep", ("qfi_sweep_w0.1.csv", "qfi_sweep_w0.01.csv")),
    (["gc", "--with-peaks", "-w", "0.1", "-w", "0.3"],
     "gc_table.csv", ("gc_table.csv",)),
    (["fit", "-w", "0.05", "-w", "0.1", "-w", "0.2", "-w", "0.3", "-w", "0.4",
      "--max-order", "3"],
     "fit_result.json", ("fit_result.json",)),
    (["map", "--omega-steps", "3", "--gbar-steps", "11"],
     "map", ("map_qfi.csv", "map_susceptibility.csv", "map_overlays.csv")),
)
FILES = tuple(name for _, _, names in COMMANDS for name in names)


def run(out_dir: Path, cache_dir: Path) -> None:
    """Run ``COMMANDS`` in order on one cache, writing into ``out_dir``."""
    for args, out, _ in COMMANDS:
        try:
            main([*args, "--out", str(out_dir / out), "--cache", str(cache_dir)],
                 standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise RuntimeError(f"{args[0]} exited {exc.code}") from exc


def regenerate() -> None:
    os.environ.pop("QRM_CACHE_DIR", None)
    with tempfile.TemporaryDirectory() as cache:
        run(GOLDEN_DIR, Path(cache))
    (GOLDEN_DIR / VERSION_FILE).write_text(store.CODE_VERSIONS["ed"] + "\n")


if __name__ == "__main__":
    regenerate()
