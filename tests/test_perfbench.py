"""The benchmark harness imports the package; its probe must keep working."""

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_worker_probe_imports_the_package(tmp_path):
    result = subprocess.run(
        [sys.executable, str(WORKER), "--workload", "ed_sweep", "--seed", "1",
         "--workdir", str(tmp_path / "work"), "--mode", "probe"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert "ready" in report
