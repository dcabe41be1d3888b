import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qrabi import qfi, store
from qrabi.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def test_gc_table(runner, tmp_path):
    out = tmp_path / "gc.csv"
    result = _invoke(runner, ["gc", "-w", "0.1", "-w", "0.5",
                              "--out", str(out), "--cache", str(tmp_path / "c")])
    assert result.exit_code == 0
    rec = store.load(out)
    assert rec.column("omega_ratio").tolist() == [0.1, 0.5]
    # closed-form columns consistent with the library
    from qrabi import critical
    assert rec.column("gc1")[0] == pytest.approx(critical.gc1(0.1, 1.0).value)
    assert rec.column("gc2_alphaFS")[1] == pytest.approx(critical.gc2(0.5, 1.0).value)


def test_gc_ratios_approach_one_at_small_frequency(runner, tmp_path):
    out = tmp_path / "gc.csv"
    result = _invoke(runner, ["gc", "-w", "1e-6", "--out", str(out),
                              "--cache", str(tmp_path / "c")])
    assert result.exit_code == 0
    rec = store.load(out)
    for col in ("gc1_over_gc0", "gcxi_over_gc0", "gc2_over_gc0"):
        assert rec.column(col)[0] == pytest.approx(1.0, abs=1e-2)


def test_gc_warns_outside_the_gc2_series_range(runner, tmp_path):
    # the alphaFS ratio is below 1 at w/W = 37 and negative at 40: the table
    # keeps both, stderr names both
    out = tmp_path / "gc.csv"
    result = _invoke(runner, ["gc", "-w", "37", "-w", "40", "--out", str(out),
                              "--cache", str(tmp_path / "c")])
    assert result.exit_code == 0
    lines = result.stderr.splitlines()
    assert len(lines) == 2
    for line, ratio in zip(lines, ("37", "40")):
        assert f"omega/Omega = {ratio} is outside the gc2 series' range" in line
        assert "gc2-alphaFS" in line and "fourThirds" not in line and "fitted" not in line
    assert "gc2-alphaFS -0.07614" in lines[1]
    ratios = store.load(out).column("gc2_over_gc0")
    assert 0.0 < ratios[0] < 1.0
    assert ratios[1] == pytest.approx(-0.0761, abs=1e-4)


def test_gc_on_the_fit_grid_does_not_warn(runner, tmp_path):
    from qrabi.critical import DEFAULT_FIT_GRID

    args = ["gc", "--out", str(tmp_path / "gc.csv"), "--cache", str(tmp_path / "c")]
    for ratio in DEFAULT_FIT_GRID:
        args += ["-w", str(ratio)]
    result = _invoke(runner, args)
    assert result.exit_code == 0
    assert result.stderr == ""


def test_qfi_sweep_and_cache_reuse(runner, tmp_path):
    cache = tmp_path / "cache"
    args = ["qfi-sweep", "-w", "0.3", "--gbar-min", "1.0", "--gbar-max", "1.8",
            "--gbar-steps", "9", "--out", str(tmp_path / "q"),
            "--cache", str(cache)]
    t0 = time.time()
    result = _invoke(runner, args)
    first_duration = time.time() - t0
    assert result.exit_code == 0
    rec = store.load(tmp_path / "q_w0.3.csv")
    assert rec.columns[:3] == ["g", "gbar", "g_over_gc2"]
    assert np.all(rec.column("status") == 0.0)
    fq = rec.column("F_Q_ed")
    assert np.all(fq > 0)
    assert rec.column("F_Q_ed_rel").max() == pytest.approx(1.0)

    # second identical run must be served from the cache, hence much faster
    t0 = time.time()
    result = _invoke(runner, args)
    assert result.exit_code == 0
    assert time.time() - t0 < max(0.5, 0.3 * first_duration)
    rec2 = store.load(tmp_path / "q_w0.3.csv")
    assert np.array_equal(rec2.data, rec.data)


def test_qfi_sweep_with_failed_point_is_not_cached(runner, tmp_path, monkeypatch):
    # at w/W = 0.001 only gbar = 8.0 has its truncation cutoff (17155) above
    # the cutoff limit: 1 failed point of 11, which must not be cached or exit 0
    calls = []
    qfi_ed = qfi.qfi_ed

    def counted(params, **kwargs):
        calls.append(params.g_bar)
        return qfi_ed(params, **kwargs)

    monkeypatch.setattr(qfi, "qfi_ed", counted)
    cache = tmp_path / "cache"
    args = ["qfi-sweep", "-w", "0.001", "--gbar-min", "5.5", "--gbar-max", "8.0",
            "--gbar-steps", "11", "--out", str(tmp_path / "q"), "--cache", str(cache)]
    result = _invoke(runner, args)
    assert result.exit_code == 3
    rec = store.load(tmp_path / "q_w0.001.csv")
    assert list(rec.column("status")) == [0.0] * 10 + [1.0]
    assert not list(cache.glob("*.sweep"))
    assert len(calls) == 11

    result = _invoke(runner, args)
    assert result.exit_code == 3
    assert len(calls) == 22


def _nan_at(index):
    """``qfi.qfi_pp_full`` with its sweep-wide result NaN at one index."""
    real = qfi.qfi_pp_full

    def patched(sweep):
        values = real(sweep).copy()
        values[index] = np.nan
        return values

    return patched


def test_qfi_sweep_both_with_failed_pp_point_is_not_cached(runner, tmp_path, monkeypatch):
    # ED succeeds everywhere; the PP failure alone must mark the point failed
    monkeypatch.setattr(qfi, "qfi_pp_full", _nan_at(3))
    cache = tmp_path / "cache"
    result = _invoke(runner, ["qfi-sweep", "-w", "0.1", "--method", "both",
                              "--gbar-min", "1.0", "--gbar-max", "1.4", "--gbar-steps", "9",
                              "--out", str(tmp_path / "q"), "--cache", str(cache)])
    assert result.exit_code == 3
    rec = store.load(tmp_path / "q_w0.1.csv")
    assert list(rec.column("status")) == [0.0] * 3 + [1.0] + [0.0] * 5
    assert np.all(rec.column("F_Q_ed") > 0)
    assert not list(cache.glob("*.sweep"))


def test_ed_version_bump_keeps_pp_records(runner, tmp_path, monkeypatch):
    # a record's hash carries the versions of the numerics families it uses:
    # a new ED version misses ED sweeps and QFI peaks, and PP sweeps still hit
    cache = tmp_path / "cache"
    sweep = ["qfi-sweep", "-w", "0.1", "--gbar-min", "1.0", "--gbar-max", "1.4",
             "--gbar-steps", "5", "--out", str(tmp_path / "q"), "--cache", str(cache)]
    commands = {
        "pp": [*sweep, "--method", "pp"],
        "ed": [*sweep, "--method", "ed"],
        "peak": ["gc", "--with-peaks", "-w", "0.1", "--out", str(tmp_path / "gc.csv"),
                 "--cache", str(cache)],
    }

    def new_records(args):
        before = set(cache.glob("*.sweep"))
        assert _invoke(runner, args).exit_code == 0
        return len(set(cache.glob("*.sweep")) - before)

    assert [new_records(args) for args in commands.values()] == [1, 1, 1]
    monkeypatch.setitem(store.CODE_VERSIONS, "ed", store.CODE_VERSIONS["ed"] + "-next")
    assert {name: new_records(args) for name, args in commands.items()} == {
        "pp": 0, "ed": 1, "peak": 1}


def test_pp_version_bump_misses_pp_records_only(runner, tmp_path, monkeypatch):
    # records cached by the per-point PP QFI assembly (the previous "pp"
    # version) miss; ED records, whose numerics did not change, still hit
    cache = tmp_path / "cache"
    sweep = ["qfi-sweep", "-w", "0.1", "--gbar-min", "1.0", "--gbar-max", "1.4",
             "--gbar-steps", "5", "--out", str(tmp_path / "q"), "--cache", str(cache)]

    def new_records(method):
        before = set(cache.glob("*.sweep"))
        assert _invoke(runner, [*sweep, "--method", method]).exit_code == 0
        return len(set(cache.glob("*.sweep")) - before)

    current = store.CODE_VERSIONS["pp"]
    assert current != "qrabi-0.1.0+pp-newton"
    monkeypatch.setitem(store.CODE_VERSIONS, "pp", "qrabi-0.1.0+pp-newton")
    assert [new_records("pp"), new_records("ed")] == [1, 1]
    monkeypatch.setitem(store.CODE_VERSIONS, "pp", current)
    assert {"pp": new_records("pp"), "ed": new_records("ed")} == {"pp": 1, "ed": 0}


def test_qfi_sweep_env_cache_override(runner, tmp_path, monkeypatch):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv("QRM_CACHE_DIR", str(env_cache))
    result = _invoke(runner, ["qfi-sweep", "-w", "0.5", "--gbar-min", "1.0",
                              "--gbar-max", "1.4", "--gbar-steps", "3",
                              "--out", str(tmp_path / "q"),
                              "--cache", str(tmp_path / "ignored")])
    assert result.exit_code == 0
    assert env_cache.exists() and list(env_cache.glob("*.sweep"))
    assert not (tmp_path / "ignored").exists()


def test_qfi_sweep_config_error(runner, tmp_path):
    result = runner.invoke(main, ["qfi-sweep", "-w", "0.3", "--gbar-min", "2.0",
                                  "--gbar-max", "1.0"])
    assert result.exit_code == 2


def test_unknown_method_is_config_error(runner):
    result = runner.invoke(main, ["qfi-sweep", "--method", "bogus"])
    assert result.exit_code == 2


def test_jobs_option_is_gone(runner):
    # grid points run in a plain loop; there is no thread pool to size
    result = runner.invoke(main, ["qfi-sweep", "-w", "0.3", "--jobs", "2"])
    assert result.exit_code == 2


def test_pp_sweep(runner, tmp_path):
    out = tmp_path / "pp.csv"
    result = _invoke(runner, ["pp-sweep", "-w", "0.1", "--gbar-min", "1.2",
                              "--gbar-max", "1.4", "--gbar-steps", "5",
                              "--out", str(out)])
    assert result.exit_code == 0
    rec = store.load(out)
    assert rec.data.shape == (5, 10)
    assert np.all(rec.column("status") == 0.0)
    assert np.all(rec.column("alpha") > 0)
    assert np.all(rec.column("zeta_alpha") >= rec.column("zeta_beta"))
    # the flows are taken at each point, so the endpoints carry a QFI value too
    assert np.all(rec.column("F_Q_pp") > 0)


def test_pp_sweep_with_failed_point_exits_3(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(qfi, "qfi_pp_full", _nan_at(2))
    out = tmp_path / "pp.csv"
    result = _invoke(runner, ["pp-sweep", "-w", "0.1", "--gbar-min", "1.2",
                              "--gbar-max", "1.4", "--gbar-steps", "5",
                              "--out", str(out)])
    assert result.exit_code == 3
    rec = store.load(out)
    fq = rec.column("F_Q_pp")
    assert list(rec.column("status")) == [0.0, 0.0, 1.0, 0.0, 0.0]
    assert fq[2] == -1.0
    assert np.all(np.delete(fq, 2) > 0)


def test_fit_command(runner, tmp_path):
    out = tmp_path / "fit.json"
    result = _invoke(runner, ["fit", "-w", "0.3", "-w", "0.4", "-w", "0.5",
                              "--max-order", "2", "--out", str(out),
                              "--cache", str(tmp_path / "cache")])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    bases = {f["basis"] for f in payload["fits"]}
    assert bases == {"fractional-2/3-powers", "integer-powers"}
    frac = next(f for f in payload["fits"] if f["basis"].startswith("fractional"))
    assert frac["coefficients"][0] == pytest.approx(1.3715, rel=0.15)


def test_peak_record_carries_search_diagnostics(runner, tmp_path):
    cache = tmp_path / "cache"
    result = _invoke(runner, ["gc", "-w", "0.2", "--with-peaks",
                              "--out", str(tmp_path / "gc.csv"), "--cache", str(cache)])
    assert result.exit_code == 0
    est = qfi.find_peak(0.2, 1.0, method="ED")
    records = [store.load(path) for path in cache.glob("*.sweep")]
    (record,) = [rec for rec in records if rec.meta["kind"] == "qfi-peak"]
    assert record.meta["grid"] == list(qfi.PEAK_RANGE)
    assert record.columns == ["gbar_cf", "g_cf", "f_q_max", "bracket_width", "evaluations"]
    assert record.data[0].tolist() == [est.gbar_cf, est.g_cf, est.f_q_max,
                                       est.bracket_width, est.evaluations]


def test_verify_passes(runner):
    result = _invoke(runner, ["verify"])
    assert result.exit_code == 0
    assert "FAIL" not in result.output
    assert "all invariants passed" in result.output
    assert "truncation" in result.output and "eigensolves 1" in result.output


def test_help_documents_defaults(runner):
    result = _invoke(runner, ["qfi-sweep", "--help"])
    assert result.exit_code == 0
    assert "--omega-ratio" in result.output
    assert "--gbar-min" in result.output
    assert "default" in result.output.lower()


# Run in a fresh interpreter: the ED commands on tiny grids, then pp-sweep;
# prints which of the slow-to-import modules each stage has loaded.
IMPORT_BUDGET_SCRIPT = """
import json, sys
from qrabi.cli import main

SLOW = ("scipy.optimize", "mpmath")
loaded = {}
ratios = ["-w", "0.05", "-w", "0.1", "-w", "0.2"]
for name, args in (
        ("import", None),
        ("qfi-sweep", ["qfi-sweep", "--method", "ed", "-w", "0.1", "--gbar-steps", "5"]),
        ("map", ["map", "--omega-steps", "2", "--gbar-steps", "5"]),
        ("gc", ["gc", "--with-peaks", *ratios]),
        ("fit", ["fit", *ratios]),
        ("pp-sweep", ["pp-sweep", "-w", "0.1", "--gbar-steps", "5"])):
    if args is not None:
        main(args, standalone_mode=False)
    loaded[name] = [m for m in SLOW if m in sys.modules]
print(json.dumps(loaded))
"""


def test_ed_commands_load_neither_scipy_optimize_nor_mpmath(tmp_path):
    import qrabi

    src = str(Path(qrabi.__file__).resolve().parents[1])
    env = dict(os.environ, QRM_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", IMPORT_BUDGET_SCRIPT], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    for stage in ("import", "qfi-sweep", "map", "gc", "fit"):
        assert loaded[stage] == [], stage
    # the check is not vacuous: the PP optimizer does load scipy.optimize
    assert "scipy.optimize" in loaded["pp-sweep"]
    assert (tmp_path / "fit_result.json").exists()
