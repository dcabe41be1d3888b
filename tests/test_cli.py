import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qrabi import observables, qfi, store
from qrabi.cli import main
from qrabi.errors import NonconvergenceError


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
    # the cutoff limit: 1 failed point of 11, written as NaN, which must not be
    # cached or exit 0
    calls = []
    real = observables.ground_state_response

    def counted(params):
        calls.append(params.g_bar)
        return real(params)

    monkeypatch.setattr(observables, "ground_state_response", counted)
    cache = tmp_path / "cache"
    args = ["qfi-sweep", "-w", "0.001", "--gbar-min", "5.5", "--gbar-max", "8.0",
            "--gbar-steps", "11", "--out", str(tmp_path / "q"), "--cache", str(cache)]
    result = _invoke(runner, args)
    assert result.exit_code == 3
    rec = store.load(tmp_path / "q_w0.001.csv")
    assert list(rec.column("status")) == [0.0] * 10 + [1.0]
    for column in ("F_Q_ed", "F_Q_ed_rel"):
        assert np.all(rec.column(column)[:10] > 0) and np.isnan(rec.column(column)[10])
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
    # ED succeeds everywhere; the PP failure alone must mark the point failed,
    # and the NaN in the PP columns names the route that failed
    monkeypatch.setattr(qfi, "qfi_pp_full", _nan_at(3))
    cache = tmp_path / "cache"
    result = _invoke(runner, ["qfi-sweep", "-w", "0.1", "--method", "both",
                              "--gbar-min", "1.0", "--gbar-max", "1.4", "--gbar-steps", "9",
                              "--out", str(tmp_path / "q"), "--cache", str(cache)])
    assert result.exit_code == 3
    rec = store.load(tmp_path / "q_w0.1.csv")
    assert list(rec.column("status")) == [0.0] * 3 + [1.0] + [0.0] * 5
    assert np.all(rec.column("F_Q_ed") > 0) and np.all(rec.column("F_Q_ed_rel") > 0)
    for column in ("F_Q_pp", "F_Q_pp_rel"):
        assert np.isnan(rec.column(column)).tolist() == [False] * 3 + [True] + [False] * 5
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


def test_gc2_variant_is_part_of_the_cache_identity(runner, tmp_path):
    # two variants on one cache: each run computes its own g_over_gc2 column
    # instead of being served the other variant's record
    from qrabi import critical

    cache = tmp_path / "cache"
    for variant in ("alphaFS", "fitted"):
        out = tmp_path / variant
        args = ["qfi-sweep", "-w", "0.1", "--gbar-min", "1.0", "--gbar-max", "1.4",
                "--gbar-steps", "3", "--gc2-variant", variant, "--out", str(out),
                "--cache", str(cache)]
        assert _invoke(runner, args).exit_code == 0
        rec = store.load(f"{out}_w0.1.csv")
        assert rec.meta["gc2_variant"] == variant
        np.testing.assert_allclose(
            rec.column("g_over_gc2"),
            rec.column("g") / critical.gc2(0.1, 1.0, variant).value, rtol=1e-15)
    assert len(list(cache.glob("*.sweep"))) == 2


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


@pytest.mark.parametrize("command", ["qfi-sweep", "gc", "fit", "map", "verify"])
def test_tol_option_is_gone(runner, command):
    # the ED certificate's energy tolerance is a constant, not an option
    result = runner.invoke(main, [command, "--tol", "1e-10"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--tol" in result.output


def test_qfi_sweep_cache_name_is_unchanged(runner, tmp_path):
    # the record meta still names the certificate's tolerance, so caches
    # written while it was an option keep hitting
    cache = tmp_path / "cache"
    result = _invoke(runner, ["qfi-sweep", "-w", "0.1", "--gbar-min", "1.0",
                              "--gbar-max", "1.4", "--gbar-steps", "5",
                              "--out", str(tmp_path / "q"), "--cache", str(cache)])
    assert result.exit_code == 0
    meta = {"kind": "qfi-sweep", "omega": 0.1, "Omega": 1.0, "grid": [1.0, 1.4, 5],
            "tolerances": {"tol": 1e-10, "method": "ed"},
            "code_version": store.code_version("ed"), "omega_ratio": 0.1,
            "gc2_variant": "alphaFS"}
    assert [path.name for path in cache.glob("*.sweep")] == [
        f"{store.compute_hash(meta)}.sweep"]


def test_gc_header_names_only_the_ed_family(runner, tmp_path):
    out = tmp_path / "gc.csv"
    result = _invoke(runner, ["gc", "--with-peaks", "-w", "0.1", "--out", str(out),
                              "--cache", str(tmp_path / "c")])
    assert result.exit_code == 0
    assert store.load(out).meta["code_version"] == {"ed": store.CODE_VERSIONS["ed"]}


def test_pp_sweep_header_names_only_the_pp_family(runner, tmp_path):
    out = tmp_path / "pp.csv"
    result = _invoke(runner, ["pp-sweep", "-w", "0.1", "--gbar-min", "1.2",
                              "--gbar-max", "1.4", "--gbar-steps", "3", "--out", str(out)])
    assert result.exit_code == 0
    assert store.load(out).meta["code_version"] == {"pp": store.CODE_VERSIONS["pp"]}


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
    monkeypatch.setenv("QRM_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "pp.csv"
    result = _invoke(runner, ["pp-sweep", "-w", "0.1", "--gbar-min", "1.2",
                              "--gbar-max", "1.4", "--gbar-steps", "5",
                              "--out", str(out)])
    assert result.exit_code == 3
    rec = store.load(out)
    fq = rec.column("F_Q_pp")
    assert list(rec.column("status")) == [0.0, 0.0, 1.0, 0.0, 0.0]
    assert np.isnan(fq[2])
    assert np.all(np.delete(fq, 2) > 0)
    assert [p.name for p in tmp_path.iterdir()] == ["pp.csv"]


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
    assert record.meta["grid"] == []
    assert record.columns == ["gbar_cf", "g_cf", "f_q_max", "bracket_width", "evaluations"]
    assert record.data[0].tolist() == [est.gbar_cf, est.g_cf, est.f_q_max,
                                       est.bracket_width, est.evaluations]


@pytest.mark.parametrize("corrupt", [lambda data: data[:40], lambda data: b"\xff" + data],
                         ids=["truncated-header", "not-utf8"])
def test_corrupt_peak_record_is_recomputed(runner, tmp_path, corrupt):
    # a cached qfi-peak record cut inside its header, or not UTF-8 text, is a
    # miss: the command recomputes the peak and replaces the file, so the
    # next run hits again
    cache = tmp_path / "cache"
    out = tmp_path / "gc.csv"
    args = ["gc", "--with-peaks", "-w", "0.1", "--out", str(out), "--cache", str(cache)]
    assert _invoke(runner, args).exit_code == 0
    fresh = store.load(out).column("g_cF").tolist()
    (path,) = [p for p in cache.glob("*.sweep") if store.load(p).meta["kind"] == "qfi-peak"]
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(store.SchemaError):
        store.load(path)
    assert _invoke(runner, args).exit_code == 0
    assert store.load(out).column("g_cF").tolist() == fresh
    assert store.load(path).meta["kind"] == "qfi-peak"


def test_gc_peaks_past_the_old_search_range(runner, tmp_path):
    # the peaks lie at g_bar 4.3140 and 12.987, beyond the former search
    # window (0.5, 3), whose end the search used to return
    out = tmp_path / "gc.csv"
    result = _invoke(runner, ["gc", "--with-peaks", "-w", "5", "-w", "50",
                              "--out", str(out), "--cache", str(tmp_path / "c")])
    assert result.exit_code == 0
    rec = store.load(out)
    gbar = rec.column("g_cF") / rec.column("gc0")
    assert gbar == pytest.approx([4.3140, 12.987], abs=1e-3)
    assert rec.column("status").tolist() == [0.0, 0.0]


def test_failed_peak_is_explicit(runner, tmp_path):
    # at w/W = 1e-5 the peak search needs a cutoff above the limit and fails
    # before any solve: status 1, g_cF = NaN, nothing cached, exit 3
    cache = tmp_path / "cache"
    out = tmp_path / "gc.csv"
    result = _invoke(runner, ["gc", "--with-peaks", "-w", "0.1", "-w", "1e-5",
                              "--out", str(out), "--cache", str(cache)])
    assert result.exit_code == 3
    assert "omega/Omega = 1e-05: QFI peak search failed" in result.stderr
    rec = store.load(out)
    assert rec.column("status").tolist() == [0.0, 1.0]
    assert np.isnan(rec.column("g_cF")[1]) and np.isnan(rec.column("gcF_over_gc2")[1])
    assert rec.column("g_cF")[0] > 0.0
    assert [store.load(p).meta["omega"] for p in cache.glob("*.sweep")] == [0.1]

    fit = tmp_path / "fit.json"
    result = _invoke(runner, ["fit", "-w", "0.1", "-w", "0.2", "-w", "0.3", "-w", "1e-5",
                              "--max-order", "2", "--out", str(fit), "--cache", str(cache)])
    assert result.exit_code == 3
    assert "omega/Omega = 1e-05: QFI peak search failed" in result.stderr
    payload = json.loads(fit.read_text())
    assert [row[0] for row in payload["data"]] == [0.1, 0.2, 0.3]
    assert {f["order"] for f in payload["fits"]} == {2}


def test_gc_without_peaks_writes_nan_at_status_0(runner, tmp_path):
    # no peak was asked for: g_cF and its ratio are NaN, and nothing failed
    out = tmp_path / "gc.csv"
    result = _invoke(runner, ["gc", "--no-peaks", "-w", "0.1", "--out", str(out),
                              "--cache", str(tmp_path / "cache")])
    assert result.exit_code == 0
    rec = store.load(out)
    assert np.isnan(rec.column("g_cF")[0]) and np.isnan(rec.column("gcF_over_gc2")[0])
    assert rec.column("status").tolist() == [0.0]
    assert out.read_text().splitlines()[1].split(",")[7] == "nan"
    assert not (tmp_path / "cache").exists()


def test_fit_drops_repeated_ratios(runner, tmp_path):
    # one ratio given three times is one data point: too few to fit
    cache = str(tmp_path / "cache")
    result = runner.invoke(main, ["fit", "-w", "0.1", "-w", "0.1", "-w", "0.1",
                                  "--out", str(tmp_path / "fit.json"), "--cache", cache])
    assert result.exit_code == 2
    assert "insufficient data points" in result.stderr
    assert not (tmp_path / "fit.json").exists()
    # a repeat is dropped and the first of each ratio is kept
    fits = {}
    for name, ratios in (("once", ["0.1", "0.2", "0.3"]), ("twice", ["0.1", "0.2", "0.1", "0.3"])):
        out = tmp_path / f"{name}.json"
        args = ["fit", "--max-order", "2", "--out", str(out), "--cache", cache]
        assert _invoke(runner, args + [arg for r in ratios for arg in ("-w", r)]).exit_code == 0
        fits[name] = json.loads(out.read_text())
    assert fits["twice"] == fits["once"]


@pytest.mark.parametrize("args", [
    ["gc", "-w", "0"],
    ["pp-sweep", "-w", "0"],
    ["map", "--omega-min", "0"],
    ["map", "--omega-min", "0.5", "--omega-max", "0.02"],
    ["map", "--omega-steps", "0"],
    ["pp-sweep", "-w", "0.1", "--gbar-min", "-0.5"],
    ["qfi-sweep", "-w", "0.1", "--gbar-min", "-0.5"],
    ["gc", "-w", "inf"],
    ["gc", "-w", "nan"],
    ["pp-sweep", "-w", "nan"],
    ["qfi-sweep", "-w", "inf"],
    ["map", "--omega-max", "inf"],
    ["map", "--omega-min", "nan"],
    ["qfi-sweep", "-w", "0.1", "--gbar-min", "nan"],
    ["qfi-sweep", "-w", "0.1", "--gbar-max", "inf"],
    ["pp-sweep", "-w", "0.1", "--gbar-max", "nan"],
    ["map", "--gbar-min", "-inf"],
    ["gc", "--dc1", "0"],
    ["gc", "--dc1", "nan"],
    ["gc", "--dc1", "-1"],
    # finite values past the domains, where the closed forms and cutoffs overflow
    ["gc", "-w", "1e100"],
    ["gc", "-w", "1e300"],
    ["gc", "-w", "1e-300"],
    ["gc", "-w", "1e-30"],
    ["gc", "--dc1", "1e300"],
    ["gc", "--dc1", "1e-100"],
    ["fit", "-w", "1e21"],
    ["qfi-sweep", "-w", "1e300"],
    ["pp-sweep", "-w", "1e-300"],
    ["map", "--omega-min", "1e299", "--omega-max", "1e300", "--omega-steps", "1"],
    ["qfi-sweep", "-w", "0.1", "--gbar-max", "1e300"],
    ["pp-sweep", "-w", "0.1", "--gbar-max", "1e300"],
    ["map", "--gbar-max", "1e300"],
    ["qfi-sweep", "-w", "0.1", "--gbar-max", "1.1e6"],
])
def test_out_of_domain_input_is_a_usage_error(runner, tmp_path, args):
    result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    [*command, *ends]
    for ends in (["-w", "1e-20"], ["-w", "1e20"])
    for command in (["qfi-sweep", "--method", "both", "--gbar-steps", "3"],
                    ["pp-sweep", "--gbar-steps", "3"], ["gc", "--with-peaks"], ["fit"])
] + [
    ["gc", "-w", "1e-20", "-w", "1e20", "--dc1", "1e-20"],
    ["gc", "-w", "1e-20", "-w", "1e20", "--dc1", "1e20"],
    ["map", "--omega-min", "1e-20", "--omega-max", "1e20", "--omega-steps", "2",
     "--gbar-steps", "3"],
] + [
    [*command, "--gbar-min", "0", "--gbar-max", "1e6", "--gbar-steps", "3"]
    for command in (["qfi-sweep", "--method", "both", "-w", "0.1"], ["pp-sweep", "-w", "0.1"],
                    ["map", "--omega-steps", "1"])
])
def test_domain_ends_give_values_or_explicit_failures(runner, tmp_path, args):
    # at each end of each option domain every command runs to exit 0, or to
    # exit 3 with its failed values written as NaN; no traceback
    cache = [] if args[0] == "pp-sweep" else ["--cache", str(tmp_path / "cache")]
    result = runner.invoke(main, [*args, *cache, "--out", str(tmp_path / "out")])
    assert result.exit_code in (0, 3), result.output


MAP_ARGS = ["map", "--omega-min", "0.1", "--omega-max", "0.3", "--omega-steps", "2",
            "--gbar-min", "1.0", "--gbar-max", "1.8", "--gbar-steps", "9"]
MAP_FILES = ("map_qfi.csv", "map_susceptibility.csv", "map_overlays.csv")


def _map(runner, tmp_path, cache, name="map"):
    """(exit code, {file: bytes}) of ``MAP_ARGS`` written under ``tmp_path/name``."""
    result = _invoke(runner, [*MAP_ARGS, "--out", str(tmp_path / name), "--cache", str(cache)])
    files = {f: (tmp_path / f"{name}_{f[4:]}").read_bytes() for f in MAP_FILES}
    return result.exit_code, files


def _raising(params):
    raise AssertionError("a cached map row was recomputed")


def test_map_replay_reads_the_cached_rows(runner, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    code, cold = _map(runner, tmp_path, cache, "cold")
    assert code == 0
    records = [store.load(path) for path in cache.glob("*.sweep")]
    assert sorted(rec.meta["omega"] for rec in records) == [0.1, 0.3]
    for rec in records:
        assert rec.meta["kind"] == "map-row"
        assert rec.meta["grid"] == [1.0, 1.8, 9]
        assert rec.columns == list(observables.MAP_ROW_COLUMNS)
        assert np.all(rec.column("residual") <= 1e-8) and np.all(rec.column("cutoff") > 0)
    monkeypatch.setattr(observables, "ground_state_response", _raising)
    code, replay = _map(runner, tmp_path, cache, "replay")
    assert code == 0
    assert replay == cold


def test_map_row_with_failed_cell_is_not_cached(runner, tmp_path, monkeypatch):
    # one failed cell in the w/W = 0.3 row: the row is empty in every file,
    # only the w/W = 0.1 row is cached, and a rerun computes the failed row again
    real = observables.ground_state_response
    calls = []

    def flaky(params):
        calls.append(params.omega)
        if params.omega > 0.2 and params.g_bar > 1.7:
            raise NonconvergenceError("cutoff limit reached")
        return real(params)

    monkeypatch.setattr(observables, "ground_state_response", flaky)
    cache = tmp_path / "cache"
    code, files = _map(runner, tmp_path, cache)
    assert code == 3
    assert [store.load(p).meta["omega"] for p in cache.glob("*.sweep")] == [0.1]
    last = files["map_qfi.csv"].decode().splitlines()[-1].split(",")
    assert float(last[0]) == 0.3 and set(last[1:]) == {"nan"}
    assert len(calls) == 18

    code, _ = _map(runner, tmp_path, cache)
    assert code == 3
    assert len(calls) == 27
    monkeypatch.setattr(observables, "ground_state_response", real)
    code, _ = _map(runner, tmp_path, cache)
    assert code == 0
    assert len(list(cache.glob("*.sweep"))) == 2


def test_map_row_under_an_older_ed_version_misses(runner, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    current = store.CODE_VERSIONS["ed"]
    monkeypatch.setitem(store.CODE_VERSIONS, "ed", "qrabi-0.1.0+ed-older")
    code, old = _map(runner, tmp_path, cache)
    assert code == 0
    monkeypatch.setitem(store.CODE_VERSIONS, "ed", current)
    before = set(cache.glob("*.sweep"))
    code, new = _map(runner, tmp_path, cache)
    assert code == 0
    assert len(set(cache.glob("*.sweep")) - before) == 2
    assert new == old


def test_corrupt_map_row_record_is_recomputed(runner, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    code, fresh = _map(runner, tmp_path, cache)
    assert code == 0
    (path,) = [p for p in cache.glob("*.sweep") if store.load(p).meta["omega"] == 0.3]
    path.write_bytes(path.read_bytes()[:60])
    with pytest.raises(store.SchemaError):
        store.load(path)
    code, again = _map(runner, tmp_path, cache)
    assert code == 0
    assert again == fresh
    assert store.load(path).meta["kind"] == "map-row"
    monkeypatch.setattr(observables, "ground_state_response", _raising)
    assert _map(runner, tmp_path, cache) == (0, fresh)


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


# Run in a fresh interpreter: the ED commands on tiny grids, then the PP
# commands; prints which of the slow-to-import modules each stage has loaded.
IMPORT_BUDGET_SCRIPT = """
import json, sys
from qrabi.cli import main

SLOW = tuple(sys.argv[1:])
loaded = {}
ratios = ["-w", "0.05", "-w", "0.1", "-w", "0.2"]
for name, args in (
        ("import", None),
        ("qfi-sweep", ["qfi-sweep", "--method", "ed", "-w", "0.1", "--gbar-steps", "5"]),
        ("map", ["map", "--omega-steps", "2", "--gbar-steps", "5"]),
        ("gc", ["gc", "--with-peaks", *ratios]),
        ("fit", ["fit", *ratios]),
        ("pp-sweep", ["pp-sweep", "-w", "0.1", "--gbar-steps", "5"]),
        ("qfi-sweep both", ["qfi-sweep", "--method", "both", "-w", "0.05", "--gbar-steps", "5"]),
        ("verify", ["verify"])):
    if args is not None:
        main(args, standalone_mode=False)
    loaded[name] = [m for m in SLOW if m in sys.modules]
# the script's own imports find the extension modules qrabi.lapack
# registered, so each extension was loaded once
registered = sys.modules["scipy.optimize._lbfgsb"]
import qrabi.lapack
import scipy.optimize
import scipy.linalg.lapack
loaded["shared _lbfgsb"] = scipy.optimize._lbfgsb_py._lbfgsb is registered
loaded["shared _flapack"] = scipy.linalg.lapack._flapack is qrabi.lapack._flapack
loaded["shared dstebz"] = scipy.linalg.lapack.dstebz is qrabi.lapack.dstebz
print(json.dumps(loaded))
"""


def _run_fresh(script, cwd, *argv):
    """The last line of ``script``'s output, parsed as JSON, from a fresh
    interpreter in ``cwd`` with its cache under ``cwd``."""
    import qrabi

    src = str(Path(qrabi.__file__).resolve().parents[1])
    env = dict(os.environ, QRM_CACHE_DIR=str(cwd / "cache"),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_no_command_loads_scipy_optimize_or_mpmath(tmp_path):
    loaded = _run_fresh(IMPORT_BUDGET_SCRIPT, tmp_path, "scipy.optimize", "mpmath",
                        "scipy.optimize._lbfgsb")
    for stage in ("import", "qfi-sweep", "map", "gc", "fit"):
        assert loaded[stage] == [], stage
    # the check is not vacuous: the PP optimizer loads scipy's L-BFGS-B
    # extension, by file, at its first run
    for stage in ("pp-sweep", "qfi-sweep both", "verify"):
        assert loaded[stage] == ["scipy.optimize._lbfgsb"], stage
    assert loaded["shared _lbfgsb"] is True
    assert (tmp_path / "fit_result.json").exists()


def test_no_command_loads_scipy_linalg(tmp_path):
    loaded = _run_fresh(IMPORT_BUDGET_SCRIPT, tmp_path, "scipy.linalg")
    for stage in ("import", "qfi-sweep", "map", "gc", "fit", "pp-sweep", "qfi-sweep both",
                  "verify"):
        assert loaded[stage] == [], stage
    # the check is not vacuous: the script's own import of scipy.linalg
    # reuses the extension qrabi.lapack loaded
    assert loaded["shared _flapack"] is True
    assert loaded["shared dstebz"] is True


LAPACK_FALLBACK_SCRIPT = """
import importlib.machinery, json, sys
if sys.argv[1] == "fallback":
    # no extension suffix: the lookups of scipy's _flapack and _lbfgsb files miss
    importlib.machinery.EXTENSION_SUFFIXES = []
import qrabi.lapack
report = {"direct": qrabi.lapack._flapack is not None,
          "scipy.linalg at import": "scipy.linalg" in sys.modules}
from qrabi.cli import main
main(["qfi-sweep", "--method", "ed", "-w", "0.1", "--gbar-steps", "5"], standalone_mode=False)
main(["pp-sweep", "-w", "0.1", "--gbar-steps", "5"], standalone_mode=False)
report["scipy.optimize after pp-sweep"] = "scipy.optimize" in sys.modules
import scipy.linalg.lapack
import scipy.optimize
report["routines of scipy.linalg.lapack"] = all(
    getattr(qrabi.lapack, name) is getattr(scipy.linalg.lapack, name)
    for name in qrabi.lapack.__all__)
report["_lbfgsb of scipy.optimize"] = qrabi.lapack.lbfgsb() is scipy.optimize._lbfgsb_py._lbfgsb
print(json.dumps(report))
"""


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_lapack_fallback_gives_identical_files(tmp_path):
    direct, fallback = tmp_path / "direct", tmp_path / "fallback"
    direct.mkdir()
    fallback.mkdir()
    assert _run_fresh(LAPACK_FALLBACK_SCRIPT, direct, "direct") == {
        "direct": True, "scipy.linalg at import": False,
        "scipy.optimize after pp-sweep": False,
        "routines of scipy.linalg.lapack": True, "_lbfgsb of scipy.optimize": True}
    # the fallback takes both extensions from scipy's own package imports
    assert _run_fresh(LAPACK_FALLBACK_SCRIPT, fallback, "fallback") == {
        "direct": False, "scipy.linalg at import": True,
        "scipy.optimize after pp-sweep": True,
        "routines of scipy.linalg.lapack": True, "_lbfgsb of scipy.optimize": True}
    files = _tree(direct)
    assert "pp_sweep.csv" in files and any(name.startswith("cache") for name in files)
    assert files == _tree(fallback)
