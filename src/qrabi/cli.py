"""Command-line front end.

Subcommands: qfi-sweep, pp-sweep, gc, fit, map, verify. Curves are written as
CSV (via the sweep-store format), fit and peak summaries as JSON; plotting is
left to external tools.

Exit codes: 0 success, 2 configuration error, 3 partial numerical failure.
An unexpected internal error ends with a Python traceback and exit status 1.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import critical, observables, polaron, qfi, store
from .edsolver import RESPONSE_RESIDUAL_TOL, ground_state, ground_state_response
from .errors import NonconvergenceError, QrabiError
from .model import ModelParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3

DEFAULT_FREQS = critical.DEFAULT_FIT_GRID
# the numerics families behind a qfi-sweep record, by --method
SWEEP_FAMILIES = {"ed": ("ed",), "pp": ("pp",), "both": ("ed", "pp")}


def _cache_dir(cache):
    env = os.environ.get("QRM_CACHE_DIR")
    return Path(env) if env else Path(cache)


def _gbar_grid(gbar_min, gbar_max, gbar_steps):
    if gbar_max <= gbar_min or gbar_steps < 2:
        raise click.UsageError("need gbar-max > gbar-min and gbar-steps >= 2")
    return np.linspace(gbar_min, gbar_max, gbar_steps)


@click.group()
def main():
    """Quantum Rabi model transition tools: QFI sweeps, critical couplings, fits."""


@main.command("qfi-sweep")
@click.option("--omega-ratio", "-w", multiple=True, type=float,
              default=DEFAULT_FREQS, show_default=True,
              help="Frequency ratios omega/Omega (repeatable).")
@click.option("--gbar-min", default=0.5, show_default=True, type=float)
@click.option("--gbar-max", default=3.0, show_default=True, type=float)
@click.option("--gbar-steps", default=126, show_default=True, type=int)
@click.option("--method", type=click.Choice(list(SWEEP_FAMILIES)), default="ed",
              show_default=True)
@click.option("--tol", default=1e-10, show_default=True, type=float)
@click.option("--gc2-variant", default="alphaFS", show_default=True,
              type=click.Choice(sorted(critical.GC2_COEFFS)))
@click.option("--out", default="qfi_sweep", show_default=True,
              help="Output path prefix; one file per frequency.")
@click.option("--cache", default=".qrabi_cache", show_default=True,
              help="Cache directory (env QRM_CACHE_DIR overrides).")
def cmd_qfi_sweep(omega_ratio, gbar_min, gbar_max, gbar_steps, method, tol,
                  gc2_variant, out, cache):
    """QFI versus coupling at fixed frequency ratios (one record per ratio)."""
    grid = _gbar_grid(gbar_min, gbar_max, gbar_steps)
    cache_dir = _cache_dir(cache)
    any_partial = False
    for ratio in omega_ratio:
        omega, Omega = float(ratio), 1.0
        meta = {
            "kind": "qfi-sweep", "omega": omega, "Omega": Omega,
            "grid": [gbar_min, gbar_max, gbar_steps],
            "tolerances": {"tol": tol, "method": method},
            "code_version": store.code_version(*SWEEP_FAMILIES[method]),
            "omega_ratio": ratio, "gc2_variant": gc2_variant,
        }
        digest = store.compute_hash(meta)
        record = store.lookup(cache_dir, digest)
        if record is None:
            record, failed = _compute_qfi_sweep(
                omega, Omega, grid, method, tol, gc2_variant, meta)
            any_partial = any_partial or failed
            # a record with failed points is never cached, so a rerun retries them
            if not failed:
                store.store(cache_dir, record)
        path = f"{out}_w{ratio:g}.csv"
        store.save(record, path)
        click.echo(f"wrote {path} ({record.data.shape[0]} points)")
    if any_partial:
        sys.exit(EXIT_PARTIAL)


def _compute_qfi_sweep(omega, Omega, grid, method, tol, gc2_variant, meta):
    base = ModelParams(omega, Omega, 0.0)
    gc2_val = critical.gc2(omega, Omega, gc2_variant).value
    columns = ["g", "gbar", "g_over_gc2"]
    want_ed = method in ("ed", "both")
    want_pp = method in ("pp", "both")
    n = grid.size
    ed_vals = np.full(n, np.nan)
    if want_ed:
        for k in range(n):
            try:
                ed_vals[k] = qfi.qfi_ed(base.with_g(float(grid[k]) * base.gc0),
                                        tol=tol).f_q_gbar
            except QrabiError:
                pass
    pp_vals = np.full(n, np.nan)
    if want_pp:
        pp_vals = qfi.qfi_pp_full(polaron.continuation_sweep(omega, Omega, grid))
    cols = [grid * base.gc0, grid, grid * base.gc0 / gc2_val]
    if want_ed:
        columns += ["F_Q_ed", "F_Q_ed_rel"]
        mx = np.nanmax(ed_vals) if np.any(np.isfinite(ed_vals)) else math.nan
        cols += [np.nan_to_num(ed_vals, nan=-1.0), np.nan_to_num(ed_vals / mx, nan=-1.0)]
    if want_pp:
        columns += ["F_Q_pp", "F_Q_pp_rel"]
        mx = np.nanmax(pp_vals) if np.any(np.isfinite(pp_vals)) else math.nan
        cols += [np.nan_to_num(pp_vals, nan=-1.0), np.nan_to_num(pp_vals / mx, nan=-1.0)]
    columns.append("status")
    # a point fails when any route that ran failed there
    failed = (want_ed & ~np.isfinite(ed_vals)) | (want_pp & ~np.isfinite(pp_vals))
    cols.append(failed.astype(float))
    record = store.SweepRecord(meta=meta, columns=columns, data=np.column_stack(cols))
    return record, bool(np.any(failed))


@main.command("pp-sweep")
@click.option("--omega-ratio", "-w", type=float, required=True)
@click.option("--gbar-min", default=0.5, show_default=True, type=float)
@click.option("--gbar-max", default=2.0, show_default=True, type=float)
@click.option("--gbar-steps", default=151, show_default=True, type=int)
@click.option("--out", default="pp_sweep.csv", show_default=True)
def cmd_pp_sweep(omega_ratio, gbar_min, gbar_max, gbar_steps, out):
    """Variational polaron continuation sweep with ansatz parameters per point.

    A point whose QFI assembly fails has status 1 and F_Q_pp = -1, and the
    command exits 3.
    """
    grid = _gbar_grid(gbar_min, gbar_max, gbar_steps)
    omega, Omega = float(omega_ratio), 1.0
    sweep = polaron.continuation_sweep(omega, Omega, grid)
    fq = qfi.qfi_pp_full(sweep)
    failed = ~np.isfinite(fq)
    rows = [[grid[k], ans.energy, ans.alpha, ans.beta, ans.zeta_alpha, ans.zeta_beta,
             ans.xi_alpha, ans.xi_beta] for k, ans in enumerate(sweep.ansatz)]
    meta = {"kind": "pp-sweep", "omega": omega, "Omega": Omega,
            "grid": [gbar_min, gbar_max, gbar_steps], "tolerances": {}}
    record = store.SweepRecord(
        meta=meta,
        columns=["gbar", "energy", "alpha", "beta", "zeta_alpha", "zeta_beta",
                 "xi_alpha", "xi_beta", "F_Q_pp", "status"],
        data=np.column_stack([rows, np.where(failed, -1.0, fq), failed.astype(float)]),
    )
    store.save(record, out)
    click.echo(f"wrote {out}")
    if np.any(failed):
        sys.exit(EXIT_PARTIAL)


def _peak_cached(omega, Omega, cache_dir, tol):
    """ED QFI peak, from the cache when a record of the same search exists."""
    meta = {"kind": "qfi-peak", "omega": omega, "Omega": Omega,
            "grid": list(qfi.PEAK_RANGE), "tolerances": {"tol": tol, "method": "ED"},
            "code_version": store.code_version("ed")}
    digest = store.compute_hash(meta)
    record = store.lookup(cache_dir, digest)
    if record is not None:
        return float(record.column("gbar_cf")[0]), record
    est = qfi.find_peak(omega, Omega, method="ED", gbar_range=qfi.PEAK_RANGE, tol=tol)
    record = store.SweepRecord(
        meta=meta, columns=["gbar_cf", "g_cf", "f_q_max", "bracket_width", "evaluations"],
        data=np.array([[est.gbar_cf, est.g_cf, est.f_q_max, est.bracket_width,
                        est.evaluations]]),
    )
    store.store(cache_dir, record)
    return est.gbar_cf, record


@main.command("gc")
@click.option("--omega-ratio", "-w", multiple=True, type=float, default=DEFAULT_FREQS,
              show_default=True)
@click.option("--dc1", default=critical.DEFAULT_DC1, show_default=True, type=float)
@click.option("--tol", default=1e-10, show_default=True, type=float)
@click.option("--with-peaks/--no-peaks", default=False, show_default=True,
              help="Also compute/cache the numeric QFI-peak coupling g_cF.")
@click.option("--cache", default=".qrabi_cache", show_default=True)
@click.option("--out", default="gc_table.csv", show_default=True)
def cmd_gc(omega_ratio, dc1, tol, with_peaks, cache, out):
    """Critical-coupling table in the gc0, gc1 and gc2 scalings."""
    cache_dir = _cache_dir(cache)
    rows = []
    for ratio in omega_ratio:
        omega, Omega = float(ratio), 1.0
        g0 = critical.gc0(omega, Omega)
        g1 = critical.gc1(omega, Omega)
        gx = critical.gc_xi(omega, Omega, dc1)
        g2a = critical.gc2(omega, Omega, "alphaFS")
        g2b = critical.gc2(omega, Omega, "fourThirds")
        g2c = critical.gc2(omega, Omega, "fitted")
        outside = [f"{est.method} {est.ratio:.4g}" for est in (g2a, g2b, g2c)
                   if est.ratio <= 1.0]
        if outside:
            click.echo(f"warning: omega/Omega = {ratio:g} is outside the gc2 series' range: "
                       f"gc2/gc0 = {', '.join(outside)} (<= 1)", err=True)
        gcf = math.nan
        if with_peaks:
            gbar_cf, _ = _peak_cached(omega, Omega, cache_dir, tol)
            gcf = gbar_cf * g0.value
        rows.append([
            ratio, g0.value, g1.value, gx.value, g2a.value, g2b.value, g2c.value,
            gcf,
            g1.value / g0.value, gx.value / g0.value, g2a.value / g0.value,
            g2a.value / g1.value,
            gcf / g2a.value if math.isfinite(gcf) else -1.0,
        ])
    meta = {"kind": "gc-table", "omega": list(omega_ratio), "Omega": 1.0,
            "grid": [], "tolerances": {"dc1": dc1, "tol": tol}}
    record = store.SweepRecord(
        meta=meta,
        columns=["omega_ratio", "gc0", "gc1", "gcxi", "gc2_alphaFS",
                 "gc2_fourThirds", "gc2_fitted", "g_cF",
                 "gc1_over_gc0", "gcxi_over_gc0", "gc2_over_gc0",
                 "gc2_over_gc1", "gcF_over_gc2"],
        data=np.nan_to_num(np.array(rows), nan=-1.0),
    )
    store.save(record, out)
    click.echo(f"wrote {out}")


@main.command("fit")
@click.option("--omega-ratio", "-w", multiple=True, type=float, default=DEFAULT_FREQS,
              show_default=True)
@click.option("--tol", default=1e-10, show_default=True, type=float)
@click.option("--max-order", default=9, show_default=True, type=int)
@click.option("--cache", default=".qrabi_cache", show_default=True)
@click.option("--out", default="fit_result.json", show_default=True)
def cmd_fit(omega_ratio, tol, max_order, cache, out):
    """Fractional vs integer-power least-squares fits of cached g_cF data."""
    cache_dir = _cache_dir(cache)
    data = []
    for ratio in omega_ratio:
        gbar_cf, _ = _peak_cached(float(ratio), 1.0, cache_dir, tol)
        data.append((ratio, gbar_cf - 1.0))
    data = np.array(data)
    results = []
    for order in range(2, max_order + 1):
        if data.shape[0] < order + 1:
            break
        for fit_fn in (critical.fit_fractional, critical.fit_fourier):
            res = fit_fn(data, order)
            results.append({
                "basis": res.basis, "order": res.order,
                "coefficients": list(res.coefficients), "residual": res.residual,
            })
    if not results:
        click.echo("insufficient data points for fitting", err=True)
        sys.exit(EXIT_CONFIG)
    payload = {"data": data.tolist(), "fits": results}
    Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    click.echo(f"wrote {out}")


@main.command("map")
@click.option("--omega-min", default=0.02, show_default=True, type=float)
@click.option("--omega-max", default=0.5, show_default=True, type=float)
@click.option("--omega-steps", default=25, show_default=True, type=int)
@click.option("--gbar-min", default=0.8, show_default=True, type=float)
@click.option("--gbar-max", default=2.0, show_default=True, type=float)
@click.option("--gbar-steps", default=121, show_default=True, type=int)
@click.option("--tol", default=1e-10, show_default=True, type=float)
@click.option("--out", default="map", show_default=True, help="Output path prefix.")
def cmd_map(omega_min, omega_max, omega_steps, gbar_min, gbar_max, gbar_steps,
            tol, out):
    """Row-normalized density maps of F_Q and d|<x>|/dg with gc overlays."""
    omega_grid = np.geomspace(omega_min, omega_max, omega_steps)
    gbar_grid = _gbar_grid(gbar_min, gbar_max, gbar_steps)
    cmap = observables.coincidence_map(omega_grid, gbar_grid, Omega=1.0, tol=tol)
    header = ",".join(f"{g:.17g}" for g in gbar_grid)
    for name, mat in (("qfi", cmap.qfi), ("susceptibility", cmap.susceptibility)):
        path = f"{out}_{name}.csv"
        with open(path, "w") as fh:
            fh.write(f"#gbar,{header}\n")
            for w, row in zip(omega_grid, mat):
                fh.write(f"{w:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
        click.echo(f"wrote {path}")
    overlay_path = f"{out}_overlays.csv"
    with open(overlay_path, "w") as fh:
        fh.write("omega_ratio,gc0_gbar,gc2_gbar,qfi_argmax,susceptibility_argmax\n")
        for i, w in enumerate(omega_grid):
            fh.write(
                f"{w:.17g},{cmap.gc0_overlay[i]:.17g},{cmap.gc2_overlay[i]:.17g},"
                f"{cmap.qfi_argmax[i]:.17g},{cmap.susceptibility_argmax[i]:.17g}\n"
            )
    click.echo(f"wrote {overlay_path}")
    if cmap.failed_rows:
        click.echo(f"failed rows: {cmap.failed_rows}", err=True)
        sys.exit(EXIT_PARTIAL)


@main.command("verify")
@click.option("--tol", default=1e-10, show_default=True, type=float)
def cmd_verify(tol):
    """Run the quick invariant suite (exact limits, bounds, residuals)."""
    failures = 0

    def check(name, ok):
        nonlocal failures
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    # the exactly solvable limits: the photon vacuum at g = 0, and at Omega = 0
    # the oscillator displaced by g/omega
    for name, params, exact in (
            ("g=0 ground energy = -Omega/2", ModelParams(0.1, 1.0, 0.0), -0.5),
            ("Omega=0 ground energy = -g^2/omega", ModelParams(1.0, 0.0, 1.0), -1.0)):
        try:
            state, _ = ground_state(params, tol=tol)
            check(name, abs(state.energy - exact) < 1e-12)
        except NonconvergenceError:
            check(name, False)

    params = ModelParams(0.1, 1.0, 0.2)
    try:
        sample = qfi.qfi_ed(params, tol=tol)
        state, report = ground_state(params, tol=tol)
    except QrabiError as exc:
        check(f"ED QFI ({exc})", False)
    else:
        check(f"cutoff energy bound {sample.energy_delta:.1e} <= tol |E0| = "
              f"{tol * abs(state.energy):.1e} (cutoff {report.final_cutoff} against "
              f"truncation {report.truncation_cutoff}, eigensolves {report.eigensolves})",
              sample.energy_delta <= tol * abs(state.energy))
        check("F_Q >= 0", sample.f_q_g >= 0)
        rel = 4.0 * sample.first_derivative_term ** 2 / sample.f_q_g
        check("<psi'|psi> negligible", rel < 1e-10)
        check(f"linear-response residual {sample.residual:.1e} < {RESPONSE_RESIDUAL_TOL:.0e} "
              f"(cutoff {sample.cutoff})", sample.residual < RESPONSE_RESIDUAL_TOL)

    base = ModelParams(0.1, 1.0, 0.0)
    params = base.with_g(1.2 * base.gc0)
    step = 1e-5 * params.g
    try:
        exact = ground_state_response(params, tol=tol).dfisher_dg()
        central = (qfi.qfi_ed(params.with_g(params.g + step), tol=tol).f_q_g
                   - qfi.qfi_ed(params.with_g(params.g - step), tol=tol).f_q_g) / (2.0 * step)
    except QrabiError as exc:
        check(f"dF_Q/dg ({exc})", False)
    else:
        rel = abs(exact - central) / abs(central)
        check(f"dF_Q/dg vs central difference of F_Q: rel {rel:.1e} < 1e-6", rel < 1e-6)

    residuals = [critical.gc_xi_residual(r, 1.0) for r in np.geomspace(1e-3, 3.0, 50)]
    check("gc_xi defining-equation residual < 1e-10", max(residuals) < 1e-10)

    params = base.with_g(1.2 * base.gc0)
    ans = polaron.optimize(params)
    state, _ = ground_state(params, tol=tol)
    check("variational bound", ans.energy >= state.energy - 1e-12)

    # the closed-form energy Hessian and d_gbar grad E at the optimum against
    # central differences of the closed-form gradient, step 1e-5 in p and g_bar
    p = polaron._ansatz_to_vector(ans, params)
    _, _, hess, mixed = polaron._objective(p, params, hessian=True)

    def grad(q, gbar=1.2):
        return polaron._objective(q, base.with_g(gbar * base.gc0))[1]

    h = 1e-5
    central = np.column_stack(
        [(grad(p + h * e) - grad(p - h * e)) / (2.0 * h) for e in np.eye(p.size)]
        + [(grad(p, 1.2 + h) - grad(p, 1.2 - h)) / (2.0 * h)])
    rel = np.max(np.abs(np.column_stack([hess, mixed]) - central)) / np.max(np.abs(central))
    check(f"energy Hessian vs central difference of the gradient: rel {rel:.1e} < 1e-6",
          rel < 1e-6)

    if failures:
        sys.exit(EXIT_PARTIAL)
    click.echo("all invariants passed")


if __name__ == "__main__":
    main()
