"""Command-line front end.

Subcommands: qfi-sweep, pp-sweep, gc, fit, map, verify. Curves are written as
CSV (via the sweep-store format), fit and peak summaries as JSON; plotting is
left to external tools.

Exit codes: 0 success, 2 configuration error (an option outside its domain,
NaN or infinite included), 3 partial numerical failure. A failed value is
written as NaN next to a status column. Frequency ratios and --dc1 lie in
[1e-20, 1e20] and g_bar bounds in [0, 1e6]; past them the closed-form
couplings and cutoffs overflow.
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
from .edsolver import ENERGY_TOL, RESPONSE_RESIDUAL_TOL, ground_state, ground_state_response
from .errors import NonconvergenceError, QrabiError
from .model import ModelParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3

DEFAULT_FREQS = critical.DEFAULT_FIT_GRID


class FiniteRange(click.FloatRange):
    """A float range that also refuses NaN and infinities."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not a finite number.", param, ctx)
        return value


# the domain of every frequency-ratio option and of --dc1: past it the
# closed forms of ``critical`` overflow (gc1 from a ratio of about 1e77,
# gc_xi below about 1e-103)
RATIO = FiniteRange(min=1e-20, max=1e20)
# the domain of every g_bar bound: at g_bar 1e300 the ED photon number and
# the polaron energy's powers of the displacement overflow
GBAR = FiniteRange(min=0.0, max=1e6)
# the numerics families behind a qfi-sweep record, by --method
SWEEP_FAMILIES = {"ed": ("ed",), "pp": ("pp",), "both": ("ed", "pp")}


def _cache_dir(cache):
    env = os.environ.get("QRM_CACHE_DIR")
    return Path(env) if env else Path(cache)


def _gbar_grid(gbar_min, gbar_max, gbar_steps):
    if gbar_max <= gbar_min or gbar_steps < 2:
        raise click.UsageError("need gbar-min < gbar-max and gbar-steps >= 2")
    return np.linspace(gbar_min, gbar_max, gbar_steps)


@click.group()
def main():
    """Quantum Rabi model transition tools: QFI sweeps, critical couplings, fits."""


@main.command("qfi-sweep")
@click.option("--omega-ratio", "-w", multiple=True, type=RATIO,
              default=DEFAULT_FREQS, show_default=True,
              help="Frequency ratios omega/Omega (repeatable).")
@click.option("--gbar-min", default=0.5, show_default=True, type=GBAR)
@click.option("--gbar-max", default=3.0, show_default=True, type=GBAR)
@click.option("--gbar-steps", default=126, show_default=True, type=int)
@click.option("--method", type=click.Choice(list(SWEEP_FAMILIES)), default="ed",
              show_default=True)
@click.option("--gc2-variant", default="alphaFS", show_default=True,
              type=click.Choice(sorted(critical.GC2_COEFFS)))
@click.option("--out", default="qfi_sweep", show_default=True,
              help="Output path prefix; one file per frequency.")
@click.option("--cache", default=".qrabi_cache", show_default=True,
              help="Cache directory (env QRM_CACHE_DIR overrides).")
def cmd_qfi_sweep(omega_ratio, gbar_min, gbar_max, gbar_steps, method,
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
            "tolerances": {"tol": ENERGY_TOL, "method": method},
            "code_version": store.code_version(*SWEEP_FAMILIES[method]),
            "omega_ratio": ratio, "gc2_variant": gc2_variant,
        }
        families = SWEEP_FAMILIES[method]
        columns = ["g", "gbar", "g_over_gc2",
                   *(f"F_Q_{f}{rel}" for f in families for rel in ("", "_rel")), "status"]
        record = store.cached(cache_dir, meta, columns, lambda: _qfi_sweep_payload(
            omega, Omega, grid, families, gc2_variant))
        any_partial = any_partial or bool(record.column("status").any())
        path = f"{out}_w{ratio:g}.csv"
        store.save(record, path)
        click.echo(f"wrote {path} ({record.data.shape[0]} points)")
    if any_partial:
        sys.exit(EXIT_PARTIAL)


def _qfi_sweep_payload(omega, Omega, grid, families, gc2_variant):
    """The qfi-sweep columns: g, g_bar, g/gc2, then F_Q and F_Q/max F_Q per
    family, NaN where that route failed, and the status (1 where any failed)."""
    base = ModelParams(omega, Omega, 0.0)
    gc2_val = critical.gc2(omega, Omega, gc2_variant).value
    cols = [grid * base.gc0, grid, grid * base.gc0 / gc2_val]
    failed = np.zeros(grid.size, dtype=bool)
    for family in families:
        if family == "ed":
            # map_row's F_Q per g, NaN where a response failed, taken per g_bar
            vals = observables.map_row(omega, Omega, grid)[:, 1] * base.gc0 ** 2
        else:
            vals = qfi.qfi_pp_full(polaron.continuation_sweep(omega, Omega, grid))
        mx = np.nanmax(vals) if np.any(np.isfinite(vals)) else math.nan
        cols += [vals, vals / mx]
        failed |= np.isnan(vals)
    cols.append(failed.astype(float))
    return np.column_stack(cols)


@main.command("pp-sweep")
@click.option("--omega-ratio", "-w", type=RATIO, required=True)
@click.option("--gbar-min", default=0.5, show_default=True, type=GBAR)
@click.option("--gbar-max", default=2.0, show_default=True, type=GBAR)
@click.option("--gbar-steps", default=151, show_default=True, type=int)
@click.option("--out", default="pp_sweep.csv", show_default=True)
@click.option("--cache", default=".qrabi_cache", show_default=True,
              help="Cache directory (env QRM_CACHE_DIR overrides).")
def cmd_pp_sweep(omega_ratio, gbar_min, gbar_max, gbar_steps, out, cache):
    """Variational polaron continuation sweep with ansatz parameters per point
    (one record for the whole grid).

    A point whose QFI assembly fails has status 1 and F_Q_pp = NaN; the
    record is then not cached, and the command exits 3.
    """
    grid = _gbar_grid(gbar_min, gbar_max, gbar_steps)
    omega, Omega = float(omega_ratio), 1.0
    # the key holds the whole grid: a PP value depends on the sweep's path
    meta = {"kind": "pp-sweep", "omega": omega, "Omega": Omega,
            "grid": [gbar_min, gbar_max, gbar_steps], "tolerances": {},
            "code_version": store.code_version("pp")}
    columns = ["gbar", "energy", "alpha", "beta", "zeta_alpha", "zeta_beta",
               "xi_alpha", "xi_beta", "F_Q_pp", "status"]
    record = store.cached(_cache_dir(cache), meta, columns,
                          lambda: _pp_sweep_payload(omega, Omega, grid))
    store.save(record, out)
    click.echo(f"wrote {out}")
    if record.column("status").any():
        sys.exit(EXIT_PARTIAL)


def _pp_sweep_payload(omega, Omega, grid):
    """The pp-sweep columns: g_bar, the optimum's energy and ansatz parameters,
    F_Q_pp (NaN where the QFI assembly failed) and the status (1 there)."""
    sweep = polaron.continuation_sweep(omega, Omega, grid)
    fq = qfi.qfi_pp_full(sweep)
    rows = [[grid[k], ans.energy, ans.alpha, ans.beta, ans.zeta_alpha, ans.zeta_beta,
             ans.xi_alpha, ans.xi_beta] for k, ans in enumerate(sweep.ansatz)]
    return np.column_stack([rows, fq, np.isnan(fq).astype(float)])


def _peak_cached(ratio, cache_dir):
    """ED QFI peak g_bar at omega/Omega = ratio, from the cache when a record
    of the same search exists; NaN, named on stderr, when the search fails."""
    omega, Omega = float(ratio), 1.0
    meta = {"kind": "qfi-peak", "omega": omega, "Omega": Omega,
            "grid": [], "tolerances": {"tol": ENERGY_TOL, "method": "ED"},
            "code_version": store.code_version("ed")}

    def search():
        try:
            est = qfi.find_peak(omega, Omega, method="ED")
        except QrabiError as exc:
            click.echo(f"omega/Omega = {ratio:g}: QFI peak search failed: {exc}", err=True)
            return [math.nan] * 5
        return [est.gbar_cf, est.g_cf, est.f_q_max, est.bracket_width, est.evaluations]

    record = store.cached(cache_dir, meta,
                          ["gbar_cf", "g_cf", "f_q_max", "bracket_width", "evaluations"], search)
    return float(record.column("gbar_cf")[0])


@main.command("gc")
@click.option("--omega-ratio", "-w", multiple=True, type=RATIO, default=DEFAULT_FREQS,
              show_default=True)
@click.option("--dc1", default=critical.DEFAULT_DC1, show_default=True, type=RATIO)
@click.option("--with-peaks/--no-peaks", default=False, show_default=True,
              help="Also compute/cache the numeric QFI-peak coupling g_cF.")
@click.option("--cache", default=".qrabi_cache", show_default=True)
@click.option("--out", default="gc_table.csv", show_default=True)
def cmd_gc(omega_ratio, dc1, with_peaks, cache, out):
    """Critical-coupling table in the gc0, gc1 and gc2 scalings.

    A ratio whose peak search fails has status 1 and g_cF = NaN, and the
    command exits 3. Without --with-peaks, g_cF is NaN at status 0.
    """
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
        gcf = _peak_cached(ratio, cache_dir) * g0.value if with_peaks else math.nan
        rows.append([
            ratio, g0.value, g1.value, gx.value, g2a.value, g2b.value, g2c.value,
            gcf,
            g1.value / g0.value, gx.value / g0.value, g2a.value / g0.value,
            g2a.value / g1.value,
            gcf / g2a.value,
            float(with_peaks and math.isnan(gcf)),
        ])
    meta = {"kind": "gc-table", "omega": list(omega_ratio), "Omega": 1.0,
            "grid": [], "tolerances": {"dc1": dc1, "tol": ENERGY_TOL},
            "code_version": store.code_version("ed")}
    record = store.SweepRecord(
        meta=meta,
        columns=["omega_ratio", "gc0", "gc1", "gcxi", "gc2_alphaFS",
                 "gc2_fourThirds", "gc2_fitted", "g_cF",
                 "gc1_over_gc0", "gcxi_over_gc0", "gc2_over_gc0",
                 "gc2_over_gc1", "gcF_over_gc2", "status"],
        data=np.array(rows),
    )
    store.save(record, out)
    click.echo(f"wrote {out}")
    if any(row[-1] for row in rows):
        sys.exit(EXIT_PARTIAL)


@main.command("fit")
@click.option("--omega-ratio", "-w", multiple=True, type=RATIO, default=DEFAULT_FREQS,
              show_default=True)
@click.option("--max-order", default=9, show_default=True, type=int)
@click.option("--cache", default=".qrabi_cache", show_default=True)
@click.option("--out", default="fit_result.json", show_default=True)
def cmd_fit(omega_ratio, max_order, cache, out):
    """Fractional vs integer-power least-squares fits of cached g_cF data.

    Ratios whose peak search fails are named on stderr and left out of the
    fits, and the command exits 3.
    """
    cache_dir = _cache_dir(cache)
    # a repeated ratio adds no data point; the first of each is kept
    peaks = [(ratio, _peak_cached(ratio, cache_dir) - 1.0) for ratio in dict.fromkeys(omega_ratio)]
    data = np.array([row for row in peaks if math.isfinite(row[1])])
    failed = len(data) < len(peaks)
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
        sys.exit(EXIT_PARTIAL if failed else EXIT_CONFIG)
    payload = {"data": data.tolist(), "fits": results}
    Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    click.echo(f"wrote {out}")
    if failed:
        sys.exit(EXIT_PARTIAL)


@main.command("map")
@click.option("--omega-min", default=0.02, show_default=True, type=RATIO)
@click.option("--omega-max", default=0.5, show_default=True, type=RATIO)
@click.option("--omega-steps", default=25, show_default=True, type=int)
@click.option("--gbar-min", default=0.8, show_default=True, type=GBAR)
@click.option("--gbar-max", default=2.0, show_default=True, type=GBAR)
@click.option("--gbar-steps", default=121, show_default=True, type=int)
@click.option("--out", default="map", show_default=True, help="Output path prefix.")
@click.option("--cache", default=".qrabi_cache", show_default=True,
              help="Cache directory (env QRM_CACHE_DIR overrides).")
def cmd_map(omega_min, omega_max, omega_steps, gbar_min, gbar_max, gbar_steps, out, cache):
    """Row-normalized density maps of F_Q and d|<x>|/dg with gc overlays.

    Each omega row is one cached record; a row with a failed cell is left
    NaN, is not cached, and makes the command exit 3.
    """
    if omega_max < omega_min or omega_steps < 1:
        raise click.UsageError("need omega-min <= omega-max and omega-steps >= 1")
    omega_grid = np.geomspace(omega_min, omega_max, omega_steps)
    gbar_grid = _gbar_grid(gbar_min, gbar_max, gbar_steps)
    cache_dir = _cache_dir(cache)
    meta = {"kind": "map-row", "Omega": 1.0, "grid": [gbar_min, gbar_max, gbar_steps],
            "tolerances": {"tol": ENERGY_TOL}, "code_version": store.code_version("ed")}
    # the raw cells of each omega row (observables.map_row), one cached record per row
    rows = [store.cached(cache_dir, {**meta, "omega": float(w)}, list(observables.MAP_ROW_COLUMNS),
                         lambda: observables.map_row(float(w), 1.0, gbar_grid)).data
            for w in omega_grid]
    cmap = observables.assemble_map(omega_grid, gbar_grid, rows, Omega=1.0)
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
def cmd_verify():
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
            state, _ = ground_state(params)
            check(name, abs(state.energy - exact) < 1e-12)
        except NonconvergenceError:
            check(name, False)

    try:
        response = ground_state_response(ModelParams(0.1, 1.0, 0.2))
    except QrabiError as exc:
        check(f"ED QFI ({exc})", False)
    else:
        report, bound = response.report, ENERGY_TOL * abs(response.state.energy)
        f_q = response.fisher_information
        check(f"cutoff energy bound {report.energy_delta:.1e} <= tol |E0| = {bound:.1e} "
              f"(cutoff {report.final_cutoff} against truncation {report.truncation_cutoff}, "
              f"eigensolves {report.eigensolves})", report.energy_delta <= bound)
        check("F_Q >= 0", f_q >= 0)
        rel = 4.0 * response.first_derivative_term ** 2 / f_q
        check("<psi'|psi> negligible", rel < 1e-10)
        check(f"linear-response residual {response.residual:.1e} < {RESPONSE_RESIDUAL_TOL:.0e} "
              f"(cutoff {response.state.cutoff})", response.residual < RESPONSE_RESIDUAL_TOL)

    base = ModelParams(0.1, 1.0, 0.0)
    params = base.with_g(1.2 * base.gc0)
    step = 1e-5 * params.g
    try:
        exact = ground_state_response(params).dfisher_dg()
        central = (ground_state_response(params.with_g(params.g + step)).fisher_information
                   - ground_state_response(params.with_g(params.g - step)).fisher_information
                   ) / (2.0 * step)
    except QrabiError as exc:
        check(f"dF_Q/dg ({exc})", False)
    else:
        rel = abs(exact - central) / abs(central)
        check(f"dF_Q/dg vs central difference of F_Q: rel {rel:.1e} < 1e-6", rel < 1e-6)

    residuals = [critical.gc_xi_residual(r, 1.0) for r in np.geomspace(1e-3, 3.0, 50)]
    check("gc_xi defining-equation residual < 1e-10", max(residuals) < 1e-10)

    params = base.with_g(1.2 * base.gc0)
    ans = polaron.optimize(params)
    state, _ = ground_state(params)
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
