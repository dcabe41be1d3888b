"""The four benchmark workloads: CLI arguments drawn from a seed, output
parsing, and output checks.

Each workload turns a seed into the exact ``qrabi`` command lines of one cold
run. The seed only moves grids by a fraction of a grid step, so every seed
exercises the same regimes with the same amount of work. An *output* is one
result a user reads: a grid point of a QFI curve, a located peak, or a map
cell. Every output ends up in one of three states:

* delivered and passing its checks;
* failed explicitly by the program (status column, ``-1`` sentinel, empty or
  NaN cell, failed map row, missing file or row);
* delivered but failing a check (counted failed and marks the run incorrect).

The check bounds are those of the repository's acceptance criteria 03, 07,
09 and 10, unchanged. Reference couplings (gc0, gc2) are computed here from
their closed forms rather than taken from the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 20240316

# gc2/gc0 = 1 + c1 r^(2/3) + c2 r^(4/3), the "alphaFS" coefficients the CLI
# uses by default and criteria 03 and 10 compare against
GC2_ALPHA_FS = (1.37, -0.125)
FIT_GRID = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
SENTINEL = -1.0


def gc2_ratio(r: float) -> float:
    c1, c2 = GC2_ALPHA_FS
    return 1.0 + c1 * r ** (2.0 / 3.0) + c2 * r ** (4.0 / 3.0)


def gc0(r: float) -> float:
    return 0.5 * math.sqrt(r)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _shifted(lo: float, hi: float, n: int, rng: random.Random, span: float = 1.0):
    """(lo, hi) moved together by a fraction in [-span/2, span/2) of one step."""
    off = (rng.random() - 0.5) * span * (hi - lo) / (n - 1)
    return lo + off, hi + off


def _num(text: str) -> float:
    text = text.strip()
    return float(text) if text else math.nan


def read_sweep(path: Path) -> dict[str, list[float]]:
    """Columns of a ``#qrm-sweep vN {json}`` file; empty cells read as NaN."""
    lines = path.read_text().splitlines()
    magic, _version, meta = lines[0].split(" ", 2)
    if magic != "#qrm-sweep":
        raise ValueError(f"{path.name}: not a sweep file")
    columns = json.loads(meta)["columns"]
    rows = [[_num(c) for c in line.split(",")] for line in lines[1:] if line.strip()]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"{path.name}: row width {len(row)} != {len(columns)}")
    return {name: [row[i] for row in rows] for i, name in enumerate(columns)}


def read_matrix(path: Path) -> list[tuple[float, list[float]]]:
    """[(w, row values)] of a map CSV, below its gbar header line."""
    rows = []
    for line in path.read_text().splitlines()[1:]:
        cells = [_num(c) for c in line.split(",")]
        rows.append((cells[0], cells[1:]))
    return rows


def _failed_value(value: float, status: float) -> bool:
    return status != 0.0 or not math.isfinite(value) or value == SENTINEL


@dataclass
class Outcome:
    """Per-output results of one run of a workload's commands."""

    attempted: int = 0
    values: dict = field(default_factory=dict)     # output id -> delivered value(s)
    failed: set = field(default_factory=set)       # output ids failed by the program
    wrong: dict = field(default_factory=dict)      # output id -> failed check

    def fail(self, oid, reason: str | None = None):
        if reason is None:
            self.failed.add(oid)
        else:
            self.wrong.setdefault(oid, reason)

    @property
    def ok(self) -> int:
        return sum(1 for oid in self.values if oid not in self.failed and oid not in self.wrong)


def same_values(a: Outcome, b: Outcome, rel: float = 1e-9) -> list[str]:
    """Outputs whose delivered values differ between two runs of one input."""
    diffs = []
    for oid in sorted(set(a.values) | set(b.values), key=str):
        va, vb = a.values.get(oid), b.values.get(oid)
        if va is None or vb is None:
            if (va is None) != (vb is None):
                diffs.append(f"{oid}: delivered in one run only")
            continue
        for x, y in zip(va, vb):
            if not (x == y or abs(x - y) <= rel * max(abs(x), abs(y))):
                diffs.append(f"{oid}: {x!r} != {y!r}")
                break
    return diffs


class Workload:
    name = ""

    def commands(self, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def outcome(self, out: Path) -> Outcome:
        raise NotImplementedError

    def reference_check(self, outcome: Outcome) -> None:
        """Checks that need independent computation; run once per benchmark run."""


class EdSweep(Workload):
    """qfi-sweep --method ed; outputs are the grid points of every row."""

    name = "ed_sweep"
    RATIOS = (0.001, 0.005, 0.02, 0.1, 0.5)
    STEPS = 63

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.gmin, self.gmax = _shifted(0.5, 3.0, self.STEPS, rng)
        self.grid = _linspace(self.gmin, self.gmax, self.STEPS)

    def commands(self, out):
        args = ["qfi-sweep", "--method", "ed"]
        for r in self.RATIOS:
            args += ["-w", repr(r)]
        args += ["--gbar-min", repr(self.gmin), "--gbar-max", repr(self.gmax),
                 "--gbar-steps", str(self.STEPS), "--out", str(out / "ed")]
        return [args]

    def outcome(self, out):
        res = Outcome()
        for r in self.RATIOS:
            ids = [(r, k) for k in range(self.STEPS)]
            res.attempted += len(ids)
            try:
                cols = read_sweep(out / f"ed_w{r:g}.csv")
                n = len(cols["gbar"])
                rows = list(zip(cols["gbar"], cols["F_Q_ed"], cols.get("status", [0.0] * n)))
            except (OSError, ValueError, KeyError, IndexError):
                rows = []
            for oid in ids:
                k = oid[1]
                if len(rows) != self.STEPS or abs(rows[k][0] - self.grid[k]) > 1e-9:
                    res.fail(oid)
                    continue
                _, fq, status = rows[k]
                res.values[oid] = (fq,)
                if _failed_value(fq, status):
                    res.fail(oid)
                elif fq < 0.0:
                    res.fail(oid, f"F_Q {fq!r} < 0")
        return res


class PeakFit(Workload):
    """gc --with-peaks, then fit from the cache gc filled; outputs are the peaks.

    No grid of this workload reaches the CLI, so the seed changes nothing.
    """

    name = "peak_fit"

    def __init__(self, seed: int):
        self.ratios = FIT_GRID

    def commands(self, out):
        ws = []
        for r in self.ratios:
            ws += ["-w", repr(r)]
        return [["gc", "--with-peaks", *ws, "--out", str(out / "gc_table.csv")],
                ["fit", *ws, "--out", str(out / "fit_result.json")]]

    def outcome(self, out):
        res = Outcome(attempted=len(self.ratios))
        try:
            cols = read_sweep(out / "gc_table.csv")
            table = dict(zip(cols["omega_ratio"], cols["g_cF"]))
        except (OSError, ValueError, KeyError, IndexError):
            table = {}
        try:
            fit = json.loads((out / "fit_result.json").read_text())
            fit_data = {r: y for r, y in fit["data"]}
            residual = {(f["basis"], f["order"]): f["residual"] for f in fit["fits"]}
            ratio = (residual[("integer-powers", 2)]
                     / residual[("fractional-2/3-powers", 2)])
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
            fit_data, ratio = None, math.nan
        for r in self.ratios:
            g_cf = table.get(r, math.nan)
            if _failed_value(g_cf, 0.0):
                res.fail(r)
                continue
            gbar_cf = g_cf / gc0(r)
            res.values[r] = (gbar_cf, ratio)
            dev = abs(gbar_cf / gc2_ratio(r) - 1.0)
            if not dev < 0.01:                                      # criterion 03
                res.fail(r, f"|g_cF/gc2 - 1| = {dev:.2e} >= 1e-2")
            elif fit_data is None or r not in fit_data:
                res.fail(r, "peak missing from fit_result.json")
            elif abs(fit_data[r] - (gbar_cf - 1.0)) > 1e-9 * gbar_cf:
                res.fail(r, "fit data differs from the gc table")
            elif not ratio > 5.0:                                   # criterion 09
                res.fail(r, f"order-2 integer/fractional residual ratio {ratio:.3g} <= 5")
        return res


class PpSweep(Workload):
    """pp-sweep per ratio; outputs are the interior grid points."""

    name = "pp_sweep"
    RATIOS = (0.1, 0.02)
    STEPS = 51

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.grids = {r: _shifted(0.8, 1.8, self.STEPS, rng) for r in self.RATIOS}

    def commands(self, out):
        return [["pp-sweep", "-w", repr(r), "--gbar-min", repr(lo), "--gbar-max", repr(hi),
                 "--gbar-steps", str(self.STEPS), "--out", str(out / f"pp_w{r:g}.csv")]
                for r, (lo, hi) in self.grids.items()]

    def outcome(self, out):
        res = Outcome()
        for r, (lo, hi) in self.grids.items():
            grid = _linspace(lo, hi, self.STEPS)
            ids = [(r, k) for k in range(1, self.STEPS - 1)]   # endpoints are not outputs
            res.attempted += len(ids)
            try:
                cols = read_sweep(out / f"pp_w{r:g}.csv")
                n = len(cols["gbar"])
                rows = list(zip(cols["gbar"], cols["energy"], cols["F_Q_pp"],
                                cols.get("status", [0.0] * n)))
            except (OSError, ValueError, KeyError, IndexError):
                rows = []
            for oid in ids:
                k = oid[1]
                if len(rows) != self.STEPS or abs(rows[k][0] - grid[k]) > 1e-9:
                    res.fail(oid)
                    continue
                gbar, energy, fq, status = rows[k]
                res.values[oid] = (fq, energy, gbar)
                if _failed_value(fq, status) or not math.isfinite(energy):
                    res.fail(oid)
                elif fq < 0.0:
                    res.fail(oid, f"F_Q {fq!r} < 0")
        return res

    def reference_check(self, outcome):
        """Variational bound at every point, and criterion 07 at w/W = 0.1."""
        from qrabi import edsolver, qfi
        from qrabi.errors import QrabiError
        from qrabi.model import ModelParams

        for oid, (fq, energy, gbar) in outcome.values.items():
            if oid in outcome.failed or oid in outcome.wrong:
                continue
            r = oid[0]
            params = ModelParams(r, 1.0, gbar * gc0(r))
            try:
                state, _ = edsolver.ground_state(params)
                f_ed = None
                if r == 0.1 and 0.8 - 1e-9 <= gbar <= 1.6 + 1e-9:
                    f_ed = qfi.qfi_ed(params, check_step=False).f_q_gbar
            except QrabiError as exc:
                outcome.fail(oid, f"ED reference failed: {exc}")
                continue
            if energy < state.energy - 1e-12:
                outcome.fail(oid, f"E_PP {energy!r} below E_ED {state.energy!r}")
            elif f_ed is not None and not abs(fq / f_ed - 1.0) < 0.10:   # criterion 07
                outcome.fail(oid, f"|F_PP/F_ED - 1| = {abs(fq / f_ed - 1.0):.3f} >= 0.10")


class CoincidenceMap(Workload):
    """map over (w, gbar); outputs are the cells, a failed row fails all of its."""

    name = "map"
    ROWS = 9
    STEPS = 61        # g_bar step 0.02, the cell size of criterion 10
    RIDGE_CELLS = 2
    # a row costs more the lower w is (larger cutoffs); moving the w grid by at
    # most a twentieth of a step keeps the work per seed within a few percent
    OMEGA_SPAN = 0.1

    def __init__(self, seed: int):
        rng = random.Random(seed)
        log_lo, log_hi = _shifted(math.log(0.02), math.log(0.5), self.ROWS, rng,
                                  self.OMEGA_SPAN)
        self.wmin, self.wmax = math.exp(log_lo), math.exp(log_hi)
        self.gmin, self.gmax = _shifted(0.8, 2.0, self.STEPS, rng)

    def commands(self, out):
        return [["map", "--omega-min", repr(self.wmin), "--omega-max", repr(self.wmax),
                 "--omega-steps", str(self.ROWS), "--gbar-min", repr(self.gmin),
                 "--gbar-max", repr(self.gmax), "--gbar-steps", str(self.STEPS),
                 "--out", str(out / "map")]]

    def outcome(self, out):
        res = Outcome(attempted=self.ROWS * self.STEPS)
        try:
            qfi_rows = read_matrix(out / "map_qfi.csv")
            sus_rows = read_matrix(out / "map_susceptibility.csv")
            lines = (out / "map_overlays.csv").read_text().splitlines()[1:]
            overlays = [[_num(c) for c in line.split(",")] for line in lines]
        except (OSError, ValueError, IndexError):
            qfi_rows, sus_rows, overlays = [], [], []
        if not len(qfi_rows) == len(sus_rows) == len(overlays) == self.ROWS:
            qfi_rows = []
        cell = (self.gmax - self.gmin) / (self.STEPS - 1)
        for i in range(self.ROWS):
            ids = [(i, k) for k in range(self.STEPS)]
            if not qfi_rows:
                for oid in ids:
                    res.fail(oid)
                continue
            w, row = qfi_rows[i]
            _, sus = sus_rows[i]
            q_arg, s_arg = (overlays[i] + [math.nan] * 5)[3:5]
            row_failed = (len(row) != self.STEPS or len(sus) != self.STEPS
                          or not math.isfinite(q_arg)
                          or not all(math.isfinite(v) for v in row + sus))
            ridge = None
            if not row_failed:
                gap = abs(q_arg - s_arg)
                dev = abs(q_arg / gc2_ratio(w) - 1.0)
                if gap > self.RIDGE_CELLS * cell + 1e-12:            # criterion 10
                    ridge = f"ridges {gap / cell:.1f} cells apart"
                elif not dev < 0.02:                                # criterion 10
                    ridge = f"QFI ridge {dev:.3f} from gc2"
            for oid, v in zip(ids, row if not row_failed else [math.nan] * self.STEPS):
                if row_failed:
                    res.fail(oid)
                    continue
                res.values[oid] = (v, sus[oid[1]])
                if ridge is not None:
                    res.fail(oid, f"row w={w:.4g}: {ridge}")
                elif not 0.0 <= v <= 1.0:
                    res.fail(oid, f"normalized F_Q {v!r} outside [0, 1]")
        return res


WORKLOADS = {cls.name: cls for cls in (EdSweep, PeakFit, PpSweep, CoincidenceMap)}
