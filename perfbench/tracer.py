"""Spans around calls into the qrabi layers, recorded from outside the package.

A traced run replaces each function in ``TARGETS`` with a wrapper in every
``qrabi`` namespace that binds it: the defining module (so module-internal
calls and ``kernels.pp_energy``-style attribute calls are seen) and every
module that imported it by name (``from .edsolver import ground_state`` in
``qfi``). Each call becomes one span: id, parent span, name, thread, start,
end, phase, the output it serves, the exception it raised, and a small
per-function note (basis rows of an eigensolve, cache hit, bytes written,
multi-start flag). Parent stacks are per thread, so calls made on the CLI's
thread pool start their own trees. Spans stay in memory until the run ends.

A target that no longer exists is listed in ``Tracer.absent``; its metrics
read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time

ROOT = 0
TARGETS = {
    "edsolver": ("sector_eigenpairs", "ground_state", "ground_state_fixed", "sector_gap"),
    "qfi": ("qfi_ed", "find_peak", "qfi_pp_full"),
    "polaron": ("optimize", "continuation_sweep", "parameter_derivatives"),
    "kernels": ("pp_energy",),
    "observables": ("susceptibility_sweep", "coincidence_map"),
    "critical": ("gc0", "gc1", "gc_xi", "gc2", "fit_fractional", "fit_fourier"),
    "store": ("lookup", "store", "save"),
}

# span tuple fields
SID, PARENT, NAME, THREAD, T0, T1, PHASE, OUTPUT, ERROR, NOTE = range(10)
FIELDS = ("id", "parent", "name", "thread", "start_s", "end_s", "phase", "output",
          "error", "note")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _point(omega, gbar):
    return f"w={omega:.6g} gbar={gbar:.6f}"


def _row(args, kwargs):
    return f"w={_arg(args, kwargs, 0, 'omega'):.6g}"


def _qfi_ed_output(args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    return _point(params.omega, params.g_bar)


def _qfi_pp_output(args, kwargs):
    sweep = _arg(args, kwargs, 0, "sweep")
    return _point(sweep.omega, float(sweep.gbar[_arg(args, kwargs, 1, "index")]))


OUTPUT_OF = {
    "qfi.qfi_ed": _qfi_ed_output,
    "qfi.find_peak": _row,
    "qfi.qfi_pp_full": _qfi_pp_output,
    "polaron.continuation_sweep": _row,
    "observables.susceptibility_sweep": _row,
}


def _basis_rows(args, kwargs, result):
    return int(result[1].shape[0])


def _hit(args, kwargs, result):
    return int(result is not None)


def _bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _multi_start(signature):
    def note(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bool(bound.arguments.get("multi_start", False)))
    return note


NOTE_OF = {
    "edsolver.sector_eigenpairs": _basis_rows,
    "store.lookup": _hit,
    "store.save": _bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.invocations: list[tuple] = []     # (phase, start, end, command)
        self.absent: list[str] = []
        self.phase = ""
        self._local = threading.local()
        self._next_id = itertools.count(1).__next__
        self._patched: list[tuple] = []

    def _wrap(self, name, func, output_of, note_of):
        local, spans, next_id = self._local, self.spans, self._next_id
        clock, thread_id, tracer = time.perf_counter, threading.get_ident, self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, output = stack[-1] if stack else (ROOT, "")
            if output_of is not None:
                try:
                    output = output_of(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass
            sid = next_id()
            stack.append((sid, output))
            error, result = "", None
            t0 = clock()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                note = 0
                if note_of is not None and not error:
                    try:
                        note = note_of(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, OSError):
                        pass
                spans.append((sid, parent, name, thread_id(), t0, t1, tracer.phase,
                              output, error, note))

        return traced

    def install(self):
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "qrabi" or n.startswith("qrabi.")]
        for modname, funcs in TARGETS.items():
            try:
                module = importlib.import_module(f"qrabi.{modname}")
            except ImportError:
                self.absent += [f"{modname}.{f}" for f in funcs]
                continue
            for fname in funcs:
                name = f"{modname}.{fname}"
                original = getattr(module, fname, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                note_of = NOTE_OF.get(name)
                if name == "polaron.optimize":
                    note_of = _multi_start(inspect.signature(original))
                wrapper = self._wrap(name, original, OUTPUT_OF.get(name), note_of)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def dump(self, path, origin: float):
        """Write the spans as CSV, times relative to ``origin``."""
        with open(path, "w") as fh:
            fh.write(",".join(FIELDS) + "\n")
            for s in sorted(self.spans, key=lambda s: s[T0]):
                fh.write(f"{s[SID]},{s[PARENT]},{s[NAME]},{s[THREAD]},{s[T0] - origin:.9f},"
                         f"{s[T1] - origin:.9f},{s[PHASE]},\"{s[OUTPUT]}\",{s[ERROR]},"
                         f"{s[NOTE]}\n")


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _clip(intervals, lo, hi):
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


def layer_metrics(tracer: Tracer, outputs: int) -> dict[str, float]:
    """Per-layer counts and times from the spans of one traced run.

    Store metrics cover the cold run and its replay; every other metric
    covers the cold run only. Times are busy times summed over threads.
    """
    spans = tracer.spans
    by_id = {s[SID]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[T1] - s[T0]

    def ancestors(s):
        while s[PARENT] != ROOT:
            s = by_id[s[PARENT]]
            yield s

    def layer(name):
        return name.split(".", 1)[0]

    def outermost_in_layer(s):
        return all(layer(a[NAME]) != layer(s[NAME]) for a in ancestors(s))

    cold = [s for s in spans if s[PHASE] == "cold"]
    named: dict[str, list[tuple]] = {}
    for s in cold:
        named.setdefault(s[NAME], []).append(s)

    def get(name):
        return named.get(name, [])

    def busy(spans):
        return sum((s[T1] - s[T0] for s in spans), 0.0)

    def total(name):
        return busy(get(name))

    def self_time(name):
        return busy(get(name)) - sum((child_time.get(s[SID], 0.0) for s in get(name)), 0.0)

    def per_output(count):
        return count / outputs if outputs else 0.0

    eig = get("edsolver.sector_eigenpairs")
    peaks = get("qfi.find_peak")
    peak_ids = {s[SID] for s in peaks}
    in_peaks = sum(1 for s in get("qfi.qfi_ed")
                   if any(a[SID] in peak_ids for a in ancestors(s)))
    sus_ids = {s[SID] for s in get("observables.susceptibility_sweep")}
    critical = [s for s in cold if layer(s[NAME]) == "critical" and outermost_in_layer(s)]
    store_all = [s for s in spans if layer(s[NAME]) == "store"]
    lookups = [s for s in store_all if s[NAME] == "store.lookup"]
    writes = [s for s in store_all if s[NAME] in ("store.store", "store.save")
              and outermost_in_layer(s)]

    # cli: wall of the cold invocations not covered by any span
    covered = [(s[T0], s[T1]) for s in cold]
    cli_wall = cli_covered = 0.0
    for phase, a, b, _ in tracer.invocations:
        if phase == "cold":
            cli_wall += b - a
            cli_covered += _union_length(_clip(covered, a, b))
    # pool: qfi_ed calls made straight from the CLI, on however many threads
    direct = [s for s in get("qfi.qfi_ed") if s[PARENT] == ROOT]
    workers = len({s[THREAD] for s in direct})
    ed_wall = _union_length([(s[T0], s[T1]) for s in direct])
    pool_efficiency = busy(direct) / (ed_wall * workers) if direct and ed_wall > 0 else 0.0

    n_optimize = len(get("polaron.optimize"))
    n_energy = len(get("kernels.pp_energy"))
    return {
        "edsolver.eigensolves": len(eig),
        "edsolver.eigensolves_per_output": per_output(len(eig)),
        "edsolver.eigensolve_s": total("edsolver.sector_eigenpairs"),
        "edsolver.basis_rows": sum(s[NOTE] for s in eig),
        "edsolver.max_cutoff": max((s[NOTE] - 1 for s in eig), default=0),
        "edsolver.ground_state_calls": len(get("edsolver.ground_state")),
        "edsolver.cutoff_search_s": total("edsolver.ground_state"),
        "edsolver.sector_gap_s": total("edsolver.sector_gap"),
        "edsolver.nonconvergence": sum(1 for s in get("edsolver.ground_state")
                                       if s[ERROR] == "NonconvergenceError"),
        "qfi.qfi_ed_calls": len(get("qfi.qfi_ed")),
        "qfi.qfi_ed_self_s": self_time("qfi.qfi_ed"),
        "qfi.qfi_ed_per_peak": in_peaks / len(peaks) if peaks else 0.0,
        "qfi.find_peak_s": total("qfi.find_peak"),
        "qfi.qfi_pp_full_s": total("qfi.qfi_pp_full"),
        "polaron.optimize_calls": n_optimize,
        "polaron.optimize_per_point": per_output(n_optimize),
        "polaron.multistart_calls": sum(s[NOTE] for s in get("polaron.optimize")),
        "polaron.optimize_self_s": self_time("polaron.optimize"),
        "polaron.continuation_sweep_s": total("polaron.continuation_sweep"),
        "polaron.parameter_derivatives_s": total("polaron.parameter_derivatives"),
        "kernels.pp_energy_calls": n_energy,
        "kernels.pp_energy_per_point": per_output(n_energy),
        "kernels.pp_energy_s": total("kernels.pp_energy"),
        "observables.susceptibility_sweep_s": total("observables.susceptibility_sweep"),
        "observables.ground_state_calls": sum(
            1 for s in get("edsolver.ground_state")
            if any(a[SID] in sus_ids for a in ancestors(s))),
        "observables.coincidence_map_self_s": self_time("observables.coincidence_map"),
        "critical.s": busy(critical),
        "store.lookups": len(lookups),
        "store.hits": sum(s[NOTE] for s in lookups),
        "store.lookup_s": busy(lookups),
        "store.store_s": busy(writes),
        "store.bytes_written": sum(s[NOTE] for s in store_all if s[NAME] == "store.save"),
        "cli.self_s": cli_wall - cli_covered,
        "cli.pool_efficiency": pool_efficiency,
    }
