"""One benchmark process: import the CLI, run a workload through it, check.

Started by ``run.py`` with a fresh working directory; prints one JSON line.

    python3 perfbench/worker.py --workload ed_sweep --seed 1 --workdir DIR --mode rep

Modes:
  probe   import ``qrabi.cli`` and report when it was ready (set-up time);
  rep     cold run of the workload's commands, then replays of the same
          commands against the cache it left, until about two seconds of
          replays are measured;
  traced  like rep with one replay, with spans recorded around the layers.

The CLI runs in this process through its entry point, with its own defaults
(no ``--jobs``, no ``--step-h``); the cache goes to ``DIR/cache`` through
``QRM_CACHE_DIR`` and every output file to ``DIR/out``.

Each run of the commands is timed in wall seconds, and the machine's busy
and stolen CPU time over the run is read from ``/proc/stat`` (``cpu_ticks``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REPLAY_BUDGET_S = 2.0
MAX_REPLAYS = 100


def import_cli():
    """Import ``qrabi.cli`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import qrabi.cli

    if Path(qrabi.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"qrabi imported from {qrabi.cli.__file__}, not {SRC}")
    return qrabi.cli


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) CPU time of the whole machine so far, in clock ticks.

    Busy is user, nice, system, irq and softirq time over all CPUs; stolen is
    the time the hypervisor ran something else while a CPU of this machine
    had work. (0, 0) where ``/proc/stat`` is not available.
    """
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return v[0] + v[1] + v[2] + v[5] + v[6], v[7]


def invoke(cli, args, log) -> tuple[float, int | None]:
    """(wall seconds, exit code) of one CLI call; exit code None if it raised."""
    code = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            cli.main.main(args=args, prog_name="qrabi", standalone_mode=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a crash of the program is a failed invocation
            import traceback

            traceback.print_exc(file=log)
            log.write(f"invocation raised {type(exc).__name__}\n")
    return time.perf_counter() - t0, code


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--mode", choices=("probe", "rep", "traced"), required=True)
    ap.add_argument("--reference-check", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    opts = ap.parse_args(argv)

    cli = import_cli()
    ready = time.monotonic()
    from qrabi import kernels

    report = {"ready": ready, "using_numba": bool(kernels.using_numba())}
    if opts.mode == "probe":
        import numpy
        import scipy

        report.update(numpy=numpy.__version__, scipy=scipy.__version__)
        print(json.dumps(report))
        return 0

    import workloads

    workload = workloads.WORKLOADS[opts.workload](opts.seed)
    out = opts.workdir / "out"
    out.mkdir(parents=True)
    cache = opts.workdir / "cache"
    os.environ["QRM_CACHE_DIR"] = str(cache)
    commands = workload.commands(out)
    log = io.StringIO()
    codes = []

    tracer = None
    if opts.mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    runs = []           # (wall seconds, busy ticks, stolen ticks) of every run, in order

    def run_all(phase):
        """Run the commands once; returns the run's index in ``runs``."""
        if tracer is not None:
            tracer.phase = phase
        busy0, stolen0 = cpu_ticks()
        t0 = time.perf_counter()
        for args in commands:
            start = time.perf_counter()
            dt, code = invoke(cli, args, log)
            if tracer is not None:
                tracer.invocations.append((phase, start, start + dt, args[0]))
            codes.append(code)
        wall = time.perf_counter() - t0
        busy1, stolen1 = cpu_ticks()
        runs.append((wall, busy1 - busy0, stolen1 - stolen0))
        return len(runs) - 1

    origin = time.perf_counter()
    cold_runs = [run_all("cold")]
    cold = workload.outcome(out)
    replays = []
    while not replays or (tracer is None and len(replays) < MAX_REPLAYS
                          and sum(runs[i][0] for i in replays) < REPLAY_BUDGET_S):
        # a replay that finds the cache empty does all the work again: it is
        # one more cold run (pp-sweep and map store nothing)
        empty = not any(cache.iterdir()) if cache.is_dir() else True
        replays.append(run_all("replay"))
        if empty and tracer is None:
            cold_runs.append(replays[-1])
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    replay = workload.outcome(out)

    def unstolen(indices):
        """Wall times of the runs ``indices``, each times the share of the CPU time
        the machine asked for that it got over those runs together: the time
        they would take had the hypervisor stolen none. Replays shorter than a
        clock tick are only measurable together."""
        busy = sum(runs[i][1] for i in indices)
        stolen = sum(runs[i][2] for i in indices)
        return [runs[i][0] * (busy / (busy + stolen) if busy else 1.0) for i in indices]

    wrong = [f"{oid}: {why}" for oid, why in sorted(cold.wrong.items(), key=str)]
    wrong += [f"replay differs at {d}" for d in workloads.same_values(cold, replay)]
    ok = cold.ok
    reference_wrong = []
    if opts.reference_check:
        checked = set(cold.wrong)
        workload.reference_check(cold)
        reference_wrong = [f"{oid}: {why}" for oid, why in sorted(cold.wrong.items(), key=str)
                           if oid not in checked]

    report.update(
        cold_s=[t for i in cold_runs for t in unstolen([i])], replay_s=unstolen(replays),
        cold_wall_s=[runs[i][0] for i in cold_runs], replay_wall_s=[runs[i][0] for i in replays],
        stolen_frac=sum(r[2] for r in runs) / max(1, sum(r[1] + r[2] for r in runs)),
        peak_rss_kb=peak_rss_kb,
        # exit code 3 is a partial run whose failures show in the outputs
        invocations=len(codes), failed_invocations=sum(c not in (0, 3) for c in codes),
        exit_codes=sorted({str(c) for c in codes}),
        attempted=cold.attempted, ok=ok, explicit_failures=len(cold.failed),
        wrong=wrong, reference_wrong=reference_wrong,
        values={repr(k): v for k, v in cold.values.items()},
    )
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer, cold.attempted)
        report["absent"] = tracer.absent
        report["spans"] = len(tracer.spans)
        if opts.spans is not None:
            tracer.dump(opts.spans, origin)
    if report["failed_invocations"]:
        sys.stderr.write(log.getvalue()[-4000:])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
