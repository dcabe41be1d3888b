"""End-to-end and per-layer benchmark of the qrabi CLI.

    python3 perfbench/run.py --workload ed_sweep --seed 7 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Workloads, metrics and units are declared in ``BENCHMARK.json``; the last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with tracing off. Each
repetition is a fresh worker process (``worker.py``) that runs the workload's
commands cold against an empty cache, then replays them against the cache
that left (a replay that finds the cache still empty is one more cold run).
Repetitions run one after another for about ``--seconds``; the set-up time
is also sampled by five processes that only import the CLI. Run times are
wall seconds less the share of them the hypervisor stole from the machine
(see ``worker.py``); reported values are medians over all samples of the
run. The medians of the wall times as measured are printed too.

``--trace 1`` makes one traced repetition (spans around every layer call)
and untraced ones for the rest of ``--seconds``, and reports the per-layer
metrics plus the tracing overhead: traced minus median untraced cold wall
time, both less stolen time. The spans are written as CSV to
``--spans FILE``, or else into the run's working directory, which is removed
at exit.

``attempted`` and ``failed`` count CLI invocations; exit code 3 (partial
result) is a completed invocation whose failed points show in ``ok_frac``.
``correct`` is false when any delivered output fails a check, or when a
replay or a later repetition delivers different values for the same input.

BLAS and OpenMP are pinned to one thread. Working files live under
``.perfbench_tmp/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args, deadline):
    """Run one worker to completion and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a worker could start")
    env = dict(os.environ, **PINNED)
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"worker exited with {proc.returncode}")
    sys.stderr.write(proc.stderr[-2000:])
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no report: {exc}") from exc
    report["setup_s"] = report["ready"] - t0
    return report


def load_declared():
    """(end-to-end, per-layer) metric units by name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def declared_metrics(values, units):
    missing = set(units) - set(values)
    extra = set(values) - set(units)
    if missing or extra:
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
                         f"undeclared {sorted(extra)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def environment(probe):
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    nproc = None
    if shutil.which("nproc"):
        env = {k: v for k, v in os.environ.items() if k not in PINNED}
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, env=env,
                                   check=True).stdout)
    return {"nproc": nproc, "cpu_count": os.cpu_count(), "affinity": affinity,
            "numpy": probe["numpy"], "scipy": probe["scipy"],
            "using_numba": probe["using_numba"], "python": sys.version.split()[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None,
                    help="where the traced run writes its spans (CSV)")
    opts = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "qrabi" / "cli.py").is_file():
        raise BenchError(f"no qrabi sources under {ROOT / 'src'}")
    e2e_units, layer_units = load_declared()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(os.path.realpath(scratch / f"run-{os.getpid()}-{time.time_ns()}"))
    work.mkdir()
    try:
        return measure(opts, work, deadline, e2e_units, layer_units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def measure(opts, work, deadline, e2e_units, layer_units):
    base = ["--workload", opts.workload, "--seed", str(opts.seed)]
    n = 0

    def worker(mode, *extra):
        nonlocal n
        n += 1
        return spawn([*base, "--workdir", str(work / f"{mode}{n}"), "--mode", mode, *extra],
                     deadline)

    probes = [worker("probe") for _ in range(SETUP_PROBES)]
    info = {"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
            "trace": opts.trace, **environment(probes[0])}
    print("info " + json.dumps(info))

    traced = None
    start = time.monotonic()
    if opts.trace:
        spans = (opts.spans or work / f"trace-{opts.workload}.csv").resolve()
        traced = worker("traced", "--reference-check", "--spans", str(spans))
    # two repetitions at least (one beside a traced one), then another while
    # it is expected to end no later than half a repetition past the
    # measuring time
    reps, last, least = [], 0.0, 1 if traced else 2
    while len(reps) < least or time.monotonic() - start + 0.5 * last <= opts.seconds:
        t0 = time.monotonic()
        reps.append(worker("rep", *([] if reps or traced else ["--reference-check"])))
        last = time.monotonic() - t0

    everything = reps + ([traced] if traced else [])
    # the reference check ran on one repetition; the others delivered the same
    # values (checked below), so its failures are theirs too
    reference_wrong = (traced or reps[0])["reference_wrong"]
    for r in everything:
        r["ok"] -= len(reference_wrong)
    wrong = reference_wrong + [w for r in everything for w in r["wrong"]]
    first = everything[0]
    ref = workloads.Outcome(values=first["values"])
    for r in everything[1:]:
        wrong += [f"repetition {d}" for d in workloads.same_values(
            ref, workloads.Outcome(values=r["values"]))]
    attempted = sum(r["invocations"] for r in everything)
    failed = sum(r["failed_invocations"] for r in everything)
    for w in wrong[:20]:
        print(f"check failed: {w}")

    def samples(key):
        """Every untraced repetition's ``key`` times, pooled."""
        return [t for r in reps for t in r[key]]

    if opts.trace:
        untraced = statistics.median(samples("cold_s"))
        values = dict(traced["layers"])
        values["cli.cold_wall_s"] = untraced
        values["trace.overhead_s"] = traced["cold_s"][0] - untraced
        values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced
        for name in traced["absent"]:
            print(f"absent: {name} (not in the package; its metrics read 0)")
        print(f"spans: {traced['spans']}, written to {spans}"
              + ("" if opts.spans else " (removed at exit; keep them with --spans FILE)"))
        metrics = declared_metrics(values, layer_units)
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
            "ok_outputs_per_s": first["ok"] / statistics.median(samples("cold_s")),
            "ok_frac": first["ok"] / first["attempted"],
            "cache_replay_s": statistics.median(samples("replay_s")),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in reps),
        }
        metrics = declared_metrics(values, e2e_units)
        print(f"as measured: {first['ok'] / statistics.median(samples('cold_wall_s')):.6g} "
              f"ok outputs per second, replay {statistics.median(samples('replay_wall_s')):.6g} s")
    print("stolen share of the CPU time asked for: "
          + ", ".join(f"{r['stolen_frac']:.3f}" for r in everything))
    print(f"repetitions: {len(reps)}, outputs per repetition: {first['attempted']}, "
          f"ok: {first['ok']}, explicit failures: {first['explicit_failures']}, "
          f"exit codes: {','.join(first['exit_codes'])}")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        sys.exit(1)
