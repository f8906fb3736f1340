"""Host-wall benchmark of the Sweep3D/Cell reproduction.

    python3 perfbench/run.py                       # every workload, once
    python3 perfbench/run.py --workload isa-16 --seed 3 --seconds 10 --trace 0

Run from the root of a checkout.  An untraced run spawns
``perfbench/harness.py`` three times in turn, each in a fresh
interpreter: the first times ``--seconds`` of operations and checks
their outputs, the other two only set up.  The run prints every metric
by name and unit with its median, spread (the interquartile range as a
share of the median) and sample count, plus a host fingerprint.

The host is shared and its speed swings, so every timed solve is
rescaled to a reference host by the fixed slice of
``perfbench/calibrate.py`` timed just before and just after it (see
``harness.py``; ``serve-pool`` latencies are raw).  The set-ups of
``fused-16`` and ``isa-16`` are rescaled too -- each one, timed from
the spawn to the harness's ``READY`` line, by the slice timed here
just before the spawn and in the harness just after ``READY``
(``setup_s`` is the median of the three).  Those of ``serve-pool`` and
``cluster-2x1``, which start other processes, are not.  The raw median
walls and the host's median slowness are printed beside them.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The exit code is non-zero when any correctness
check or operation fails.

Simulated Cell time is a correctness check here, not a speed metric:
the clock measured is host wall, rescaled as above.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

import calibrate

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: wall a run's harnesses may take before they are killed (the run must
#: end in 180 s)
HARNESS_TIMEOUT = 150.0
#: fresh-interpreter set-ups per untraced run, each one ``setup_s`` sample
SETUPS = 3
#: the workloads whose set-ups run in one process, so the slice timed
#: here tracks them (rescaling cluster-2x1's multi-process set-ups by
#: it doubled their spread)
RESCALED = ("fused-16", "isa-16")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_start": os.getloadavg()[0],
    }


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def spawn_harness(root: pathlib.Path, argv: list[str], deadline: float,
                  rescale: bool):
    """Run one harness; returns ``(setup seconds, host slowness around
    the set-up (1 unless ``rescale``), result or None)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    cal = calibrate.calibrate() if rescale else None
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "harness.py"), *argv],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), kill)
    watchdog.start()
    setup = None
    slowness = None if rescale else 1.0
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup is None:
                setup = time.perf_counter() - t0
            elif line.startswith("CALIBRATED ") and slowness is None:
                after = float(line.split()[1])
                slowness = (cal + after) / 2 / calibrate.REFERENCE_S
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(
            f"harness {' '.join(argv)} exited with {proc.returncode}")
    if setup is None or slowness is None:
        raise RuntimeError(f"harness {' '.join(argv)} never became ready")
    return setup, slowness, result


def nearest_rank_tail(values: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least ten samples
    beyond it, as ``(value, percentile)``: the sample of rank ``n - 10``,
    the p75 of 40 samples.  It is never taken below the median: up to
    21 samples, where the rule has no answer or falls under it, the
    sample of rank ``n // 2 + 1`` stands in."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)  # 1-based
    return ordered[rank - 1], 100.0 * rank / n


def end_to_end(result: dict, setups: list[float]) -> dict:
    """The end-to-end rows ``(value, spread, n)`` of one run."""
    walls = result["walls"]
    if not walls:
        raise RuntimeError("no timed operation completed")
    work = sum(result["work"])
    if result["loop_wall"] is None:
        # solves (all of equal work): a solve's work over the median
        # solve wall, and solves per second of solving
        rate = work / len(walls) / statistics.median(walls)
        loop = sum(walls)
    else:
        loop = result["loop_wall"]
        rate = work / loop
    tail, pct = nearest_rank_tail(walls)
    n, spr = len(walls), spread(walls)
    return {
        "cell_angles_per_s": (rate, spr, n),
        "jobs_per_s": (len(walls) / loop, spr, n),
        "job_p50_s": (statistics.median(walls), spr, n),
        "job_tail_s": (tail, spr, n),
        "setup_s": (statistics.median(setups), spread(setups), len(setups)),
        "peak_rss_mb": (result["peak_rss_mb"], 0.0, 1),
    }, pct


def run_once(root, workload, seed, seconds, trace, extra) -> dict:
    """One run of one workload: the timing harness, then (untraced) the
    set-up-only ones."""
    deadline = time.perf_counter() + HARNESS_TIMEOUT
    host = fingerprint()
    argv = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    rescale = workload in RESCALED
    setup, slowness, result = spawn_harness(root, argv, deadline, rescale)
    if result is None:
        raise RuntimeError(f"the harness for {workload} printed no result")
    samples = [(setup, slowness)]
    if not trace:
        samples += [spawn_harness(root, [*argv, "--setup-only"], deadline,
                                  rescale)[:2]
                    for _ in range(SETUPS - 1)]
    setups = [wall / slow for wall, slow in samples]
    host["load_end"] = os.getloadavg()[0]
    host["overloaded"] = max(host["load_start"], host["load_end"]) > \
        host["nproc"]
    rows, pct = end_to_end(result, setups)
    host["raw_wall_p50_s"] = statistics.median(result["raw_walls"])
    host["slowness_p50"] = statistics.median(result["slowness"])
    host["raw_setup_p50_s"] = statistics.median(w for w, _ in samples)
    if trace:
        rows = {k: (v, 0.0, 1) for k, v in result["layers"].items()}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host": host,
        "tail_pct": pct,
        "rows": rows,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
    }


def print_table(title: str, rows: dict) -> None:
    print(f"\n== {title}")
    print(f"  {'metric':<28} {'unit':<6} {'median':>14} {'spread':>8} "
          f"{'n':>4}")
    for name, (value, spr, n) in rows.items():
        print(f"  {name:<28} {UNITS.get(name, ''):<6} {value:>14.6g} "
              f"{spr:>8.1%} {n:>4}")


def print_record(rec: dict) -> None:
    print_table(f"{rec['workload']} seed={rec['seed']} trace={rec['trace']}",
                rec["rows"])
    if not rec["trace"]:
        print(f"  job_tail_s is the p{rec['tail_pct']:.4g} latency")
    print(f"  operations: {rec['failed']} failed of {rec['attempted']} "
          f"attempted")
    print(f"  host: {json.dumps(rec['host'])}")
    if rec["host"]["overloaded"]:
        print("  WARNING: load average exceeded nproc during this run")
    for failure in rec["failures"]:
        print(f"  CHECK FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-wall benchmark of the Sweep3D/Cell reproduction")
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deck-edge", type=int,
                        help="shrink every deck to this edge (dry runs)")
    parser.add_argument("--plant", choices=("flux-mismatch", "failed-job"),
                        help="corrupt one output to prove the checks fire")
    args = parser.parse_args(argv)

    # on SIGTERM, unwind through the finally blocks that kill the
    # harness process groups
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro source tree under {root}/src; run from the "
                    f"root of a checkout")
    extra = []
    if args.deck_edge:
        extra += ["--deck-edge", str(args.deck_edge)]
    if args.plant:
        extra += ["--plant", args.plant]

    names = WORKLOADS if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            rec = run_once(root, name, args.seed, args.seconds, args.trace,
                           extra)
            print_record(rec)
            records.append(rec)
    except RuntimeError as exc:
        return fail(str(exc))

    correct = not any(r["failures"] or r["failed"] for r in records)
    last = records[-1]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, (v, _s, _n) in last["rows"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
