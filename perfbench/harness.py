"""Worker side of the benchmark: one workload in a fresh interpreter.

    python perfbench/harness.py --workload NAME --seed N --seconds S
                                [--trace 0|1] [--setup-only]
                                [--deck-edge E]
                                [--plant flux-mismatch|failed-job]

Run from the root of a checkout with ``src`` on ``PYTHONPATH`` (what
``run.py`` does).  The harness sets the workload up and prints
``READY`` on stdout -- the parent times set-up from its own spawn to
that line -- then, for the workloads it rescales (below),
``CALIBRATED <seconds>``, the wall of the :mod:`calibrate` slice right
after set-up.  It then runs timed operations for ``S`` seconds (at
least one), checks every output outside the timed region and prints
``RESULT <json>`` as its last line: the operation walls.
``--setup-only`` stops before the timed operations: the parent spawns
such harnesses for more set-up samples.

Solve walls are rescaled to a reference host by the :mod:`calibrate`
slice timed just before and just after each solve: for the in-process
solves of ``fused-16`` and ``isa-16`` the slice timed in this process,
for ``cluster-2x1``, whose ranks run in other processes on every CPU,
the slice timed on every CPU at once (:class:`calibrate.AllCpus`).
The raw walls are reported beside them.  ``serve-pool`` latencies are
raw: rescaling them by slices timed between drained segments of the
loop was tried and widened the run-to-run spread of ``job_p50_s`` in
two of three sets of runs on a 2-CPU host (to 0.22 and 0.31), where
the raw latencies spread 0.10-0.23.

``--trace 1`` runs a short untraced phase first (the base of
``bench.trace_overhead``), then sets the workload up again with the
:mod:`spans` wrappers installed and reports the per-layer split.
``--deck-edge`` shrinks every deck (the benchmark's own dry-run test);
``--plant`` corrupts one output so the tests can prove the checks fire.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pathlib
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import spans  # noqa: E402

RECORDED = json.loads((HERE / "recorded.json").read_text())
LAYER_METRICS = [m["name"] for m in json.loads(
    (HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]


def digest(flux) -> str:
    from repro.serve.runner import flux_digest

    return flux_digest(flux)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cell_angles(deck) -> int:
    """Cell-angle-iteration visits of one solve of ``deck`` (the serve
    daemon's cost estimate, which counts them in millions)."""
    from repro.serve.decks import deck_cost

    return round(deck_cost(deck) * 1e6)


class Op:
    """One timed operation: its wall (for a served job, the latency from
    submit to completion), the cell-angle work it did, whether it
    succeeded, and the host's slowness around it (the calibration
    slice's wall over its reference wall)."""

    __slots__ = ("wall", "ok", "work", "info", "slowness")

    def __init__(self, wall: float, ok: bool, work: int, info=None) -> None:
        self.wall = wall
        self.ok = ok
        self.work = work
        self.info = info or {}
        self.slowness = 1.0

    @property
    def rescaled(self) -> float:
        """The wall on the reference host of :mod:`calibrate`."""
        return self.wall / self.slowness


# -- solve workloads ----------------------------------------------------------


class SolveWorkload:
    """``fused-16`` / ``isa-16``: a fresh ``CellSweep3D`` per timed solve."""

    #: each solve runs in this process, so the calibration slice timed
    #: here tracks the host speed it ran at
    CALIBRATION = "here"

    def __init__(self, name: str, isa: bool, edge: int, plant: str | None):
        self.name = name
        self.isa = isa
        self.edge = edge
        self.plant = plant
        self.shas: list[str] = []

    def setup(self, tracer=None) -> None:
        from repro.core.solver import CellSweep3D
        from repro.perf.processors import measured_cell_config
        from repro.sweep.input import cube_deck

        self.deck = dataclasses.replace(cube_deck(self.edge), iterations=1)
        self.config = measured_cell_config().with_(isa_kernel=self.isa)
        # warm-up: fills the process-wide caches (compiled ISA programs,
        # pipeline reports) and finishes every lazy import
        CellSweep3D(self.deck, self.config).solve()

    def op(self) -> Op:
        from repro.core.solver import CellSweep3D

        t0 = time.perf_counter()
        solver = CellSweep3D(self.deck, self.config)
        result = solver.solve()
        wall = time.perf_counter() - t0
        flux = result.flux
        if self.plant == "flux-mismatch" and not self.shas:
            flux = flux.copy()
            flux.flat[0] = flux.flat[0] * (1 + 2 ** -40)
        self.shas.append(digest(flux))
        spans.assert_quiet(solver)
        # no reference to the solver outlives the operation, so peak RSS
        # does not depend on how many solves a harness fits in
        return Op(wall, True, cell_angles(self.deck))

    def peak_rss_mb(self) -> float:
        return self_rss_mb()

    def check(self) -> list[str]:
        failures = []
        ref = self.reference()
        bad = sum(sha != ref for sha in self.shas)
        if bad:
            failures.append(
                f"{bad}/{len(self.shas)} solves' flux SHA-256 differs from "
                f"SerialSweep3D"
            )
        from repro.core.solver import CellSweep3D

        self.sim_s = CellSweep3D(self.deck, self.config).timing().seconds
        want = RECORDED["sim_s"].get(self._key())
        if self.sim_s != want:
            failures.append(f"perf.sim_s {self.sim_s!r} != recorded {want!r}")
        return failures + self.metered_solve()

    def reference(self) -> str:
        """Digest of the plain serial solve of the same deck (its wall
        is ``sweep.reference_s``)."""
        from repro.sweep import SerialSweep3D

        t0 = time.perf_counter()
        ref = digest(SerialSweep3D(self.deck).solve().flux)
        self.reference_s = time.perf_counter() - t0
        return ref

    def _key(self) -> str:
        return f"{self.name}@{self.edge}"

    def metered_solve(self) -> list[str]:
        """One solve with a metrics-on registry: its exact simulated DMA
        counts, checked against the recorded values, and its batched ISA
        blocks (``cell.isa_blocks``)."""
        from repro.cell.isa_compile import STATS
        from repro.core.solver import CellSweep3D

        solver = CellSweep3D(self.deck, self.config.with_(metrics=True))
        blocks0 = STATS.batched_blocks
        solver.solve()
        self.isa_blocks = STATS.batched_blocks - blocks0
        counters = solver.metrics.counters_with_prefix("dma.")
        self.dma = counts = {
            "cell.dma_commands": counters.get("dma.commands", 0),
            "cell.dma_list_elements": counters.get("dma.list_elements", 0),
            "cell.dma_bytes": (counters.get("dma.bytes_get", 0)
                               + counters.get("dma.bytes_put", 0)),
        }
        want = RECORDED["dma"].get(self._key())
        failures = []
        if want != counts:
            failures.append(f"DMA counts {counts} != recorded {want}")
        return failures

    def close(self) -> None:
        pass


# -- serve-pool ---------------------------------------------------------------


def _job_mix(edge: int) -> dict[str, dict]:
    """The three job kinds of the ``serve-pool`` mix, as request bodies."""
    from repro.serve.decks import deck_from_request
    from repro.sweep.deckfile import format_deck

    small, large = (8, 12) if edge >= 8 else (edge, edge)
    base = {"sn": 4, "nm": 2, "iterations": 1}
    # three iterations let the corner source spread: ~12k fixups at 8^3
    heavy = dataclasses.replace(
        deck_from_request({"cube": small, **base, "iterations": 3}),
        sigma_t=4.0, scattering_ratio=0.1, source_box=(0, 2, 0, 2, 0, 2),
        source=50.0,
    )
    return {
        "isa-8": {"cube": small, **base, "isa": True},
        "isa-fixup-8": {"deck": format_deck(heavy), "isa": True},
        "fused-12": {"cube": large, **base, "isa": False},
    }


class ServeWorkload:
    """``serve-pool``: a daemon in a subprocess under a closed loop of
    two client connections, each waiting for its job before the next."""

    CLIENTS = 2
    #: seconds a client waits on one socket read before the job counts
    #: as failed
    CLIENT_TIMEOUT = 30.0
    #: not rescaled (see the module notes)
    CALIBRATION = None

    def __init__(self, edge: int, seed: int, plant: str | None):
        self.mix = _job_mix(edge)
        self.rng = random.Random(seed)
        self.plant = plant
        self.proc = None
        self.ops: list[Op] = []

    def setup(self, tracer=None) -> None:
        from repro.serve.client import ServeClient

        cmd = [sys.executable, str(HERE / "daemon.py")]
        if tracer is not None:
            self.trace_dir = dump_dir()
            cmd += ["--trace-dir", str(self.trace_dir)]
        if self.plant == "failed-job":
            cmd += ["--fail-tenant", "planted"]
        cmd += ["--", "--port", "0", "--workers", "2",
                "--max-concurrent", "1", "--pool", "keep"]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=os.environ.copy()
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.client = ServeClient(port=port, timeout=self.CLIENT_TIMEOUT)
        self.client.healthz()
        # warm-up: one job of each kind fills the daemon's compile
        # cache, pipeline reports, pool workers and shm segments.  It
        # polls instead of streaming events: pool workers forked while a
        # job's event stream is open inherit that connection's socket,
        # so the stream would not end when the daemon closes it.
        for doc in self.mix.values():
            snap = self.client.wait(self.client.submit(**doc)["id"])
            if snap.get("state") != "done":
                raise RuntimeError(f"warm-up job failed: {snap}")
        self.compiled_after_warmup = self._streams_compiled()

    def _streams_compiled(self) -> float:
        return self.client.metric("repro_serve_isa_streams_compiled") or 0.0

    def _run_job(self, client, doc) -> tuple[float, dict]:
        """Submit, wait on the NDJSON event stream, return the latency
        (submit to stream end) and the final snapshot."""
        t0 = time.perf_counter()
        job = client.submit(**doc)
        for _event in client.events(job["id"]):
            pass
        latency = time.perf_counter() - t0
        return latency, client.job(job["id"])

    def measure(self, seconds: float, windows: list) -> list[Op]:
        from repro.serve.client import ServeClient, ServeClientError

        order = self.rng.sample(sorted(self.mix), len(self.mix))
        lock = threading.Lock()
        ops: list[Op] = []
        planted = [self.plant == "failed-job"]
        rounds: list[str] = []
        deadline = time.perf_counter() + seconds

        def next_doc():
            with lock:
                if planted[0]:
                    planted[0] = False
                    return "planted", {**self.mix["isa-8"],
                                       "tenant": "planted"}
                if not rounds:
                    if time.perf_counter() >= deadline:
                        return None
                    # every round runs each kind once in the same seeded
                    # order, and the last round is finished: the mix and
                    # which jobs queue behind which are the same whatever
                    # the seed
                    rounds.extend(order)
                kind = rounds.pop(0)
                return kind, self.mix[kind]

        def client_loop():
            client = ServeClient(port=self.client.port,
                                 timeout=self.CLIENT_TIMEOUT)
            while (job := next_doc()) is not None:
                kind, doc = job
                t0 = time.perf_counter()
                try:
                    latency, snap = self._run_job(client, doc)
                except (ServeClientError, OSError) as exc:
                    op = Op(time.perf_counter() - t0, False, 0,
                            {"kind": kind, "error": str(exc)})
                else:
                    ok = snap.get("state") == "done"
                    op = Op(latency, ok, self.work[kind] if ok else 0,
                            {"kind": kind, "snap": snap})
                with lock:
                    ops.append(op)
                    windows.append((t0, t0 + op.wall))

        self.work = {kind: cell_angles(_request_deck(doc))
                     for kind, doc in self.mix.items()}
        t0 = time.perf_counter()
        threads = [threading.Thread(target=client_loop)
                   for _ in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.loop_wall = time.perf_counter() - t0
        self.ops.extend(ops)
        return ops

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def reference(self) -> dict[str, str]:
        """Digest of a direct ``CellSweep3D`` solve of each job kind (no
        deck of the mix has materials, so each solves on the kernel its
        request asks for)."""
        from repro.core.solver import CellSweep3D
        from repro.perf.processors import measured_cell_config

        want = {}
        for kind, doc in self.mix.items():
            config = measured_cell_config().with_(isa_kernel=doc["isa"])
            want[kind] = digest(
                CellSweep3D(_request_deck(doc), config).solve().flux)
        return want

    def check(self) -> list[str]:
        failures = []
        want = self.reference()
        bad = 0
        for op in self.ops:
            snap = op.info.get("snap")
            if not op.ok or snap is None:
                continue
            sha = snap["result"]["flux"]["sha256"]
            if self.plant == "flux-mismatch" and op is self.ops[0]:
                sha = "0" * 64
            if sha != want[op.info["kind"]]:
                bad += 1
        if bad:
            failures.append(f"{bad} served jobs' flux SHA-256 differs from "
                            f"a direct CellSweep3D solve")
        failed = sum(not op.ok for op in self.ops)
        if failed:
            failures.append(f"{failed}/{len(self.ops)} jobs failed")
        compiled = self._streams_compiled() - self.compiled_after_warmup
        self.streams_compiled = compiled
        if compiled:
            failures.append(f"{compiled:g} ISA streams compiled after warm-up")
        return failures

    def close(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def _request_deck(doc: dict):
    from repro.serve.decks import deck_from_request

    return deck_from_request({k: v for k, v in doc.items()
                              if k not in ("isa", "tenant")})


# -- cluster-2x1 --------------------------------------------------------------


class ClusterWorkload:
    """``cluster-2x1``: two socket-transport ranks, started once and
    re-solved warm."""

    #: the ranks run on every CPU
    CALIBRATION = "all-cpus"

    def __init__(self, edge: int, plant: str | None):
        self.edge = edge
        self.plant = plant
        self.reports = []

    def setup(self, tracer=None) -> None:
        from repro.cluster.driver import ClusterDriver
        from repro.sweep.input import cube_deck

        _quiet_ranks()
        mk = 4 if self.edge % 4 == 0 else 1
        self.deck = dataclasses.replace(
            cube_deck(self.edge, mk=mk), iterations=3)
        if tracer is not None:
            self.trace_dir = dump_dir()
            tracer.follow_forks(self.trace_dir)
        self.driver = ClusterDriver(self.deck, P=2, Q=1, transport="socket",
                                    engine="tile")
        self.driver.start()
        self.driver.solve()  # warm-up

    def op(self) -> Op:
        t0 = time.perf_counter()
        report = self.driver.solve()
        wall = time.perf_counter() - t0
        self.reports.append(report)
        return Op(wall, not report.drained, cell_angles(self.deck))

    def peak_rss_mb(self) -> float:
        ranks = [vm_hwm_mb(p.pid) for p in self.driver._procs]
        return max([self_rss_mb(), *ranks])

    def check(self) -> list[str]:
        from repro.core.projections import cluster_projection
        from repro.mpi.wavefront import KBASweep3D
        from repro.perf.processors import measured_cell_config

        failures = []
        ref = digest(KBASweep3D(self.deck, P=2, Q=1).solve().flux)
        shas = [r.flux_digest for r in self.reports]
        if self.plant == "flux-mismatch":
            shas[0] = "0" * 64
        bad = sum(sha != ref for sha in shas)
        if bad:
            failures.append(f"{bad}/{len(shas)} cluster solves' flux SHA-256 "
                            f"differs from KBASweep3D(P=2, Q=1)")
        model = cluster_projection(self.deck, measured_cell_config(), 2, 1)
        for r in self.reports:
            if (r.msgs_sent, r.bytes_sent) != (model.msgs_per_solve,
                                               model.bytes_per_solve):
                failures.append(
                    f"cluster sent {r.msgs_sent} msgs / {r.bytes_sent} B, "
                    f"model {model.msgs_per_solve} / {model.bytes_per_solve}")
                break
        return failures

    def time_serial(self) -> None:
        """Time the plain serial solve of the same deck (traced runs)."""
        from repro.sweep import SerialSweep3D

        t0 = time.perf_counter()
        SerialSweep3D(self.deck).solve()
        self.reference_s = time.perf_counter() - t0

    def close(self) -> None:
        driver = getattr(self, "driver", None)
        if driver is not None:
            driver.close()
            self.driver = None


def _quiet_ranks() -> None:
    """Keep the repository's observability off in the forked ranks: a
    stock rank turns its flight recorder on as it starts, which the
    benchmark skips, and each rank checks before every solve that it is
    still off and no ``repro`` log handler is installed -- a rank that
    finds it on fails the solve."""
    from repro.cluster import runtime

    if hasattr(runtime.run_rank_solve, "__perfbench_quiet__"):
        return
    solve = runtime.run_rank_solve

    def run_rank_solve(*args, **kwargs):
        spans.assert_quiet()
        return solve(*args, **kwargs)

    run_rank_solve.__perfbench_quiet__ = True
    runtime.enable_flight = lambda *args, **kwargs: None
    runtime.run_rank_solve = run_rank_solve


# -- the run ------------------------------------------------------------------


def dump_dir() -> pathlib.Path:
    """A fresh directory under ``.perfbench`` in the checkout, where the
    processes of a traced run write their span dumps."""
    base = pathlib.Path.cwd() / ".perfbench"
    base.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix="spans-", dir=base))


def make_workload(name: str, seed: int, edge: int | None, plant):
    if name == "fused-16":
        return SolveWorkload(name, False, edge or 16, plant)
    if name == "isa-16":
        return SolveWorkload(name, True, edge or 16, plant)
    if name == "serve-pool":
        return ServeWorkload(edge or 16, seed, plant)
    if name == "cluster-2x1":
        return ClusterWorkload(edge or 16, plant)
    raise SystemExit(f"unknown workload {name!r}")


@contextlib.contextmanager
def calibrator(wl):
    """The calibration slice for ``wl``'s operations: timed in this
    process for solves that run here, on every CPU at once for work
    spread over other processes."""
    if wl.CALIBRATION == "here":
        yield calibrate.calibrate
        return
    cpus = calibrate.AllCpus()
    try:
        yield cpus.calibrate
    finally:
        cpus.close()


def timed_ops(wl, seconds: float, min_ops: int, windows: list,
              root=contextlib.nullcontext, before=None) -> list[Op]:
    """Run ``wl``'s timed operations for ``seconds`` (at least
    ``min_ops``), each inside a ``root()`` context, recording each
    one's interval in ``windows``.  An operation's slowness is the mean
    of the calibrations just before (``before``, if this process just
    timed one) and just after it."""
    if isinstance(wl, ServeWorkload):
        return wl.measure(seconds, windows)
    with calibrator(wl) as cal:
        if before is None:
            before = cal()
        ops = []
        t_end = time.perf_counter() + seconds
        while len(ops) < min_ops or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            with root():
                op = wl.op()
            windows.append((t0, time.perf_counter()))
            after = cal()
            op.slowness = (before + after) / 2 / calibrate.REFERENCE_S
            before = after
            ops.append(op)
        return ops


def per_layer(wl, ops, traced_ops, tracer_docs, setup_window, windows,
              extra) -> dict:
    """Every per-layer metric (zero where the workload has no such
    layer); span times are seconds per timed operation, summed over
    processes."""
    def within(doc, spans_windows):
        keep = [i for i, s in enumerate(doc["start"])
                if any(a <= s <= b for a, b in spans_windows)]
        return {
            "names": doc["names"],
            "name_id": [doc["name_id"][i] for i in keep],
            "start": [doc["start"][i] for i in keep],
            "end": [doc["end"][i] for i in keep],
            # parents outside the kept set become roots
            "parent": _remap_parents(doc["parent"], keep),
        }

    timed = spans.layer_totals([within(d, windows) for d in tracer_docs])
    setup = spans.layer_totals([within(d, [setup_window])
                                for d in tracer_docs])
    n = max(len(traced_ops), 1)

    def self_s(*names):
        return sum(timed.get(k, {}).get("self", 0.0) for k in names) / n

    def calls(*names):
        return sum(timed.get(k, {}).get("calls", 0) for k in names) / n

    untraced = statistics.median(op.rescaled for op in ops if op.ok)
    traced = statistics.median(op.rescaled for op in traced_ops if op.ok)
    raw = statistics.median(op.wall for op in ops if op.ok)
    root = timed.get("bench.op")
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    m.update({
        "sweep.kernel_s": self_s("sweep.kernel"),
        "sweep.kernel_calls": calls("sweep.kernel"),
        "sweep.moments_s": self_s("sweep.moments"),
        "sweep.reference_s": getattr(wl, "reference_s", 0.0),
        "sweep.sim_overhead_x": (raw / wl.reference_s
                                 if getattr(wl, "reference_s", 0.0) else 0.0),
        "cell.mfc_drain_s": self_s("cell.mfc_drain"),
        "cell.mic_cost_s": self_s("cell.mic_cost"),
        "cell.mic_cost_calls": calls("cell.mic_cost"),
        "cell.isa_run_s": self_s("cell.isa_run"),
        "cell.isa_compile_s": setup.get("cell.isa_compile", {}).get(
            "wall", 0.0),
        "core.stage_s": self_s("core.stage_in", "core.stage_out"),
        "core.chunks_staged": calls("core.stage_in"),
        "core.batch_s": self_s("core.batch"),
        "core.schedule_s": self_s("core.schedule"),
        "core.sync_calls": calls("core.sync"),
        "bench.unattributed_share": (root["self"] / root["wall"]
                                  if root else 0.0),
        "bench.trace_overhead": traced / untraced - 1.0,
    })
    m.update(extra)
    return m


def _remap_parents(parent: list[int], keep: list[int]) -> list[int]:
    index = {old: new for new, old in enumerate(keep)}
    return [index.get(parent[i], -1) for i in keep]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--deck-edge", type=int)
    parser.add_argument("--plant", choices=("flux-mismatch", "failed-job"))
    args = parser.parse_args(argv)

    wl = make_workload(args.workload, args.seed, args.deck_edge, args.plant)
    try:
        spans.assert_quiet()
        wl.setup()
        print("READY", flush=True)
        cal = None
        if wl.CALIBRATION == "here":
            cal = calibrate.calibrate()
            print(f"CALIBRATED {cal!r}", flush=True)
        return 0 if args.setup_only else _run(wl, args, cal)
    finally:
        wl.close()


def _run(wl, args, cal: float | None) -> int:
    windows: list = []
    seconds = args.seconds / 3 if args.trace else args.seconds
    ops = timed_ops(wl, seconds, 1, windows, before=cal)
    spans.assert_quiet()
    done = [op for op in ops if op.ok]
    result = {
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "walls": [op.rescaled for op in done],
        "raw_walls": [op.wall for op in done],
        "slowness": [op.slowness for op in done],
        "work": [op.work for op in done],
        # a closed loop's throughput is work over the loop's wall; a
        # solve's is its work over its own wall
        "loop_wall": wl.loop_wall if isinstance(wl, ServeWorkload) else None,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    result["failures"] = wl.check()
    if args.trace:
        result["layers"] = _traced_phase(wl, args, ops)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _traced_phase(wl, args, ops) -> dict:
    """Set the workload up again under the span wrappers and time the
    rest of the run's seconds; returns the per-layer metrics."""
    extra = _workload_layers(wl, ops)
    wl.close()
    traced_wl = make_workload(args.workload, args.seed, args.deck_edge, None)
    # the untraced phase warmed this process's compile cache; empty it
    # so the traced set-up pays, and records, the compile again
    from repro.cell.isa_compile import clear_cache

    clear_cache()
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced_wl.setup(tracer)
        setup_window = (t0, time.perf_counter())
        windows: list = []
        lookups0 = _compile_lookups()
        root = contextlib.nullcontext
        if isinstance(traced_wl, SolveWorkload):
            # the in-process solve is the root its layer spans nest in
            def root():
                return tracer.span("bench.op")
        traced_ops = timed_ops(traced_wl, args.seconds * 2 / 3, 1, windows,
                               root)
        # this process's compile-cache traffic over the traced ops
        hits, misses = (b - a for a, b in zip(lookups0, _compile_lookups()))
        extra["cell.isa_hit_rate"] = hits / (hits + misses) if hits else 0.0
    finally:
        traced_wl.close()
        tracer.uninstall()
    docs = [tracer.doc()]
    trace_dir = getattr(traced_wl, "trace_dir", None)
    if trace_dir is not None:
        for path in sorted(trace_dir.glob("spans-*.json")):
            docs.append(json.loads(path.read_text()))
            path.unlink()
        trace_dir.rmdir()
    return per_layer(wl, ops, traced_ops, docs, setup_window, windows, extra)


def _compile_lookups() -> tuple[int, int]:
    from repro.cell.isa_compile import cache_info

    info = cache_info()
    return info["hits"], info["compiled"]


def _workload_layers(wl, ops) -> dict:
    """Layer metrics read from the program's own reports (not spans),
    taken from the untraced phase and its checks."""
    extra: dict = {}
    if isinstance(wl, SolveWorkload):
        extra.update(wl.dma)
        extra["cell.isa_blocks"] = wl.isa_blocks
        extra["perf.sim_s"] = wl.sim_s
    elif isinstance(wl, ServeWorkload):
        done = [op for op in ops if op.ok]
        snaps = [op.info["snap"] for op in done]
        extra.update({
            "serve.queue_s": statistics.median(
                s["queue_seconds"] for s in snaps),
            "serve.solve_s": statistics.median(
                s["solve_seconds"] for s in snaps),
            # per job: latency minus the daemon's own queue and solve
            "serve.edge_s": statistics.median(
                op.wall - s["queue_seconds"] - s["solve_seconds"]
                for op, s in zip(done, snaps)),
            "parallel.compile_hit_rate":
                snaps[-1]["result"]["pool"]["compile_hit_rate"] or 0.0,
            "serve.isa_streams_compiled": wl.streams_compiled,
            "cell.isa_blocks": statistics.median(
                s["result"]["compile"]["batched_blocks"] for s in snaps),
        })
    else:
        wl.time_serial()
        med = statistics.median
        reports = wl.reports

        def ranks_sum(key):
            return med(sum(r.transport[key] for r in rep.reports)
                       for rep in reports)

        span = med(max(r.span_s for r in rep.reports) for rep in reports)
        extra.update({
            "cluster.msgs": reports[-1].msgs_sent,
            "cluster.bytes": reports[-1].bytes_sent,
            "cluster.frames": sum(r.transport["frames_sent"]
                                  for r in reports[-1].reports),
            "cluster.send_wait_s": ranks_sum("send_wait_s"),
            "cluster.recv_wait_s": ranks_sum("recv_wait_s"),
            "cluster.wire_s": ranks_sum("wire_s"),
            "cluster.overlap_ratio": med(r.overlap_ratio for r in reports),
            "cluster.rank_span_s": span,
            "cluster.driver_s": med(r.wall_seconds for r in reports) - span,
        })
    return extra


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
