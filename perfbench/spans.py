"""In-memory span recorder for the traced benchmark run.

The traced run wraps public functions of the ``repro`` modules from the
outside (nothing under ``src/`` changes): each wrapped call records a
span -- name, start, end and the span that was open when it began --
into flat in-memory columns.  Spans are written out only when the run
ends (:meth:`Tracer.dump`), and a layer's *self time* is its span's
duration minus the part covered by its child spans.

A wrapper is installed where the name is looked up: a function bound
into another module by ``from x import f`` is patched in that module,
methods are patched on their class.  Forked children (pool workers,
cluster ranks) inherit the wrappers; :meth:`Tracer.follow_forks` gives
each child an empty buffer and dumps it when the child exits through
``multiprocessing``'s exit path.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import os
import pathlib
import threading
import time
from array import array

#: (module, attribute path, span name).  One entry per wrapped seam;
#: the span name is the layer metric's prefix.
SEAMS = (
    ("repro.core.solver", "dd_line_block_solve", "sweep.kernel"),
    ("repro.sweep.pipelining", "dd_line_block_solve", "sweep.kernel"),
    ("repro.sweep.moments", "build_moment_source", "sweep.moments"),
    ("repro.cell.mfc", "MFC.drain_tag", "cell.mfc_drain"),
    ("repro.cell.mfc", "MFC.drain_all", "cell.mfc_drain"),
    ("repro.cell.mic", "MemoryTimingModel.cost", "cell.mic_cost"),
    ("repro.cell.isa_compile", "CompiledProgram.run", "cell.isa_run"),
    ("repro.cell.isa_compile", "compiled_program", "cell.isa_compile"),
    ("repro.core.streaming", "ChunkBuffers.stage_in", "core.stage_in"),
    ("repro.core.streaming", "ChunkBuffers.stage_out", "core.stage_out"),
    ("repro.core.solver", "simd_execute_blocks", "core.batch"),
    ("repro.core.scheduler", "CentralizedScheduler.run_diagonal",
     "core.schedule"),
    ("repro.core.scheduler", "DistributedScheduler.run_diagonal",
     "core.schedule"),
    ("repro.core.sync", "LSPokeSync.dispatch", "core.sync"),
    ("repro.core.sync", "LSPokeSync.complete", "core.sync"),
    ("repro.core.sync", "MailboxSync.dispatch", "core.sync"),
    ("repro.core.sync", "MailboxSync.complete", "core.sync"),
)


def assert_quiet(solver=None) -> None:
    """Raise unless the repository's own observability is off: no
    flight recorder, no ``repro`` log handlers and, for ``solver``, the
    null trace bus and null metrics registry.  Untraced runs measure
    the path users get by default, so they check this around their timed
    operations."""
    from repro.metrics.registry import NULL_REGISTRY
    from repro.obs.flight import flight
    from repro.trace.bus import NULL_BUS

    if flight().enabled:
        raise RuntimeError("flight recorder is enabled in a timed run")
    if logging.getLogger("repro").handlers:
        raise RuntimeError("repro log handlers are installed in a timed run")
    if solver is not None and (solver.trace is not NULL_BUS
                               or solver.metrics is not NULL_REGISTRY):
        raise RuntimeError("solver tracing or metrics is on in a timed run")


class Tracer:
    """Span columns plus the wrappers that fill them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._reset_columns()
        self._patched: list[tuple[object, str, object]] = []
        self._dump_dir: pathlib.Path | None = None

    def _reset_columns(self) -> None:
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str):
        """Context manager recording one span (for the benchmark's own
        root spans around each timed operation)."""
        return _Span(self, self._name(name))

    def _open(self, nid: int) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, fn, name: str):
        nid = self._name(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__perfbench_wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self, seams=SEAMS) -> None:
        """Patch every seam (idempotent per seam)."""
        for module_name, path, name in seams:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            current = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if hasattr(current, "__perfbench_wrapped__"):
                continue
            setattr(owner, attr, self.wrap(current, name))
            self._patched.append((owner, attr, current))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def follow_forks(self, dump_dir: pathlib.Path) -> None:
        """Make every forked child record into a fresh buffer and dump
        it to ``dump_dir`` when it exits through ``multiprocessing``."""
        from multiprocessing import util

        self._dump_dir = pathlib.Path(dump_dir)
        os.register_at_fork(after_in_child=self._reset_columns)
        # a multiprocessing child clears its finalizers after the fork,
        # then runs the after-fork hooks: register the dump from there
        util.register_after_fork(self, Tracer._dump_at_exit)

    def _dump_at_exit(self) -> None:
        from multiprocessing import util

        util.Finalize(self, self.dump_to_dir, exitpriority=100)

    # -- output ---------------------------------------------------------------

    def dump(self, path: pathlib.Path) -> None:
        """Write the recorded spans (names plus flat columns) as JSON."""
        tmp = pathlib.Path(f"{path}.tmp")
        tmp.write_text(json.dumps(self.doc()))
        tmp.replace(path)

    def dump_to_dir(self) -> None:
        if self._dump_dir is not None and len(self.start):
            self.dump(self._dump_dir / f"spans-{os.getpid()}.json")

    def doc(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid

    def __enter__(self):
        self._idx = self._tracer._open(self._nid)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._idx)


def layer_totals(docs) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total ``wall`` and ``self`` seconds,
    summed over span documents (one per process).

    Self time is duration minus the summed durations of direct
    children; children run on the parent's thread, strictly nested
    inside it, so their intervals never overlap.
    """
    totals: dict[str, dict[str, float]] = {}
    for doc in docs:
        start, end, parent = doc["start"], doc["end"], doc["parent"]
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * len(dur)
        for idx, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[idx]
        for idx, nid in enumerate(doc["name_id"]):
            row = totals.setdefault(
                doc["names"][nid], {"calls": 0, "wall": 0.0, "self": 0.0}
            )
            row["calls"] += 1
            row["wall"] += dur[idx]
            row["self"] += dur[idx] - child[idx]
    return totals
