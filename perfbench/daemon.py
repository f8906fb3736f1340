"""Launch ``repro serve`` for the ``serve-pool`` workload.

    python perfbench/daemon.py [--trace-dir DIR] [--fail-tenant NAME] \
        -- SERVE-ARGS

Runs the stock ``repro serve`` command line in this process, with the
repository's observability off: ``repro serve`` turns the flight
recorder on at start-up (its SIGUSR2 dump), which the benchmark skips,
and the solve thread checks before every job that the recorder is
still off and no ``repro`` log handler is installed -- a job that finds
it on fails.  With ``--trace-dir`` the layer wrappers of :mod:`spans`
are installed first, so the daemon and the pool workers it forks
record spans, and every process writes them to ``DIR`` as it exits.
``--fail-tenant`` makes every job of that tenant fail inside the solve
thread; the benchmark's own tests use it to plant a failed job.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import spans  # noqa: E402


def _plant_failure(tenant: str) -> None:
    from repro.serve.runner import SolveRunner

    original = SolveRunner._run_job

    def run_job(self, job, store):
        if job.tenant == tenant:
            raise RuntimeError(f"planted failure for tenant {tenant!r}")
        return original(self, job, store)

    SolveRunner._run_job = run_job


def _stay_quiet() -> None:
    from repro.serve.runner import SolveRunner

    # the module, not the ``flight()`` accessor the package re-exports
    # under the same name
    flight = importlib.import_module("repro.obs.flight")
    flight.install_sigusr2 = lambda dump_dir=None: None
    original = SolveRunner.run_job

    def run_job(self, job, store):
        spans.assert_quiet()
        return original(self, job, store)

    SolveRunner.run_job = run_job


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", type=pathlib.Path)
    parser.add_argument("--fail-tenant")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro import cli
    from repro.parallel.pool import global_pool

    tracer = None
    if args.trace_dir is not None:
        tracer = spans.Tracer()
        tracer.install()
        tracer.follow_forks(args.trace_dir)
    if args.fail_tenant:
        _plant_failure(args.fail_tenant)
    _stay_quiet()
    try:
        return cli.main(["serve", *serve_args])
    finally:
        # stop the pool workers through their own exit path, so each
        # one writes its spans before the daemon does
        global_pool().shutdown()
        if tracer is not None:
            tracer.dump_to_dir()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
