"""One benchmark run: set up a workload, run whole rounds of its jobs on the
reference-speed clock, check the outputs, and build the result."""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .refclock import NOMINAL_S, RefClock
from .tracer import METRICS, Tracer
from .workloads import WORKLOADS

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: A run holds at least this many jobs, so that fifteen lie beyond its p90.
MIN_JOBS = 150
#: Untraced rounds, then traced rounds, of a --trace 1 run.  Fixed, so the
#: per-layer counts of two traced runs repeat exactly.
TRACE_ROUNDS = 2


def import_relaybound(src: Path):
    """(Re-)import relaybound from ``src`` and return the package."""
    for name in [m for m in sys.modules if m == "relaybound" or m.startswith("relaybound.")]:
        del sys.modules[name]
    rb = importlib.import_module("relaybound")
    importlib.import_module("relaybound.cli")
    if Path(rb.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"relaybound was imported from {rb.__file__}, not from {src}")
    return rb


class Run:
    """The state of one run: its clock, the set-up workload, and every job's
    time and outcome so far."""

    def __init__(self, setup):
        """``setup()`` imports relaybound, builds the workload, runs its
        warm-up job and returns it; it is timed SETUP_REPEATS times."""
        self.clock = RefClock()
        self.errors: list[str] = []  # outputs that failed a check
        self.failures: list[str] = []  # jobs that raised
        self.attempted = 0
        self.failed = 0
        self.job_s: list[float] = []  # rescaled
        self.job_raw_s: list[float] = []
        self.job_slot: list[int] = []
        self.setup_s: list[float] = []
        self.setup_raw_s: list[float] = []
        self._fingerprints: dict[int, object] = {}
        for _ in range(SETUP_REPEATS):
            self.wl, scaled, raw, _ = self.clock.time(setup)
            self.setup_s.append(scaled)
            self.setup_raw_s.append(raw)

    def round(self, tracer: Tracer | None = None) -> float:
        """Run every job of the workload once; returns the round's rescaled
        job time.  The first round checks every output; later rounds check
        that each output is identical to the first round's."""
        wl, outputs, total = self.wl, {}, 0.0
        for i in range(len(wl.jobs)):
            self.attempted += 1
            try:
                out, scaled, raw, scale = self.clock.time(lambda: wl.run(i))
            except Exception:  # a failed job is counted and reported; the run is incorrect
                self.failed += 1
                self.failures.append(f"job {i}: {traceback.format_exc(limit=3)}")
                self.clock.invalidate()
                if tracer is not None:
                    tracer.discard_job()
                continue
            if tracer is not None:
                tracer.end_job(scale)
            outputs[i] = out
            self.job_s.append(scaled)
            self.job_raw_s.append(raw)
            self.job_slot.append(i)
            total += scaled
        self.errors += check_in_child(wl, {i: out for i, out in outputs.items()
                                           if i not in self._fingerprints})
        for i, out in outputs.items():
            try:
                fingerprint = wl.fingerprint(i, out)
            except Exception as exc:  # e.g. a CLI session that wrote no file
                self.errors.append(f"job {i}: {type(exc).__name__}: {exc}")
                continue
            if self._fingerprints.setdefault(i, fingerprint) != fingerprint:
                self.errors.append(f"job {i}: output differs from the first round")
        self.clock.invalidate()
        return total

    @property
    def correct(self) -> bool:
        """Every job ran and every output passed its check."""
        return not self.errors and self.failed == 0


def check_in_child(wl, outputs: dict) -> list[str]:
    """Check ``outputs`` in a forked child and return the errors found.  The
    checks build their own joints and marginals; in a child, their memory
    stays out of this process's peak RSS, which is the program's alone."""
    if not outputs:
        return []
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            errors = []
            for i, out in outputs.items():
                try:
                    wl.check(i, out)
                except Exception as exc:
                    errors.append(f"job {i}: {type(exc).__name__}: {exc}")
            with os.fdopen(wfd, "w") as pipe:
                json.dump(errors, pipe)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        return [f"checks: the checking process ended with status {status} and no result"]
    return json.loads(text)


def _quartiles(values) -> list[float]:
    return [float(v) for v in np.percentile(values, [25, 50, 75])]


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path) -> tuple[dict, dict]:
    """Run one workload; returns (info about the machine and the run, result)."""
    workdir = root / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        def setup():
            wl = WORKLOADS[workload](import_relaybound(root / "src"), seed, workdir)
            wl.run(0)  # warm-up job
            return wl

        r = Run(setup)
        rounds = 0
        if trace:
            untraced = sum(r.round() for _ in range(TRACE_ROUNDS))
            tracer = Tracer()
            tracer.install(r.wl.rb)
            try:
                traced = sum(r.round(tracer) for _ in range(TRACE_ROUNDS))
            finally:
                tracer.restore()
            tracer.totals["bench.trace_overhead_ms"] = (traced - untraced) * 1e3
            rounds = 2 * TRACE_ROUNDS
            metrics = {name: {"value": value, "unit": METRICS[name]}
                       for name, value in tracer.metrics().items()}
        else:
            start = time.perf_counter()
            while time.perf_counter() - start < seconds or len(r.job_s) < MIN_JOBS:
                r.round()
                rounds += 1
                if r.failed == r.attempted:
                    break
            jobs_ms = np.asarray(r.job_s) * 1e3
            metrics = {
                "jobs_per_s": {"value": len(r.job_s) / float(np.sum(r.job_s)), "unit": "1/s"},
                "job_p50_ms": {"value": float(np.percentile(jobs_ms, 50)), "unit": "ms"},
                "job_p90_ms": {"value": float(np.percentile(jobs_ms, 90)), "unit": "ms"},
                "setup_s": {"value": statistics.median(r.setup_s), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MiB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": workload, "seed": seed, "trace": int(trace), "rounds": rounds,
        "jobs_per_round": len(r.wl.jobs), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "kernel_nominal_ms": NOMINAL_S * 1e3,
        "kernel_ms_quartiles": [v * 1e3 for v in _quartiles(r.clock.kernel_s)],
        "raw_job_ms_p50_p90": [float(np.percentile(r.job_raw_s, q)) * 1e3 for q in (50, 90)]
        if r.job_raw_s else None,
        "raw_setup_s_median": statistics.median(r.setup_raw_s),
        "slot_ms_median": [statistics.median(t * 1e3 for t, i in zip(r.job_s, r.job_slot)
                                             if i == slot) for slot in sorted(set(r.job_slot))],
        "check_errors": r.errors[:10],
        "job_failures": r.failures[:10],
    }
    result = {"correct": r.correct, "attempted": r.attempted,
              "failed": r.failed, "metrics": metrics}
    return info, result
