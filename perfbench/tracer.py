"""Per-layer spans recorded from the benchmark's own files.

The tracer replaces public functions at the module attributes their callers
use (``gaussian.log_det_rate``, ``cli._COMMANDS[...]``, ...) with wrappers
that time each call, and puts the originals back on ``restore``.  A span's
self time is its duration minus the time of the wrapped calls made inside
it.  Raw times are collected per job and rescaled with that job's reference
kernel factor when the job ends, so the per-layer times read on the same
clock as the end-to-end ones.  Counts are plain totals.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Every per-layer metric, with its unit, in the order they are reported.
METRICS = {
    "networks.cut_enum_calls": "count",
    "networks.cut_enum_ms": "ms",
    "networks.cut_submatrix_calls": "count",
    "networks.cut_submatrix_ms": "ms",
    "info.log_det_calls": "count",
    "info.log_det_ms": "ms",
    "info.marginal_calls": "count",
    "info.marginal_cells": "count",
    "info.marginal_ms": "ms",
    "gaussian.search_evals": "count",
    "gaussian.cutset_estimate_ms": "ms",
    "gaussian.ddf_unicast_ms": "ms",
    "gaussian.gap_certificate_ms": "ms",
    "gaussian.ddf_region_ms": "ms",
    "dm.from_parts_ms": "ms",
    "dm.evaluators_self_ms": "ms",
    "dm.simplex_grid_rows": "count",
    "dm.simplex_grid_ms": "ms",
    "diamond.sweep_ms": "ms",
    "optimize.grid_refine_calls": "count",
    "optimize.grid_refine_probes": "count",
    "optimize.grid_refine_ms": "ms",
    "optimize.golden_ms": "ms",
    "optimize.lp_ms": "ms",
    "optimize.bisect_probes": "count",
    "optimize.bisect_ms": "ms",
    "regions.query_ms": "ms",
    "cli.diamond_sweep_ms": "ms",
    "cli.gap_verify_ms": "ms",
    "cli.region_ms": "ms",
    "cli.eval_dm_ms": "ms",
    "cli.blackwell_ms": "ms",
    "cli.self_ms": "ms",
    "bench.trace_overhead_ms": "ms",
}


class Tracer:
    """Installs timing wrappers on relaybound and accumulates their spans."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)  # rescaled ms, counts
        self._job_raw: dict[str, float] = defaultdict(float)  # raw seconds
        self._stack: list[float] = []  # child time of each open span
        self._undo: list = []

    def count(self, name: str, k: int) -> None:
        self.totals[name] += k

    def span(self, fn, self_metric: str, total_metric: str | None = None,
             calls: str | None = None, probes: str | None = None, on_result=None):
        """Wrap ``fn``: its self time goes to ``self_metric`` and its whole
        duration to ``total_metric``; ``calls`` counts its calls, ``probes``
        the calls it makes to the callable passed as its first argument, and
        ``on_result(args, result)`` may count more."""

        def probe(f):
            def counted(*args, **kwargs):
                self.totals[probes] += 1
                return f(*args, **kwargs)
            return counted

        def wrapper(*args, **kwargs):
            if probes is not None:
                args = (probe(args[0]),) + args[1:]
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self._job_raw[self_metric] += dt - child
                if total_metric is not None:
                    self._job_raw[total_metric] += dt
            if calls is not None:
                self.totals[calls] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def end_job(self, scale: float) -> None:
        """Fold the finished job's raw times into the totals, rescaled."""
        for name, raw in self._job_raw.items():
            self.totals[name] += raw * scale * 1e3
        self._job_raw.clear()

    def discard_job(self) -> None:
        self._job_raw.clear()
        self._stack.clear()

    def wrap(self, owner, attr: str, self_metric: str, **span_args) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a span
        around it; ``restore`` puts the original back."""
        if isinstance(owner, dict):
            old = owner[attr]
            owner[attr] = self.span(old, self_metric, **span_args)
            self._undo.append(lambda: owner.__setitem__(attr, old))
            return
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = self.span(getattr(owner, attr), self_metric, **span_args)
        if isinstance(old, classmethod):
            wrapped = staticmethod(wrapped)  # getattr gave a method bound to the class
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, old))

    def install(self, rb) -> None:
        """Wrap every layer boundary listed in ``METRICS``."""
        cli, dm, diamond, gaussian, info, regions = (
            rb.cli, rb.dm, rb.diamond, rb.gaussian, rb.info, rb.regions)

        for owner in (gaussian, dm):
            self.wrap(owner, "enumerate_cuts", "networks.cut_enum_ms",
                      calls="networks.cut_enum_calls")
        self.wrap(gaussian, "cut_submatrix", "networks.cut_submatrix_ms",
                  calls="networks.cut_submatrix_calls")
        self.wrap(gaussian, "log_det_rate", "info.log_det_ms", calls="info.log_det_calls")
        self.wrap(info.JointPmf, "marginal", "info.marginal_ms", calls="info.marginal_calls",
                  on_result=lambda args, _: self.count("info.marginal_cells",
                                                       int(args[0].probs.size)))

        self.wrap(gaussian, "cutset_estimate", "gaussian.cutset_estimate_ms",
                  on_result=lambda _, est: self.count("gaussian.search_evals",
                                                      int(est.evaluations)))
        self.wrap(gaussian, "ddf_unicast_rate", "gaussian.ddf_unicast_ms")
        for owner in (gaussian, cli):
            self.wrap(owner, "gap_certificate", "gaussian.gap_certificate_ms")
        self.wrap(cli, "ddf_region", "gaussian.ddf_region_ms")

        self.wrap(dm.DmInstance, "from_parts", "dm.from_parts_ms")
        for name in ("ddf_unicast_dm", "constraint_values_j", "cutset_dm",
                     "ddf_broadcast_region_dm", "constraint_repair", "blackwell_region"):
            self.wrap(dm, name, "dm.evaluators_self_ms")
        self.wrap(dm, "simplex_grid", "dm.simplex_grid_ms",
                  on_result=lambda _, grid: self.count("dm.simplex_grid_rows",
                                                       int(grid.shape[0])))

        self.wrap(cli, "diamond_sweep", "diamond.sweep_ms")
        self.wrap(diamond, "grid_then_refine", "optimize.grid_refine_ms",
                  calls="optimize.grid_refine_calls", probes="optimize.grid_refine_probes")
        self.wrap(diamond, "golden_max", "optimize.golden_ms")
        self.wrap(regions, "simplex_lp_max", "optimize.lp_ms")
        self.wrap(regions, "bisect_feasible", "optimize.bisect_ms",
                  probes="optimize.bisect_probes")
        for name in ("region_max_symmetric", "region_max_weighted", "region_membership"):
            self.wrap(cli, name, "regions.query_ms")

        # Subcommand handlers: their own code is CLI self time, their whole
        # duration is the subcommand's time.
        for cmd in ("diamond-sweep", "gap-verify", "region", "eval-dm", "blackwell"):
            self.wrap(cli._COMMANDS, cmd, "cli.self_ms",
                      total_metric=f"cli.{cmd.replace('-', '_')}_ms")
        self.wrap(cli, "main", "cli.self_ms")

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def metrics(self) -> dict[str, float]:
        return {name: float(self.totals.get(name, 0.0)) for name in METRICS}
