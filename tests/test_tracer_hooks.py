"""The benchmark's tracer (``perfbench/tracer.py``) wraps relaybound functions
at the module attributes and class attributes their callers use.  Renaming or
inlining one of them breaks the traced benchmark runs; this catches it here."""

import relaybound
import relaybound.cli
from perfbench.tracer import Tracer

OWNERS = (relaybound.cli, relaybound.dm, relaybound.diamond, relaybound.gaussian,
          relaybound.info, relaybound.regions, relaybound.info.JointPmf,
          relaybound.dm.DmInstance, relaybound.cli._COMMANDS)


def _snapshot():
    return [dict(owner if isinstance(owner, dict) else vars(owner)) for owner in OWNERS]


def test_tracer_installs_counts_and_restores(tmp_path):
    before = _snapshot()
    original = relaybound.diamond.grid_then_refine
    tracer = Tracer()
    tracer.install(relaybound)
    try:
        assert relaybound.diamond.grid_then_refine is not original
        code = relaybound.cli.main(["diamond-sweep", "--steps", "1", "--budget", "60",
                                    "--out", str(tmp_path / "sweep.csv")])
        tracer.end_job(1.0)
    finally:
        tracer.restore()
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["optimize.grid_refine_calls"] == 2  # NNC and DDF
    assert metrics["optimize.grid_refine_probes"] > 2
    assert metrics["cli.diamond_sweep_ms"] > 0
    for owner, attrs, now in zip(OWNERS, before, _snapshot()):
        assert now.keys() == attrs.keys(), owner
        for name, value in attrs.items():
            assert now[name] is value, (owner, name)
