"""The benchmark's tracer (``perfbench/tracer.py``) wraps relaybound functions
at the module attributes and class attributes their callers use.  Renaming or
inlining one of them breaks the traced benchmark runs; this catches it here.
The package's public name list is checked here too."""

import ast
from pathlib import Path

import numpy as np

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


def _dm_parts(n):
    rng = np.random.default_rng(3)
    p = rng.random((2,) * (2 * n - 1))
    pin = relaybound.JointPmf([(f"x{k}", 2) for k in range(1, n + 1)]
                              + [(f"u{k}", 2) for k in range(2, n + 1)], p / p.sum())
    c = rng.random((2,) * (2 * n))
    c /= c.sum(axis=tuple(range(n, 2 * n)), keepdims=True)
    chan = relaybound.Channel([(f"x{k}", 2) for k in range(1, n + 1)],
                              [(f"y{k}", 2) for k in range(1, n + 1)], c)
    return pin, chan


def test_tracer_sees_one_marginal_call_per_new_entropy():
    # A batched entropy pass reduces each miss through the wrapped
    # JointPmf.marginal, whether its plan is built by this call or was built
    # by an earlier one: a replay that reduces around the attribute would
    # show fewer calls than new memo entries.
    n = 4
    parts = _dm_parts(n)
    counts = []
    for _ in range(2):
        inst = relaybound.DmInstance.from_parts(*parts, [n])
        assert inst.joint._entropies == {}
        tracer = Tracer()
        tracer.install(relaybound)
        try:
            relaybound.ddf_unicast_dm(inst, n)
            tracer.end_job(1.0)
        finally:
            tracer.restore()
        counts.append((tracer.metrics()["info.marginal_calls"], len(inst.joint._entropies)))
    assert counts[0] == counts[1]
    assert counts[0][0] == counts[0][1] > 1


def test_tracer_sees_lattice_reductions_through_marginal():
    # The entropy lattice reduces cached sub-pmfs through JointPmf.marginal,
    # so the benchmark's marginal counts see every reduction, and most of
    # them are over fewer cells than the full joint.  The counts are pinned:
    # each reduction starts from the smallest cached superset, which for an
    # instance built from parts is at most one of the factor marginals over
    # (x, u, y_k) (256 cells here, against the joint's 2,048), and a source
    # of another size moves them.  H(q) of a one-symbol q is H of no
    # variable, exactly 0.0 with no reduction.
    n = 4
    inst = relaybound.DmInstance.from_parts(*_dm_parts(n), [n])
    tracer = Tracer()
    tracer.install(relaybound)
    try:
        relaybound.ddf_unicast_dm(inst, n)
        tracer.end_job(1.0)
    finally:
        tracer.restore()
    metrics = tracer.metrics()
    calls = metrics["info.marginal_calls"]
    assert calls > 0
    assert metrics["info.marginal_cells"] < calls * inst.joint.probs.size
    assert (calls, metrics["info.marginal_cells"]) == (31, 3_724)


def test_tracer_sees_one_kernel_call_per_candidate_stack():
    # The covariance search scores each phase's candidates as stacks through
    # gaussian.log_det_rate: 200 candidates over 8 unicast cuts take a dozen
    # kernel calls, not one per candidate, and none goes around the
    # attribute, so the tracer sees at least one.
    g = np.random.default_rng(4).lognormal(0.0, 1.0, (5, 5))
    np.fill_diagonal(g, 0.0)
    net = relaybound.GaussianNetwork(5, g, 10.0, [5])
    tracer = Tracer()
    tracer.install(relaybound)
    try:
        relaybound.gaussian.cutset_estimate(net, 5, budget=200)
        tracer.end_job(1.0)
    finally:
        tracer.restore()
    metrics = tracer.metrics()
    assert metrics["gaussian.search_evals"] == 200
    assert 1 <= metrics["info.log_det_calls"] <= 16


def test_public_names_are_sorted_unique_resolved_and_complete():
    names = relaybound.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(relaybound, name), name
    tree = ast.parse(Path(relaybound.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public - set(names) == set()
