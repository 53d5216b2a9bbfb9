"""``tools/bench_pairs.py``'s ``summarize`` on synthetic runs: medians,
quartiles, pairs won, failed jobs and per-slot medians, per workload."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "jobs_per_s", "better": "higher"}, {"name": "job_p50_ms", "better": "lower"}]


def run(workload, seed, side, rate, p50, slots, failed=0, attempted=100):
    line = json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                       "metrics": {"jobs_per_s": {"value": rate}, "job_p50_ms": {"value": p50}}})
    return {"workload": workload, "seed": seed, "side": side, "last_stdout_line": line,
            "slot_ms_median": slots}


def test_summarize_reports_every_workload_and_ignores_a_run_without_a_result():
    runs = [
        run("dm_exact", 1, "parent", 500.0, 1.7, [1.0, 2.0, 3.0]),
        run("dm_exact", 1, "change", 540.0, 1.5, [0.9, 2.0, 2.5], failed=1),
        run("dm_exact", 2, "change", 530.0, 1.8, [0.8, 1.8, 2.7]),
        run("dm_exact", 2, "parent", 510.0, 1.6, [1.2, 2.2, 3.3]),
        # a run that printed no result line is left out, its pair with it
        {"workload": "dm_exact", "seed": 3, "side": "parent", "last_stdout_line": "Traceback",
         "slot_ms_median": None},
        run("dm_exact", 3, "change", 1.0, 99.0, [9.0, 9.0, 9.0]),
        run("gaussian_search", 1, "parent", 600.0, 1.4, [1.0]),
        run("gaussian_search", 1, "change", 700.0, 1.3, [0.5]),
        run("cli_session", 4, "parent", 300.0, 2.3, [2.0, 6.0]),
        run("cli_session", 4, "change", 310.0, 2.2, [2.0, 5.0]),
        run("cli_session", 5, "change", 320.0, 2.2, [1.0, 5.0]),
        run("cli_session", 5, "parent", 290.0, 2.4, [2.0, 7.0]),
    ]
    summary = bench_pairs.summarize(runs, METRICS)
    # one pair is too few for quartiles
    assert list(summary) == ["dm_exact", "cli_session"]
    dm = summary["dm_exact"]
    assert dm["jobs_per_s"]["parent"] == {"median": 505.0, "q1": 502.5, "q3": 507.5}
    assert dm["jobs_per_s"]["change"] == {"median": 535.0, "q1": 532.5, "q3": 537.5}
    assert dm["jobs_per_s"]["change_better_pairs"] == "2/2"
    assert dm["job_p50_ms"]["parent"]["median"] == 1.65
    assert dm["job_p50_ms"]["change_better_pairs"] == "1/2"  # seed 2 reads worse
    assert dm["jobs_failed"] == {"parent": "0/200", "change": "1/200"}
    assert dm["slot_ms_median"]["parent"] == pytest.approx([1.1, 2.1, 3.15], abs=1e-12)
    assert dm["slot_ms_median"]["change"] == pytest.approx([0.85, 1.9, 2.6], abs=1e-12)
    assert summary["cli_session"]["slot_ms_median"] == {"parent": [2.0, 6.5],
                                                        "change": [1.5, 5.0]}
