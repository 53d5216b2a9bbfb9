"""``tools/bench_pairs.py``'s ``summarize`` on synthetic runs: medians,
quartiles, pairs won, failed jobs, per-slot medians, raw job times and
kernel quartiles, per workload; and ``run_once`` and ``main`` (with each
run's minor page faults) on stand-in benchmarks."""

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


def test_summarize_reports_raw_times_and_kernel_quartiles_beside_the_metrics():
    # The kernel slows by a third on the change's side: the rescaled p50
    # falls while the raw one stays put, which the summary shows side by side.
    runs = []
    for seed, raw, kernel in ((1, [2.0, 5.0], [0.9, 1.0, 1.1]), (2, [2.2, 5.4], [1.0, 1.1, 1.2]),
                              (3, [2.4, 5.2], [1.1, 1.2, 1.3])):
        for side, scale in (("parent", 1.0), ("change", 4 / 3)):
            r = run("cli_session", seed, side, 300.0, raw[0] / scale, [raw[0] / scale])
            r["raw_job_ms_p50_p90"] = raw
            r["kernel_ms_quartiles"] = [k * scale for k in kernel]
            runs.append(r)
    out = bench_pairs.summarize(runs, METRICS)["cli_session"]
    assert out["raw_job_ms_p50_p90"] == {"parent": [2.2, 5.2], "change": [2.2, 5.2]}
    assert out["kernel_ms_quartiles"]["parent"] == [1.0, 1.1, 1.2]
    assert out["kernel_ms_quartiles"]["change"] == pytest.approx([4 / 3, 1.1 * 4 / 3, 1.6])
    assert out["job_p50_ms"]["parent"]["median"] == 2.2
    assert out["job_p50_ms"]["change"]["median"] == pytest.approx(2.2 * 3 / 4)
    assert out["job_p50_ms"]["change_better_pairs"] == "3/3"
    # a run kept before the fields existed reads None for them, not a median
    del runs[0]["raw_job_ms_p50_p90"]
    runs[1]["kernel_ms_quartiles"] = None
    out = bench_pairs.summarize(runs, METRICS)["cli_session"]
    assert out["raw_job_ms_p50_p90"] == {"parent": None, "change": [2.2, 5.2]}
    assert out["kernel_ms_quartiles"]["change"] is None
    assert out["slot_ms_median"]["parent"] == [2.2]


def test_run_once_keeps_the_info_lists(tmp_path):
    # A stand-in perfbench/run.py that prints an info line and a result line.
    info = {"slot_ms_median": [1.5, 2.5], "raw_job_ms_p50_p90": [1.2, 3.4],
            "kernel_ms_quartiles": [0.5, 0.6, 0.7], "rounds": 4}
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        f"print(json.dumps({{'info': {info!r}}}))\n"
        "print(json.dumps({'correct': True}))\n")
    got = bench_pairs.run_once(tmp_path, "cli_session", 1, 0.1)
    assert got == {"returncode": 0, "last_stdout_line": '{"correct": true}',
                   "slot_ms_median": [1.5, 2.5], "raw_job_ms_p50_p90": [1.2, 3.4],
                   "kernel_ms_quartiles": [0.5, 0.6, 0.7]}
    (tmp_path / "perfbench" / "run.py").write_text("import sys\nsys.exit(2)\n")
    got = bench_pairs.run_once(tmp_path, "cli_session", 1, 0.1)
    assert got == {"returncode": 2, "last_stdout_line": "", "slot_ms_median": None,
                   "raw_job_ms_p50_p90": None, "kernel_ms_quartiles": None}


def stand_in(checkout, pages):
    """A ``perfbench/run.py`` that writes to ``pages`` fresh pages (no huge
    pages), then prints an info line and a result line of every metric."""
    (checkout / "perfbench").mkdir(parents=True)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {name: {"value": 1.0} for name in names}}
    (checkout / "perfbench" / "run.py").write_text(
        "import json, mmap\n"
        f"pages = {pages}\n"
        "if pages:\n"
        "    m = mmap.mmap(-1, pages * mmap.PAGESIZE)\n"
        "    if hasattr(mmap, 'MADV_NOHUGEPAGE'):\n"
        "        m.madvise(mmap.MADV_NOHUGEPAGE)\n"
        "    for i in range(0, len(m), mmap.PAGESIZE):\n"
        "        m[i] = 1\n"
        "print(json.dumps({'info': {'slot_ms_median': [1.0]}}))\n"
        f"print(json.dumps({result!r}))\n")


def test_each_run_records_its_minor_page_faults(tmp_path):
    # The change's stand-in writes to 3,000 more pages than the parent's, and
    # each side's median minor faults a run shows them.
    stand_in(tmp_path / "parent", 0)
    stand_in(tmp_path / "change", 3000)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--seeds", "1-2", "--workloads",
                             "cli_session", "--seconds", "0.1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["runs"]) == 4
    assert all(isinstance(run["minor_faults"], int) and run["minor_faults"] > 0
               for run in doc["runs"])
    faults = doc["summary"]["cli_session"]["minor_faults"]
    assert 2700 < faults["change"] - faults["parent"] < 6000
    # a run kept before the field existed reads None for its side
    del doc["runs"][0]["minor_faults"]
    faults = bench_pairs.summarize(doc["runs"], METRICS)["cli_session"]["minor_faults"]
    assert faults[doc["runs"][0]["side"]] is None
