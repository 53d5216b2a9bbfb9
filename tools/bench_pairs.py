"""Run alternating parent/change pairs of the benchmark and summarize them.

    python3 tools/bench_pairs.py --parent A --change B --seeds 3601-3610 --out BENCH.json

For each workload and seed, ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` runs once in checkout A (the parent) and once in
checkout B (the change), one run at a time; the parent runs first in odd
seeds.  Each run is kept in the output's ``runs``, labelled by ``--set``,
with its exit code, the last line of its standard output and, from the info
line before it, its per-slot median job times, its raw (not rescaled) job
time percentiles and its reference kernel's quartiles.  An existing output
keeps its runs and its description unless ``--description`` is given.

``summary`` is of the runs of ``--set``: per workload with two or more
pairs that printed a result line, and per end-to-end metric
of ``BENCHMARK.json``, each side's median and quartiles (inclusive method)
and the pairs in which the change read better (``change_better_pairs``; a tie
counts for neither side), each side's failed jobs over attempted, and each
side's median over the pairs of every slot's per-run median job time
(``slot_ms_median``), of the raw job time's 50th and 90th percentiles
(``raw_job_ms_p50_p90``, beside the rescaled ``job_p50_ms`` and
``job_p90_ms``) and of the reference kernel's quartiles
(``kernel_ms_quartiles``), or None for a field that some run lacks.  The
metrics are rescaled by that kernel's time, so a shift in the kernel moves
them while the raw times stay put, and a change in the code moves both.
The output is rewritten after every run, so an interrupted session keeps its
runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: The lists each run keeps from its info line, and the summary reduces.
INFO_LISTS = ("slot_ms_median", "raw_job_ms_p50_p90", "kernel_ms_quartiles")


def seed_range(text: str) -> range:
    """``"3"`` or ``"1-8"`` (inclusive) as a range of seeds."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its exit code, last stdout line and
    the ``INFO_LISTS`` of its info line (each None when the run printed no
    info line or the line lacks it)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        info = json.loads(lines[-2])["info"]
    except (IndexError, ValueError, KeyError, TypeError):
        info = {}
    return {"returncode": done.returncode, "last_stdout_line": lines[-1] if lines else "",
            **{key: info.get(key) for key in INFO_LISTS}}


def result(run: dict) -> dict | None:
    """The parsed result line of a run, or None if it has none."""
    try:
        return json.loads(run["last_stdout_line"])
    except ValueError:
        return None


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """The summary of ``runs`` (one set), per workload, as described above."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            res = result(run)
            if run["workload"] == workload and res is not None:
                pairs.setdefault(run["seed"], {})[run["side"]] = dict(run, result=res)
        pairs = {seed: pair for seed, pair in pairs.items() if len(pair) == 2}
        if len(pairs) < 2:  # no quartiles yet
            continue
        out: dict = {}
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            value = {seed: {side: pair[side]["result"]["metrics"][name]["value"]
                            for side in SIDES} for seed, pair in pairs.items()}
            won = sum((v["change"] > v["parent"]) if higher else (v["change"] < v["parent"])
                      for v in value.values())
            out[name] = {side: quartiles([v[side] for v in value.values()]) for side in SIDES}
            out[name]["change_better_pairs"] = f"{won}/{len(value)}"
        out["jobs_failed"] = {
            side: f"{sum(p[side]['result']['failed'] for p in pairs.values())}/"
                  f"{sum(p[side]['result']['attempted'] for p in pairs.values())}"
            for side in SIDES}
        for key in INFO_LISTS:
            out[key] = {side: None if any(p[side].get(key) is None for p in pairs.values())
                        else [statistics.median(column) for column in
                              zip(*(p[side][key] for p in pairs.values()))]
                        for side in SIDES}
        summary[workload] = out
    return summary


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="one seed, or an inclusive range such as 3601-3610")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--set", default="final", help="label of these runs")
    parser.add_argument("--description", help="the output's description")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    if args.description is not None:
        doc["description"] = args.description
    checkouts = {"parent": args.parent, "change": args.change}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for place, side in enumerate(order, 1):
                run = run_once(checkouts[side], workload, seed, args.seconds)
                doc["runs"].append({
                    "set": args.set, "workload": workload, "seed": seed, "side": side,
                    "order_in_pair": place, "seconds": args.seconds, "trace": 0,
                    "checkout_dir": checkouts[side].name, **run})
                doc["summary"] = summarize([r for r in doc["runs"] if r["set"] == args.set],
                                           bench["end_to_end"])
                args.out.write_text(json.dumps(
                    {"description": doc.get("description", ""), "summary": doc["summary"],
                     "runs": doc["runs"]}, indent=1) + "\n")
                print(f"{workload} seed {seed} {side}: {run['last_stdout_line'][:160]}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
