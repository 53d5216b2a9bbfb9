"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload dm_exact --seeds 1-10 --seconds 20

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each metric its ten values, their median and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median.  The summary is also written to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    shares = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["info"]
        shares.append(result["failed"] / result["attempted"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"kernel ms {['%.3f' % k for k in info['kernel_ms_quartiles']]} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "failed_shares": sorted(set(shares)), "metrics": {}}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary["metrics"][name] = {"median": med, "iqr_share": spread, "values": vals}
        print(f"{name:32s} median {med:12.5g}  iqr/median {spread:.4f}")
    out = HERE.parent / ".perfbench" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
