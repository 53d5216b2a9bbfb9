"""Run one workload of the relaybound benchmark and print its metrics.

    python3 perfbench/run.py --workload gaussian_search --seed 1 --seconds 20 --trace 0

relaybound is imported from the src/ directory beside perfbench/.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine (CPU count, Python and numpy versions, reference-kernel quartiles)
and raw wall times.  Both are also written to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("gaussian_search", "dm_exact", "cli_session")
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One thread: no idle BLAS pool thread spins beside the reference kernel,
    # and relaybound's optional thread fan-out stays off.  numpy reads these
    # when it is first imported, which is below.
    os.environ.pop("RELAYBOUND_THREADS", None)
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "relaybound" / "__init__.py").is_file():
        print(f"error: no relaybound sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import harness

    info, result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"info": info, "result": result},
                                                     indent=2) + "\n")
    for err in info["check_errors"] + info["job_failures"]:
        print(err, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
