"""Print one sha256 per benchmark workload over the outputs of every job.

    python3 tools/output_identity.py --seeds 1-8 --workdir /tmp/identity

For each seed, each workload of ``perfbench.workloads`` builds its job set as
the benchmark does, runs every job once, and takes the job's fingerprint
(the values the benchmark compares between rounds).  The digest of a
workload is the sha256 of the pickled fingerprints of all its jobs, seed by
seed, in job order.  Two checkouts whose digests agree give the same outputs
on every benchmark job.

relaybound is imported from the ``src/`` directory beside ``tools/``.  The
work directory holds the files the ``cli_session`` jobs read and write; their
outputs name those files, so compare two checkouts with the same
``--workdir``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> range:
    """``"3"`` or ``"1-8"`` (inclusive) as a range of seeds."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="one seed, or an inclusive range such as 1-8")
    parser.add_argument("--workdir", type=Path, required=True,
                        help="directory for the cli_session files")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import _BLAS_THREAD_VARS
    for var in _BLAS_THREAD_VARS:  # as the benchmark runs, before numpy loads
        os.environ[var] = "1"
    from perfbench.harness import import_relaybound
    from perfbench.workloads import WORKLOADS

    rb = import_relaybound(ROOT / "src")
    for name, workload in WORKLOADS.items():
        digest = hashlib.sha256()
        for seed in args.seeds:
            workdir = args.workdir / f"{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            wl = workload(rb, seed, workdir)
            for i in range(len(wl.jobs)):
                digest.update(pickle.dumps(wl.fingerprint(i, wl.run(i)), protocol=4))
        print(name, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
