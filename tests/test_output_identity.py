"""``tools/output_identity.py`` runs every benchmark job on cold and on warm
plans and prints one digest per workload; a smoke run on one seed."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_identity.py"


def test_output_identity_prints_one_repeatable_digest_per_workload(tmp_path):
    runs = [subprocess.run([sys.executable, str(TOOL), "--seeds", "1", "--workdir", str(tmp_path)],
                           capture_output=True, text=True) for _ in range(2)]
    for run in runs:
        assert (run.returncode, run.stderr) == (0, "")
    lines = runs[0].stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["gaussian_search", "dm_exact", "cli_session"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert runs[1].stdout == runs[0].stdout


FLAKY = """
import runpy, sys
sys.path.insert(0, {root!r})
import perfbench.workloads as workloads

class Flaky:
    # job 1's fingerprint changes from one run to the next
    def __init__(self, rb, seed, workdir):
        self.jobs, self.runs = [0, 1], 0
    def run(self, i):
        self.runs += 1
        return self.runs if i == 1 else 0
    def fingerprint(self, i, out):
        return out

workloads.WORKLOADS = {{"flaky": Flaky}}
sys.argv = ["output_identity.py", "--seeds", "3", "--workdir", {workdir!r}]
runpy.run_path({tool!r}, run_name="__main__")
"""


def test_output_identity_names_a_job_whose_warm_run_differs(tmp_path):
    script = FLAKY.format(root=str(ROOT), workdir=str(tmp_path), tool=str(TOOL))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith("flaky seed 3 job 1: ")
