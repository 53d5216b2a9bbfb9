"""``tools/output_identity.py`` runs every benchmark job and prints one digest
per workload; a smoke run on one seed."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_identity.py"


def test_output_identity_prints_one_repeatable_digest_per_workload(tmp_path):
    runs = [subprocess.run([sys.executable, str(TOOL), "--seeds", "1", "--workdir", str(tmp_path)],
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    lines = runs[0].splitlines()
    assert [line.split()[0] for line in lines] == ["gaussian_search", "dm_exact", "cli_session"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert runs[1] == runs[0]
