"""Each output check accepts relaybound's real output and rejects a perturbed
copy of it, and a run with a failing job or a non-zero exit is incorrect.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import relaybound as rb  # noqa: E402
import relaybound.cli  # noqa: E402,F401

from perfbench import checks, harness  # noqa: E402
from perfbench.workloads import CliSession, DmExact, GaussianSearch  # noqa: E402

def fails():
    return pytest.raises(checks.CheckFailed)


@pytest.fixture(scope="module")
def gaussian():
    wl = GaussianSearch(rb, 7, Path("."))
    return wl, {i: wl.run(i) for i in (0, 7)}  # an n = 5 network and a diamond


def test_gaussian_outputs_pass(gaussian):
    wl, outs = gaussian
    for i, out in outs.items():
        wl.check(i, out)


def test_cutset_estimate_check_rejects_perturbations(gaussian):
    wl, outs = gaussian
    est, rate, cert = outs[0]
    k = est.k_best
    above = k.copy()
    above[0, 0] = wl.jobs[0]["power"] + 1e-6  # diagonal above P
    indefinite = k.copy()
    indefinite[0, 1] = indefinite[1, 0] = 2.0 * np.sqrt(k[0, 0] * k[1, 1])
    bad = [
        dataclasses.replace(est, estimate=est.estimate + 1e-7),
        dataclasses.replace(est, relaxed_upper=est.relaxed_upper - 1e-7),
        dataclasses.replace(est, k_best=above),
        dataclasses.replace(est, k_best=indefinite),
    ]
    for b in bad:
        with fails():
            wl.check(0, (b, rate, cert))


def test_ddf_unicast_check_rejects_perturbation(gaussian):
    wl, outs = gaussian
    est, rate, cert = outs[0]
    with fails():
        wl.check(0, (est, rate + 1e-8, cert))


def test_gap_certificate_check_rejects_perturbations(gaussian):
    wl, outs = gaussian
    est, rate, cert = outs[0]
    row = cert.rows[2]
    n = cert.n
    for changed in (
        dataclasses.replace(row, gap=np.nextafter(n / 2.0, 0.0)),
        dataclasses.replace(row, tighter_gap=n / 2.0 + 1e-8),
        dataclasses.replace(row, ddf=row.ddf + 1e-8),
        dataclasses.replace(row, upper=row.upper + 1e-8),
    ):
        rows = cert.rows[:2] + (changed,) + cert.rows[3:]
        with fails():
            wl.check(0, (est, rate, dataclasses.replace(cert, rows=rows)))
    with fails():  # a missing cut
        wl.check(0, (est, rate, dataclasses.replace(cert, rows=cert.rows[1:])))


def test_diamond_check_rejects_estimates_off_the_closed_form(gaussian):
    wl, outs = gaussian
    est, rate, cert = outs[7]
    job = wl.jobs[7]
    opt = checks.diamond_cutset_opt(checks.diamond_snrs(job["d"], job["power"]))
    assert abs(est.estimate - opt) < 1e-3
    for value in (opt + 1e-8, opt - 2e-3):
        with fails():
            checks.check_diamond_estimate(job["d"], job["power"], value)


def test_dm_checks_reject_perturbations():
    wl = DmExact(rb, 3, Path("."))
    value, terms, j_values, cutset = out = wl.run(0)
    wl.check(0, out)
    t = terms[1]
    k = next(iter(t.penalty_u))
    bad_terms = list(terms)
    bad_terms[1] = dataclasses.replace(t, penalty_u={**t.penalty_u, k: t.penalty_u[k] + 1e-8})
    bad_j = dict(j_values)
    bad_j[(1,)] += 1e-8
    region = dataclasses.replace(cutset, constraints=(
        dataclasses.replace(cutset.constraints[0], bound=cutset.constraints[0].bound + 1e-8),
        *cutset.constraints[1:]))
    for bad in ((value - 1e-12, terms, j_values, cutset), (value, bad_terms, j_values, cutset),
                (value, terms, bad_j, cutset), (value, terms, j_values, region)):
        with fails():
            wl.check(0, bad)


def test_lp_max_matches_a_hand_solved_lp():
    # max x + 2y s.t. x + y <= 3, y <= 2, x <= 2.5: optimum at (1, 2) = 5.
    assert checks.lp_max([1.0, 2.0], [([1, 1], 3.0), ([0, 1], 2.0), ([1, 0], 2.5)]) == 5.0


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


PERTURB = {
    "sweep0.json": [lambda d: d["rows"][1].__setitem__("ddf", d["rows"][1]["cutset"] + 1e-5),
                    lambda d: d["rows"][0].__setitem__("cutset", d["rows"][0]["cutset"] + 1e-5)],
    "sweep1.json": [lambda d: d["rows"][2].__setitem__("nnc", d["rows"][2]["cutset"] + 1e-5)],
    "gap.json": [lambda d: d.__setitem__("pass", False)],
    "region_sym.json": [lambda d: d.__setitem__("value", d["value"] + 1e-7),
                        lambda d: d["constraints"][3].__setitem__(
                            "bound", d["constraints"][3]["bound"] + 1e-8)],
    "region_w.json": [lambda d: d.__setitem__("value", d["value"] + 1e-8),
                      lambda d: d["argmax"].__setitem__(0, d["argmax"][0] + 1e-6)],
    "unicast.json": [lambda d: d["cuts"][0]["penalty_x"].__setitem__(
                         "4", d["cuts"][0]["penalty_x"]["4"] + 1e-8),
                     lambda d: d.__setitem__("value", d["value"] + 1e-12)],
    "broadcast.json": [lambda d: d["region"]["constraints"][2].__setitem__(
        "bound", d["region"]["constraints"][2]["bound"] + 1e-8)],
    "repaired.json": [lambda d: d["probs"].__setitem__(0, d["probs"][0] + 1e-9)],
}


def test_cli_checks_accept_real_output_and_reject_perturbations(tmp_path):
    wl = CliSession(rb, 5, tmp_path)
    outs = {i: wl.run(i) for i in range(len(wl.jobs))}
    for i, out in outs.items():
        wl.check(i, out)
    rejected = 0
    for i, out in outs.items():
        path = wl.out_file(i)
        original = path.read_text()
        for edit in PERTURB.get(path.name, []):
            _edit_json(path, edit)
            with fails():
                wl.check(i, out)
            path.write_text(original)
            rejected += 1
    assert rejected == sum(len(v) for v in PERTURB.values())

    repair = next(i for i, argv in enumerate(wl.jobs) if "repair" in argv)
    code, stdout, stderr = outs[repair]
    doc = json.loads(stdout)
    for key, value in (("j_after", 1e-17), ("j_before", doc["j_before"] + 1e-8)):
        with fails():
            wl.check(repair, (code, json.dumps({**doc, key: value}), stderr))
    with fails():
        wl.check(repair, (2, stdout, stderr))

    blackwell = next(i for i, argv in enumerate(wl.jobs) if argv[0] == "blackwell")
    path = wl.out_file(blackwell)
    lines = path.read_text().splitlines()
    for bad in (lines[:1] + [lines[2], lines[1]] + lines[3:],
                lines[:1] + [lines[1].rsplit(",", 1)[0] + ",9.000000"] + lines[2:]):
        path.write_text("\n".join(bad) + "\n")
        with fails():
            wl.check(blackwell, outs[blackwell])


def _cli_run(tmp_path, main):
    """A harness run of one cli_session round with ``cli.main`` replaced."""
    wl = CliSession(rb, 5, tmp_path)
    wl.rb = types.SimpleNamespace(cli=types.SimpleNamespace(main=main))
    run = harness.Run(lambda: wl)
    run.round()
    return run, wl


def test_a_session_that_exits_non_zero_makes_the_run_incorrect(tmp_path):
    def main(argv):  # gap-verify exits with 1 when it finds a violation
        code = rb.cli.main(argv)
        return 1 if argv[0] == "gap-verify" else code

    run, wl = _cli_run(tmp_path, main)
    assert run.attempted == len(wl.jobs) and run.failed == 0
    assert not run.correct
    assert len(run.errors) == 1 and "gap-verify exited with 1" in run.errors[0]


def test_a_job_that_raises_makes_the_run_incorrect(tmp_path):
    def main(argv):
        if argv[0] == "blackwell":
            raise RuntimeError("no frontier")
        return rb.cli.main(argv)

    run, _ = _cli_run(tmp_path, main)
    assert run.failed == 1 and not run.errors
    assert not run.correct


def test_a_clean_round_is_correct(tmp_path):
    run, wl = _cli_run(tmp_path, rb.cli.main)
    assert run.attempted == len(wl.jobs) and run.failed == 0 and run.correct
