"""End-to-end runs of the command-line interface."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relaybound import (
    Cut,
    DeterministicNetwork,
    GapCertificate,
    GapRow,
    GaussianNetwork,
    JointPmf,
    cutset_dm,
    deterministic_inner,
    load_channel,
    load_pmf,
    save_network,
    save_pmf,
)
from relaybound import cli
from relaybound.cli import build_parser, main


def run_full(argv):
    """The exit code, stdout and stderr of one in-process CLI call."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run(argv):
    """Invoke the CLI in-process, swallowing anything printed to the console."""
    code, out, _ = run_full(argv)
    return code, out


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def xor_instance_files(tmp_path):
    """Uniform independent inputs into a clean y2 = x1 xor x2 channel."""
    pmf = write_json(
        tmp_path / "pmf.json",
        {
            "vars": [
                {"name": "x1", "size": 2},
                {"name": "x2", "size": 2},
                {"name": "u2", "size": 2},
            ],
            "probs": [0.125] * 8,
        },
    )
    chan = write_json(
        tmp_path / "chan.json",
        {
            "vars": [
                {"name": "x1", "size": 2},
                {"name": "x2", "size": 2},
                {"name": "y2", "size": 2},
            ],
            "given": ["x1", "x2"],
            "probs": [1, 0, 0, 1, 0, 1, 1, 0],
        },
    )
    return pmf, chan


def test_help_and_usage_errors():
    code, _ = run(["--help"])
    assert code == 0
    code, _ = run([])
    assert code == 2
    code, _ = run(["no-such-command"])
    assert code == 2


def test_main_reuses_one_parser_without_changing_any_output(tmp_path):
    # main parses with one parser built on first use; other subcommands and
    # usage errors in between leave every later call's bytes unchanged.
    pmf, chan = xor_instance_files(tmp_path)
    calls = [
        ["eval-dm", "--pmf", pmf, "--channel", chan, "--mode", "unicast", "--dest", "2"],
        ["eval-dm", "--pmf", pmf],
        ["blackwell", "--grid-res", "30", "--points", "3"],
        ["gap-verify", "--n", "x"],
        ["--help"],
        ["region", "--net", "missing.json", "--query", "nope"],
    ]
    first = [run_full(argv) for argv in calls]
    assert [c[0] for c in first] == [0, 2, 0, 2, 0, 2]
    assert all(out for _, out, _ in first[::2]) and all(err for _, _, err in first[1::2])
    assert [run_full(argv) for argv in reversed(calls)] == first[::-1]
    assert cli._parser() is cli._parser()
    assert vars(cli._parser().parse_args(calls[2])) == vars(build_parser().parse_args(calls[2]))


def test_diamond_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code, _ = run(
        [
            "diamond-sweep",
            "--steps",
            "3",
            "--budget",
            "400",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,cutset,df,af,nnc,ddf"
    assert len(lines) == 4
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.05
    assert all(v <= first[1] + 1e-6 for v in first[2:])

    # reruns are byte-identical
    out2 = tmp_path / "sweep2.csv"
    code, _ = run(
        ["diamond-sweep", "--steps", "3", "--budget", "400", "--out", str(out2)]
    )
    assert code == 0
    assert out.read_bytes() == out2.read_bytes()


def test_diamond_sweep_json_and_single_step(tmp_path):
    out = tmp_path / "sweep.json"
    code, _ = run(
        [
            "diamond-sweep",
            "--steps",
            "1",
            "--d-min",
            "0.5",
            "--budget",
            "400",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert [row["d"] for row in doc["rows"]] == [0.5]
    row = doc["rows"][0]
    assert row["ddf"] <= row["cutset"] + 1e-6


def test_diamond_sweep_bad_range():
    code, _ = run(["diamond-sweep", "--d-min", "0.9", "--d-max", "0.1"])
    assert code == 2
    code, _ = run(["diamond-sweep", "--steps", "0"])
    assert code == 2
    # a negative budget once escaped main as a TypeError traceback
    code, _ = run(["diamond-sweep", "--steps", "1", "--budget", "-5"])
    assert code == 2
    # the sweep is deterministic and takes no seed
    code, _ = run(["diamond-sweep", "--steps", "1", "--seed", "0"])
    assert code == 2


def test_diamond_sweep_refuses_an_snr_past_the_floats():
    # d**3 underflows to 0.0 below d ~ 1e-108; this once raised
    # ZeroDivisionError, a traceback and exit 1, the property-violation code
    code, out, err = run_full(["diamond-sweep", "--d-min", "1e-120", "--d-max", "0.5",
                               "--steps", "2", "--budget", "10"])
    assert (code, out) == (2, "")
    assert err == ("error: relay position d = 1e-120 at power 10.0 gives a received SNR "
                   "that overflows a float\n")


def test_gap_verify(tmp_path):
    out = tmp_path / "gap.json"
    code, _ = run(
        ["gap-verify", "--n", "3", "--trials", "5", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["expected_gap"] == 1.5
    assert doc["violations"] == []
    assert len(doc["cases"]) == 5
    assert doc["max_tighter_gap"] <= 1.5 + 1e-9

    out2 = tmp_path / "gap2.json"
    run(["gap-verify", "--n", "3", "--trials", "5", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()

    # lognormal gains and the zero-trial edge case
    code, _ = run(
        [
            "gap-verify",
            "--n",
            "2",
            "--trials",
            "2",
            "--gain-dist",
            "lognormal",
            "--out",
            str(tmp_path / "g3.json"),
        ]
    )
    assert code == 0
    out4 = tmp_path / "g4.json"
    code, _ = run(["gap-verify", "--trials", "0", "--out", str(out4)])
    assert code == 0
    doc = json.loads(out4.read_text())
    assert doc["pass"] is True
    assert doc["max_tighter_gap"] is None

    code, _ = run(["gap-verify", "--n", "1"])
    assert code == 2
    assert run_full(["gap-verify", "--trials", "-1"]) == (
        2, "", "error: trials must be nonnegative\n")
    # numpy's "expected non-negative integer" once named no flag
    assert run_full(["gap-verify", "--n", "3", "--trials", "1", "--seed", "-1"]) == (
        2, "", "error: seed must be nonnegative\n")


def test_gap_verify_at_high_snr(tmp_path):
    out = tmp_path / "gap.json"
    code, _ = run(["gap-verify", "--n", "4", "--trials", "5", "--power", "1e6",
                   "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["power"] == 1e6
    assert doc["pass"] is True
    assert doc["violations"] == []
    assert doc["max_tighter_gap"] <= 2.0 + 1e-9
    for bad, got in (("0", "0.0"), ("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")):
        assert run_full(["gap-verify", "--power", bad]) == (
            2, "", f"error: power: must be finite and positive, got {got}\n")


def test_gap_verify_exits_1_on_a_violation(tmp_path, monkeypatch):
    # a certificate row whose tighter gap passes n/2 fails the run
    over = 1.5 + 1e-6
    row = GapRow(Cut([1], 3), 2.0, 0.5, 1.5, 2.0 - over, over)
    monkeypatch.setattr(cli, "gap_certificate", lambda net: GapCertificate(3, (row,), 1.5, over))
    out = tmp_path / "gap.json"
    assert run_full(["gap-verify", "--n", "3", "--trials", "2", "--out", str(out)]) == (1, "", "")
    doc = json.loads(out.read_text())
    assert doc["pass"] is False
    assert doc["max_tighter_gap"] == over
    assert doc["violations"] == [{"trial": t, "cut": [1], "gap": 1.5, "tighter_gap": over}
                                 for t in range(2)]


def test_region_rejects_non_finite_network_file(tmp_path):
    path = tmp_path / "nan_net.json"
    path.write_text('{"model": "gaussian", "n": 2, "power": 1.0, '
                    '"gains": [[0, 0], [NaN, 0]], "destinations": [2]}')
    assert run_full(["region", "--net", str(path), "--query", "symmetric"]) == (
        2, "", "error: gains[1][0]: must be finite, got nan\n")


def two_node_net_file(tmp_path):
    net = GaussianNetwork(2, [[0.0, 0.0], [math.sqrt(3.0), 0.0]], 1.0, [2])
    path = tmp_path / "net.json"
    save_network(net, path)
    return str(path)


def test_region_queries(tmp_path):
    net = two_node_net_file(tmp_path)
    rate = 1.0 - 0.5 * math.log2(1.75)  # one cut: C(3) minus its relay price

    out = tmp_path / "sym.json"
    code, _ = run(["region", "--net", net, "--query", "symmetric", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["value"] - rate) < 1e-9

    out = tmp_path / "mem.json"
    code, _ = run(
        [
            "region",
            "--net",
            net,
            "--query",
            "membership",
            "--rates",
            "0.1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["member"] is True
    run(
        [
            "region",
            "--net",
            net,
            "--query",
            "membership",
            "--rates",
            "5.0",
            "--out",
            str(out),
        ]
    )
    assert json.loads(out.read_text())["member"] is False

    out = tmp_path / "w.json"
    code, _ = run(
        [
            "region",
            "--net",
            net,
            "--query",
            "weighted",
            "--weights",
            "2.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["value"] - 2.0 * rate) < 1e-9
    assert abs(doc["argmax"][0] - rate) < 1e-9


def test_region_usage_errors(tmp_path):
    net = two_node_net_file(tmp_path)
    code, _ = run(["region", "--net", net, "--query", "membership"])
    assert code == 2
    code, _ = run(
        ["region", "--net", net, "--query", "membership", "--rates", "a,b"]
    )
    assert code == 2
    code, _ = run(["region", "--net", net, "--query", "weighted"])
    assert code == 2
    # a non-finite rate or weight is refused, not queried
    for query, flag in (("membership", "--rates"), ("weighted", "--weights")):
        for bad in ("nan", "inf", "-inf"):
            assert run(["region", "--net", net, "--query", query, flag, bad])[0] == 2
    code, _ = run(
        ["region", "--net", str(tmp_path / "nope.json"), "--query", "symmetric"]
    )
    assert code == 2
    # --rates and --weights are checked before the network file is read
    missing = ["region", "--net", str(tmp_path / "nope.json"), "--query"]
    for argv, message in (
        (["membership"], "membership query needs --rates"),
        (["weighted"], "weighted query needs --weights"),
        (["membership", "--rates", "a,b"],
         "--rates: expected comma-separated numbers, got 'a,b'"),
        (["membership", "--rates", "nan"], "rates[0]: must be finite, got nan"),
        (["weighted", "--weights", "1,inf"], "weights[1]: must be finite, got inf"),
    ):
        assert run_full(missing + argv) == (2, "", f"error: {message}\n")
    det = write_json(
        tmp_path / "det.json",
        {
            "model": "deterministic",
            "alphabets": [2, 2],
            "maps": {"y2": [0, 1, 0, 1]},
            "destinations": [2],
        },
    )
    code, _ = run(["region", "--net", det, "--query", "symmetric"])
    assert code == 2
    # a malformed integer field is a usage error, not a traceback
    graph = write_json(tmp_path / "graph.json", {
        "model": "graphical", "n": [3], "destinations": [2],
        "edges": [{"from": 1, "to": 2, "cap": 1.0}]})
    code, _ = run(["region", "--net", graph, "--query", "symmetric"])
    assert code == 2


def test_eval_dm_unicast_and_cutset(tmp_path):
    pmf, chan = xor_instance_files(tmp_path)
    out = tmp_path / "uni.json"
    code, _ = run(
        [
            "eval-dm",
            "--pmf",
            pmf,
            "--channel",
            chan,
            "--mode",
            "unicast",
            "--dest",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["value"] - 1.0) < 1e-12
    assert doc["cuts"][0]["cut"] == [1]

    out = tmp_path / "cut.json"
    code, _ = run(
        [
            "eval-dm",
            "--pmf",
            pmf,
            "--channel",
            chan,
            "--mode",
            "cutset",
            "--dest",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert abs(json.loads(out.read_text())["value"] - 1.0) < 1e-12


def test_eval_dm_multicast_and_broadcast(tmp_path):
    pmf, chan = xor_instance_files(tmp_path)
    out = tmp_path / "multi.json"
    code, _ = run(
        [
            "eval-dm",
            "--pmf",
            pmf,
            "--channel",
            chan,
            "--mode",
            "multicast",
            "--dest",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["per_dest"] == {"2": doc["value"]}

    out = tmp_path / "bc.json"
    code, _ = run(
        [
            "eval-dm",
            "--pmf",
            pmf,
            "--channel",
            chan,
            "--mode",
            "broadcast",
            "--dest",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["region"]["dims"] == [2]
    assert len(doc["region"]["constraints"]) == 1


def test_eval_dm_marton(tmp_path):
    pmf = write_json(
        tmp_path / "bc_pmf.json",
        {
            "vars": [{"name": "x1", "size": 2}, {"name": "u2", "size": 2}],
            "probs": [0.4, 0.1, 0.2, 0.3],
        },
    )
    chan = write_json(
        tmp_path / "bc_chan.json",
        {
            "vars": [{"name": "x1", "size": 2}, {"name": "y2", "size": 2}],
            "given": ["x1"],
            "probs": [0.8, 0.2, 0.3, 0.7],
        },
    )
    out = tmp_path / "marton.json"
    code, _ = run(
        [
            "eval-dm",
            "--pmf",
            pmf,
            "--channel",
            chan,
            "--mode",
            "marton",
            "--dest",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["delta"]) <= 1e-12
    assert abs(doc["lhs"] - doc["rhs"]) <= 1e-12


def repair_files(tmp_path):
    rng = np.random.default_rng(54)
    p23 = np.array([[0.6, 0.2], [0.2, 0.0]])
    p = np.einsum("a,bc->abc", np.array([0.5, 0.5]), p23)
    pmf = JointPmf([("x1", 2), ("x2", 2), ("x3", 2)], p)
    pmf_path = tmp_path / "rep_pmf.json"
    save_pmf(pmf, pmf_path)
    c = rng.random((2, 2, 2, 2, 2, 2))
    c /= c.sum(axis=(3, 4, 5), keepdims=True)
    chan_path = write_json(
        tmp_path / "rep_chan.json",
        {
            "vars": [{"name": f"x{k}", "size": 2} for k in (1, 2, 3)]
            + [{"name": f"y{k}", "size": 2} for k in (1, 2, 3)],
            "given": ["x1", "x2", "x3"],
            "probs": c.reshape(-1).tolist(),
        },
    )
    return str(pmf_path), chan_path


def test_eval_dm_repair(tmp_path):
    pmf, chan = repair_files(tmp_path)
    fixed = tmp_path / "fixed.json"
    code, printed = run(
        [
            "eval-dm",
            "--pmf",
            pmf,
            "--channel",
            chan,
            "--mode",
            "repair",
            "--dest",
            "3",
            "--out",
            str(fixed),
        ]
    )
    assert code == 0
    doc = json.loads(printed)
    assert doc["repaired_cut"] == [1]
    assert doc["j_before"] < -0.01
    assert doc["j_after"] == 0.0
    assert doc["q_vars"] == ["x2", "x3"]
    back, q_vars = load_pmf(fixed)
    assert q_vars == ("x2", "x3")
    assert back.names == ("x1", "x2", "x3")

    # an explicit cut and the failure modes
    code, _ = run(
        [
            "eval-dm",
            "--pmf",
            pmf,
            "--channel",
            chan,
            "--mode",
            "repair",
            "--dest",
            "3",
            "--cut",
            "1",
            "--out",
            str(tmp_path / "fixed2.json"),
        ]
    )
    assert code == 0
    code, _ = run(
        [
            "eval-dm",
            "--pmf",
            pmf,
            "--channel",
            chan,
            "--mode",
            "repair",
            "--dest",
            "3",
            "--cut",
            "9",
            "--out",
            str(tmp_path / "fixed3.json"),
        ]
    )
    assert code == 2
    code, _ = run(
        ["eval-dm", "--pmf", pmf, "--channel", chan, "--mode", "repair", "--dest", "3"]
    )
    assert code == 2


def test_eval_dm_cutset_region_document(tmp_path):
    pmf, chan = repair_files(tmp_path)
    out = tmp_path / "cut.json"
    code, _ = run(["eval-dm", "--pmf", pmf, "--channel", chan, "--mode", "cutset",
                   "--dest", "2,3", "--out", str(out)])
    assert code == 0
    region = cutset_dm(load_pmf(pmf)[0], load_channel(chan), [2, 3], "broadcast")
    assert json.loads(out.read_text()) == {
        "mode": "cutset",
        "destinations": [2, 3],
        "region": json.loads(json.dumps(
            {"dims": list(region.dims), "constraints": region.to_dicts()})),
    }


def test_eval_dm_deterministic_region_document(tmp_path):
    net = DeterministicNetwork([2, 2, 2], {
        2: np.array([[[0, 1], [1, 1]], [[1, 0], [2, 2]]]),
        3: np.array([[[0, 0], [0, 1]], [[1, 1], [1, 0]]]),
    }, [2, 3])
    save_network(net, tmp_path / "det_net.json")
    pmf = JointPmf([(f"x{k}", 2) for k in (1, 2, 3)],
                   np.arange(1.0, 9.0).reshape(2, 2, 2) / 36.0)
    save_pmf(pmf, tmp_path / "det_pmf.json")
    out = tmp_path / "det.json"
    code, _ = run(["eval-dm", "--pmf", str(tmp_path / "det_pmf.json"), "--channel",
                   str(tmp_path / "det_net.json"), "--mode", "deterministic",
                   "--out", str(out)])
    assert code == 0
    region = deterministic_inner(net, pmf, [2, 3], "broadcast")
    assert json.loads(out.read_text()) == {
        "mode": "deterministic",
        "destinations": [2, 3],
        "region": json.loads(json.dumps(
            {"dims": list(region.dims), "constraints": region.to_dicts()})),
    }


def test_eval_dm_deterministic(tmp_path):
    net = DeterministicNetwork(
        [2, 2], {2: np.array([[0, 0], [1, 1]])}, [2]
    )
    net_path = tmp_path / "det_net.json"
    save_network(net, net_path)
    net_path = str(net_path)
    pmf_path = write_json(
        tmp_path / "det_pmf.json",
        {
            "vars": [{"name": "x1", "size": 2}, {"name": "x2", "size": 2}],
            "probs": [0.25, 0.25, 0.25, 0.25],
        },
    )
    out = tmp_path / "det.json"
    code, _ = run(
        [
            "eval-dm",
            "--pmf",
            pmf_path,
            "--channel",
            net_path,
            "--mode",
            "deterministic",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["destinations"] == [2]
    assert abs(doc["value"] - 1.0) < 1e-12

    # a non-integral alphabet size is not truncated to 2
    frac = write_json(tmp_path / "frac_net.json", {
        "model": "deterministic", "alphabets": [2.9, 2],
        "maps": {"y2": [0, 0, 1, 1]}, "destinations": [2]})
    code, _ = run(["eval-dm", "--pmf", pmf_path, "--channel", frac,
                   "--mode", "deterministic"])
    assert code == 2

    # a channel file is not a network file
    _, chan = xor_instance_files(tmp_path)
    code, _ = run(
        [
            "eval-dm",
            "--pmf",
            pmf_path,
            "--channel",
            chan,
            "--mode",
            "deterministic",
        ]
    )
    assert code == 2
    # nor is a Gaussian network file, and a file without destinations needs --dest
    gauss = write_json(tmp_path / "gauss_net.json", {
        "model": "gaussian", "n": 2, "power": 1.0, "gains": [[0, 0], [1, 0]],
        "destinations": [2]})
    bare = write_json(tmp_path / "bare_net.json", {
        "model": "deterministic", "alphabets": [2, 2], "maps": {"y2": [0, 0, 1, 1]}})
    for channel, message in (
        (gauss, f"{gauss}: deterministic mode needs a deterministic network file"),
        (bare, "no destinations given (use --dest)"),
    ):
        assert run_full(["eval-dm", "--pmf", pmf_path, "--channel", channel,
                         "--mode", "deterministic"]) == (2, "", f"error: {message}\n")


def over_cap_instance_files(tmp_path):
    """A 5,000-cell pmf (x1: 2, u2: 2,500) and a 5,000-cell channel
    (x1 -> y2: 2,500) whose full joint needs 12.5M cells, past the cap."""
    pmf = write_json(tmp_path / "big_pmf.json", {
        "vars": [{"name": "x1", "size": 2}, {"name": "u2", "size": 2500}],
        "probs": [1 / 5000] * 5000,
    })
    chan = write_json(tmp_path / "big_chan.json", {
        "vars": [{"name": "x1", "size": 2}, {"name": "y2", "size": 2500}],
        "given": ["x1"],
        "probs": [1 / 2500] * 5000,
    })
    return pmf, chan


def test_eval_dm_usage_errors(tmp_path):
    pmf, chan = xor_instance_files(tmp_path)
    code, _ = run(
        ["eval-dm", "--pmf", pmf, "--channel", chan, "--mode", "unicast"]
    )
    assert code == 2
    code, _ = run(
        [
            "eval-dm",
            "--pmf",
            pmf,
            "--channel",
            chan,
            "--mode",
            "unicast",
            "--dest",
            "2,3",
        ]
    )
    assert code == 2
    code, _ = run(
        ["eval-dm", "--pmf", pmf, "--channel", chan, "--mode", "cutset"]
    )
    assert code == 2
    code, _ = run(
        [
            "eval-dm",
            "--pmf",
            str(tmp_path / "missing.json"),
            "--channel",
            chan,
            "--mode",
            "unicast",
            "--dest",
            "2",
        ]
    )
    assert code == 2
    bad = write_json(tmp_path / "bad_pmf.json", {"vars": [], "probs": []})
    code, _ = run(
        ["eval-dm", "--pmf", bad, "--channel", chan, "--mode", "unicast", "--dest", "2"]
    )
    assert code == 2
    doc = json.loads((tmp_path / "pmf.json").read_text())
    doc["probs"][0] = math.nan
    nan_pmf = write_json(tmp_path / "nan_pmf.json", doc)
    assert "NaN" in (tmp_path / "nan_pmf.json").read_text()
    code, _ = run(
        ["eval-dm", "--pmf", nan_pmf, "--channel", chan, "--mode", "unicast", "--dest", "2"]
    )
    assert code == 2

    # Usage is checked before any file is read: on an instance whose joint
    # passes the cell cap, each of these once exited 3 with the cap message.
    big_pmf, big_chan = over_cap_instance_files(tmp_path)
    base = ["eval-dm", "--pmf", big_pmf, "--channel", big_chan, "--mode"]
    usage = [
        (["unicast"], "unicast mode needs exactly one --dest"),
        (["unicast", "--dest", "2,3"], "unicast mode needs exactly one --dest"),
        (["multicast"], "multicast mode needs --dest"),
        (["broadcast"], "broadcast mode needs --dest"),
        (["cutset"], "cutset mode needs --dest"),
        (["repair", "--dest", "2"], "repair mode writes a pmf file; give --out"),
        (["repair", "--cut", "1,a", "--out", str(tmp_path / "rep.json")],
         "--cut: expected comma-separated integers, got '1,a'"),
    ]
    for argv, message in usage:
        assert run_full(base + argv) == (2, "", f"error: {message}\n")
    code, _, err = run_full(base + ["unicast", "--dest", "2"])
    assert code == 3
    assert "full joint would need 12500000 cells" in err
    assert not (tmp_path / "rep.json").exists()


def test_eval_dm_resource_cap(tmp_path):
    pmf, chan = xor_instance_files(tmp_path)
    huge_chan = write_json(
        tmp_path / "huge_chan.json",
        {
            "vars": [{"name": n, "size": 1000} for n in ("x1", "x2", "y2")],
            "given": ["x1", "x2"],
            "probs": [],
        },
    )
    code, _ = run(["eval-dm", "--pmf", pmf, "--channel", huge_chan, "--mode", "unicast",
                   "--dest", "2"])
    assert code == 3
    huge = write_json(
        tmp_path / "huge.json",
        {
            "vars": [{"name": f"x{k}", "size": 1000} for k in range(1, 5)],
            "probs": [],
        },
    )
    code, _ = run(
        [
            "eval-dm",
            "--pmf",
            huge,
            "--channel",
            chan,
            "--mode",
            "unicast",
            "--dest",
            "2",
        ]
    )
    assert code == 3
    # An output symbol of 2**62 once exited 2 with numpy's "array is too big",
    # and later 3 with the cap.  Maps are saved as ranks, so it now evaluates
    # as its dense twin does; the cap counts distinct symbols.
    xs = write_json(tmp_path / "xs.json", {
        "vars": [{"name": "x1", "size": 2}, {"name": "x2", "size": 2}], "probs": [0.25] * 4})
    outs = []
    for top in (2**62, 2):
        save_network(DeterministicNetwork([2, 2], {2: [[0, 0], [1, top]]}, [2]),
                     tmp_path / "sparse_net.json")
        assert json.loads((tmp_path / "sparse_net.json").read_text())["maps"] == {
            "y2": [0, 0, 1, 2]}
        outs.append(run_full(["eval-dm", "--pmf", xs, "--channel",
                              str(tmp_path / "sparse_net.json"), "--mode", "deterministic"]))
    assert outs[0] == outs[1] and outs[0][0] == 0
    net = DeterministicNetwork([2, 2000], {2: np.arange(4000).reshape(2, 2000) * 10**12}, [2])
    save_network(net, tmp_path / "wide_net.json")
    xs = write_json(tmp_path / "xs.json", {
        "vars": [{"name": "x1", "size": 2}, {"name": "x2", "size": 2000}],
        "probs": [1 / 4000] * 4000})
    code, _, err = run_full(["eval-dm", "--pmf", xs, "--channel",
                             str(tmp_path / "wide_net.json"), "--mode", "deterministic"])
    assert code == 3
    assert "deterministic joint would need 16000000 cells" in err
    # the conferencing sweep's grid cap once exited 2 as a usage error
    assert run_full(["blackwell", "--grid-res", "3000"]) == (
        3, "", "error: 4504501 grid points is too many; lower the resolution\n")


def test_blackwell_csv(tmp_path):
    out = tmp_path / "bw.csv"
    code, _ = run(["blackwell", "--grid-res", "96", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r2,r3,sum"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert max(r[2] for r in rows) == pytest.approx(math.log2(3.0), abs=1e-6)
    assert all(r2 <= 1.0 + 1e-9 and r3 <= 1.0 + 1e-9 for r2, r3, _ in rows)

    out2 = tmp_path / "bw2.csv"
    run(["blackwell", "--grid-res", "96", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()

    # receiver cooperation shifts the corner up to 1.5 bits
    out3 = tmp_path / "bw3.csv"
    code, _ = run(
        ["blackwell", "--c32", "0.5", "--grid-res", "96", "--out", str(out3)]
    )
    assert code == 0
    lines = out3.read_text().strip().splitlines()
    assert any(line.startswith("1.500000,") for line in lines[1:])

    out4 = tmp_path / "bw4.csv"
    code, _ = run(
        ["blackwell", "--grid-res", "96", "--points", "5", "--out", str(out4)]
    )
    assert code == 0
    assert len(out4.read_text().strip().splitlines()) <= 6

    code, _ = run(["blackwell", "--c23", "-1.0"])
    assert code == 2

    # a negative count once exited 0 and kept every point
    out5 = tmp_path / "bw5.csv"
    code, _, err = run_full(["blackwell", "--grid-res", "96", "--points", "-3",
                             "--out", str(out5)])
    assert (code, err) == (2, "error: points must be nonnegative\n")
    assert not out5.exists()

    # at one grid step every pmf is a point mass, once printed as -0.000000
    code, out = run(["blackwell", "--grid-res", "1"])
    assert (code, out.splitlines()) == (0, ["r2,r3,sum", "0.000000,0.000000,0.000000"])


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """``python -m relaybound.cli`` in a fresh interpreter on this checkout's
    package, so the module's ``__main__`` guard and ``entry`` run."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "relaybound.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_module_entry_exits_with_mains_code():
    done = run_module("blackwell", "--grid-res", "3")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[0] == "r2,r3,sum"
    done = run_module("blackwell", "--grid-res", "0")
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: resolution must be positive\n")
