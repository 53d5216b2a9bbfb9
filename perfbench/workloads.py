"""The three workloads: inputs drawn from a seed, one job per input, and the
checks that each job's outputs must pass.

A workload is a fixed round of jobs.  Runs repeat whole rounds, so every run
holds the same mix of jobs whatever its length.  The sizes that decide a
job's cost (node counts, alphabet sizes, grid resolutions) are fixed per slot
of the round; the seed draws only the values (gains, powers, pmfs, relay
positions), so different seeds cost about the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from . import checks

# ---------------------------------------------------------------------------
# gaussian_search


class GaussianSearch:
    """Seeded unicast networks, n = 4..6, gains uniform in [0.1, 2], common
    power log-uniform in [1, 1e3]; one job in eight is a two-relay diamond.
    Each job runs cutset_estimate, ddf_unicast_rate and gap_certificate."""

    name = "gaussian_search"
    #: Covariance-search budget of cutset_estimate.
    BUDGET = 200
    #: Job kinds of one round: 25 slots, a diamond in every eighth, and 6, 10
    #: and 6 networks of n = 4, 5 and 6 in the others, so that the median
    #: job lies inside the n = 5 block and the 90th percentile inside the
    #: n = 6 block.
    SLOTS = (5, 4, 5, 6, 5, 4, 5, "diamond", 6, 5, 4, 5, 6, 5, 4, "diamond",
             5, 6, 4, 5, 6, 5, 6, "diamond", 4)

    def __init__(self, rb, seed: int, workdir: Path):
        self.rb = rb
        rng = np.random.default_rng([seed, 1])
        self.jobs = []
        for kind in self.SLOTS:
            power = float(10.0 ** rng.uniform(0.0, 3.0))
            if kind == "diamond":
                d = float(rng.uniform(0.2, 0.8))
                s21, s31, s42, s43 = checks.diamond_snrs(d, power)
                gains = np.zeros((4, 4))
                gains[1, 0], gains[2, 0] = math.sqrt(s21 / power), math.sqrt(s31 / power)
                gains[3, 1], gains[3, 2] = math.sqrt(s42 / power), math.sqrt(s43 / power)
                net = rb.DiamondConfig.from_distance(d, power).to_network(power)
                self.jobs.append(dict(net=net, gains=gains, power=power, dest=4,
                                      dests=[4], d=d))
            else:
                n = kind
                gains = rng.uniform(0.1, 2.0, size=(n, n))
                np.fill_diagonal(gains, 0.0)
                dests = list(range(2, n + 1))
                net = rb.GaussianNetwork(n, gains, power, dests)
                self.jobs.append(dict(net=net, gains=gains, power=power,
                                      dest=int(rng.integers(2, n + 1)), dests=dests))

    def run(self, i: int):
        job, g = self.jobs[i], self.rb.gaussian
        est = g.cutset_estimate(job["net"], job["dest"], budget=self.BUDGET, seed=0)
        rate = g.ddf_unicast_rate(job["net"], job["dest"])
        cert = g.gap_certificate(job["net"])
        return est, rate, cert

    def check(self, i: int, out) -> None:
        job = self.jobs[i]
        est, rate, cert = out
        n = job["gains"].shape[0]
        power = np.full(n, job["power"])
        checks.check_cutset_estimate(job["gains"], power, job["dest"], est)
        checks.check_ddf_unicast(job["gains"], power, job["dest"], rate)
        checks.check_gap_certificate(job["gains"], power, job["dests"], cert)
        if "d" in job:
            checks.check_diamond_estimate(job["d"], job["power"], est.estimate)

    def fingerprint(self, i: int, out):
        est, rate, cert = out
        rows = tuple((r.cut.s, r.upper, r.inner, r.gap, r.ddf, r.tighter_gap)
                     for r in cert.rows)
        return (est.estimate, est.relaxed_upper, est.evaluations,
                est.k_best.tobytes(), rate, rows)


# ---------------------------------------------------------------------------
# dm_exact

#: (|Q|, |U2..U5|, |Y1..Y5|) per slot; every X is binary.  The joint has
#: 32 |Q| prod|U| prod|Y| cells.  A job's cost follows the cells divided by
#: the cells of the small marginals it keeps, so with |Q| = 1 it is about
#: twice that with |Q| = 2 at equal size.  The round holds three cheap jobs
#: near 1e4 cells (|Q| = 2), eight dearer ones near 1e4 cells (|Q| = 1),
#: three of 41,472 cells, and one of 279,936 cells (2.1 MiB of float64,
#: beyond one core's 2 MiB L2 cache).  Sorted by cost, the median job then
#: lies in the middle of the eight and the 90th percentile among the three.
DM_SLOTS = (
    (2, (2, 1, 2, 1), (1, 2, 3, 2, 3)),
    (1, (2, 2, 2, 1), (1, 2, 2, 3, 3)),
    (1, (3, 3, 1, 1), (1, 2, 2, 3, 3)),
    (2, (2, 3, 2, 3), (1, 2, 3, 1, 3)),
    (1, (2, 2, 1, 2), (1, 3, 3, 2, 2)),
    (2, (1, 2, 1, 2), (1, 3, 2, 3, 2)),
    (1, (1, 3, 3, 1), (1, 3, 2, 2, 3)),
    (1, (3, 1, 1, 3), (1, 2, 3, 3, 2)),
    (2, (3, 2, 3, 2), (1, 3, 1, 2, 3)),
    (1, (2, 1, 2, 2), (1, 2, 3, 3, 2)),
    (2, (2, 1, 1, 2), (1, 2, 3, 3, 2)),
    (1, (1, 2, 2, 2), (1, 3, 2, 2, 3)),
    (1, (3, 1, 3, 1), (1, 2, 2, 3, 3)),
    (2, (2, 3, 3, 2), (1, 3, 3, 2, 1)),
    (2, (3, 3, 3, 2), (1, 3, 3, 3, 3)),
)


def _random_dm(rng, n: int, q: int, u_sizes, y_sizes):
    """Input pmf over (q, x1..xn, u2..un) and channel p(y1..yn | x1..xn),
    both with Dirichlet(1) entries; returns (names, probs) for each."""
    in_names = ["q"] + [f"x{k}" for k in range(1, n + 1)] + [f"u{k}" for k in range(2, n + 1)]
    in_shape = (q,) + (2,) * n + tuple(u_sizes)
    in_probs = rng.dirichlet(np.ones(math.prod(in_shape))).reshape(in_shape)
    ch_names = [f"x{k}" for k in range(1, n + 1)] + [f"y{k}" for k in range(1, n + 1)]
    y_cells = math.prod(y_sizes)
    ch_probs = rng.dirichlet(np.ones(y_cells), size=2**n).reshape((2,) * n + tuple(y_sizes))
    return (in_names, in_probs), (ch_names, ch_probs)


def _reference(n: int, inputs, channel) -> checks.DmReference:
    (in_names, in_probs), (ch_names, ch_probs) = inputs, channel
    return checks.DmReference(n, in_probs, in_names, ch_probs, ch_names)


class DmExact:
    """Seeded n = 5 discrete-memoryless instances (sizes in ``DM_SLOTS``).
    Each job runs DmInstance.from_parts, ddf_unicast_dm, constraint_values_j
    and cutset_dm (per cut, through its broadcast form)."""

    name = "dm_exact"
    N = 5
    DEST = 5

    def __init__(self, rb, seed: int, workdir: Path):
        self.rb = rb
        rng = np.random.default_rng([seed, 2])
        self.jobs = []
        for q, u_sizes, y_sizes in DM_SLOTS:
            inputs, channel = _random_dm(rng, self.N, q, u_sizes, y_sizes)
            pmf = rb.JointPmf(list(zip(inputs[0], inputs[1].shape)), inputs[1])
            n_x = self.N
            ch = rb.Channel(list(zip(channel[0][:n_x], channel[1].shape[:n_x])),
                            list(zip(channel[0][n_x:], channel[1].shape[n_x:])),
                            channel[1])
            self.jobs.append(dict(pmf=pmf, channel=ch, inputs=inputs, raw_channel=channel))

    def run(self, i: int):
        job, dm = self.jobs[i], self.rb.dm
        inst = dm.DmInstance.from_parts(job["pmf"], job["channel"], [self.DEST])
        value, terms = dm.ddf_unicast_dm(inst, self.DEST)
        j_values = dm.constraint_values_j(inst)
        cutset = dm.cutset_dm(job["pmf"], job["channel"], [self.DEST], "broadcast")
        return value, terms, j_values, cutset

    def check(self, i: int, out) -> None:
        job = self.jobs[i]
        value, terms, j_values, cutset = out
        ref = _reference(self.N, job["inputs"], job["raw_channel"])
        checks.check_dm_unicast(ref, self.DEST, value, [
            (t.cut.s, t.first_term, t.penalty_u, t.penalty_x, t.total) for t in terms])
        checks.check_dm_constraints(ref, j_values)
        checks.check_dm_cutset(ref, self.DEST, {c.cut.s: c.bound for c in cutset.constraints})

    def fingerprint(self, i: int, out):
        value, terms, j_values, cutset = out
        return (value, tuple(t.total for t in terms), tuple(sorted(j_values.items())),
                tuple(c.bound for c in cutset.constraints))


# ---------------------------------------------------------------------------
# cli_session


class CliSession:
    """One job is one in-process call of ``relaybound.cli.main`` on files
    written at set-up.  A round is nine sessions: two diamond sweeps, a gap
    verification at n = 8, the symmetric and the weighted region query on an
    n = 6 network, eval-dm in unicast, broadcast and repair modes on an n = 4
    instance, and the blackwell frontier."""

    name = "cli_session"
    N_DM = 4

    def __init__(self, rb, seed: int, workdir: Path):
        self.rb = rb
        rng = np.random.default_rng([seed, 3])

        def w(name: str) -> str:
            return str(workdir / name)

        # Region queries: n = 6, three destinations.
        gains = rng.uniform(0.1, 2.0, size=(6, 6))
        np.fill_diagonal(gains, 0.0)
        self.region_gains = gains
        self.region_power = float(10.0 ** rng.uniform(0.0, 2.0))
        self.region_dests = sorted(int(d) for d in rng.choice(np.arange(2, 7), 3, replace=False))
        rb.save_network(rb.GaussianNetwork(6, gains, self.region_power, self.region_dests),
                        w("net.json"))
        weights = ",".join(f"{x:.3f}" for x in rng.uniform(0.5, 2.0, 3))

        # eval-dm: n = 4, q and every x, u binary, outputs y2..y4 of sizes 2, 3, 2.
        n = self.N_DM
        in_names = ["q"] + [f"x{k}" for k in range(1, n + 1)] + [f"u{k}" for k in range(2, n + 1)]
        in_probs = rng.dirichlet(np.ones(2 ** (2 * n))).reshape((2,) * (2 * n))
        ch_names = [f"x{k}" for k in range(1, n + 1)] + ["y2", "y3", "y4"]
        ch_probs = rng.dirichlet(np.ones(12), size=2**n).reshape((2,) * n + (2, 3, 2))
        self.dm_inputs = (in_names, in_probs)
        self.dm_channel = (ch_names, ch_probs)
        Path(w("pmf.json")).write_text(json.dumps({
            "vars": [{"name": a, "size": 2} for a in in_names],
            "probs": in_probs.reshape(-1).tolist(), "q_vars": ["q"]}))
        Path(w("chan.json")).write_text(json.dumps({
            "vars": [{"name": a, "size": s} for a, s in zip(ch_names, ch_probs.shape)],
            "given": ch_names[:n], "probs": ch_probs.reshape(-1).tolist()}))

        self.power = float(10.0 ** rng.uniform(0.0, 2.0))
        self.sweeps = []
        for lo, hi in ((0.1, 0.45), (0.55, 0.9)):
            a, b = sorted(float(f"{x:.4f}") for x in rng.uniform(lo, hi, 2))
            self.sweeps.append((a, b))
        c23, c32 = (f"{x:.3f}" for x in rng.uniform(0.0, 0.5, 2))
        dm_args = ["--channel", w("chan.json"), "--pmf", w("pmf.json")]
        p = f"{self.power!r}"
        self.jobs = [
            ["diamond-sweep", "--p", p, "--d-min", repr(self.sweeps[0][0]),
             "--d-max", repr(self.sweeps[0][1]), "--steps", "3", "--budget", "1500",
             "--format", "json", "--out", w("sweep0.json")],
            ["gap-verify", "--n", "8", "--trials", "2", "--seed", str(seed),
             "--out", w("gap.json")],
            ["region", "--net", w("net.json"), "--query", "symmetric",
             "--out", w("region_sym.json")],
            ["eval-dm", *dm_args, "--mode", "unicast", "--dest", str(n),
             "--out", w("unicast.json")],
            ["blackwell", "--c23", c23, "--c32", c32, "--grid-res", "150",
             "--out", w("blackwell.csv")],
            ["region", "--net", w("net.json"), "--query", "weighted", "--weights", weights,
             "--out", w("region_w.json")],
            ["eval-dm", *dm_args, "--mode", "broadcast", "--dest", "2,3,4",
             "--out", w("broadcast.json")],
            ["eval-dm", *dm_args, "--mode", "repair", "--out", w("repaired.json")],
            ["diamond-sweep", "--p", p, "--d-min", repr(self.sweeps[1][0]),
             "--d-max", repr(self.sweeps[1][1]), "--steps", "3", "--budget", "1500",
             "--format", "json", "--out", w("sweep1.json")],
        ]

    def run(self, i: int):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = self.rb.cli.main(self.jobs[i])
        return code, out.getvalue(), err.getvalue()

    def out_file(self, i: int) -> Path:
        return Path(self.jobs[i][self.jobs[i].index("--out") + 1])

    def check(self, i: int, out) -> None:
        argv = self.jobs[i]
        code, stdout, stderr = out
        if code != 0:
            raise checks.CheckFailed(f"{argv[0]} exited with {code}: {stderr.strip()}")
        text = self.out_file(i).read_text()
        if argv[0] == "diamond-sweep":
            a, b = self.sweeps[0 if i == 0 else 1]
            checks.check_sweep(json.loads(text), [a, 0.5 * (a + b), b], self.power)
        elif argv[0] == "gap-verify":
            doc = json.loads(text)
            if doc["pass"] is not True or doc["violations"] or len(doc["cases"]) != 2:
                raise checks.CheckFailed("gap-verify did not report a pass on 2 trials")
            checks.at_most(doc["max_tighter_gap"], 4.0 + 1e-9, "gap-verify max_tighter_gap")
        elif argv[0] == "region":
            doc = json.loads(text)
            bounds = checks.ddf_region_bounds(self.region_gains,
                                              np.full(6, self.region_power),
                                              self.region_dests)
            checks.check_region_constraints(doc, bounds, self.region_dests)
            if doc["query"] == "symmetric":
                checks.close(doc["value"], checks.symmetric_max(bounds, self.region_dests),
                             1e-8, "symmetric region value")
            else:
                checks.check_weighted(doc, bounds, self.region_dests)
        elif argv[0] == "eval-dm":
            self._check_dm(argv[argv.index("--mode") + 1], text, stdout)
        else:
            checks.check_blackwell_csv(text)

    def _check_dm(self, mode: str, text: str, stdout: str) -> None:
        ref = _reference(self.N_DM, self.dm_inputs, self.dm_channel)
        if mode == "unicast":
            doc = json.loads(text)
            terms = [(tuple(c["cut"]), c["first_term"],
                      {int(k): v for k, v in c["penalty_u"].items()},
                      {int(k): v for k, v in c["penalty_x"].items()}, c["total"])
                     for c in doc["cuts"]]
            checks.check_dm_unicast(ref, self.N_DM, doc["value"], terms)
        elif mode == "broadcast":
            doc = json.loads(text)
            checks.check_dm_constraints(
                ref, {tuple(c["cut"]): c["bound"] for c in doc["region"]["constraints"]},
                clamp=True)
        else:
            doc = json.loads(stdout)
            check_repair(ref, doc, json.loads(text), self.dm_inputs)

    def fingerprint(self, i: int, out):
        return out, self.out_file(i).read_bytes()


def check_repair(ref: checks.DmReference, doc: dict, pmf_doc: dict, inputs) -> None:
    """The CLI repaired the cut with the smallest J, J there is now exactly
    zero, and the written pmf is the input pmf with the far-side
    descriptions summed out."""
    j = {s: ref.cut_terms(s, None)[3] for s in checks.cuts(ref.n, range(2, ref.n + 1), False)}
    worst = min(j, key=lambda s: (j[s], s))
    if tuple(doc["repaired_cut"]) != worst:
        raise checks.CheckFailed(f"repaired cut {doc['repaired_cut']} is not {worst}")
    checks.close(doc["j_before"], j[worst], 1e-9, "j_before")
    if doc["j_after"] != 0.0:
        raise checks.CheckFailed(f"j_after is {doc['j_after']!r}, not 0")
    names, probs = inputs
    drop = tuple(i for i, nm in enumerate(names)
                 if nm.startswith("u") and int(nm[1:]) not in worst)
    kept = [nm for i, nm in enumerate(names) if i not in drop]
    if [v["name"] for v in pmf_doc["vars"]] != kept:
        raise checks.CheckFailed(f"repaired pmf variables {pmf_doc['vars']} != {kept}")
    want = probs.sum(axis=drop).reshape(-1)
    got = np.asarray(pmf_doc["probs"], dtype=float)
    if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-12:
        raise checks.CheckFailed("repaired pmf is not the input pmf's marginal")


WORKLOADS = {w.name: w for w in (GaussianSearch, DmExact, CliSession)}
