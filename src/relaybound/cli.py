"""Command-line front end.

Subcommands load networks or pmf/channel files, evaluate bounds, and write
CSV or JSON.  Every run is deterministic given its flags and seed, so
repeated invocations produce byte-identical output.

Exit codes: 0 success, 1 property violation, 2 usage error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import dm
from .diamond import diamond_sweep
from .errors import SchemaError, TensorCapError, as_numbers, as_positive
from .gaussian import ddf_region, gap_certificate
from .networks import DeterministicNetwork, GaussianNetwork, load_network
from .regions import (
    region_max_symmetric,
    region_max_weighted,
    region_membership,
)


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _split(raw: str, what: str, kind: type = float) -> list:
    """The comma-separated values of ``raw``, each read by ``kind`` (float or
    int); empty parts are skipped."""
    try:
        return [kind(part) for part in raw.split(",") if part != ""]
    except ValueError:
        noun = "numbers" if kind is float else "integers"
        raise ValueError(f"{what}: expected comma-separated {noun}, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaybound",
        description="Capacity bounds for relay networks.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser(
        "diamond-sweep",
        help="sweep the two-relay diamond bounds over relay position",
    )
    p.add_argument("--p", type=float, default=10.0, help="transmit power per node")
    p.add_argument("--d-min", type=float, default=0.05)
    p.add_argument("--d-max", type=float, default=0.95)
    p.add_argument("--steps", type=int, default=19, help="number of d values")
    p.add_argument("--budget", type=int, default=6000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")

    p = sub.add_parser(
        "gap-verify",
        help="certify the n/2-bit gap on random networks",
    )
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gain-dist", choices=("uniform", "lognormal"), default="uniform")
    p.add_argument("--power", type=float, default=1.0, help="transmit power per node")
    p.add_argument("--out", default="-")

    p = sub.add_parser(
        "region",
        help="query the achievable region of a Gaussian network file",
    )
    p.add_argument("--net", required=True)
    p.add_argument(
        "--query", choices=("membership", "symmetric", "weighted"), required=True
    )
    p.add_argument("--rates", help="comma-separated rates for membership")
    p.add_argument("--weights", help="comma-separated weights for weighted")
    p.add_argument("--out", default="-")

    p = sub.add_parser(
        "eval-dm",
        help="evaluate bounds on a discrete-memoryless instance",
    )
    p.add_argument(
        "--channel",
        required=True,
        help="channel file (deterministic network file for --mode deterministic)",
    )
    p.add_argument("--pmf", required=True)
    p.add_argument(
        "--mode",
        choices=(
            "unicast",
            "multicast",
            "broadcast",
            "cutset",
            "deterministic",
            "marton",
            "repair",
        ),
        required=True,
    )
    p.add_argument("--dest", default=None, help="comma-separated destinations")
    p.add_argument("--cut", default=None, help="cut to repair, e.g. 1,2")
    p.add_argument("--out", default="-")

    p = sub.add_parser(
        "blackwell",
        help="boundary of the conferencing-receivers region",
    )
    p.add_argument("--c23", type=float, default=0.0)
    p.add_argument("--c32", type=float, default=0.0)
    p.add_argument("--points", type=int, default=0, help="0 keeps every point")
    p.add_argument("--grid-res", type=int, default=996)
    p.add_argument("--out", default="-")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use: parsing leaves it unchanged."""
    return build_parser()


def cmd_diamond_sweep(args) -> int:
    if not (0.0 < args.d_min < args.d_max < 1.0):
        raise ValueError(
            f"need 0 < d-min < d-max < 1, got {args.d_min} and {args.d_max}"
        )
    if args.steps < 1:
        raise ValueError("steps must be positive")
    if args.steps == 1:
        grid = [args.d_min]
    else:
        step = (args.d_max - args.d_min) / (args.steps - 1)
        grid = [args.d_min + i * step for i in range(args.steps)]
    table = diamond_sweep(grid, args.p, budget=args.budget)
    if args.format == "csv":
        _write(table.to_csv(), args.out)
    else:
        _write(_json(table.to_dict()), args.out)
    return 0


def cmd_gap_verify(args) -> int:
    if not 2 <= args.n <= 10:
        raise ValueError(f"n must be in 2..10, got {args.n}")
    if args.trials < 0:
        raise ValueError("trials must be nonnegative")
    if args.seed < 0:
        raise ValueError("seed must be nonnegative")
    as_positive(args.power, "power")
    rng = np.random.default_rng(args.seed)
    expected = args.n / 2.0
    cases = []
    violations = []
    max_tighter = -float("inf")
    for trial in range(args.trials):
        shape = (args.n, args.n)
        gains = (rng.uniform(0.1, 2.0, shape) if args.gain_dist == "uniform"
                 else rng.lognormal(0.0, 1.0, shape))
        np.fill_diagonal(gains, 0.0)
        net = GaussianNetwork(args.n, gains, args.power, range(2, args.n + 1))
        cert = gap_certificate(net)
        for row in cert.rows:
            if row.gap != expected or row.tighter_gap > expected + 1e-9:
                violations.append(
                    {
                        "trial": trial,
                        "cut": list(row.cut.s),
                        "gap": row.gap,
                        "tighter_gap": row.tighter_gap,
                    }
                )
        max_tighter = max(max_tighter, cert.max_tighter_gap)
        cases.append(
            {
                "trial": trial,
                "max_gap": cert.max_gap,
                "max_tighter_gap": cert.max_tighter_gap,
            }
        )
    doc = {
        "seed": args.seed,
        "n": args.n,
        "trials": args.trials,
        "gain_dist": args.gain_dist,
        "power": args.power,
        "expected_gap": expected,
        "max_tighter_gap": max_tighter if cases else None,
        "pass": not violations,
        "cases": cases,
        "violations": violations,
    }
    _write(_json(doc), args.out)
    return 0 if not violations else 1


def cmd_region(args) -> int:
    flag = {"membership": "rates", "weighted": "weights"}.get(args.query)
    if flag is not None:
        raw = getattr(args, flag)
        if raw is None:
            raise ValueError(f"{args.query} query needs --{flag}")
        vector = _split(raw, f"--{flag}")
        as_numbers(vector, flag)
    net = load_network(args.net)
    if not isinstance(net, GaussianNetwork):
        raise ValueError(f"{args.net}: region queries need a Gaussian network")
    region = ddf_region(net)
    doc = {
        "network": args.net,
        "destinations": list(region.dims),
        "constraints": region.to_dicts(),
        "query": args.query,
    }
    if flag is not None:
        doc[flag] = vector
    if args.query == "membership":
        doc["member"] = region_membership(region, vector)
    elif args.query == "symmetric":
        doc["value"] = region_max_symmetric(region)
    else:
        rates, value = region_max_weighted(region, vector)
        doc["argmax"] = list(rates)
        doc["value"] = value
    _write(_json(doc), args.out)
    return 0


def _terms_doc(terms: list[dm.CutTerms]) -> list[dict]:
    return [
        {
            "cut": list(t.cut.s),
            "first_term": t.first_term,
            "penalty_u": {str(k): v for k, v in sorted(t.penalty_u.items())},
            "penalty_x": {str(k): v for k, v in sorted(t.penalty_x.items())},
            "total": t.total,
        }
        for t in terms
    ]


def _region_doc(region) -> dict:
    return {"dims": list(region.dims), "constraints": region.to_dicts()}


def cmd_eval_dm(args) -> int:
    dests = _split(args.dest, "--dest", int) if args.dest else []
    if args.mode == "unicast" and len(dests) != 1:
        raise ValueError("unicast mode needs exactly one --dest")
    if args.mode in ("multicast", "broadcast", "cutset") and not dests:
        raise ValueError(f"{args.mode} mode needs --dest")
    if args.mode == "repair":
        if args.out in (None, "-"):
            raise ValueError("repair mode writes a pmf file; give --out")
        if args.cut is not None:
            cut = tuple(sorted(set(_split(args.cut, "--cut", int))))

    if args.mode == "deterministic":
        net = load_network(args.channel)
        if not isinstance(net, DeterministicNetwork):
            raise ValueError(
                f"{args.channel}: deterministic mode needs a deterministic "
                "network file"
            )
        pmf, _ = dm.load_pmf(args.pmf)
        dests = dests or list(net.destinations)
        if not dests:
            raise ValueError("no destinations given (use --dest)")
    else:
        pmf, q_vars = dm.load_pmf(args.pmf)
        channel = dm.load_channel(args.channel)
    doc = {"mode": args.mode, "destinations": dests}

    if args.mode in ("deterministic", "cutset"):
        mode = "unicast" if len(dests) == 1 else "broadcast"
        if args.mode == "deterministic":
            bound = dm.deterministic_inner(net, pmf, dests, mode)
        else:
            bound = dm.cutset_dm(pmf, channel, dests, mode, q_vars or None)
        if mode == "unicast":
            doc["value"] = bound
        else:
            doc["region"] = _region_doc(bound)
    else:
        inst = dm.DmInstance.from_parts(pmf, channel, dests, q_vars or None)

    if args.mode == "unicast":
        doc["value"], terms = dm.ddf_unicast_dm(inst, dests[0])
        doc["cuts"] = _terms_doc(terms)
    elif args.mode == "multicast":
        per_dest = {str(d): dm.ddf_unicast_dm(inst, d)[0] for d in dests}
        doc["value"] = min(per_dest.values())
        doc["per_dest"] = per_dest
    elif args.mode == "broadcast":
        doc["region"] = _region_doc(dm.ddf_broadcast_region_dm(inst))
    elif args.mode == "marton":
        lhs, rhs, delta = dm.marton_identity_check(inst)
        doc = {"mode": args.mode, "lhs": lhs, "rhs": rhs, "delta": delta}
    elif args.mode == "repair":
        values = dm.constraint_values_j(inst)
        if args.cut is None:
            cut = min(values, key=lambda s: (values[s], s))
        elif cut not in values:
            raise ValueError(f"--cut {args.cut}: not a cut of this instance")
        drop = {f"u{k}" for k in range(1, inst.n + 1) if k not in cut}
        keep = [(n2, s) for n2, s in pmf.variables if n2 not in drop]
        new_pmf = dm.JointPmf(keep, pmf.marginal([n2 for n2, _ in keep]))
        repaired = dm.constraint_repair(inst, cut)
        new_q = tuple(v for v in repaired.q_vars if v in pmf.names)
        after = dm.constraint_values_j(repaired)
        dm.save_pmf(new_pmf, args.out, new_q)
        doc = {
            "mode": args.mode,
            "repaired_cut": list(cut),
            "j_before": values[cut],
            "j_after": after[cut],
            "pmf_out": args.out,
            "q_vars": list(new_q),
        }
    # repair's --out is the pmf file, so its document goes to stdout
    _write(_json(doc), "-" if args.mode == "repair" else args.out)
    return 0


def cmd_blackwell(args) -> int:
    if args.points < 0:
        raise ValueError("points must be nonnegative")
    region = dm.blackwell_region(args.c23, args.c32, args.grid_res)
    rows = list(region.boundary)
    if args.points > 0 and args.points < len(rows):
        idx = np.linspace(0, len(rows) - 1, args.points).round().astype(int)
        rows = [rows[i] for i in sorted(set(int(i) for i in idx))]
    lines = ["r2,r3,sum"]
    for r2, r3 in rows:
        lines.append(f"{r2:.6f},{r3:.6f},{r2 + r3:.6f}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "diamond-sweep": cmd_diamond_sweep,
    "gap-verify": cmd_gap_verify,
    "region": cmd_region,
    "eval-dm": cmd_eval_dm,
    "blackwell": cmd_blackwell,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.cmd](args)
    except TensorCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
