"""The DM cut functionals evaluated cut by cut through ``DmInstance.mi``:
the library's cut programs are checked against these for equal bits in the
same call sequence on fresh instances.  ``cut_terms`` and ``cutset_dm``'s
``cut_value`` are the per-cut loop the programs replaced, and each evaluator
below calls them in the order the library's evaluator asked for its
entropies.  ``deterministic_oracle`` is the per-cut loop that
``deterministic_inner``'s closed form replaced."""

from typing import Iterable, Sequence

from relaybound.dm import CutTerms, DmInstance, _det_scatter, _node_masks, _summed_out
from relaybound.errors import as_nodes
from relaybound.info import JointPmf, mask_mutual_info
from relaybound.networks import Cut, enumerate_cuts


def _union(table: Sequence[int], nodes: Iterable[int]) -> int:
    """The bitmask of ``table``'s variables at ``nodes`` (their bits are distinct)."""
    return sum(table[k] for k in nodes)


def cut_terms(inst: DmInstance, cut: Cut, dest: int | None) -> CutTerms:
    far = cut.complement  # ascending, so each node's earlier nodes precede it
    x, u, y = inst.x, inst.u, inst.y
    x_far = _union(x, far)
    b = _union(u, far)
    if dest is not None:
        b |= y[dest]
    first = inst.mi(_union(x, cut.s), b, x_far)
    all_x = _union(x, range(1, inst.n + 1))
    pen_u: dict = {}
    pen_x: dict = {}
    x_earlier = u_earlier = 0
    for k in far:
        pen_u[k] = inst.mi(u[k], u_earlier | all_x, x[k] | y[k])
        pen_x[k] = inst.mi(x[k], x_earlier)
        x_earlier |= x[k]
        u_earlier |= u[k]
    total = first - sum(pen_u.values()) - sum(pen_x.values())
    return CutTerms(cut, first, pen_u, pen_x, total)


def unicast_oracle(inst: DmInstance, dest: int):
    """``ddf_unicast_dm``: the minimum and the per-cut terms."""
    terms = [cut_terms(inst, cut, dest) for cut in enumerate_cuts(inst.n, {dest}, "unicast")]
    return min(t.total for t in terms), terms


def j_oracle(inst: DmInstance, dests: Iterable[int]) -> list:
    """J(S) of every broadcast cut for ``dests``: ``constraint_values_j``'s
    values for dests 2..n, ``ddf_broadcast_region_dm``'s bounds before the
    zero clamp for the instance's destinations, and ``ddf_rates_general``'s
    rows on a Gaussian joint."""
    return [cut_terms(inst, cut, None).total
            for cut in enumerate_cuts(inst.n, dests, "broadcast")]


def cutset_oracle(input_pmf, channel, dests, mode="unicast", q_vars=None):
    """``cutset_dm``: its values per cut, in cut order."""
    q = ("q",) if q_vars is None else tuple(q_vars)
    drop = {name for name in input_pmf.names if name.startswith("u") and name not in q}
    inst = DmInstance.from_parts(_summed_out(input_pmf, drop), channel, dests, q_vars)
    dests = inst.destinations

    def cut_value(cut: Cut) -> float:
        far = cut.complement
        return inst.mi(_union(inst.x, cut.s), _union(inst.y, far), _union(inst.x, far))

    return [cut_value(c) for c in enumerate_cuts(inst.n, dests, mode)]


def marton_oracle(inst: DmInstance):
    """``marton_identity_check``'s (lhs, rhs, lhs - rhs), its leak checks
    left out: they ask for their entropies first, cut by cut as before."""
    all_u = _union(inst.u, range(2, inst.n + 1))
    for k in range(2, inst.n + 1):
        inst.mi(all_u, inst.y[k], inst.x[1])
    worst = None
    for cut in enumerate_cuts(inst.n, range(2, inst.n + 1), "broadcast"):
        far = cut.complement
        lhs = cut_terms(inst, cut, None).total
        rhs = 0.0
        u_earlier = 0
        for k in far:
            rhs += inst.mi(inst.u[k], inst.y[k])
            rhs -= inst.mi(inst.u[k], u_earlier)
            u_earlier |= inst.u[k]
        delta = lhs - rhs
        if worst is None or abs(delta) > abs(worst[2]) + 1e-12:
            worst = (lhs, rhs, delta)
    return worst


def mask_entropy(pmf: JointPmf, a: int, given: int = 0) -> float:
    """H(a | given) over bitmasks of ``pmf``'s variables, floored at zero."""
    h = pmf.entropy_of(a | given)
    if given:
        h -= pmf.entropy_of(given)
    return h if h > 0.0 else 0.0


def deterministic_oracle(net, input_pmf, dests, mode="unicast") -> list:
    """``deterministic_inner``'s value on every cut, in cut order, before the
    unicast minimum or the broadcast zero clamp: H(Y(S^c) | X(S^c)) floored
    at zero, less each far node's clamped correlation price."""
    dests = as_nodes(dests, net.n, "dests", first=2)
    outs, (probs,) = _det_scatter(net, input_pmf, input_pmf.probs)
    joint = JointPmf(list(input_pmf.variables) + [(f"y{k}", s) for k, s in outs], probs)
    x = _node_masks(joint.variables, "x", net.n)
    y = _node_masks(joint.variables, "y", net.n, first=2)

    def cut_value(cut: Cut) -> float:
        far = cut.complement
        value = mask_entropy(joint, sum(y[k] for k in far), sum(x[k] for k in far))
        x_earlier = 0
        for k in far:
            value -= mask_mutual_info(joint, x[k], x_earlier)
            x_earlier |= x[k]
        return value

    cuts = enumerate_cuts(net.n, dests, mode)
    return [cut_value(c) for c in cuts]
