"""An independent bit-pipe encoder for graphical networks: the array encoder
of ``graphical_to_deterministic`` is checked against it for exact equality.
It visits every input cell, unpacks each node's symbol into the sub-symbols
of its outgoing edges, and packs each receiver's incoming sub-symbols."""

import numpy as np

from relaybound import GraphicalNetwork


def bit_pipe_oracle(net: GraphicalNetwork) -> tuple[list[int], dict[int, np.ndarray]]:
    """(alphabets, maps) of the encoding, one input cell at a time."""
    bits = [round(c) for _, _, c in net.edges]
    out_edges: dict[int, list[int]] = {u: [] for u in range(1, net.n + 1)}
    in_edges: dict[int, list[int]] = {u: [] for u in range(1, net.n + 1)}
    for i, (u, v, _) in enumerate(net.edges):
        out_edges[u].append(i)
        in_edges[v].append(i)
    alphabets = [2 ** sum(bits[i] for i in out_edges[u]) for u in range(1, net.n + 1)]

    def unpack(symbol: int, edge_ids: list[int]) -> dict[int, int]:
        vals = {}
        for i in edge_ids:
            vals[i] = symbol % (2 ** bits[i])
            symbol //= 2 ** bits[i]
        return vals

    maps = {}
    for v in range(2, net.n + 1):
        table = np.zeros(tuple(alphabets), dtype=int)
        for x in np.ndindex(*alphabets):
            carried = {}
            for u in range(1, net.n + 1):
                carried.update(unpack(x[u - 1], out_edges[u]))
            y = 0
            for i in in_edges[v]:
                y = y * (2 ** bits[i]) + carried[i]
            table[x] = y
        maps[v] = table
    return alphabets, maps
