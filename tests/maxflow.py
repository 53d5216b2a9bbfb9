"""An independent max-flow oracle for graphical networks: the min-cut
evaluators are checked against it for exact equality."""

from collections import deque

from relaybound import GraphicalNetwork
from relaybound.errors import as_node

#: Fixed-point scale for the max-flow oracle (capacities in 1/2^20 units).
FLOW_SCALE = 1 << 20


def maxflow_oracle(net: GraphicalNetwork, dest: int) -> float:
    """Max flow from node 1 to dest by augmenting paths on a scaled-integer
    copy of the capacities (so the arithmetic is exact)."""
    dest = as_node(dest, net.n, "dest", first=2)
    n = net.n
    residual = [[0] * (n + 1) for _ in range(n + 1)]
    for u, v, c in net.edges:
        residual[u][v] += round(c * FLOW_SCALE)
    flow = 0
    while True:
        parent = [0] * (n + 1)
        parent[1] = 1
        queue = deque([1])
        while queue:
            u = queue.popleft()
            for v in range(1, n + 1):
                if not parent[v] and residual[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if not parent[dest]:
            break
        bottleneck = None
        v = dest
        while v != 1:
            u = parent[v]
            cap = residual[u][v]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            v = u
        v = dest
        while v != 1:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        flow += bottleneck
    return flow / FLOW_SCALE
