"""The two hot kernels: GF(2) rank and unit-style max flow.

- ``gf2_rank(rows, ncols)``: rank over GF(2); each row is an int bitmask
  that must fit in ``ncols`` bits.
- ``unit_maxflow(num_nodes, tails, heads, caps, source, sink)``: BFS
  augmenting-path max flow with deterministic arc order, returning the
  flow together with the source side of a minimum cut.
"""

from collections import deque

BACKEND = "pure"


def gf2_rank(rows, ncols):
    """Rank over GF(2) of a matrix given as int bitmasks, one per row."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                rank += 1
                break
            row ^= pivot
    return rank


def unit_maxflow(num_nodes, tails, heads, caps, source, sink):
    """Max flow with BFS augmentation on small integer-capacity networks.

    Arc ``i`` runs ``tails[i] -> heads[i]`` with capacity ``caps[i]``; the
    reverse residual arc is implicit.  BFS scans each node's arcs in input
    order and stops as soon as the sink is labeled, which makes the final
    flow assignment deterministic.  Returns ``(value, flows, reach)`` with
    one flow entry per input arc; ``reach[x]`` says whether node x was
    labeled by the last BFS, which misses the sink and so runs to
    exhaustion: the labeled nodes are the source side of a minimum cut.
    """
    m = len(tails)
    res = [0] * (2 * m)  # arc 2i forward, 2i+1 its residual
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for i in range(m):
        res[2 * i] = caps[i]
        adj[tails[i]].append(2 * i)
        adj[heads[i]].append(2 * i + 1)

    value = 0
    while True:
        parent = [-1] * num_nodes
        parent[source] = -2
        queue = deque([source])
        while queue and parent[sink] == -1:
            u = queue.popleft()
            for a in adj[u]:
                if res[a] > 0:
                    v = heads[a >> 1] if not (a & 1) else tails[a >> 1]
                    if parent[v] == -1:
                        parent[v] = a
                        queue.append(v)
        if parent[sink] == -1:
            break
        bottleneck = None
        v = sink
        while v != source:
            a = parent[v]
            if bottleneck is None or res[a] < bottleneck:
                bottleneck = res[a]
            v = tails[a >> 1] if not (a & 1) else heads[a >> 1]
        v = sink
        while v != source:
            a = parent[v]
            res[a] -= bottleneck
            res[a ^ 1] += bottleneck
            v = tails[a >> 1] if not (a & 1) else heads[a >> 1]
        value += bottleneck

    flows = [caps[i] - res[2 * i] for i in range(m)]
    return value, flows, [p != -1 for p in parent]
