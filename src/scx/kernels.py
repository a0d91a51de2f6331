"""The two hot kernels: GF(2) rank and unit-style max flow.

- ``gf2_rank(rows, ncols)``: rank over GF(2); each row is an int bitmask
  that must fit in ``ncols`` bits.
- ``flow_network(num_nodes, tails, heads)``: the residual structure of a
  network, built once and shared by every flow on it.
- ``unit_maxflow(network, caps, source, sink)``: BFS augmenting-path max
  flow on such a network with deterministic arc order, returning the
  flow together with the source side of a minimum cut.  Each call starts
  from its own capacity vector, so one network serves many flows.
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


def flow_network(num_nodes, tails, heads):
    """The residual arcs of a network whose arc ``i`` runs ``tails[i] -> heads[i]``.

    Returns ``(out, to)``: residual arc 2i is arc i and 2i+1 its reverse;
    ``out[x]`` lists the residual arcs leaving node x in input order, and
    ``to[a]`` is the node that residual arc a enters.
    """
    out: list[list[int]] = [[] for _ in range(num_nodes)]
    to = [0] * (2 * len(tails))
    for i, (t, h) in enumerate(zip(tails, heads)):
        out[t].append(2 * i)
        out[h].append(2 * i + 1)
        to[2 * i] = h
        to[2 * i + 1] = t
    return out, to


def unit_maxflow(network, caps, source, sink):
    """Max flow with BFS augmentation on small integer-capacity networks.

    ``network`` comes from ``flow_network`` and ``caps[i]`` is the
    capacity of its arc i; the network is not changed, so it can be
    reused with other capacities and terminals.  BFS scans each node's
    arcs in input order and stops as soon as the sink is labeled, which
    makes the final flow assignment deterministic.  Returns
    ``(value, flows, reach)`` with one flow entry per input arc;
    ``reach[x]`` says whether node x was labeled by the last BFS, which
    misses the sink and so runs to exhaustion: the labeled nodes are the
    source side of a minimum cut.
    """
    out, to = network
    num_nodes = len(out)
    res = [0] * len(to)
    res[0::2] = caps

    value = 0
    while True:
        parent = [-1] * num_nodes
        parent[source] = -2
        queue = deque([source])
        while queue and parent[sink] == -1:
            u = queue.popleft()
            for a in out[u]:
                if res[a] > 0:
                    v = to[a]
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
            v = to[a ^ 1]
        v = sink
        while v != source:
            a = parent[v]
            res[a] -= bottleneck
            res[a ^ 1] += bottleneck
            v = to[a ^ 1]
        value += bottleneck

    flows = [cap - left for cap, left in zip(caps, res[0::2])]
    return value, flows, [p != -1 for p in parent]
