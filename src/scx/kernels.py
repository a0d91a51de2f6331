"""The two hot kernels: GF(2) rank and unit-vertex-capacity max flow.

- ``gf2_rank(rows)``: rank over GF(2); each row is an int bitmask.
- ``unit_maxflow(masks, source, sink)``: a largest family of
  source-sink paths sharing no interior vertex, found on the graph's
  neighbor bitmasks, with the nodes that its last, failing search
  reached, the source side of a minimum cut.

The flow runs on the vertex-split network of Even (SIAM J. Comput. 4,
1975) without building it.  Every vertex w has an in-node and an
out-node joined by an arc of capacity 1, and every edge x-y gives the
arcs out(x) -> in(y) and out(y) -> in(x), which unit vertex capacities
never saturate.  A flow is a family of paths, kept as each vertex's
successor and predecessor on its path, so the residual moves are:

- out(x) -> in(y) along every edge x-y;
- in(w) -> out(w) when w carries no path;
- out(w) -> in(w) when w carries a path;
- in(y) -> out(pred y) back along a path.

Moves alternate between in-nodes and out-nodes, so each breadth-first
search grows alternating in-node and out-node layers as bitmasks.
"""

BACKEND = "pure"


def gf2_rank(rows):
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


def unit_maxflow(masks, source, sink):
    """Internally disjoint ``source``-``sink`` paths by shortest augmenting paths.

    Bit y of ``masks[x]`` joins x and y.  A direct ``source``-``sink``
    edge is left out; callers account for it.  Each search starts at
    out(source), makes the moves of the module docstring one layer at a
    time, and stops at the layer that holds in(sink); the augmenting path
    is recovered backwards through the lowest-id node of each stored
    layer that makes a move into the node after it, so the result is
    deterministic.  Returns ``(value, succ, reach_in, reach_out)``:
    ``succ[x]`` is the bitmask of the vertices that follow x on a path,
    one per path at the source and at most one elsewhere; ``reach_in``
    and ``reach_out`` are the vertices whose in-node and out-node the
    last search reached.  That search misses the sink, so the nodes it
    reached are the source side of a minimum cut, which is the same for
    every maximum flow.
    """
    n = len(masks)
    succ = [0] * n
    pred = [0] * n  # for w on a path, the bit of the vertex before w
    on_path = 0  # the interior vertices of the paths
    source_bit, sink_bit = 1 << source, 1 << sink
    value = 0
    while True:
        reach_out = source_bit
        reach_in = layer = masks[source] & ~sink_bit
        layers = [source_bit, layer]
        while layer and not layer & sink_bit:
            # in(w) -> out(w) off the paths, in(y) -> out(pred y) on them
            nxt = layer & ~on_path
            back = layer & on_path
            while back:
                low = back & -back
                nxt |= pred[low.bit_length() - 1]
                back ^= low
            layer = nxt & ~reach_out
            reach_out |= layer
            layers.append(layer)
            # out(x) -> in(y) along edges, out(w) -> in(w) on the paths
            nxt = layer & on_path
            while layer:
                low = layer & -layer
                nxt |= masks[low.bit_length() - 1]
                layer ^= low
            layer = nxt & ~reach_in
            reach_in |= layer
            layers.append(layer)
        if not layer:
            return value, succ, reach_in, reach_out
        value += 1

        # Back from in(sink): each edge step x -> y of the path adds a unit
        # of flow from x to y, or cancels one from y to x.
        steps = []
        y = sink
        for j in range(len(layers) - 2, -1, -2):
            y_bit = 1 << y
            outs = layers[j] & (masks[y] | y_bit & on_path)
            x_bit = outs & -outs
            x = x_bit.bit_length() - 1
            if x != y:
                steps.append((x, y))
            if on_path & x_bit:  # out(x) was reached from in(succ x)
                y = succ[x].bit_length() - 1
                steps.append((y, x))
            else:
                y = x
        for x, y in steps:
            if succ[y] >> x & 1:
                succ[y] ^= 1 << x
            else:
                succ[x] |= 1 << y

        # Keep the paths from the source and drop any cycle the steps closed.
        fresh = [0] * n
        fresh[source] = heads = succ[source]
        on_path = 0
        while heads:
            low = heads & -heads
            heads ^= low
            prev, w = source_bit, low.bit_length() - 1
            while w != sink:
                pred[w] = prev
                prev = 1 << w
                on_path |= prev
                fresh[w] = succ[w]
                w = succ[w].bit_length() - 1
        succ = fresh
