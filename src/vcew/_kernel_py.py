"""Pure-Python hot kernels: weighting search and vertex connectivity.

This is the fallback twin of the compiled extension ``vcew._kernel``;
both expose the same two functions and must return identical results.
The compiled module is preferred at import (see ``vcew._backend``).
"""

from __future__ import annotations

BACKEND_NAME = "python"


def search_weighting(n, m, eu, ev, order, k, fixed, parity, adj_start, adj_flat):
    """Backtracking search for a proper edge weighting.

    Edges are assigned in ``order``; weight values are tried in
    ascending order, so the first hit is the lexicographically smallest
    weighting with respect to ``order``.  A partial assignment is pruned
    as soon as a vertex with all incident edges assigned conflicts with
    a saturated neighbor or violates its parity constraint.

    fixed[e] > 0 pins edge e to that weight; parity[v] in {-1, 0, 1}
    requires no constraint / an even color / an odd color at v.

    Returns a per-edge-id weight list, or None.
    """
    if m == 0:
        return []
    w = [0] * m
    rem = [adj_start[v + 1] - adj_start[v] for v in range(n)]
    csum = [0] * n
    cur = [0] * m

    def saturated_ok(x):
        cx = csum[x]
        if parity[x] >= 0 and (cx & 1) != parity[x]:
            return False
        for i in range(adj_start[x], adj_start[x + 1]):
            y = adj_flat[i]
            if rem[y] == 0 and csum[y] == cx:
                return False
        return True

    def try_assign(e, wt):
        u = eu[e]
        v = ev[e]
        w[e] = wt
        csum[u] += wt
        csum[v] += wt
        rem[u] -= 1
        rem[v] -= 1
        if (rem[u] == 0 and not saturated_ok(u)) or (
            rem[v] == 0 and not saturated_ok(v)
        ):
            w[e] = 0
            csum[u] -= wt
            csum[v] -= wt
            rem[u] += 1
            rem[v] += 1
            return False
        return True

    pos = 0
    while True:
        e = order[pos]
        prev = cur[pos]
        if prev:
            u = eu[e]
            v = ev[e]
            w[e] = 0
            csum[u] -= prev
            csum[v] -= prev
            rem[u] += 1
            rem[v] += 1
        f = fixed[e]
        chosen = 0
        if f:
            if prev == 0 and try_assign(e, f):
                chosen = f
        else:
            wt = prev + 1
            while wt <= k:
                if try_assign(e, wt):
                    chosen = wt
                    break
                wt += 1
        if chosen:
            cur[pos] = chosen
            pos += 1
            if pos == m:
                return list(w)
        else:
            cur[pos] = 0
            pos -= 1
            if pos < 0:
                return None


def vertex_connectivity(n, adj_start, adj_flat):
    """Vertex connectivity of a connected non-complete graph.

    Max-flow with unit vertex capacities from a fixed min-degree vertex
    to each of its non-neighbors and between non-adjacent pairs of its
    neighbors (Esfahanian--Hakimi), each flow cut off at the current
    best value.

    The node-split network is built once per call: vertex v becomes an
    in-node v and an out-node v + n joined by arc 2v, adjacency slot i
    (v -> u) becomes arc 2n + 2i from v + n to u, and arc a ^ 1 is the
    residual of arc a.  Every arc has capacity 1: with s and t
    non-adjacent, conservation at the unit split arcs keeps any
    feasible flow at most 1 on every arc.  For each s-t pair the
    capacities are reset by copying one template, the flow starts from
    the paths s -> x -> t through common neighbors x (vertex-disjoint,
    so a feasible flow), and BFS augmenting paths over preallocated
    parent and queue lists, each stopping as soon as it reaches t, grow
    it to the maximum or the cutoff.
    """
    nn = 2 * n
    neighbors = [
        frozenset(adj_flat[adj_start[v]:adj_start[v + 1]]) for v in range(n)
    ]
    v0 = min(range(n), key=lambda v: adj_start[v + 1] - adj_start[v])
    best = adj_start[v0 + 1] - adj_start[v0]
    pairs = [(v0, t) for t in range(n) if t != v0 and t not in neighbors[v0]]
    nb = sorted(neighbors[v0])
    for i in range(len(nb)):
        for j in range(i + 1, len(nb)):
            if nb[j] not in neighbors[nb[i]]:
                pairs.append((nb[i], nb[j]))

    head = [0] * (nn + 2 * len(adj_flat))
    for v in range(n):
        head[2 * v] = v + n
        head[2 * v + 1] = v
        for i in range(adj_start[v], adj_start[v + 1]):
            head[nn + 2 * i] = adj_flat[i]
            head[nn + 2 * i + 1] = v + n
    # links[x]: (arc, head) for every arc leaving node x
    links = [[] for _ in range(nn)]
    for a, y in enumerate(head):
        links[head[a ^ 1]].append((a, y))
    # slot[x][t]: the arc from out-node x to in-node t
    slot = [
        {adj_flat[i]: nn + 2 * i for i in range(adj_start[v], adj_start[v + 1])}
        for v in range(n)
    ]
    template = [1, 0] * (n + len(adj_flat))
    unseen = [-1] * nn
    parent = [-1] * nn
    queue = [0] * nn

    for s, t in pairs:
        if best == 0:
            break
        cap = template[:]
        src = s + n
        snk = t
        flow = 0
        nbrs_t = neighbors[t]
        for i in range(adj_start[s], adj_start[s + 1]):
            if flow == best:
                break
            x = adj_flat[i]
            if x in nbrs_t:
                for a in (nn + 2 * i, 2 * x, slot[x][t]):
                    cap[a] = 0
                    cap[a ^ 1] = 1
                flow += 1
        while flow < best:
            parent[:] = unseen
            parent[src] = 0  # any mark: the walk back stops at src
            queue[0] = src
            qh, qt = 0, 1
            while qh < qt and parent[snk] < 0:
                x = queue[qh]
                qh += 1
                for a, y in links[x]:
                    if cap[a] and parent[y] < 0:
                        parent[y] = a
                        if y == snk:
                            break
                        queue[qt] = y
                        qt += 1
            if parent[snk] < 0:
                break
            x = snk
            while x != src:
                a = parent[x]
                cap[a] = 0
                cap[a ^ 1] = 1
                x = head[a ^ 1]
            flow += 1
        best = min(best, flow)
    return best
