"""Immutable simple-graph representation and structural queries.

Vertices are integers ``0..n-1``.  Edge ids equal positions in the edge
list, which makes every downstream construction reproducible byte for
byte.  All operations here are pure functions over immutable inputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class GraphError(ValueError):
    """Malformed graph input or a violated operation precondition."""


# One shared tuple per (a, b) pair of ints below _PAIR_LIMIT: the edge
# keys and adjacency entries of every Graph that fit take it from here,
# so the many small graphs of a sweep hold no copies of the same pairs.
# Bounded at _PAIR_LIMIT ** 2 entries, filled as pairs first occur.
_PAIR_LIMIT = 64
_PAIRS = [None] * (_PAIR_LIMIT * _PAIR_LIMIT)


def _new_pair(a: int, b: int):
    p = _PAIRS[a * _PAIR_LIMIT + b] = (a, b)
    return p


class Graph:
    """Finite simple undirected graph with stable vertex/edge identifiers.

    Edges are stored with the smaller endpoint first; the edge id is the
    index in ``edges``.  ``adjacency[v]`` lists ``(neighbor, edge_id)``
    pairs in edge-id order.  Instances are immutable after construction
    and safe to share across concurrent readers.
    """

    __slots__ = ("n", "edges", "adjacency", "degrees")

    def __init__(self, n: int, edges):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        pairs, limit = _PAIRS, _PAIR_LIMIT
        norm = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if v < limit:
                key = pairs[u * limit + v] or _new_pair(u, v)
            else:
                key = (u, v)
            if key in seen:
                raise GraphError(f"parallel edge ({u},{v})")
            seen.add(key)
            norm.append(key)
        adjacency = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(norm):
            if eid < limit and v < limit:
                adjacency[u].append(pairs[v * limit + eid] or _new_pair(v, eid))
                adjacency[v].append(pairs[u * limit + eid] or _new_pair(u, eid))
            else:
                adjacency[u].append((v, eid))
                adjacency[v].append((u, eid))
        self.n = n
        self.edges = tuple(norm)
        # tuples from lists, not generators: a generator's tuple is
        # allocated at a guessed size and resized, which bypasses and then
        # overfills the interpreter's per-size tuple free lists
        self.adjacency = tuple([tuple(a) for a in adjacency])
        self.degrees = tuple([len(a) for a in adjacency])

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int):
        return tuple([u for u, _ in self.adjacency[v]])

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Bipartition:
    """Per-vertex side labels ('U' or 'W'); every edge crosses sides."""

    side: tuple

    def part(self, label: str):
        return tuple([v for v, s in enumerate(self.side) if s == label])


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks as edge-id sets plus the cut vertices of the graph."""

    blocks: tuple
    cut_vertices: frozenset


@dataclass(frozen=True)
class MspPath:
    """One maximal simple path: parallel edge-id and vertex sequences.

    ``vertices`` has one more entry than ``edge_ids``; for a closed path
    the first and last vertex coincide.
    """

    edge_ids: tuple
    vertices: tuple
    closed: bool

    @property
    def length(self) -> int:
        return len(self.edge_ids)

    @property
    def endpoints(self):
        return (self.vertices[0], self.vertices[-1])


@dataclass(frozen=True)
class MspDecomposition:
    """Partition of the edge set into maximal simple paths."""

    paths: tuple


def degree_sequence(g: Graph):
    """Degrees in non-increasing order (the textbook degree sequence)."""
    return sorted(g.degrees, reverse=True)


def distances(g: Graph, start: int, removed=()):
    """BFS distances from ``start`` in g minus the vertices ``removed``.

    A dict from each vertex reachable from ``start`` to its distance, in
    BFS visit order (neighbors in edge-id order); ``start`` itself must
    not be removed.
    """
    blocked = frozenset(removed)
    dist = {start: 0}
    order = [start]  # the BFS queue: a list grows under its iterator
    for x in order:
        d = dist[x] + 1
        for y, _ in g.adjacency[x]:
            if y not in dist and y not in blocked:
                dist[y] = d
                order.append(y)
    return dist


def connected_without(g: Graph, removed) -> bool:
    """Whether g minus the vertices ``removed`` (vertices of g) is
    connected; a graph with no vertex left counts as connected."""
    blocked = frozenset(removed)
    for start in range(g.n):
        if start not in blocked:
            return len(distances(g, start, blocked)) == g.n - len(blocked)
    return True


def is_connected(g: Graph) -> bool:
    return g.n == 0 or len(distances(g, 0)) == g.n


def connected_components(g: Graph):
    """Vertex sets of the components, each sorted, ordered by minimum vertex."""
    seen = [False] * g.n
    comps = []
    for v in range(g.n):
        if not seen[v]:
            comp = sorted(distances(g, v))
            for u in comp:
                seen[u] = True
            comps.append(comp)
    return comps


def bipartition(g: Graph):
    """Two-color the graph, or return None if it has an odd cycle.

    The lowest-id vertex of each component lands on side 'U'.
    """
    side = [None] * g.n
    for start in range(g.n):
        if side[start] is not None:
            continue
        side[start] = "U"
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u, _ in g.adjacency[v]:
                if side[u] is None:
                    side[u] = "W" if side[v] == "U" else "U"
                    queue.append(u)
                elif side[u] == side[v]:
                    return None
    return Bipartition(side=tuple(side))


def distance(g: Graph, u: int, v: int) -> int:
    """BFS shortest-path length; raises GraphError on unreachable pairs."""
    dist = distances(g, u).get(v)
    if dist is None:
        raise GraphError(f"vertices {u} and {v} are in different components")
    return dist


def blocks_and_cut_vertices(g: Graph) -> BlockDecomposition:
    """Standard block / cut-vertex decomposition of a connected graph.

    Blocks are maximal 2-connected subgraphs plus bridge edges, reported
    as edge-id sets sorted by their smallest edge id.
    """
    if not is_connected(g):
        raise GraphError("block decomposition requires a connected graph")
    if g.n == 0:
        return BlockDecomposition(blocks=(), cut_vertices=frozenset())

    disc = [0] * g.n
    low = [0] * g.n
    timer = [1]
    cut = set()
    blocks = []
    edge_stack = []

    def dfs(root):
        # iterative DFS; frame: (v, parent_edge, iterator index)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        root_children = 0
        while stack:
            v, pe, i = stack[-1]
            if i < len(g.adjacency[v]):
                stack[-1] = (v, pe, i + 1)
                u, eid = g.adjacency[v][i]
                if eid == pe:
                    continue
                if disc[u] == 0:
                    edge_stack.append(eid)
                    disc[u] = low[u] = timer[0]
                    timer[0] += 1
                    if v == root:
                        root_children += 1
                    stack.append((u, eid, 0))
                elif disc[u] < disc[v]:
                    edge_stack.append(eid)
                    if disc[u] < low[v]:
                        low[v] = disc[u]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        if p != root:
                            cut.add(p)
                        block = []
                        while True:
                            eid = edge_stack.pop()
                            block.append(eid)
                            if eid == pe:
                                break
                        blocks.append(frozenset(block))
        if root_children >= 2:
            cut.add(root)

    dfs(0)
    blocks.sort(key=min)
    return BlockDecomposition(blocks=tuple(blocks), cut_vertices=frozenset(cut))


def is_cycle_graph(g: Graph) -> bool:
    """True iff the graph is a single cycle."""
    return g.n >= 3 and is_connected(g) and all(d == 2 for d in g.degrees)


def maximal_simple_paths(g: Graph) -> MspDecomposition:
    """Partition the edge set into maximal simple paths.

    Internal vertices of each path have degree 2; path endpoints have
    degree != 2, except when the whole graph is a cycle (one closed
    path).  A cycle block hanging on a single branch vertex yields a
    closed path flagged as such.  Paths are ordered by smallest edge id;
    each is traversed from its smaller-id endpoint (ties broken toward
    the lexicographically smaller edge-id sequence).
    """
    if g.m == 0:
        raise GraphError("msp decomposition requires at least one edge")
    if not is_connected(g):
        raise GraphError("msp decomposition requires a connected graph")

    if all(d == 2 for d in g.degrees):
        # the graph is a single cycle: one closed path from vertex 0
        verts = [0]
        edges = []
        prev = -1
        v = 0
        # walk toward the smaller-id neighbor first
        while True:
            nbrs = [(u, e) for u, e in g.adjacency[v] if e != prev]
            u, e = min(nbrs)
            edges.append(e)
            verts.append(u)
            prev = e
            v = u
            if v == 0:
                break
        return MspDecomposition(paths=(MspPath(tuple(edges), tuple(verts), True),))

    used = [False] * g.m
    paths = []
    for eid in range(g.m):
        if used[eid]:
            continue
        u, v = g.edges[eid]
        edges = deque([eid])
        verts = deque([u, v])
        used[eid] = True
        for front in (True, False):
            while True:
                end = verts[0] if front else verts[-1]
                if g.degrees[end] != 2 or verts[0] == verts[-1]:
                    break
                last_eid = edges[0] if front else edges[-1]
                (nu, ne), = [(x, e) for x, e in g.adjacency[end] if e != last_eid]
                used[ne] = True
                if front:
                    edges.appendleft(ne)
                    verts.appendleft(nu)
                else:
                    edges.append(ne)
                    verts.append(nu)
        edges = tuple(edges)
        verts = tuple(verts)
        closed = verts[0] == verts[-1]
        if verts[0] > verts[-1] or (closed and edges[::-1] < edges):
            edges = edges[::-1]
            verts = verts[::-1]
        paths.append(MspPath(edges, verts, closed))
    return MspDecomposition(paths=tuple(paths))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, v) is encoded as u * h.n + v.

    Edge ids: copies of g (one per h-vertex, h-vertices in order) come
    first, then copies of h (one per g-vertex), each block in input
    edge order.
    """
    edges = []
    for v in range(h.n):
        for a, b in g.edges:
            edges.append((a * h.n + v, b * h.n + v))
    for u in range(g.n):
        for a, b in h.edges:
            edges.append((u * h.n + a, u * h.n + b))
    return Graph(g.n * h.n, edges)


def induced_subgraph(g: Graph, vertices):
    """Subgraph induced by ``vertices``.

    Returns ``(sub, vertex_map, edge_map)`` where ``vertex_map[i]`` and
    ``edge_map[j]`` are the original ids of the subgraph's vertex i and
    edge j.  Vertices keep their relative order; edges keep edge-id order.
    """
    vertex_map = sorted(vertices)
    index = {v: i for i, v in enumerate(vertex_map)}
    edges = []
    edge_map = []
    for eid, (u, v) in enumerate(g.edges):
        if u in index and v in index:
            edges.append((index[u], index[v]))
            edge_map.append(eid)
    return Graph(len(vertex_map), edges), vertex_map, edge_map


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertex deletions that disconnect the graph.

    Complete graphs give n - 1; disconnected input gives 0.  Otherwise
    the value is computed by vertex-capacity max-flow between a
    min-degree vertex v0 and its non-neighbors, plus non-adjacent pairs
    of its neighbors (Esfahanian--Hakimi).  A non-neighbor of v0 with at
    least ``best`` (the smallest flow so far) neighbors that no set of
    fewer than ``best`` vertices separates from v0 gets no flow: such a
    set misses one of those neighbors, and v0 reaches the vertex through
    it (Menger's theorem; see ``_flow_connectivity``).
    """
    if g.n <= 1:
        return 0
    if not is_connected(g):
        return 0
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    return _flow_connectivity(g.n, *_csr_adjacency(g))


def _flow_connectivity(n, adj_start, adj_flat):
    """Vertex connectivity of a connected non-complete graph.

    Max-flow with unit vertex capacities (``_st_flow``) from a fixed
    min-degree vertex v0 to each of its non-neighbors (the targets) and
    between non-adjacent pairs of its neighbors (Esfahanian--Hakimi),
    each flow cut off at the best value so far, ``best``, which starts
    at the degree of v0.

    A target gets no flow when Menger's theorem already shows the flow
    would return ``best``.  Call v *linked* when no set of fewer than
    ``best`` vertices, avoiding v0 and v, separates v from v0:

    - v0 and its neighbors are linked;
    - a target is linked once its flow has run and lowered ``best`` to
      at most that flow;
    - a vertex with at least ``best`` linked neighbors is linked: a set
      of fewer than ``best`` vertices misses one of them, and v0
      reaches v through it;
    - ``best`` only falls, so a linked vertex stays linked.

    ``near[v]`` counts the linked neighbors of v.  The loop takes the
    unlinked target t with the fewest, lowest id on ties, runs its flow
    only if ``near[t] < best`` (which fails only after ``best`` fell),
    links t and then every vertex whose count reaches ``best``.  Taking
    targets in id order instead skips almost nothing on regular graphs:
    ``hypercube:5`` would run 35 of its 36 flows, against 21.
    """
    neighbors = [
        frozenset(adj_flat[adj_start[v]:adj_start[v + 1]]) for v in range(n)
    ]
    v0 = min(range(n), key=lambda v: adj_start[v + 1] - adj_start[v])
    best = adj_start[v0 + 1] - adj_start[v0]
    net = _split_network(n, adj_start, adj_flat, neighbors)

    linked = [False] * n
    near = [0] * n
    fresh = [v0, *neighbors[v0]]  # linked, not yet counted in near
    for v in fresh:
        linked[v] = True
    while True:
        while fresh:
            for w in neighbors[fresh.pop()]:
                near[w] += 1
                if near[w] >= best and not linked[w]:
                    linked[w] = True
                    fresh.append(w)
        rest = [v for v in range(n) if not linked[v]]
        if not rest:
            break
        t = min(rest, key=near.__getitem__)
        if near[t] < best:
            best = min(best, _st_flow(net, v0, t, best))
        linked[t] = True
        fresh.append(t)

    nb = sorted(neighbors[v0])
    for i in range(len(nb)):
        for j in range(i + 1, len(nb)):
            if nb[j] not in neighbors[nb[i]]:
                best = min(best, _st_flow(net, nb[i], nb[j], best))
    return best


def _split_network(n, adj_start, adj_flat, neighbors):
    """The node-split flow network of a graph, built once per
    ``_flow_connectivity`` call and shared by all its ``_st_flow`` calls.

    Vertex v becomes an in-node v and an out-node v + n joined by arc
    2v, adjacency slot i (v -> u) becomes arc 2n + 2i from v + n to u,
    and arc a ^ 1 is the residual of arc a.  Every arc has capacity 1:
    with s and t non-adjacent, conservation at the unit split arcs keeps
    any feasible flow at most 1 on every arc.
    """
    nn = 2 * n
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
    # the parent and queue lists every _st_flow call reuses
    return (
        n, adj_start, adj_flat, neighbors, head, links, slot, template,
        unseen, unseen[:], [0] * nn,
    )


def _st_flow(net, s, t, cutoff):
    """Number of internally vertex-disjoint s-t paths, at most ``cutoff``,
    for non-adjacent s and t of the ``_split_network`` ``net``.

    The capacities are reset by copying the network's template, the flow
    starts from the paths s -> x -> t through common neighbors x
    (vertex-disjoint, so a feasible flow), and BFS augmenting paths over
    preallocated parent and queue lists, each stopping as soon as it
    reaches t, grow it to the maximum or the cutoff.
    """
    (n, adj_start, adj_flat, neighbors, head, links, slot, template,
     unseen, parent, queue) = net
    nn = 2 * n
    cap = template[:]
    src = s + n
    snk = t
    flow = 0
    nbrs_t = neighbors[t]
    for i in range(adj_start[s], adj_start[s + 1]):
        if flow == cutoff:
            break
        x = adj_flat[i]
        if x in nbrs_t:
            for a in (nn + 2 * i, 2 * x, slot[x][t]):
                cap[a] = 0
                cap[a ^ 1] = 1
            flow += 1
    while flow < cutoff:
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
    return flow


def _csr_adjacency(g: Graph):
    """Adjacency in CSR form ``(adj_start, adj_flat)``, the kernels' input.

    The neighbors of v are ``adj_flat[adj_start[v]:adj_start[v + 1]]``,
    in edge-id order.
    """
    adj_start = [0]
    adj_flat = []
    for v in range(g.n):
        adj_flat.extend(u for u, _ in g.adjacency[v])
        adj_start.append(len(adj_flat))
    return adj_start, adj_flat
