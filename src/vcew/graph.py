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


def neighbor_masks(g: Graph):
    """Each vertex's neighbors as a bitmask: bit u of entry v is set iff
    u and v are adjacent."""
    return [sum([1 << u for u, _ in adj]) for adj in g.adjacency]


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
    the value is computed by vertex-capacity max-flow from a min-degree
    vertex v0 to its non-neighbors, then from its neighbors with v0 and
    the earlier neighbors removed (Even's source removal over the
    Esfahanian--Hakimi pairs).  A target that Menger's theorem already
    links to the source by ``best`` (the smallest flow so far) paths
    gets no flow: it has ``best`` linked neighbors, or, from v0, a
    two-step fan to linked non-neighbors makes up the difference.  Once
    every non-neighbor of v0 is linked, every cut smaller than ``best``
    contains v0, so the neighbor phase needs flows only to later
    neighbors and stops after ``best`` sources (see
    ``_flow_connectivity``).
    """
    if g.n <= 1:
        return 0
    if not is_connected(g):
        return 0
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    return _flow_connectivity(g)


def _flow_connectivity(g: Graph):
    """Vertex connectivity of a connected non-complete graph.

    Even's connectivity test (SIAM J. Comput. 4, 1975) with the sources
    v0, a_1, a_2, ...: a fixed min-degree vertex v0, then its neighbors
    in id order.  Step i removes R = {v0, a_1, ..., a_(i-1)} (none at
    i = 0) by zeroing their split arcs in the capacity template, and
    runs max-flows with unit vertex capacities (``_st_flow``) in G - R
    from the source to its targets, each cut off at ``bound``, the best
    value so far, ``best``, minus |R| = i.  ``best`` starts at the degree
    of v0 and becomes i + the smallest flow of step i.

    Step 0: v0 to each of its non-neighbors.  A target gets no flow
    when Menger's theorem already shows the flow would return
    ``bound``.  Call v *linked* when no set of fewer than ``bound``
    vertices of G - R, avoiding the source and v, separates v from the
    source:

    - the source and its neighbors are linked;
    - a target is linked once its flow has run, as the flow lowered
      ``bound`` to at most itself;
    - a vertex with at least ``bound`` linked neighbors is linked: a
      set of fewer than ``bound`` vertices misses one of them, and the
      source reaches v through it;
    - at step 0, a target t with ``near[t]`` linked neighbors is linked
      when ``bound - near[t]`` paths t-w-l share no vertex but t, each
      w an unlinked neighbor and each l a linked non-neighbor of t
      (``_two_step_fan``, Menger's fan lemma): with the direct edges
      they are ``bound`` paths from t to distinct linked vertices, a
      set of fewer than ``bound`` vertices misses one of them, and the
      source reaches its end;
    - ``bound`` only falls, so a linked vertex stays linked.

    ``near[v]`` counts the linked neighbors of v.  The loop takes the
    unlinked target t with the fewest, lowest id on ties, runs its flow
    only if ``near[t] < bound`` (which fails only after ``bound`` fell)
    and no fan links t, links t and then every vertex whose count
    reaches ``bound``.  Taking targets in id order instead skips less
    on regular graphs: ``hypercube:5`` would run 19 of its 36
    Esfahanian--Hakimi flows, against 12.

    Steps i >= 1: a_i to each later neighbor a_j of v0 that is not
    adjacent to it, with the same linked loop.  After step 0 every
    non-neighbor of v0 is linked, so a cut S smaller than ``best`` (if
    any) contains v0.  Take S minimum: each component of G - S holds a
    neighbor of every vertex of S, v0 included.  S cannot hold all
    deg(v0) >= ``best`` neighbors; if a_i is the first it misses, S
    holds R, and S - R separates a_i from a later neighbor in another
    component, in G - R.  That flow is at most |S| - i, so step i finds
    |S|; and no step can find less than kappa, as R together with a cut
    of G - R disconnects G.  Since S holds R, the steps stop once
    i >= ``best``.
    """
    n = g.n
    v0 = min(range(n), key=g.degrees.__getitem__)
    best = g.degrees[v0]
    net = _split_network(g)
    slot = net[3]  # slot[v]: v's neighbors, the keys of a dict
    template = net[4]

    sources = [v0, *sorted(slot[v0])]
    for i, a in enumerate(sources):
        if i >= best:
            break
        slot_a = slot[a]
        if i:
            template[2 * sources[i - 1]] = 0
            targets = [b for b in sources[i + 1:] if b not in slot_a]
        else:
            targets = [b for b in range(n) if b != a and b not in slot_a]
        if not targets:
            continue
        bound = best - i  # the bound on a flow in G - R
        linked = [False] * n
        near = [0] * n
        for r in sources[:i]:  # R: linked, so never counted or a target
            linked[r] = True
        fresh = [a, *[u for u in slot_a if not linked[u]]]  # not yet counted
        for v in fresh:
            linked[v] = True
        while True:
            while fresh:
                for w in slot[fresh.pop()]:
                    near[w] += 1
                    if near[w] >= bound and not linked[w]:
                        linked[w] = True
                        fresh.append(w)
            rest = [b for b in targets if not linked[b]]
            if not rest:
                break
            t = min(rest, key=near.__getitem__)
            need = bound - near[t]
            if need > 0 and not (i == 0 and _two_step_fan(slot, linked, t, need)):
                bound = _st_flow(net, a, t, bound)
            linked[t] = True
            fresh.append(t)
        best = i + bound
    return best


def _two_step_fan(slot, linked, t, need):
    """Whether ``need`` paths t-w-l share no vertex but t, each w an
    unlinked neighbor of t and each l a linked vertex not adjacent to t.

    A bipartite matching of the unlinked neighbors w of t to such l
    along edges w-l, grown by BFS augmenting paths from each w in turn
    until it has ``need`` pairs.
    """
    slot_t = slot[t]
    free = [w for w in slot_t if not linked[w]]
    match = {}  # l -> its w
    size = 0
    for k, root in enumerate(free):
        if size + len(free) - k < need:
            return False
        back = {}  # a matched w -> (the w it was reached from, its l)
        seen = set()
        queue = [root]
        found = None
        for x in queue:
            for l in slot[x]:
                if linked[l] and l not in slot_t and l not in seen:
                    seen.add(l)
                    y = match.get(l)
                    if y is None:
                        found = x, l
                        break
                    back[y] = x, l
                    queue.append(y)
            if found:
                break
        if found:  # every l on the path moves back one w
            x, l = found
            while True:
                match[l] = x
                if x == root:
                    break
                x, l = back[x]
            size += 1
            if size == need:
                return True
    return False


def _split_network(g: Graph):
    """The node-split flow network of a graph, built once per
    ``_flow_connectivity`` call and shared by all its ``_st_flow`` calls.

    Vertex v becomes an in-node v and an out-node v + n joined by arc
    2v, the i-th adjacency entry (v -> u), counted across all vertices,
    becomes arc 2n + 2i from v + n to u, and arc a ^ 1 is the residual of
    arc a.  Every arc has capacity 1: with s and t non-adjacent,
    conservation at the unit split arcs keeps any feasible flow at most
    1 on every arc.
    """
    n = g.n
    head = []
    for v in range(n):
        head += (v + n, v)
    # links[x]: (arc, head) for every arc leaving node x, by arc id
    links = [[(2 * v, v + n)] for v in range(n)]
    links += [[(2 * v + 1, v)] for v in range(n)]
    # slot[v][u]: the arc from out-node v + n to in-node u, in the
    # adjacency order of v; its keys are the only neighbor sets
    slot = []
    a = 2 * n
    for v, adj in enumerate(g.adjacency):
        out = v + n
        arcs = {}
        for u, _ in adj:
            head += (u, out)
            links[out].append((a, u))
            links[u].append((a + 1, out))
            arcs[u] = a
            a += 2
        slot.append(arcs)
    template = [1, 0] * (a // 2)
    unseen = [-1] * (2 * n)
    # the parent and queue lists every _st_flow call reuses
    return n, head, links, slot, template, unseen, unseen[:], [0] * (2 * n)


def _st_flow(net, s, t, cutoff):
    """Number of internally vertex-disjoint s-t paths, at most ``cutoff``,
    for non-adjacent s and t of the ``_split_network`` ``net``, avoiding
    the vertices whose split arcs the template has zeroed.

    The capacities are reset by copying the network's template, the flow
    starts from the paths s -> x -> t through common neighbors x that
    are not removed (vertex-disjoint, so a feasible flow), and BFS
    augmenting paths over preallocated parent and queue lists, each
    stopping as soon as it reaches t, grow it to the maximum or the
    cutoff.
    """
    n, head, links, slot, template, unseen, parent, queue = net
    cap = template[:]
    src = s + n
    snk = t
    flow = 0
    slot_t = slot[t]
    for x, arc in slot[s].items():
        if flow == cutoff:
            break
        if x in slot_t and cap[2 * x]:
            for a in (arc, 2 * x, slot[x][t]):
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
