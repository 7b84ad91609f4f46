import hashlib
import itertools
import random
from collections import deque

import pytest

from vcew import graph
from vcew.graph import (
    Graph,
    GraphError,
    bipartition,
    blocks_and_cut_vertices,
    cartesian_product,
    connected_components,
    connected_without,
    degree_sequence,
    distance,
    distances,
    induced_subgraph,
    is_connected,
    is_cycle_graph,
    maximal_simple_paths,
    vertex_connectivity,
)
from vcew.families import (
    clique_graph,
    cycle_graph,
    enumerate_connected,
    hypercube_graph,
    make,
    path_graph,
    theta_graph,
)


def test_edges_normalized_and_ids_stable():
    g = Graph(4, [(1, 0), (3, 2), (0, 2)])
    assert g.edges == ((0, 1), (2, 3), (0, 2))
    assert g.adjacency[0] == ((1, 0), (2, 2))


def test_rejects_loops_and_parallel_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 5)])


def _plain_edges_and_adjacency(n, edges):
    # the representation built with a fresh tuple for every pair
    norm = tuple((u, v) if u < v else (v, u) for u, v in edges)
    adjacency = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(norm):
        adjacency[u].append((v, eid))
        adjacency[v].append((u, eid))
    return norm, tuple(tuple(a) for a in adjacency)


def test_shared_pairs_leave_edges_and_adjacency_unchanged():
    rng = random.Random(64)
    inputs = [(g.n, g.edges) for n in range(3, 7) for g in enumerate_connected(n)]
    for n in (5, 40, 64, 65, 130):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = rng.sample(pairs, min(len(pairs), 3 * n))
        inputs.append((n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in chosen]))
    for spec in ("path:5000", "clique:12", "product(cycle:9,cycle:9)"):
        g = make(spec)
        inputs.append((g.n, g.edges))
    for n, edges in inputs:
        g = Graph(n, edges)
        assert (g.edges, g.adjacency) == _plain_edges_and_adjacency(n, edges), edges


def test_shared_pair_table_stays_bounded():
    limit = graph._PAIR_LIMIT
    g = make("path:5000")
    assert len(graph._PAIRS) == limit * limit
    for i, pair in enumerate(graph._PAIRS):
        assert pair is None or pair == divmod(i, limit)
    # pairs below the limit are the table's own tuples: edge 0 is (0, 1),
    # and vertex 1 reaches 0 by edge 0
    assert g.edges[0] is graph._PAIRS[1]
    assert g.adjacency[1][0] is graph._PAIRS[0]


def test_degree_sequence_and_handshake():
    g = theta_graph([2, 2, 2])
    assert sum(g.degrees) == 2 * g.m
    assert degree_sequence(g) == sorted(g.degrees, reverse=True)
    assert degree_sequence(Graph(4, [(0, 1), (1, 2), (1, 3)])) == [3, 1, 1, 1]


def test_connectivity_predicates():
    g = Graph(5, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert connected_components(g) == [[0, 1], [2, 3], [4]]
    assert is_connected(path_graph(6))


def test_distance():
    g = cycle_graph(6)
    assert distance(g, 0, 3) == 3
    assert distance(g, 0, 5) == 1
    with pytest.raises(GraphError):
        distance(Graph(4, [(0, 1), (2, 3)]), 0, 3)


def test_bipartition():
    bip = bipartition(cycle_graph(6))
    assert bip is not None
    assert all(
        bip.side[u] != bip.side[v] for u, v in cycle_graph(6).edges
    )
    assert bipartition(clique_graph(3)) is None


def test_blocks_and_cut_vertices():
    # two triangles sharing vertex 2
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    decomp = blocks_and_cut_vertices(g)
    assert decomp.cut_vertices == frozenset({2})
    assert len(decomp.blocks) == 2
    assert sorted(e for blk in decomp.blocks for e in blk) == list(range(6))


def test_blocks_of_path_are_bridges():
    decomp = blocks_and_cut_vertices(path_graph(5))
    assert len(decomp.blocks) == 4
    assert decomp.cut_vertices == frozenset({1, 2, 3})


def test_is_cycle_graph():
    assert is_cycle_graph(cycle_graph(5))
    assert not is_cycle_graph(path_graph(5))
    assert not is_cycle_graph(theta_graph([2, 2, 2]))


def test_msp_theta():
    msp = maximal_simple_paths(theta_graph([2, 3, 4]))
    assert sorted(p.length for p in msp.paths) == [2, 3, 4]
    covered = sorted(e for p in msp.paths for e in p.edge_ids)
    assert covered == list(range(9))
    for p in msp.paths:
        assert not p.closed
        assert set(p.endpoints) == {0, 1}


def test_msp_pure_cycle_is_single_closed_path():
    msp = maximal_simple_paths(cycle_graph(8))
    assert len(msp.paths) == 1
    (p,) = msp.paths
    assert p.closed and p.length == 8
    assert p.vertices[0] == 0


def test_msp_single_edge_paths():
    g = clique_graph(4)
    msp = maximal_simple_paths(g)
    assert all(p.length == 1 for p in msp.paths)
    assert len(msp.paths) == 6


def test_cartesian_product_shape():
    prod = cartesian_product(cycle_graph(4), path_graph(3))
    assert prod.n == 12
    assert prod.m == 4 * 3 + 2 * 4
    # degree of (u, v) is deg(u) + deg(v)
    assert set(prod.degrees) == {3, 4}


def test_hypercube_product_identity():
    q3 = hypercube_graph(3)
    assert (q3.n, q3.m) == (8, 12)
    assert all(d == 3 for d in q3.degrees)


def _networkx_graph(nx, g):
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges)
    return ref


def test_traversal_matches_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(3, 7):
        for g in enumerate_connected(n):
            ref = _networkx_graph(nx, g)
            for s in range(g.n):
                dist = distances(g, s)
                assert dist == nx.single_source_shortest_path_length(ref, s), g.edges
                assert list(dist.values()) == sorted(dist.values())  # BFS order
            cuts = [{v} for v in range(g.n)]
            cuts += [{v, *g.neighbors(v)} for v in range(g.n)]
            for cut in cuts:
                rest = ref.subgraph(set(range(g.n)) - cut)
                expected = len(rest) == 0 or nx.is_connected(rest)
                assert connected_without(g, cut) == expected, (g.edges, cut)


def test_connected_components_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3266)
    split = isolated = 0
    for _ in range(50):
        n = rng.randint(6, 20)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 1.5 / n]
        g = Graph(n, edges)
        expected = sorted(sorted(c) for c in nx.connected_components(_networkx_graph(nx, g)))
        comps = connected_components(g)
        assert comps == expected, edges
        split += len(comps) > 1
        isolated += any(len(c) == 1 for c in comps)
    assert split >= 40 and isolated >= 40


def test_induced_subgraph():
    g = theta_graph([2, 2, 2])
    sub, vmap, emap = induced_subgraph(g, [0, 2, 1])
    assert sub.n == 3
    assert sub.m == 2
    assert vmap == [0, 1, 2]
    assert all(g.edges[orig] is not None for orig in emap)


def test_vertex_connectivity_values():
    assert vertex_connectivity(clique_graph(5)) == 4
    assert vertex_connectivity(cycle_graph(7)) == 2
    assert vertex_connectivity(path_graph(5)) == 1
    assert vertex_connectivity(hypercube_graph(3)) == 3
    assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0
    assert vertex_connectivity(theta_graph([2, 2, 2])) == 2


def _brute_force_kappa(g):
    """Smallest vertex set whose removal disconnects g, else n - 1.

    Shares no code with the flow kernel: plain BFS over edge lists.
    """
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def connected_without(cut):
        rest = [v for v in range(g.n) if v not in cut]
        seen = {rest[0]}
        queue = deque([rest[0]])
        while queue:
            for u in nbrs[queue.popleft()]:
                if u not in cut and u not in seen:
                    seen.add(u)
                    queue.append(u)
        return len(seen) == len(rest)

    for size in range(g.n - 1):
        for cut in itertools.combinations(range(g.n), size):
            if not connected_without(set(cut)):
                return size
    return g.n - 1


def _product_sample(max_order, count, seed):
    rng = random.Random(seed)
    pools = {n: enumerate_connected(n) for n in range(3, min(7, max_order // 3) + 1)}
    orders = [(a, b) for a in pools for b in pools if a <= b and a * b <= max_order]
    return [
        cartesian_product(rng.choice(pools[a]), rng.choice(pools[b]))
        for a, b in (rng.choice(orders) for _ in range(count))
    ]


def test_vertex_connectivity_matches_brute_force_on_pools():
    for n in range(3, 8):
        for g in enumerate_connected(n):
            assert vertex_connectivity(g) == _brute_force_kappa(g), g.edges


def test_vertex_connectivity_matches_brute_force_on_products():
    for prod in _product_sample(16, 200, seed=2012):
        assert vertex_connectivity(prod) == _brute_force_kappa(prod), prod.edges


def test_vertex_connectivity_matches_networkx_on_products():
    nx = pytest.importorskip("networkx")
    for prod in _product_sample(36, 150, seed=2013):
        ref = _networkx_graph(nx, prod)
        assert vertex_connectivity(prod) == nx.node_connectivity(ref), prod.edges


def _separated_graphs(count, seed):
    """Seeded graphs with kappa < delta: two halves of minimum degree at
    least d, with no edge between them, joined through a separator of
    s < d vertices; vertex 0 lies in a half, never in the separator."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(10, 30)
        d = rng.randint(3, min(6, n // 3))
        s = rng.randint(1, d - 1)
        a = rng.randint(d + 1 - s, n - s - (d + 1 - s))
        order = list(range(1, n))
        rng.shuffle(order)
        order.insert(rng.randrange(a), 0)
        left = set(order[:a])
        right = set(order[a + s:])
        sep = order[a:a + s]

        def allowed(u, v):
            return u != v and not (
                (u in left and v in right) or (u in right and v in left)
            )

        nbrs = [set() for _ in range(n)]
        p = rng.uniform(0.2, 0.6)
        for u, v in itertools.combinations(range(n), 2):
            if allowed(u, v) and rng.random() < p:
                nbrs[u].add(v)
                nbrs[v].add(u)
        for x in sep:  # a neighbour on each side
            for half in (left, right):
                v = rng.choice(sorted(half))
                nbrs[x].add(v)
                nbrs[v].add(x)
        for u in range(n):
            while len(nbrs[u]) < d:
                v = rng.choice([v for v in range(n) if allowed(u, v) and v not in nbrs[u]])
                nbrs[u].add(v)
                nbrs[v].add(u)
        edges = [(u, v) for u in range(n) for v in nbrs[u] if u < v]
        rng.shuffle(edges)
        graphs.append(Graph(n, edges))
    return graphs


def test_vertex_connectivity_below_min_degree_matches_brute_force():
    # the flow kernel links vertices at best = delta before a flow lowers
    # best to kappa, so these graphs exercise every step of its rule
    graphs = [g for g in _separated_graphs(100, seed=1984) if g.n <= 14]
    assert len(graphs) >= 20
    for g in graphs:
        kappa = vertex_connectivity(g)
        assert kappa < min(g.degrees), g.edges
        assert kappa == _brute_force_kappa(g), g.edges


def test_vertex_connectivity_below_min_degree_matches_networkx():
    nx = pytest.importorskip("networkx")
    graphs = [g for g in _separated_graphs(100, seed=1984) if g.n > 14]
    assert len(graphs) >= 50
    for g in graphs:
        ref = _networkx_graph(nx, g)
        kappa = vertex_connectivity(g)
        assert kappa < min(g.degrees), g.edges
        assert kappa == nx.node_connectivity(ref), g.edges


def _graphs_cut_through_v0(count, seed):
    """Seeded graphs with kappa < delta in which vertex 0, the lowest-id
    vertex of minimum degree, lies in every minimum cut.

    Two halves with no edge between them are joined through a separator
    of s vertices that holds vertex 0.  Each half is (s + 1)-connected:
    its vertices have at least (size + s - 1) / 2 neighbours inside it.
    Vertex 0 has s + 1 neighbours in each half and degree d >= 2s + 2;
    every other vertex has degree at least d, and the other separator
    vertices have neighbours only in the halves and in vertex 0.  So a set
    of at most s vertices that avoids vertex 0 leaves both halves joined
    through it and every separator vertex attached, while the separator
    disconnects the graph.
    """
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        s = rng.randint(1, 3)
        d = 2 * s + 2 + rng.randint(0, 1)
        lo = max(s + 2, d + 2 - s)
        sizes = [rng.randint(lo, lo + 3) for _ in range(2)]
        n = s + sum(sizes)
        order = list(range(1, n))
        rng.shuffle(order)
        sep = order[:s - 1]
        halves = (order[s - 1:s - 1 + sizes[0]], order[s - 1 + sizes[0]:])
        nbrs = [set() for _ in range(n)]

        def join(u, v):
            nbrs[u].add(v)
            nbrs[v].add(u)

        def grow(u, pool, degree):
            pool = [v for v in pool if v != u and v not in nbrs[u]]
            rng.shuffle(pool)
            while len(nbrs[u]) < degree:
                join(u, pool.pop())

        p = rng.uniform(0.3, 0.8)
        for half in halves:
            for u, v in itertools.combinations(half, 2):
                if rng.random() < p:
                    join(u, v)
            for u in half:
                grow(u, half, (len(half) + s) // 2)
        for half in halves:
            for v in rng.sample(half, s + 1):
                join(0, v)
        grow(0, sep + halves[0] + halves[1], d)
        for x in sep:
            for half in halves:
                join(x, rng.choice(half))
            grow(x, halves[0] + halves[1], d)
        for half in halves:
            for u in half:
                grow(u, half + sep, d)
        edges = [(u, v) for u in range(n) for v in nbrs[u] if u < v]
        rng.shuffle(edges)
        graphs.append(Graph(n, edges))
    return graphs


def test_vertex_connectivity_with_v0_in_every_minimum_cut_matches_brute_force():
    # the v0-to-target flows all exceed kappa here, so only the
    # neighbour-pair phase (source removal) can find it
    graphs = [g for g in _graphs_cut_through_v0(150, seed=1975) if g.n <= 14]
    assert len(graphs) >= 20
    for g in graphs:
        kappa = _brute_force_kappa(g)
        assert g.degrees[0] == min(g.degrees) and kappa < g.degrees[0], g.edges
        assert all(
            connected_without(g, cut)
            for cut in itertools.combinations(range(1, g.n), kappa)
        ), g.edges
        assert vertex_connectivity(g) == kappa, g.edges


def test_vertex_connectivity_with_v0_in_every_minimum_cut_matches_networkx():
    nx = pytest.importorskip("networkx")
    graphs = [g for g in _graphs_cut_through_v0(150, seed=1975) if g.n > 14]
    assert len(graphs) >= 100
    seen = set()
    for g in graphs:
        kappa = nx.node_connectivity(_networkx_graph(nx, g))
        assert g.degrees[0] == min(g.degrees) and kappa < g.degrees[0], g.edges
        assert vertex_connectivity(g) == kappa, g.edges
        seen.add(kappa)
    assert seen == {1, 2, 3}


def _random_regular(n, d, rng):
    """A random d-regular simple graph on n vertices (n * d even): pair
    each of d copies of every vertex with a random allowed partner,
    restarting on a dead end."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        edges = set()
        while points:
            u = points.pop(rng.randrange(len(points)))
            allowed = [
                j
                for j, v in enumerate(points)
                if v != u and (min(u, v), max(u, v)) not in edges
            ]
            if not allowed:
                break
            v = points.pop(rng.choice(allowed))
            edges.add((min(u, v), max(u, v)))
        if not points:
            return sorted(edges)


def _random_graphs(count, seed):
    """Seeded graphs on 4..26 vertices, each shape in turn: G(n, p), two
    dense blobs glued through a separator of 1..4 vertices, and random
    regular graphs.  Edges are shuffled, so edge ids carry no order."""
    rng = random.Random(seed)
    graphs = []
    for k in range(count):
        n = rng.randint(4, 26)
        if k % 3 == 0:
            p = rng.uniform(0.15, 0.9)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        elif k % 3 == 1:
            order = list(range(n))
            rng.shuffle(order)
            s = rng.randint(1, min(4, n - 2))
            sep, rest = order[:s], order[s:]
            blobs = (rest[:len(rest) // 2], rest[len(rest) // 2:])
            edges = [
                e
                for blob in blobs
                for e in itertools.combinations(blob, 2)
                if rng.random() < 0.8
            ]
            edges += [(x, v) for x in sep for v in order if v != x and rng.random() < 0.5]
            edges = {(min(e), max(e)) for e in edges}
        else:
            d = rng.randint(2, min(n - 1, 7))
            if n * d % 2:
                d -= 1
            edges = _random_regular(n, d, rng)
        edges = list(edges)
        rng.shuffle(edges)
        graphs.append(Graph(n, edges))
    return graphs


def test_vertex_connectivity_matches_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    below = 0
    for g in _random_graphs(300, seed=1984):
        kappa = nx.node_connectivity(_networkx_graph(nx, g))
        assert vertex_connectivity(g) == kappa, (g.n, g.edges)
        below += 0 < kappa < min(g.degrees)
    assert below >= 30


def _esfahanian_hakimi_pairs(g):
    """The s-t pairs of Esfahanian--Hakimi from the lowest-id min-degree
    vertex v0: its non-neighbours, and its non-adjacent neighbour pairs."""
    v0 = min(range(g.n), key=g.degrees.__getitem__)
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    far = [t for t in range(g.n) if t != v0 and t not in nbrs[v0]]
    inner = [
        (x, y)
        for x, y in itertools.combinations(sorted(nbrs[v0]), 2)
        if y not in nbrs[x]
    ]
    return len(far) + len(inner)


@pytest.mark.parametrize(
    "spec, kappa, pairs, flows",
    [
        ("hypercube:5", 5, 36, 12),
        ("product(cycle:6,cycle:6)", 4, 37, 13),
        ("product(path:5,path:7)", 2, 33, 4),
        ("product(clique:4,path:6)", 4, 22, 6),
    ],
)
def test_flow_connectivity_skips_flows_menger_decides(monkeypatch, spec, kappa, pairs, flows):
    # a kernel that runs a flow for every Esfahanian--Hakimi pair gets
    # every kappa right and fails here
    calls = [0]
    st_flow = graph._st_flow

    def counted(*args):
        calls[0] += 1
        return st_flow(*args)

    monkeypatch.setattr(graph, "_st_flow", counted)
    g = make(spec)
    assert vertex_connectivity(g) == kappa
    assert _esfahanian_hakimi_pairs(g) == pairs
    assert calls[0] <= flows < pairs


def test_flow_calls_are_pinned(monkeypatch):
    # every (s, t, cutoff, result) of the kappa kernel's flows on the
    # products of the connected graphs on 3..5 vertices and three larger
    # products: a rewrite of the kernel must run exactly the same flows
    calls = []
    st_flow = graph._st_flow

    def recorded(net, s, t, cutoff):
        flow = st_flow(net, s, t, cutoff)
        calls.append((s, t, cutoff, flow))
        return flow

    monkeypatch.setattr(graph, "_st_flow", recorded)
    pool = [g for n in range(3, 6) for g in enumerate_connected(n)]
    graphs = [
        cartesian_product(g, h)
        for g, h in itertools.combinations_with_replacement(pool, 2)
    ]
    assert len(graphs) == 435
    graphs += [
        make(spec)
        for spec in (
            "hypercube:5",
            "product(cycle:6,cycle:6)",
            "product(clique:4,path:6)",
        )
    ]
    for g in graphs:
        vertex_connectivity(g)
    assert len(calls) == 1615
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == (
        "d65609b9ac6aefbe6105868b342e45e1affd709417834056258f57b89750724b"
    )
