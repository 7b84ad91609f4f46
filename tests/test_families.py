import gc
import hashlib
import itertools
import math
import time

import pytest

from vcew.families import (
    FamilyError,
    GptParams,
    clique_graph,
    complete_multipartite,
    cycle_graph,
    enumerate_connected,
    gpt_graph,
    graphs_isomorphic,
    hypercube_graph,
    make,
    path_graph,
    random_connected_bipartite,
    theta_graph,
)
from vcew.families import (
    _connected_mask_reps,
    _isomorphisms,
    _parse_spec,
    _spec_size,
    _wl_colors,
)
from vcew.formats import MAX_EDGES, MAX_VERTICES
from vcew.graph import Graph, bipartition, cartesian_product, is_connected, is_cycle_graph


def test_basic_families():
    assert path_graph(5).m == 4
    assert cycle_graph(5).m == 5
    assert clique_graph(5).m == 10
    k23 = complete_multipartite([2, 3])
    assert (k23.n, k23.m) == (5, 6)
    assert sorted(k23.degrees) == [2, 2, 2, 3, 3]


def test_theta_counts_and_validation():
    g = theta_graph([2, 2, 2])
    assert (g.n, g.m) == (5, 6)
    assert theta_graph([1, 5, 5]).m == 11
    with pytest.raises(FamilyError):
        theta_graph([1, 1, 3])  # two unit paths are parallel edges
    with pytest.raises(FamilyError):
        theta_graph([0, 2, 2])
    with pytest.raises(FamilyError):
        theta_graph([1])  # a single edge


def test_gpt_shape_identities():
    # collapsing parameters reproduces the simpler families
    assert graphs_isomorphic(
        gpt_graph(GptParams(5, 1, 0, 0, 2, 3)), theta_graph([1, 5, 5])
    )
    assert graphs_isomorphic(
        gpt_graph(GptParams(3, 2, 0, 0, 2, 2)), theta_graph([2, 3, 4])
    )
    assert graphs_isomorphic(
        gpt_graph(GptParams(3, 2, 2, 3, 0, 0)), theta_graph([2, 2, 3, 3])
    )
    assert graphs_isomorphic(
        gpt_graph(GptParams(0, 0, 0, 0, 3, 5)), cycle_graph(8)
    )


def test_gpt_degenerate_unit_paths_collapse():
    g = gpt_graph(GptParams(1, 1, 1, 1, 1, 3))
    assert is_cycle_graph(g) and g.n == 6


def test_gpt_validation():
    with pytest.raises(FamilyError):
        gpt_graph(GptParams(0, 1, 0, 0, 0, 0))  # loop at the merged hub
    with pytest.raises(FamilyError):
        gpt_graph(GptParams(-1, 2, 2, 2, 2, 2))
    # e = f = 0 merges the hub pairs into a four-path theta graph
    merged = gpt_graph(GptParams(2, 2, 2, 2, 0, 0))
    assert graphs_isomorphic(merged, theta_graph([2, 2, 2, 2]))
    with pytest.raises(FamilyError):
        gpt_graph(GptParams(0, 0, 0, 0, 0, 0))  # empty after identification


def test_gpt_all_valid_params_connected_simple():
    for t in itertools.product(range(5), repeat=6):
        p = GptParams(*t)
        try:
            g = gpt_graph(p)
        except FamilyError:
            continue
        assert is_connected(g)
        assert g.n >= 3


def test_hypercube_is_iterated_product():
    q3 = hypercube_graph(3)
    assert graphs_isomorphic(
        q3, cartesian_product(hypercube_graph(2), path_graph(2))
    )
    assert all(d == 3 for d in q3.degrees)


def test_make_family_specs():
    assert make("path:7").n == 7
    assert make("cycle:8").m == 8
    assert make("kpart:3,3,3").m == 27
    assert make("theta: 1, 5, 5").m == 11  # whitespace-insensitive
    assert make("gpt:2,2,2,2,2,2").n == 10
    assert make("hypercube:3").m == 12
    prod = make("product(cycle:4,path:2)")
    assert (prod.n, prod.m) == (8, 12)
    nested = make("product(product(path:2,path:2),path:2)")
    assert graphs_isomorphic(nested, hypercube_graph(3))
    for bad in ["", "path", "path:x", "path:", "frobnicate:3", "product(path:2)"]:
        with pytest.raises(FamilyError):
            make(bad)


def test_random_connected_bipartite_contract():
    for seed in range(30):
        g = random_connected_bipartite(9, 14, seed)
        assert g.n == 9 and g.m == 14
        assert is_connected(g)
        assert bipartition(g) is not None
    # determinism
    a = random_connected_bipartite(8, 12, 42)
    b = random_connected_bipartite(8, 12, 42)
    assert a == b
    # m = n-1 forces a tree
    t = random_connected_bipartite(4, 3, 1)
    assert t.m == t.n - 1 and is_connected(t)
    # maximum edge count forces the complete bipartite balanced graph
    k33 = random_connected_bipartite(6, 9, 7)
    assert sorted(k33.degrees) == [3] * 6
    with pytest.raises(FamilyError):
        random_connected_bipartite(4, 5, 0)


def test_make_rejects_oversized_specs():
    for spec in [
        "path:1000000000",
        f"path:{MAX_VERTICES + 1}",
        "clique:100000",
        "clique:633",  # 200,028 edges
        "hypercube:16",  # 65,536 vertices, 524,288 edges
        "hypercube:40",
        "hypercube:1000000000",
        "kpart:50000,50001",
        "product(path:1000,path:1000)",
        "product(cycle:300,product(path:300,path:2))",
    ]:
        with pytest.raises(FamilyError, match="builds more than"):
            make(spec)


def test_spec_size_matches_built_graph():
    # exact for every family but gpt, where it is an upper bound
    for spec in [
        "path:1", "path:7", "cycle:8", "clique:1", "clique:6", "kpart:3,3,3",
        "kpart:1,4", "theta:1,5,5", "theta:2,2,2,2", "hypercube:1", "hypercube:5",
        "product(cycle:4,path:2)", "product(product(path:2,path:3),clique:4)",
    ]:
        g = make(spec)
        assert _spec_size(_parse_spec(spec)) == (g.n, g.m), spec
    for t in itertools.product(range(4), repeat=6):
        try:
            g = gpt_graph(GptParams(*t))
        except FamilyError:
            continue
        n, m = _spec_size(_parse_spec("gpt:" + ",".join(map(str, t))))
        assert n >= g.n and m >= g.m, t
    assert MAX_EDGES >= 2 * MAX_VERTICES  # paths and cycles at the vertex limit


def test_make_builds_the_witness_benchmark_specs():
    # the family specs perfbench's witness workload runs, against the
    # graphs their builders make directly
    for r in (3, 4):
        for lengths in itertools.combinations_with_replacement(range(1, 21), r):
            if sum(lengths) <= 20 and lengths.count(1) <= 1:
                spec = "theta:" + ",".join(map(str, lengths))
                assert make(spec) == theta_graph(lengths)
    for t in itertools.product(range(4), repeat=6):
        try:
            g = gpt_graph(GptParams(*t))
        except FamilyError:
            continue
        assert make("gpt:" + ",".join(map(str, t))) == g
    factors = (
        [f"path:{n}" for n in range(3, 7)]
        + [f"cycle:{n}" for n in range(4, 9)]
        + ["clique:3", "clique:4"]
    )
    for a, b in itertools.combinations_with_replacement(factors, 2):
        assert make(f"product({a},{b})") == cartesian_product(make(a), make(b))
    for r, n in [(2, 5), (3, 4), (4, 3), (5, 2)]:
        assert make("kpart:" + ",".join([str(n)] * r)) == complete_multipartite([n] * r)


KNOWN_CONNECTED_COUNTS = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# SHA-256 of repr([(g.n, g.edges) for g in enumerate_connected(n)]): which
# representative stands for each class, its edge order and the order of
# the classes, which the sweeps' instance lists follow
ENUMERATION_SHA256 = {
    3: "65fc113076741311826b8554f44157ec0b1b54103e22da5298cb1e89ecfd8c99",
    4: "4e656531b1dc11f00bce78dc37279789c1dd6829ad6ca730fb51b8ee6988edb7",
    5: "83a5b1ab4bacb40c18654a7e33f504339dfe4383c368f4a9cd6e8428e7bd7593",
    6: "49cd4dd512afcd74055d4fad785aa05ac40d940d675ae87e1efbdd36c63b0f09",
    7: "746ffeeb0d9289321d5591d7027b23f61679e7486cecd568ceeb5c6c6549e0de",
    8: "69d5f035dd68aa5209790df67f60cc80367cb4c093d1c6f0f4aebf5fcfd7a8d4",
}


def test_enumerate_connected_counts():
    for n, count in KNOWN_CONNECTED_COUNTS.items():
        graphs = enumerate_connected(n)
        assert len(graphs) == count
        assert all(g.n == n and is_connected(g) for g in graphs)
    with pytest.raises(FamilyError):
        enumerate_connected(2)


def _brute_force_count(n):
    pairs = list(itertools.combinations(range(n), 2))
    reps = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        g = Graph(n, edges)
        if not is_connected(g):
            continue
        if not any(graphs_isomorphic(g, h) for h in reps):
            reps.append(g)
    return len(reps)


def test_enumeration_against_brute_force():
    assert _brute_force_count(4) == 6
    assert _brute_force_count(5) == 21


def test_enumeration_has_no_isomorphic_duplicates():
    graphs = enumerate_connected(5)
    for g, h in itertools.combinations(graphs, 2):
        assert not graphs_isomorphic(g, h)


def test_enumeration_output_is_pinned():
    for n, digest in ENUMERATION_SHA256.items():
        text = repr([(g.n, g.edges) for g in enumerate_connected(n)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


def test_enumerate_connected_8_wall_clock():
    # cold: about 5 s on a 2-vCPU machine; a pairwise scan of candidates
    # grouped only by edge count and colour-class sizes takes about 110 s
    _connected_mask_reps.cache_clear()
    start = time.perf_counter()
    assert len(enumerate_connected(8)) == 11117
    assert time.perf_counter() - start < 60


def test_enumeration_matches_networkx_atlas():
    # one to one against the connected graphs of the networkx atlas, by
    # networkx's own invariant and isomorphism test
    nx = pytest.importorskip("networkx")
    atlas = [
        a for a in nx.graph_atlas_g() if a.number_of_nodes() >= 3 and nx.is_connected(a)
    ]

    def invariant(a):
        return sorted(d for _, d in a.degree()), sorted(nx.triangles(a).values())

    for n in range(3, 8):
        buckets = {}
        for a in atlas:
            if a.number_of_nodes() == n:
                buckets.setdefault(repr(invariant(a)), []).append(a)
        for g in enumerate_connected(n):
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            bucket = buckets.get(repr(invariant(h)), [])
            hits = [a for a in bucket if nx.is_isomorphic(a, h)]
            assert len(hits) == 1, (n, g.edges)
            bucket.remove(hits[0])
        assert not any(buckets.values()), n


def _automorphisms(g):
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    col, _ = _wl_colors(masks, g.n)
    return list(_isomorphisms(masks, col, masks, col, g.n))


def test_automorphisms_match_brute_force():
    for n in range(3, 7):
        for g in enumerate_connected(n):
            edges = set(g.edges)
            brute = {
                p
                for p in itertools.permutations(range(n))
                if {(min(p[u], p[v]), max(p[u], p[v])) for u, v in edges} == edges
            }
            found = _automorphisms(g)
            assert len(found) == len(set(found)), g.edges
            assert set(found) == brute, g.edges
    for n in range(3, 7):
        assert len(_automorphisms(clique_graph(n))) == math.factorial(n)
        assert len(_automorphisms(cycle_graph(n))) == 2 * n
        assert len(_automorphisms(path_graph(n))) == 2


def test_enumeration_leaves_no_reference_cycles():
    # the isomorphism backtracker recurses without a self-referencing
    # closure, so a cold enumeration leaves nothing for the cyclic collector
    _connected_mask_reps.cache_clear()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        enumerate_connected(6)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
