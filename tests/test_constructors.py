import hashlib
import itertools

import pytest

from instance_pools import (
    bipk2_instances,
    cactus,
    cycle_block_instances,
    dominant_instances,
    msp_candidates,
    multipartite_instances,
    product_instances,
)
from vcew.constructors import (
    ClaimFailure,
    PreconditionError,
    bipartite_product_k2,
    cycle_block_weighting,
    degree_component_partition,
    dominant_vertex_weighting,
    msp_pattern_weighting,
    multipartite_weighting,
    product_weighting,
)
from vcew.families import (
    clique_graph,
    complete_multipartite,
    cycle_graph,
    enumerate_connected,
    path_graph,
    random_connected_bipartite,
    theta_graph,
)
from vcew.graph import Graph, cartesian_product, distance
from vcew.oracle import find_weighting, mu_exact
from vcew.weighting import EdgeWeighting, induced_coloring, is_proper


def test_product_weighting_instances():
    seen = 0
    for name, g, wg, h, wh in product_instances():
        w = product_weighting(g, wg, h, wh)
        assert w.k == max(wg.k, wh.k), name
        seen += 1
    assert seen >= 20


def test_product_weighting_restricts_to_fibers():
    g, h = cycle_graph(4), path_graph(3)
    wg, wh = find_weighting(g, 2), find_weighting(h, 1)
    w = product_weighting(g, wg, h, wh)
    # the first h.n blocks are copies of wg, then g.n copies of wh
    for copy in range(h.n):
        assert w.weights[copy * g.m:(copy + 1) * g.m] == wg.weights
    tail = w.weights[h.n * g.m:]
    for copy in range(g.n):
        assert tail[copy * h.m:(copy + 1) * h.m] == wh.weights


def test_product_weighting_rejects_improper_inputs():
    g = cycle_graph(4)
    bad = EdgeWeighting(k=2, weights=(1, 1, 1, 1))
    with pytest.raises(PreconditionError):
        product_weighting(g, bad, g, bad)


def test_bipartite_product_k2_instances():
    seen = 0
    for name, g in bipk2_instances():
        w = bipartite_product_k2(g)
        assert w.k == 2, name
        # copy weights are fixed by construction
        assert set(w.weights[:g.m]) <= {1}
        assert set(w.weights[g.m:2 * g.m]) <= {2}
        seen += 1
    assert seen >= 20


def test_bipartite_product_k2_preconditions():
    with pytest.raises(PreconditionError):
        bipartite_product_k2(cycle_graph(5))  # odd cycle
    with pytest.raises(PreconditionError):
        bipartite_product_k2(Graph(4, [(0, 1), (2, 3)]))  # disconnected
    with pytest.raises(PreconditionError):
        bipartite_product_k2(Graph(2, [(0, 1)]))  # too small


def test_degree_component_relation():
    for _, g in bipk2_instances()[:12]:
        partition, cross = degree_component_partition(g)
        comp_of = {}
        for cid, comp in enumerate(partition.components):
            for v in comp:
                comp_of[v] = cid
        # inside one component, weights agree exactly on even distance
        for comp in partition.components:
            anchor = comp[0]
            for v in comp[1:]:
                same = cross[anchor] == cross[v]
                assert same == (distance(g, anchor, v) % 2 == 0)
        # linked pairs with degree difference one share the weight
        for u, v in g.edges:
            if abs(g.degrees[u] - g.degrees[v]) == 1:
                assert cross[u] == cross[v]


def test_degree_component_cross_weights_follow_distance_parity():
    # the per-vertex distance rule: inside each equal-degree component two
    # cross weights agree exactly when the vertices lie at even distance,
    # and every component that seeded a tree takes weight 1 at its anchor
    for seed in range(50):
        n = 4 + seed % 13
        m = n - 1 + seed % ((n // 2) * ((n + 1) // 2) - n + 2)
        g = random_connected_bipartite(n, m, seed)
        partition, cross = degree_component_partition(g)
        vertices = sorted(v for comp in partition.components for v in comp)
        assert vertices == list(range(n))
        for cid, comp in enumerate(partition.components):
            for u, v in itertools.combinations(comp, 2):
                assert (cross[u] == cross[v]) == (distance(g, u, v) % 2 == 0), seed
            if partition.parent[cid] is None:
                assert cross[comp[0]] == 1 == partition.anchor_weight[cid]
            assert partition.anchor_weight[cid] in (cross[v] for v in comp)


def test_msp_pattern_instances():
    for variant in ("A", "B"):
        seen = 0
        for name, g in msp_candidates():
            try:
                w = msp_pattern_weighting(g, variant)
            except PreconditionError:
                continue
            assert w.k == 2, (variant, name)
            seen += 1
        assert seen >= 20, variant


def test_msp_pattern_preconditions():
    with pytest.raises(PreconditionError):
        msp_pattern_weighting(cycle_graph(6), "A")  # bad cycle length
    with pytest.raises(PreconditionError):
        msp_pattern_weighting(theta_graph([5, 5, 4]), "A")  # 1-mod-4 at degree 3
    with pytest.raises(PreconditionError):
        msp_pattern_weighting(clique_graph(4), "A")  # single-edge paths
    with pytest.raises(PreconditionError):
        msp_pattern_weighting(theta_graph([3, 3, 2]), "B")  # 3-mod-4 path
    with pytest.raises(PreconditionError):
        msp_pattern_weighting(theta_graph([1, 2, 2]), "B")  # unit path, equal degrees
    with pytest.raises(PreconditionError):
        msp_pattern_weighting(cycle_graph(6), "C")


# SHA-256 of repr([outcome, ...]) of msp_pattern_weighting over the
# 12,111 graphs of enumerate_connected(3..8), in enumeration order: the
# weights, or the exception class plus a PreconditionError's message
MSP_PATTERN_SHA256 = {
    "A": "ce698c6f38915e92d9483ea13eb202e7ecffbd9d694acd170f335dbf703c3913",
    "B": "0a2b2ce1b86bdb412885b836636216433e364985caa6a576ff96c8b3451f71ba",
}


def _msp_outcome(g, variant):
    try:
        return msp_pattern_weighting(g, variant).weights
    except PreconditionError as exc:
        return ("PreconditionError", str(exc))
    except ClaimFailure:
        return ("ClaimFailure",)


@pytest.mark.parametrize("variant", sorted(MSP_PATTERN_SHA256))
def test_msp_pattern_outcomes_are_pinned(variant):
    outcomes = [
        _msp_outcome(g, variant) for n in range(3, 9) for g in enumerate_connected(n)
    ]
    assert len(outcomes) == 12111
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == MSP_PATTERN_SHA256[variant]


@pytest.mark.xfail(
    strict=True,
    raises=ClaimFailure,
    reason="variant A leaves a colour-4 conflict at the degree-3 end of a "
    "1-mod-4 path (ROADMAP item 5)",
)
def test_msp_a_cycle_with_pendant_path():
    # the 6-cycle 7-10-0-6-8-4-7 with the pendant path 7-5-2-9-1-3 meets
    # variant A's preconditions and has mu = 2; the pendant path, walked
    # 2,1,1,2,2 from vertex 3, gives 5 and 7 the same colour 4
    g = Graph(11, [
        (7, 10), (0, 10), (0, 6), (6, 8), (5, 7), (2, 5),
        (2, 9), (1, 9), (1, 3), (4, 7), (4, 8),
    ])
    assert mu_exact(g) == 2
    w = msp_pattern_weighting(g, "A")
    assert w.k == 2 and is_proper(g, w).proper


def test_cycle_block_instances():
    seen = 0
    for name, g in cycle_block_instances():
        w = cycle_block_weighting(g)
        assert w.k == 2, name
        seen += 1
    assert seen >= 20


def test_cycle_block_shared_vertex_colors():
    # two 4-cycles sharing vertex 0: the cut vertex towers over its
    # neighborhood
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])
    w = cycle_block_weighting(g)
    colors = induced_coloring(g, w).colors
    assert colors[0] >= 6
    assert all(colors[u] <= 4 for u in g.neighbors(0))


def test_cycle_block_needs_a_shifted_phase():
    # two 4-cycles hung on adjacent vertices 0 and 4 of a 6-cycle
    # (mu = 2): with the pattern starting 2,2 on every block, 0 and 4
    # both get color 7 whichever way the blocks are walked, so the
    # 4-cycle at 4 must start at another phase of 2,2,1,1
    g = Graph(12, [
        (0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (6, 7),
        (7, 8), (0, 8), (4, 9), (9, 10), (10, 11), (4, 11),
    ])
    assert mu_exact(g) == 2
    w = cycle_block_weighting(g)
    assert w.k == 2
    assert is_proper(g, w)


def test_cycle_block_reports_genuine_failures():
    # a triangle carrying a pendant triangle at each of its vertices has
    # no proper 2-weighting at all (mu = 3, confirmed by exhaustive
    # search), so the pattern constructor must report the failure rather
    # than silently fall back to something else
    g = cactus([(0, 3), (0, 3), (1, 3), (2, 3)])
    assert mu_exact(g) == 3
    with pytest.raises(ClaimFailure):
        cycle_block_weighting(g)


def test_cycle_block_preconditions():
    with pytest.raises(PreconditionError):
        cycle_block_weighting(cycle_graph(6))  # lone bad cycle
    with pytest.raises(PreconditionError):
        cycle_block_weighting(path_graph(4))  # bridge blocks
    with pytest.raises(PreconditionError):
        cycle_block_weighting(clique_graph(4))  # non-cycle block


def test_multipartite_instances():
    seen = 0
    for r, n in multipartite_instances():
        g, w = multipartite_weighting(r, n)
        assert (g.n, w.k) == (r * n, 2)
        seen += 1
    assert seen >= 20


def test_multipartite_k22_colors():
    g, w = multipartite_weighting(2, 2)
    assert induced_coloring(g, w).colors == (2, 4, 3, 3)


def test_multipartite_preconditions():
    with pytest.raises(PreconditionError):
        multipartite_weighting(1, 3)
    with pytest.raises(PreconditionError):
        multipartite_weighting(3, 1)


def test_dominant_instances():
    seen = 0
    for name, g, v in dominant_instances():
        w = dominant_vertex_weighting(g, v)
        assert w.k == 2, name
        if name == "odd-odd:8":
            # the odd-odd branch pins every edge at the dominant vertex to 2
            for _, eid in g.adjacency[v]:
                assert w.weights[eid] == 2, name
        seen += 1
    assert seen >= 20


def test_dominant_preconditions():
    star = Graph(5, [(0, i) for i in range(1, 5)])
    with pytest.raises(PreconditionError):
        dominant_vertex_weighting(star, 0)  # removal disconnects
    k33 = complete_multipartite([3, 3])
    with pytest.raises(PreconditionError):
        dominant_vertex_weighting(k33, 0)  # nobody dominates
    with pytest.raises(PreconditionError):
        dominant_vertex_weighting(clique_graph(4), 0)  # not bipartite


def test_all_constructor_outputs_reverified():
    # belt and braces beyond the constructors' internal certification
    for name, g, wg, h, wh in product_instances()[:5]:
        assert is_proper(cartesian_product(g, h), product_weighting(g, wg, h, wh))
    for name, g in bipk2_instances()[:5]:
        prod = cartesian_product(g, Graph(2, [(0, 1)]))
        assert is_proper(prod, bipartite_product_k2(g))
