import hashlib
import itertools
import random

import pytest

from vcew import graph, oracle
from vcew.families import (
    clique_graph,
    cycle_graph,
    enumerate_connected,
    make,
    path_graph,
    theta_graph,
)
from vcew.graph import Graph, GraphError
from vcew.oracle import (
    EndEdgeBehavior,
    NotFoundWithinCap,
    SearchConstraints,
    SearchGuardError,
    end_edge_behavior,
    enumerate_path_weightings,
    find_weighting,
    has_weighting,
    mu_exact,
)
from vcew.weighting import EdgeWeighting, induced_coloring, is_proper

MU_CASES = [
    (path_graph(3), 1),
    (path_graph(4), 2),
    (cycle_graph(4), 2),
    (cycle_graph(5), 3),
    (cycle_graph(6), 3),
    (cycle_graph(8), 2),
    (clique_graph(4), 3),
    (theta_graph([1, 5, 5]), 3),
    (theta_graph([2, 2, 2]), 1),
]


def test_mu_exact_known_values():
    for g, expected in MU_CASES:
        assert mu_exact(g) == expected


def test_find_weighting_is_canonical_and_proper():
    g = cycle_graph(4)
    w = find_weighting(g, 2)
    assert w.weights == (1, 1, 2, 2)
    assert is_proper(g, w)
    assert find_weighting(g, 1) is None


def test_find_weighting_lex_minimality():
    g = cycle_graph(8)
    w = find_weighting(g, 2)
    # no weighting with a lexicographically smaller prefix exists
    for eid in range(g.m):
        for smaller in range(1, w.weights[eid]):
            fixed = {e: w.weights[e] for e in range(eid)}
            fixed[eid] = smaller
            assert not has_weighting(g, 2, SearchConstraints(fixed_weights=fixed))


def test_constraints_fixed_and_parity():
    g = path_graph(5)
    w = find_weighting(g, 2, SearchConstraints(fixed_weights={0: 2}))
    assert w.weights[0] == 2
    assert is_proper(g, w)
    parity = {v: "odd" for v in range(5)}
    assert not has_weighting(g, 2, SearchConstraints(parity=parity))
    w2 = find_weighting(g, 2, SearchConstraints(parity={0: "odd"}))
    assert induced_coloring(g, w2).colors[0] % 2 == 1


@pytest.mark.parametrize("pin", [1.5, 1.0, True, "1", None])
def test_pins_must_be_integers(pin):
    g = Graph(3, [(0, 1), (1, 2)])
    cons = SearchConstraints(fixed_weights={0: pin})
    with pytest.raises(ValueError, match="not an integer"):
        find_weighting(g, 2, cons)
    with pytest.raises(ValueError, match="not an integer"):
        has_weighting(g, 2, cons)


def test_sum_table_grows_with_the_sums_not_with_k():
    # the kernel's table of saturated vertices by sum grows with the sums
    # it meets, not with k; both witnesses use no weight above 5
    for g in (cycle_graph(5), clique_graph(6)):
        assert find_weighting(g, 10**9) == EdgeWeighting(
            10**9, find_weighting(g, 5).weights
        ), g.edges
    # a pinned weight far above the table's first size saturates a leaf
    # at once; the table grows to hold its sum
    path = Graph(3, [(0, 1), (1, 2)])
    pins = SearchConstraints(fixed_weights={0: 50, 1: 51})
    assert find_weighting(path, 100, pins) == EdgeWeighting(100, (50, 51))
    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    pins = SearchConstraints(fixed_weights={0: 60, 1: 60, 2: 60})
    assert not has_weighting(path4, 100, pins)  # sums 60, 120, 120, 60


def test_mu_exact_component_rules():
    two_paths = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert mu_exact(two_paths) == 1
    mixed = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
    assert mu_exact(mixed) == 3
    with pytest.raises(GraphError):
        mu_exact(Graph(4, [(0, 1), (1, 2), (2, 0)]))  # isolated vertex


def test_search_preconditions():
    with pytest.raises(GraphError):
        has_weighting(Graph(2, [(0, 1)]), 2)
    with pytest.raises(GraphError):
        has_weighting(Graph(4, [(0, 1), (2, 3)]), 2)
    with pytest.raises(ValueError):
        has_weighting(path_graph(3), 0)
    for k_max in (0, -1):
        with pytest.raises(ValueError, match="k_max must be positive"):
            mu_exact(path_graph(3), k_max=k_max)


def test_search_guard():
    big = clique_graph(10)  # 45 edges
    with pytest.raises(SearchGuardError):
        has_weighting(big, 2)
    with pytest.raises(SearchGuardError):
        has_weighting(clique_graph(8), 3)  # 28 edges > k>=3 guard


def test_not_found_within_cap():
    with pytest.raises(NotFoundWithinCap):
        mu_exact(cycle_graph(6), k_max=2)


def test_enumerate_path_weightings_counts():
    # all 2^(n-1) assignments filtered to proper ones
    assert len(enumerate_path_weightings(3)) == 4
    assert len(enumerate_path_weightings(4)) == 4
    for n in range(3, 10):
        found = enumerate_path_weightings(n)
        assert len(set(found)) == len(found)
        assert all(len(ws) == n - 1 for ws in found)


def test_end_edge_behavior_trichotomy():
    assert end_edge_behavior(5) is EndEdgeBehavior.SAME
    assert end_edge_behavior(7) is EndEdgeBehavior.DIFFERENT
    assert end_edge_behavior(6) is EndEdgeBehavior.FREE
    assert end_edge_behavior(8) is EndEdgeBehavior.FREE
    with pytest.raises(ValueError):
        end_edge_behavior(3)


# ---------------------------------------------------------------------------
# brute-force reference: plain enumeration of weight vectors in
# lexicographic order, properness from recomputed vertex sums; it shares
# no code with the search kernel


def _brute_first(n, edges, k, pins=None, parity=None):
    """First weight vector in ``product(range(1, k + 1), repeat=m)`` that
    is proper, carries ``pins`` (edge id -> weight) and gives each vertex
    in ``parity`` (vertex -> 0 even / 1 odd) a sum of that parity."""
    pins = pins or {}
    parity = parity or {}
    for ws in itertools.product(range(1, k + 1), repeat=len(edges)):
        if any(ws[e] != wt for e, wt in pins.items()):
            continue
        sums = [0] * n
        for (u, v), wt in zip(edges, ws):
            sums[u] += wt
            sums[v] += wt
        if any(sums[v] % 2 != p for v, p in parity.items()):
            continue
        if all(sums[u] != sums[v] for u, v in edges):
            return ws
    return None


def _small_pool():
    """Every connected graph on 3..6 vertices with at most 10 edges, and
    a seeded copy of each with its vertices relabelled and its edges
    reordered, so that edge-id order and BFS order differ."""
    rng = random.Random(1205)
    pool = []
    for n in range(3, 7):
        for g in enumerate_connected(n):
            if g.m > 10:
                continue
            perm = rng.sample(range(n), n)
            edges = [(perm[u], perm[v]) for u, v in g.edges]
            rng.shuffle(edges)
            pool += [g, Graph(n, edges)]
    return pool


def test_mu_and_witness_match_brute_force_on_pools():
    pool = _small_pool()
    assert len(pool) == 2 * (2 + 6 + 21 + 94)
    for g in pool:
        k, first = 1, None
        while first is None:
            first = _brute_first(g.n, g.edges, k)
            k += 1
        mu = k - 1
        assert mu_exact(g) == mu, g.edges
        assert find_weighting(g, mu).weights == first, g.edges


def test_constrained_witness_matches_brute_force_on_pools():
    rng = random.Random(2012)
    for g in _small_pool():
        for k in (2, 3):
            pins = {
                e: rng.randint(1, k) for e in rng.sample(range(g.m), rng.randint(1, 2))
            }
            parity = {v: rng.randint(0, 1) for v in rng.sample(range(g.n), rng.randint(0, 2))}
            cons = SearchConstraints(
                fixed_weights=pins,
                parity={v: "odd" if p else "even" for v, p in parity.items()},
            )
            want = _brute_first(g.n, g.edges, k, pins, parity)
            got = find_weighting(g, k, cons)
            assert (got.weights if got else None) == want, (g.edges, k, pins, parity)
            assert has_weighting(g, k, cons) == (want is not None)


def _count_searches(monkeypatch):
    calls = [0]
    search = oracle._search

    def counted(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(oracle, "_search", counted)
    return calls


def test_find_weighting_searches_no_more_than_per_weight_rescans(monkeypatch):
    # pinning each edge by trying 1, 2, ... until a search succeeds makes
    # 1 + (final weight) searches per free edge summed, counting the first
    # existence search once; reusing the last completion must never make
    # more, and saves one search on every edge whose final weight that
    # completion already carries
    graphs = [theta_graph(t) for t in ([2, 3, 4], [1, 5, 5], [3, 3, 3, 3])]
    graphs += [cycle_graph(n) for n in (5, 8, 11)]
    graphs += [make("product(cycle:4,cycle:5)"), make("product(clique:4,path:4)")]
    below = 0
    for g in graphs:
        k = mu_exact(g)
        calls = _count_searches(monkeypatch)
        w = find_weighting(g, k)
        rescans = 1 + sum(w.weights)
        assert calls[0] <= rescans, (g.edges, calls[0], rescans)
        below += calls[0] < rescans
    assert below > 0


# ---------------------------------------------------------------------------
# twin-class symmetry breaking in unconstrained searches


def _twin_chains(g):
    return oracle._twin_chains(oracle._prep(g)[3])


def _chains(twins):
    """The twin classes of ``_twin_chains``' output, each walked from
    its first vertex."""
    if twins is None:
        return []
    before, after = twins
    chains = []
    for v in range(len(before)):
        if before[v] == v and after[v] != v:
            chain = [v]
            while after[chain[-1]] != chain[-1]:
                chain.append(after[chain[-1]])
            chains.append(tuple(chain))
    return chains


def test_twin_chains_unit_cases():
    assert _chains(_twin_chains(clique_graph(6))) == [(0, 1, 2, 3, 4, 5)]
    star = make("kpart:1,5")  # centre 0, leaves 1..5
    assert _chains(_twin_chains(star)) == [(1, 2, 3, 4, 5)]
    assert _twin_chains(cycle_graph(5)) is None
    k23 = make("kpart:2,3")  # parts {0, 1} and {2, 3, 4}
    assert _chains(_twin_chains(k23)) == [(0, 1), (2, 3, 4)]
    # true twins 0, 1 (adjacent, one common neighbour) and false twins
    # 3, 4 (two pendant leaves of vertex 2)
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4)])
    assert _chains(_twin_chains(g)) == [(0, 1), (3, 4)]


def _chain_sums_sorted(g, twins, w):
    sums = [0] * g.n
    for (u, v), wt in zip(g.edges, w):
        sums[u] += wt
        sums[v] += wt
    before, _ = twins
    return all(sums[before[v]] <= sums[v] for v in range(g.n))


def test_twin_pruning_keeps_existence_on_small_graphs():
    # every graph on 3..7 vertices and a seeded relabelling of it, so that
    # chain order and BFS order differ, for k = 1..3: the pruned search
    # finds a proper weighting exactly when the plain one does, and the
    # one it finds has non-decreasing sums along every twin chain
    rng = random.Random(1996)
    reordered = 0
    for n in range(3, 8):
        for base in enumerate_connected(n):
            perm = rng.sample(range(n), n)
            relabelled = Graph(n, [(perm[u], perm[v]) for u, v in base.edges])
            for g in (base, relabelled):
                prep = oracle._prep(g)
                twins = _twin_chains(g)
                if twins is None:
                    continue
                for k in (1, 2, 3):
                    plain = oracle._exists(g, k, [0] * g.m, [-1] * g.n, prep)
                    got = oracle._exists(g, k, [0] * g.m, [-1] * g.n, prep, twins)
                    assert (got is None) == (plain is None), (g.edges, k)
                    if got is None:
                        continue
                    assert is_proper(g, EdgeWeighting(k, tuple(got))), (g.edges, k)
                    assert _chain_sums_sorted(g, twins, got), (g.edges, k)
                    reordered += not _chain_sums_sorted(g, twins, plain)
    assert reordered > 0


@pytest.mark.parametrize("n", range(3, 9))
def test_mu_of_cliques_is_three(n):
    # K8 needs a k = 3 search on 28 edges, above the guard
    assert mu_exact(clique_graph(n), force=True) == 3


def test_has_weighting_prunes_only_unconstrained_searches(monkeypatch):
    seen = []
    search = oracle._search

    def recorded(*args):
        seen.append(args[-1])
        return search(*args)

    monkeypatch.setattr(oracle, "_search", recorded)
    g = clique_graph(5)
    assert not has_weighting(g, 2)
    assert has_weighting(g, 3, SearchConstraints(fixed_weights={0: 3}))
    assert has_weighting(g, 3, SearchConstraints(parity={0: "odd"}))
    find_weighting(g, 3)
    assert seen[0] is not None
    assert seen[1:] == [None] * (len(seen) - 1)


def test_mu_witness_is_the_canonical_witness_of_mu(monkeypatch):
    graphs = [g for n in (3, 4, 5, 6) for g in enumerate_connected(n)]
    graphs += [theta_graph([2, 3, 4]), theta_graph([1, 5, 5]), cycle_graph(11)]
    graphs += [make("product(cycle:4,cycle:5)"), make("product(clique:4,path:4)")]
    for g in graphs:
        assert oracle._mu_witness(g) == find_weighting(g, mu_exact(g)), g.edges
    # graphs the witness search refuses raise as the two-step route does
    for g in (Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), path_graph(2), Graph(0, [])):
        with pytest.raises(GraphError) as two_step:
            find_weighting(g, mu_exact(g))
        with pytest.raises(GraphError) as one_step:
            oracle._mu_witness(g)
        assert str(one_step.value) == str(two_step.value)
    # theta:3,4,5 has mu 2: the k = 2 search that settles mu is not made
    # again before the canonicalisation
    g = theta_graph([3, 4, 5])
    calls = _count_searches(monkeypatch)
    oracle._mu_witness(g)
    one_step = calls[0]
    calls = _count_searches(monkeypatch)
    find_weighting(g, mu_exact(g))
    assert one_step < calls[0]


# ---------------------------------------------------------------------------
# pins on the search tree: the kernel's first completions, not only the
# canonical witnesses, so a change in the order in which edges or weights
# are tried shows up here even where the witnesses stay the same


def _completions_digest(graphs):
    """SHA-256 over the raw ``_exists`` completion (the first one found,
    not the canonical one) of every graph at k = 1..3: unconstrained,
    with its twin chains if it has any, and under seeded pins and
    parities."""
    rng = random.Random(2004)
    digest = hashlib.sha256()
    for g in graphs:
        prep = oracle._prep(g)
        twins = _twin_chains(g)
        for k in (1, 2, 3):
            for chains in (None, twins) if twins else (None,):
                got = oracle._exists(g, k, [0] * g.m, [-1] * g.n, prep, chains)
                digest.update(f"{got}\n".encode())
            pins = {e: rng.randint(1, k) for e in rng.sample(range(g.m), 2)}
            parity = {
                v: rng.choice(("odd", "even")) for v in rng.sample(range(g.n), 2)
            }
            fixed, par = oracle._constraint_arrays(
                g, k, SearchConstraints(fixed_weights=pins, parity=parity)
            )
            got = oracle._exists(g, k, fixed, par, prep)
            digest.update(f"{got}\n".encode())
    return digest.hexdigest()


def test_search_tree_is_pinned():
    graphs = [g for n in range(3, 8) for g in enumerate_connected(n)]
    assert len(graphs) == 994
    assert _completions_digest(graphs) == (
        "2d5e9cb4b768533b542e23cdef070401ec94a47167d2293bf8d3433259836b58"
    )


def test_mu_exact_runs_at_most_two_bfs_passes(monkeypatch):
    # one BFS from vertex 0 both orders the edges and tells whether the
    # graph is connected; none is repeated per alphabet size
    calls = [0]
    bfs = graph.distances

    def counted(*args, **kwargs):
        calls[0] += 1
        return bfs(*args, **kwargs)

    monkeypatch.setattr(graph, "distances", counted)
    monkeypatch.setattr(oracle, "distances", counted)
    graphs = [g for n in (3, 4, 5, 6) for g in enumerate_connected(n)]
    graphs += [theta_graph([3, 4, 5]), cycle_graph(11), clique_graph(6)]
    graphs += [make("product(cycle:4,cycle:5)")]
    for g in graphs:
        calls[0] = 0
        mu_exact(g)
        assert calls[0] <= 2, (g.edges, calls[0])
