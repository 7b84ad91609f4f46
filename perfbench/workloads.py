"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the
set-up), runs one round of instances in ``run_round`` and checks a
round's outputs against ``reference`` in ``check``.  The instances make
the same calls into vcew's public functions as the ``soundness`` and
``thm-3.7`` sweeps (census), the ``lemma-2.3`` sweep (connectivity) and
the ``vcew mu`` / ``vcew weight`` commands (witness).
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import os
import random
import sys
import time
from dataclasses import dataclass

from vcew import classifiers, cli, families, graph, oracle, weighting

import reference as ref
from reference import expect

clock = time.perf_counter


@dataclass
class Round:
    """One pass over a workload's instance set."""

    sweep_s: float
    latencies_s: list
    outputs: object
    failed: int


class Failed(str):
    """Output of an instance that raised: the exception text.  Checks
    skip it; the instance is counted in ``failed``."""


def as_pair(g):
    return g.n, list(g.edges)


def _run_instances(prepare, run_one, tracer):
    """Time ``prepare`` and then ``run_one`` on every item it returns; an
    instance that raises counts as failed and its output is the
    exception text."""
    latencies, outputs, failed = [], [], 0
    start = clock()
    for i, item in enumerate(prepare()):
        if tracer is not None:
            tracer.instance = i
        t0 = clock()
        try:
            outputs.append(run_one(item))
        except Exception as exc:  # an instance fault is counted, not fatal
            outputs.append(Failed(repr(exc)))
            failed += 1
        latencies.append(clock() - t0)
    return Round(clock() - start, latencies, outputs, failed)


# ---------------------------------------------------------------------------
# census: enumeration, exact mu, rule engine and the thm-3.7 class


def _clear_caches():
    # enumerate_connected memoises per process; clearing every functools
    # cache in vcew makes each round as cold as a fresh interpreter
    for name, mod in list(sys.modules.items()):
        if name == "vcew" or name.startswith("vcew."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _odd_cycle_class(n, degs):
    return all(d == 2 for d in degs) and n % 4 != 0


class Census:
    NS = (3, 4, 5, 6, 7)

    def __init__(self, seed, workdir):
        self.instances = sum(ref.CONNECTED_COUNTS[n] for n in self.NS)

    @staticmethod
    def _classify(g):
        mu = oracle.mu_exact(g)
        bound = classifiers.mu_upper_bound(g).bound
        vc1 = weighting.admits_vc1(g)
        two = None
        if not _odd_cycle_class(g.n, g.degrees):
            paths = graph.maximal_simple_paths(g).paths
            if all(p.length > 1 for p in paths):
                two = oracle.has_weighting(g, 2)
        return mu, bound, vc1, two

    def run_round(self, tracer=None):
        # the pools are enumerated inside the round, so sweep_s includes
        # the cold enumeration but no per-graph latency does
        pools = []

        def prepare():
            _clear_caches()
            pools.extend(g for n in self.NS for g in families.enumerate_connected(n))
            return pools

        rnd = _run_instances(prepare, self._classify, tracer)
        rnd.outputs = ([as_pair(g) for g in pools], rnd.outputs)
        return rnd

    @staticmethod
    def check(outputs):
        graphs, results = outputs
        check_enumeration(graphs)
        expect(len(results) == len(graphs), "one classification per graph")
        for g, res in zip(graphs, results):
            if not isinstance(res, Failed):
                check_classification(g, res)


def check_enumeration(graphs):
    """Per-n counts are OEIS A001349 and the graphs match the connected
    graphs of networkx's atlas one to one, up to isomorphism."""
    import networkx as nx

    by_n = {}
    for n, edges in graphs:
        by_n.setdefault(n, []).append(edges)
    expect(
        {n: len(v) for n, v in by_n.items()} == ref.CONNECTED_COUNTS,
        f"counts {sorted((n, len(v)) for n, v in by_n.items())} are not A001349",
    )

    def key(g):
        return sorted(d for _, d in g.degree()), sorted(nx.triangles(g).values())

    buckets = {}
    for a in nx.graph_atlas_g():
        if a.number_of_nodes() >= 3 and nx.is_connected(a):
            buckets.setdefault(repr(key(a)), []).append(a)
    for n, edges in graphs:
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        bucket = buckets.get(repr(key(g)), [])
        match = next((i for i, a in enumerate(bucket) if nx.is_isomorphic(a, g)), None)
        expect(match is not None, f"n={n} graph {edges} matches no atlas graph left unmatched")
        bucket.pop(match)


def check_classification(g, res):
    mu, bound, vc1, two = res
    n, edges = g
    degs = ref.degrees(g)
    distinct = all(degs[u] != degs[v] for u, v in edges)
    expect(1 <= mu <= 3, f"{g}: mu={mu} outside 1..3 (Keusch 2024)")
    expect((mu == 1) == distinct, f"{g}: mu={mu} but distinct adjacent degrees is {distinct}")
    expect(vc1 == distinct, f"{g}: admits_vc1={vc1}")
    expect(bound >= mu, f"{g}: rule-engine bound {bound} below mu={mu}")
    # a single-edge maximal simple path is an edge with no degree-2 end
    in_class = not _odd_cycle_class(n, degs) and all(
        degs[u] == 2 or degs[v] == 2 for u, v in edges
    )
    expect((two is not None) == in_class, f"{g}: thm-3.7 class membership wrong")
    if in_class:
        expect(two is True and mu <= 2, f"{g}: thm-3.7 class but has_weighting(2)={two}, mu={mu}")
    family = (
        "clique" if len(edges) == n * (n - 1) // 2
        else "cycle" if all(d == 2 for d in degs)
        else "path" if len(edges) == n - 1 and max(degs) <= 2
        else None
    )
    if family:
        expect(mu == ref.mu_family(family, n), f"{family} on {n} vertices: mu={mu}")


# ---------------------------------------------------------------------------
# connectivity: cartesian products and the max-flow kernel


class Connectivity:
    NS = (3, 4, 5, 6, 7)
    MAX_ORDER = 36
    SAMPLE_EVERY = 80  # one product in this many
    NX_SAMPLE = 12

    def __init__(self, seed, workdir):
        self.pools = {n: families.enumerate_connected(n) for n in self.NS}
        self.kappa = {
            (n, i): graph.vertex_connectivity(g)
            for n, pool in self.pools.items()
            for i, g in enumerate(pool)
        }
        pairs = [
            (ng, i, nh, j)
            for ng, nh in itertools.combinations_with_replacement(self.NS, 2)
            if ng * nh <= self.MAX_ORDER
            for i in range(len(self.pools[ng]))
            for j in range(i if ng == nh else 0, len(self.pools[nh]))
        ]
        # the same share of every (|G|, |H|) stratum, so that a round costs
        # about the same whatever the seed
        strata = {}
        for pair in pairs:
            strata.setdefault((pair[0], pair[2]), []).append(pair)
        rng = random.Random(seed)
        self.sample = [
            pair
            for key in sorted(strata)
            for pair in rng.sample(strata[key], max(1, round(len(strata[key]) / self.SAMPLE_EVERY)))
        ]
        self.nx_subset = sorted(rng.sample(range(len(self.sample)), self.NX_SAMPLE))
        self.instances = len(self.sample)

    def run_round(self, tracer=None):
        return _run_instances(lambda: self.sample, functools.partial(product_kappa, self.pools), tracer)

    def check(self, outputs):
        factors = {
            key: (as_pair(self.pools[key[0]][key[1]]), k) for key, k in self.kappa.items()
        }
        check_connectivity(self.sample, factors, outputs, self.nx_subset)


def product_kappa(pools, pair):
    ng, i, nh, j = pair
    prod = graph.cartesian_product(pools[ng][i], pools[nh][j])
    return prod.n, graph.vertex_connectivity(prod)


def check_connectivity(sample, factors, results, nx_subset):
    """kappa(G x H) = min(delta(G) + delta(H), kappa(G)|H|, kappa(H)|G|)
    with factor kappa by brute force; a subset also against networkx."""
    import networkx as nx

    brute = {}
    expect(len(results) == len(sample), "one result per product")
    for idx, ((ng, i, nh, j), res) in enumerate(zip(sample, results)):
        if isinstance(res, Failed):
            continue
        order, k = res
        g, kg_prog = factors[(ng, i)]
        h, kh_prog = factors[(nh, j)]
        for key, f, k_prog in (((ng, i), g, kg_prog), ((nh, j), h, kh_prog)):
            if key not in brute:
                brute[key] = ref.kappa_brute(f)
                expect(k_prog == brute[key], f"factor n={key[0]}#{key[1]}: kappa {k_prog} != {brute[key]}")
        want = min(
            min(ref.degrees(g)) + min(ref.degrees(h)),
            brute[(ng, i)] * nh,
            brute[(nh, j)] * ng,
        )
        expect(order == ng * nh, f"product n={ng}#{i} x n={nh}#{j} has {order} vertices")
        expect(k == want, f"kappa(n={ng}#{i} x n={nh}#{j}) = {k}, formula gives {want}")
        if idx in nx_subset:
            pn, pe = ref.product_graph(g, h)
            pg = nx.Graph(pe)
            pg.add_nodes_from(range(pn))
            expect(nx.node_connectivity(pg) == k, f"networkx disagrees on product #{idx}")


# ---------------------------------------------------------------------------
# witness: `vcew mu` and `vcew weight` commands through the CLI


PRODUCT_FACTORS = (
    [("path", n) for n in range(3, 7)]
    + [("cycle", n) for n in range(4, 9)]
    + [("clique", n) for n in (3, 4)]
)
MULTIPARTITE = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2))
BIPK2_GRAPHS = 100
BRUTE_SAMPLE = 30
BRUTE_MAX_EDGES = 10


def theta_specs(max_edges=20):
    for r in (3, 4):
        for lengths in itertools.combinations_with_replacement(range(1, max_edges + 1), r):
            if sum(lengths) <= max_edges and lengths.count(1) <= 1:
                yield lengths


def _bounded_tuples(size, total):
    # all non-negative integer tuples with the given sum bound, in
    # lexicographic order
    if size == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _bounded_tuples(size - 1, total - head):
            yield (head,) + tail


def gpt_specs(max_edges=14):
    """First parameter tuple (in lexicographic order) of every distinct
    bipartite generalized polygon tree with at most max_edges edges."""
    seen = {}
    for t in _bounded_tuples(6, max_edges):
        g = ref.gpt_graph(t)
        if g is not None and ref.is_bipartite(g):
            seen.setdefault((g[0], tuple(sorted(g[1]))), (t, g))
    return list(seen.values())


def cactus_specs():
    """Cycles of length 4, 8 and 12 glued at vertices; cycle_block_weighting
    applies to all of them."""
    two = [
        ((a, None, 0), (b, 0, pos))
        for a in (4, 8) for b in (4, 8, 12) for pos in range(a)
    ]
    three = [
        ((4, None, 0), (b, 0, p1), (4, 1, p2))
        for b in (4, 8) for p1 in range(4) for p2 in range(4)
    ]
    return two + three


def _spec(name, values):
    return f"{name}:" + ",".join(map(str, values))


def _write_edge_list(path, g):
    n, edges = g
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))


class Witness:
    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        cmds = []  # (argv, kind, reference graph, extra)
        thetas = list(theta_specs())
        for lengths in thetas:
            cmds.append((["mu", _spec("theta", lengths)], "theta", ref.theta_graph(lengths), lengths))
        for t, g in gpt_specs():
            cmds.append((["mu", _spec("gpt", t)], "gpt", g, None))
        for (fa, na), (fb, nb) in itertools.combinations_with_replacement(PRODUCT_FACTORS, 2):
            source = f"product({fa}:{na},{fb}:{nb})"
            g = ref.product_graph(ref.FAMILIES[fa](na), ref.FAMILIES[fb](nb))
            k = max(ref.mu_family(fa, na), ref.mu_family(fb, nb))
            cmds.append((["weight", source, "--method", "product"], "product", g, k))
        for r, n in MULTIPARTITE:
            sizes = [n] * r
            cmds.append(
                (["weight", _spec("kpart", sizes), "--method", "multipartite"], "k2", ref.multipartite_graph(sizes), None)
            )
        k2 = (2, [(0, 1)])
        for i in range(BIPK2_GRAPHS):
            n = rng.randint(4, 10)
            m = rng.randint(n - 1, (n // 2) * ((n + 1) // 2))
            g = ref.random_bipartite(rng, n, m)
            path = os.path.join(workdir, f"bip{i}.txt")
            _write_edge_list(path, g)
            cmds.append((["weight", path, "--method", "bipk2"], "k2", ref.product_graph(g, k2), None))
        for i, blocks in enumerate(cactus_specs()):
            g = ref.cactus_graph(blocks)
            path = os.path.join(workdir, f"cactus{i}.txt")
            _write_edge_list(path, g)
            cmds.append((["weight", path, "--method", "cycle-blocks"], "k2", g, None))
        for lengths in thetas:
            spec, g = _spec("theta", lengths), ref.theta_graph(lengths)
            if 1 in lengths:
                continue
            if len({l % 2 for l in lengths}) == 1:
                # bipartite, and a root strictly dominates its neighbours
                cmds.append((["weight", spec, "--method", "dominant"], "k2", g, None))
            if len(lengths) == 4 or all(l % 4 != 1 for l in lengths):
                cmds.append((["weight", spec, "--method", "msp-a"], "k2", g, None))
            if all(l % 4 != 3 for l in lengths):
                cmds.append((["weight", spec, "--method", "msp-b"], "k2", g, None))
        self.commands = cmds
        small = [i for i, c in enumerate(cmds) if c[0][0] == "mu" and len(c[2][1]) <= BRUTE_MAX_EDGES]
        self.brute_subset = sorted(rng.sample(small, BRUTE_SAMPLE))
        self.instances = len(cmds)

    def run_round(self, tracer=None):
        return _run_instances(lambda: self.commands, run_cli, tracer)

    def check(self, outputs):
        check_witnesses(self.commands, outputs, self.brute_subset)


def run_cli(cmd):
    """Standard output of ``vcew <argv>`` run in process; a non-zero exit
    raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(cmd[0])
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def check_witnesses(commands, texts, brute_subset):
    expect(len(texts) == len(commands), "one output per command")
    for idx, ((argv, kind, g, extra), text) in enumerate(zip(commands, texts)):
        if isinstance(text, Failed):
            continue
        mu = None
        if argv[0] == "mu":
            first, _, text = text.partition("\n")
            expect(first.startswith("mu="), f"{argv}: first line {first!r}")
            mu = int(first[3:])
        k, edges, weights = ref.parse_weighting_text(text)
        expect(edges == g[1], f"{argv}: edge order differs from the graph built from the spec")
        expect(ref.is_proper(g, weights), f"{argv}: weighting is not proper")
        expect(k <= 3, f"{argv}: k={k} above 3")
        if mu is not None:
            expect(k == mu, f"{argv}: witness alphabet {k} != mu={mu}")
        if kind == "theta":
            expect(mu == ref.mu_theta(extra), f"{argv}: mu={mu}, Thm 4.2 gives {ref.mu_theta(extra)}")
        elif kind == "product":
            expect(k == extra, f"{argv}: k={k}, max of the factor mu is {extra}")
        elif kind == "k2":
            expect(k == 2, f"{argv}: k={k}, the construction gives 2")
        if idx in brute_subset:
            expect(k == 1 or ref.first_proper(g, k - 1) is None, f"{argv}: a proper {k - 1}-weighting exists")
            expect(tuple(weights) == ref.first_proper(g, k), f"{argv}: witness is not the lexicographically least")


WORKLOADS = {"census": Census, "connectivity": Connectivity, "witness": Witness}
