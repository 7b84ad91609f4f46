"""Verification campaigns: sweep each claimed result against the oracle.

Every sweep returns a VerificationReport; a failure entry records the
instance, the expected value and the observed one.  Sweeps are
deterministic given their parameters.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import time
from dataclasses import dataclass, field

from .classifiers import (
    mu_gpt,
    mu_path_cycle_clique,
    mu_theta,
    mu_upper_bound,
)
from .constructors import (
    ClaimFailure,
    bipartite_product_k2,
    multipartite_weighting,
    product_weighting,
)
from .families import (
    FamilyError,
    GptParams,
    _Lcg,
    clique_graph,
    cycle_graph,
    enumerate_connected,
    gpt_graph,
    make,
    path_graph,
    random_connected_bipartite,
    theta_graph,
)
from .graph import (
    Graph,
    bipartition,
    cartesian_product,
    is_cycle_graph,
    maximal_simple_paths,
    vertex_connectivity,
)
from .oracle import (
    MAX_EDGES_K2,
    EndEdgeBehavior,
    InconsistentEndEdges,
    _mu_witness,
    end_edge_behavior,
    has_weighting,
    mu_exact,
)
from .weighting import admits_vc1


@dataclass
class VerificationReport:
    """Outcome of one theorem sweep."""

    theorem: str
    instances: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passes(self) -> int:
        return self.instances - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, description: str, expected, got):
        self.instances += 1
        if expected != got:
            self.failures.append((description, expected, got))

    def record_pass(self, _description: str):
        self.instances += 1

    def record_failure(self, description: str, expected, got):
        self.instances += 1
        self.failures.append((description, expected, got))


_SWEEPS = {}


def _sweep(theorem: str):
    """Register a sweep under ``theorem``.  The decorated body fills the
    report it is handed; its keyword-only parameters are the options the
    sweep takes.  The registered sweep creates, times and returns the
    report."""

    def register(body):
        @functools.wraps(body)
        def sweep(**options) -> VerificationReport:
            report = VerificationReport(theorem)
            t0 = time.perf_counter()
            body(report, **options)
            report.seconds = time.perf_counter() - t0
            return report

        _SWEEPS[theorem] = sweep
        return sweep

    return register


@_sweep("thm-1.3")
def verify_mu_table(report):
    """Fixed mu values for paths, cycles and cliques."""
    for n in range(3, 13):
        report.check(f"path:{n}", mu_path_cycle_clique("path", n), mu_exact(path_graph(n)))
        report.check(f"cycle:{n}", mu_path_cycle_clique("cycle", n), mu_exact(cycle_graph(n)))
    for n in range(3, 7):
        report.check(f"clique:{n}", mu_path_cycle_clique("clique", n), mu_exact(clique_graph(n)))


_COMPOSITION_SOURCES = (
    "path:3", "path:4", "path:5", "path:6",
    "cycle:4", "cycle:8", "clique:3", "clique:4",
)


@_sweep("thm-2.1")
def verify_product_composition(report):
    """Composed product weightings are proper with k = max of the inputs."""
    prepared = []
    for name in _COMPOSITION_SOURCES:
        g = make(name)
        prepared.append((name, g, _mu_witness(g)))
    for (name_g, g, wg), (name_h, h, wh) in itertools.combinations_with_replacement(
        prepared, 2
    ):
        desc = f"product({name_g},{name_h})"
        try:
            w = product_weighting(g, wg, h, wh)
        except ClaimFailure as exc:
            report.record_failure(desc, "proper", str(exc))
            continue
        report.check(desc, max(wg.k, wh.k), w.k)


@_sweep("lemma-2.3")
def verify_product_connectivity(report, *, max_vertices: int = 36):
    """Connectivity of cartesian products matches the closed formula."""
    # every factor has at least 3 vertices, so neither has more than
    # max_vertices // 3
    orders = range(3, min(8, max_vertices // 3) + 1)
    pools = {n: enumerate_connected(n) for n in orders}
    kappa = {}
    for n, pool in pools.items():
        for i, g in enumerate(pool):
            kappa[(n, i)] = vertex_connectivity(g)
    for ng in orders:
        for nh in range(ng, orders.stop):
            if ng * nh > max_vertices:
                continue
            for i, g in enumerate(pools[ng]):
                start = i if ng == nh else 0
                for j in range(start, len(pools[nh])):
                    h = pools[nh][j]
                    prod = cartesian_product(g, h)
                    expected = min(
                        min(prod.degrees),
                        kappa[(nh, j)] * ng,
                        kappa[(ng, i)] * nh,
                    )
                    report.check(
                        f"n={ng}#{i} x n={nh}#{j}",
                        expected,
                        vertex_connectivity(prod),
                    )


@_sweep("thm-2.4")
def verify_bipartite_products(report, *, samples: int = 100, seed: int = 0):
    """Sweep thm-2.4: g x K2 gets a proper 2-weighting for bipartite g."""
    k2 = path_graph(2)
    rng = _Lcg(seed)
    for i in range(samples):
        n = 3 + rng.below(6)  # 3..8 vertices
        m_max = (n // 2) * ((n + 1) // 2)
        m = (n - 1) + rng.below(m_max - (n - 1) + 1)
        g = random_connected_bipartite(n, m, seed * 1_000_003 + i)
        desc = f"sample {i}: n={n} m={m}"
        try:
            bipartite_product_k2(g)
        except ClaimFailure as exc:
            report.record_failure(desc, "proper", str(exc))
            continue
        prod = cartesian_product(g, k2)
        if prod.m <= MAX_EDGES_K2:
            report.check(f"{desc} mu<=2", True, has_weighting(prod, 2))
        else:
            report.record_pass(desc)


@_sweep("prop-2.5")
def verify_vc1_product_equivalence(report, *, max_vertices: int = 5):
    """Sweep prop-2.5: the product admits a VC1-EW iff both factors do."""
    pool = []
    for n in range(3, max_vertices + 1):
        pool.extend((n, i, g) for i, g in enumerate(enumerate_connected(n)))
    for (ng, i, g), (nh, j, h) in itertools.combinations_with_replacement(pool, 2):
        report.check(
            f"n={ng}#{i} x n={nh}#{j}",
            admits_vc1(g) and admits_vc1(h),
            admits_vc1(cartesian_product(g, h)),
        )


@_sweep("prop-3.6")
def verify_multipartite(report):
    """Sweep prop-3.6: balanced complete multipartite graphs have mu = 2."""
    for r, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        desc = f"kpart r={r} n={n}"
        try:
            g, _w = multipartite_weighting(r, n)
        except ClaimFailure as exc:
            report.record_failure(desc, "proper", str(exc))
            continue
        if g.m <= MAX_EDGES_K2:
            report.check(f"{desc} mu", 2, mu_exact(g))
        else:
            report.record_pass(desc)


@_sweep("thm-3.7")
def verify_no_single_edge_msp(report, *, max_vertices: int = 8):
    """Sweep thm-3.7 (claim verification, not regression): connected
    non-C_{4k+r} graphs with no single-edge maximal simple path have
    mu <= 2."""
    for n in range(3, max_vertices + 1):
        for i, g in enumerate(enumerate_connected(n)):
            if is_cycle_graph(g) and g.n % 4 != 0:
                continue
            if any(p.length == 1 for p in maximal_simple_paths(g).paths):
                continue
            report.check(
                f"n={n}#{i}",
                True,
                admits_vc1(g) or has_weighting(g, 2),
            )


def _theta_length_lists(max_edges: int, r_values=(3, 4)):
    for r in r_values:
        for lengths in itertools.combinations_with_replacement(
            range(1, max_edges + 1), r
        ):
            if sum(lengths) > max_edges:
                continue
            if sum(1 for l in lengths if l == 1) > 1:
                continue
            yield lengths


@_sweep("thm-4.2")
def verify_theta(report, *, max_edges: int = 16):
    """Sweep thm-4.2: the theta classifier agrees with the oracle."""
    for lengths in _theta_length_lists(max_edges):
        name = "theta:" + ",".join(map(str, lengths))
        report.check(name, mu_theta(lengths), mu_exact(theta_graph(lengths)))


@_sweep("thm-4.3")
def verify_gpt(report, *, max_edges: int = 14):
    """Sweep thm-4.3: the GPT classifier agrees with the oracle."""
    cache = {}
    for t in itertools.product(range(max_edges + 1), repeat=6):
        if sum(t) > max_edges:
            continue
        p = GptParams(*t)
        try:
            g = gpt_graph(p)
        except FamilyError:
            continue
        if bipartition(g) is None:
            continue
        key = (g.n, tuple(sorted(g.edges)))
        if key not in cache:
            cache[key] = mu_exact(g)
        report.check("gpt:" + ",".join(map(str, t)), mu_gpt(p), cache[key])


@_sweep("remark")
def verify_end_edges(report):
    """The end-edge trichotomy for paths of length 4..16."""
    expected_by_mod = {
        0: EndEdgeBehavior.FREE,
        1: EndEdgeBehavior.SAME,
        2: EndEdgeBehavior.FREE,
        3: EndEdgeBehavior.DIFFERENT,
    }
    for n in range(4, 17):
        try:
            got = end_edge_behavior(n)
        except InconsistentEndEdges as exc:
            report.record_failure(f"length {n}", expected_by_mod[n % 4], str(exc))
            continue
        report.check(f"length {n}", expected_by_mod[n % 4], got)


@_sweep("soundness")
def verify_soundness(report, *, max_vertices: int = 7):
    """Rule-engine bounds never undercut the oracle, and every instance
    stays within the proven bound mu <= 3 (Keusch 2024).  The searches
    pass the size guards: enumerate_connected stops at 8 vertices."""
    for n in range(3, max_vertices + 1):
        for i, g in enumerate(enumerate_connected(n)):
            exact = mu_exact(g, force=True)
            bound = mu_upper_bound(g).bound
            report.check(f"n={n}#{i} bound>=mu", True, bound >= exact)
            report.check(f"n={n}#{i} mu<=3", True, exact <= 3)


def theorem_ids():
    return tuple(_SWEEPS)


def given_options(fn, owner: str, options: dict) -> dict:
    """The ``options`` that are not None.  Raises ValueError naming the
    first of them that ``fn`` has no keyword-only parameter for."""
    takes = [
        p.name
        for p in inspect.signature(fn).parameters.values()
        if p.kind is p.KEYWORD_ONLY
    ]
    given = {name: value for name, value in options.items() if value is not None}
    for name in given:
        if name not in takes:
            flags = ", ".join(_flag(t) for t in takes) or "no options"
            raise ValueError(f"{owner} does not take {_flag(name)} (it takes {flags})")
    return given


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def run_sweep(theorem: str, **options) -> VerificationReport:
    """Run one named sweep with the options that are not None."""
    if theorem not in _SWEEPS:
        raise ValueError(
            f"unknown theorem id {theorem!r}; known: {', '.join(_SWEEPS)}"
        )
    sweep = _SWEEPS[theorem]
    return sweep(**given_options(sweep, f"theorem {theorem}", options))
