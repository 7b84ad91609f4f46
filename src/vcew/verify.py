"""Verification campaigns: sweep each claimed result against the oracle.

Every sweep returns a VerificationReport; a failure entry records the
instance, the expected value and the observed one.  Sweeps are
deterministic given their parameters.
"""

from __future__ import annotations

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
    EndEdgeBehavior,
    InconsistentEndEdges,
    end_edge_behavior,
    find_weighting,
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


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.seconds = time.perf_counter() - t0
        return report

    return wrapper


@_timed
def verify_mu_table() -> VerificationReport:
    """Fixed mu values for paths, cycles and cliques."""
    report = VerificationReport("thm-1.3")
    for n in range(3, 13):
        report.check(f"path:{n}", mu_path_cycle_clique("path", n), mu_exact(path_graph(n)))
        report.check(f"cycle:{n}", mu_path_cycle_clique("cycle", n), mu_exact(cycle_graph(n)))
    for n in range(3, 7):
        report.check(f"clique:{n}", mu_path_cycle_clique("clique", n), mu_exact(clique_graph(n)))
    return report


_COMPOSITION_SOURCES = (
    ("path:3", lambda: path_graph(3)),
    ("path:4", lambda: path_graph(4)),
    ("path:5", lambda: path_graph(5)),
    ("path:6", lambda: path_graph(6)),
    ("cycle:4", lambda: cycle_graph(4)),
    ("cycle:8", lambda: cycle_graph(8)),
    ("clique:3", lambda: clique_graph(3)),
    ("clique:4", lambda: clique_graph(4)),
)


@_timed
def verify_product_composition() -> VerificationReport:
    """Composed product weightings are proper with k = max of the inputs."""
    report = VerificationReport("thm-2.1")
    prepared = []
    for name, build in _COMPOSITION_SOURCES:
        g = build()
        w = find_weighting(g, mu_exact(g))
        prepared.append((name, g, w))
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
    return report


@_timed
def verify_product_connectivity(max_order: int = 36) -> VerificationReport:
    """Connectivity of cartesian products matches the closed formula."""
    report = VerificationReport("lemma-2.3")
    # every factor has at least 3 vertices, so neither has more than
    # max_order // 3
    orders = range(3, min(8, max_order // 3) + 1)
    pools = {n: enumerate_connected(n) for n in orders}
    kappa = {}
    for n, pool in pools.items():
        for i, g in enumerate(pool):
            kappa[(n, i)] = vertex_connectivity(g)
    for ng in orders:
        for nh in range(ng, orders.stop):
            if ng * nh > max_order:
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
    return report


@_timed
def verify_bipartite_products(samples: int = 100, seed: int = 0) -> VerificationReport:
    """Sweep thm-2.4: g x K2 gets a proper 2-weighting for bipartite g."""
    report = VerificationReport("thm-2.4")
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
        if prod.m <= 40:
            report.check(f"{desc} mu<=2", True, has_weighting(prod, 2))
        else:
            report.record_pass(desc)
    return report


@_timed
def verify_vc1_product_equivalence(max_vertices: int = 5) -> VerificationReport:
    """Sweep prop-2.5: the product admits a VC1-EW iff both factors do."""
    report = VerificationReport("prop-2.5")
    pool = []
    for n in range(3, max_vertices + 1):
        pool.extend((n, i, g) for i, g in enumerate(enumerate_connected(n)))
    for (ng, i, g), (nh, j, h) in itertools.combinations_with_replacement(pool, 2):
        report.check(
            f"n={ng}#{i} x n={nh}#{j}",
            admits_vc1(g) and admits_vc1(h),
            admits_vc1(cartesian_product(g, h)),
        )
    return report


@_timed
def verify_multipartite() -> VerificationReport:
    """Sweep prop-3.6: balanced complete multipartite graphs have mu = 2."""
    report = VerificationReport("prop-3.6")
    for r, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        desc = f"kpart r={r} n={n}"
        try:
            g, _w = multipartite_weighting(r, n)
        except ClaimFailure as exc:
            report.record_failure(desc, "proper", str(exc))
            continue
        if g.m <= 40:
            report.check(f"{desc} mu", 2, mu_exact(g))
        else:
            report.record_pass(desc)
    return report


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


@_timed
def verify_theta(max_edges: int = 16) -> VerificationReport:
    """Sweep thm-4.2: the theta classifier agrees with the oracle."""
    report = VerificationReport("thm-4.2")
    for lengths in _theta_length_lists(max_edges):
        name = "theta:" + ",".join(map(str, lengths))
        report.check(name, mu_theta(lengths), mu_exact(theta_graph(lengths)))
    return report


@_timed
def verify_gpt(max_edges: int = 14) -> VerificationReport:
    """Sweep thm-4.3: the GPT classifier agrees with the oracle."""
    report = VerificationReport("thm-4.3")
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
    return report


@_timed
def verify_end_edges() -> VerificationReport:
    """The end-edge trichotomy for paths of length 4..16."""
    report = VerificationReport("remark")
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
    return report


@_timed
def verify_no_single_edge_msp(max_n: int = 8) -> VerificationReport:
    """Sweep thm-3.7 (claim verification, not regression): connected
    non-C_{4k+r} graphs with no single-edge maximal simple path have
    mu <= 2."""
    report = VerificationReport("thm-3.7")
    for n in range(3, max_n + 1):
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
    return report


@_timed
def verify_soundness(max_n: int = 7) -> VerificationReport:
    """Rule-engine bounds never undercut the oracle, and every instance
    stays within the proven bound mu <= 3 (Keusch 2024)."""
    report = VerificationReport("soundness")
    for n in range(3, max_n + 1):
        for i, g in enumerate(enumerate_connected(n)):
            exact = mu_exact(g)
            bound = mu_upper_bound(g).bound
            report.check(f"n={n}#{i} bound>=mu", True, bound >= exact)
            report.check(f"n={n}#{i} mu<=3", True, exact <= 3)
    return report


_SWEEPS = {
    "thm-1.3": verify_mu_table,
    "thm-2.1": verify_product_composition,
    "lemma-2.3": verify_product_connectivity,
    "thm-2.4": verify_bipartite_products,
    "prop-2.5": verify_vc1_product_equivalence,
    "prop-3.6": verify_multipartite,
    "thm-3.7": verify_no_single_edge_msp,
    "thm-4.2": verify_theta,
    "thm-4.3": verify_gpt,
    "remark": verify_end_edges,
    "soundness": verify_soundness,
}


def theorem_ids():
    return tuple(_SWEEPS)


def run_sweep(
    theorem: str,
    max_edges: int | None = None,
    max_vertices: int | None = None,
    seed: int | None = None,
    samples: int | None = None,
) -> VerificationReport:
    """Run one named sweep, forwarding only the parameters it accepts."""
    if theorem not in _SWEEPS:
        raise ValueError(
            f"unknown theorem id {theorem!r}; known: {', '.join(_SWEEPS)}"
        )
    fn = _SWEEPS[theorem]
    kwargs = {}
    if theorem in ("thm-4.2", "thm-4.3") and max_edges is not None:
        kwargs["max_edges"] = max_edges
    if theorem == "lemma-2.3" and max_vertices is not None:
        kwargs["max_order"] = max_vertices
    if theorem in ("thm-3.7", "soundness") and max_vertices is not None:
        kwargs["max_n"] = max_vertices
    if theorem == "prop-2.5" and max_vertices is not None:
        kwargs["max_vertices"] = max_vertices
    if theorem == "thm-2.4":
        if seed is not None:
            kwargs["seed"] = seed
        if samples is not None:
            kwargs["samples"] = samples
    return fn(**kwargs)
