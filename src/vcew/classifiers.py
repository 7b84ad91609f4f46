"""Closed-form mu values and a rule engine for mu upper bounds."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    GraphError,
    bipartition,
    connected_without,
    is_connected,
    is_cycle_graph,
    maximal_simple_paths,
    vertex_connectivity,
)
from .families import FamilyError, GptParams, gpt_graph
from .weighting import admits_vc1


@dataclass(frozen=True)
class BoundCertificate:
    """An upper bound on mu together with the rule that produced it."""

    bound: int
    rule: str
    witness_details: str


def mu_path_cycle_clique(family: str, n: int) -> int:
    """Exact mu for paths, cycles and cliques on n >= 3 vertices."""
    if n < 3:
        raise ValueError("mu is considered for at least three vertices")
    if family == "path":
        return 1 if n == 3 else 2
    if family == "cycle":
        return 2 if n % 4 == 0 else 3
    if family == "clique":
        return 3
    raise ValueError(f"unknown family {family!r}")


def _theta_formula(lengths) -> int:
    if all(l == 2 for l in lengths):
        return 1
    if lengths[0] == 1 and all(l % 4 == 1 for l in lengths[1:]):
        return 3
    return 2


def mu_theta(lengths) -> int:
    """Exact mu of the theta graph with the given path lengths (r >= 3)."""
    lengths = sorted(lengths)
    if len(lengths) < 3:
        raise ValueError("theta classification needs at least three paths")
    if lengths[0] < 1:
        raise ValueError("theta path lengths must be positive")
    if len(lengths) > 1 and lengths[1] == 1:
        raise ValueError("at most one theta path may have length 1")
    return _theta_formula(lengths)


# symmetries of the three-region figure, as permutations of (a,b,c,d,e,f):
# swapping the two u-v paths, swapping the two u'-v' paths, the
# left-right mirror (u<->u', v<->v') and the top-bottom flip
# (u<->v, u'<->v', which exchanges e and f)
_GPT_GENERATORS = (
    (1, 0, 2, 3, 4, 5),
    (0, 1, 3, 2, 4, 5),
    (2, 3, 0, 1, 4, 5),
    (0, 1, 2, 3, 5, 4),
)


def _gpt_orbit(t):
    orbit = {t}
    frontier = [t]
    while frontier:
        cur = frontier.pop()
        for perm in _GPT_GENERATORS:
            img = tuple(cur[i] for i in perm)
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    return orbit


def _gpt_mu1_bullet(t) -> bool:
    a, b, c, d, e, f = t
    return (
        t == (2, 2, 2, 2, 2, 2)
        or (a == b == 2 and e + f == 2 and c == d == 0)
        or (a == d == f == 2 and b == c == 1 and e == 0)
        or (a == d == f == 2 and b == c == 2 and e == 0)
        or (a == b == c == d == 2 and e == f == 0)
    )


def _gpt_mu3_bullet(t) -> bool:
    a, b, c, d, e, f = t
    return (
        (a == b == c == d == 0 and (e + f) % 4 == 2)
        or (b == 1 and c == d == 0 and a % 4 == 1 and (e + f) % 4 == 1)
        or (b == 1 and e == f == 0 and a % 4 == c % 4 == d % 4 == 1)
        or (
            b == c == 1
            and a % 4 == d % 4 == e % 4 == 1
            and f % 4 == 3
        )
    )


def mu_gpt(p: GptParams) -> int:
    """Exact mu of the bipartite generalized polygon tree with parameters p.

    Degenerate parameter tuples whose graph is a plain cycle or a theta
    graph are classified by the corresponding closed forms; genuine
    three-region instances by the classification bullets, applied up to
    the structural symmetries of the figure.
    """
    g = gpt_graph(p)
    if bipartition(g) is None:
        raise FamilyError(f"gpt{p.as_tuple()} is not bipartite")
    if is_cycle_graph(g):
        return 2 if g.n % 4 == 0 else 3
    if sum(1 for v in range(g.n) if g.degrees[v] >= 3) <= 2:
        # theta-shaped: the maximal simple paths are the theta paths
        return _theta_formula(
            sorted(path.length for path in maximal_simple_paths(g).paths)
        )
    orbit = _gpt_orbit(p.as_tuple())
    one = any(_gpt_mu1_bullet(t) for t in orbit)
    three = any(_gpt_mu3_bullet(t) for t in orbit)
    if one and three:
        raise RuntimeError(
            f"gpt{p.as_tuple()}: classification bullets for values 1 and 3 "
            "both match; this inconsistency must be reported"
        )
    if one:
        return 1
    if three:
        return 3
    return 2


# ---------------------------------------------------------------------------
# rule engine


def _dominant_vertex(g: Graph):
    for v in range(g.n):
        nbrs = g.neighbors(v)
        if not nbrs or any(g.degrees[u] >= g.degrees[v] for u in nbrs):
            continue
        if connected_without(g, (v,)):
            return v
    return None


def _isolated_degree_closed(g: Graph):
    # vertex whose degree differs from all neighbor degrees, with
    # G - N[v] non-empty and connected
    for v in range(g.n):
        nbrs = g.neighbors(v)
        if g.degrees[v] in {g.degrees[u] for u in nbrs}:
            continue
        closed = {v, *nbrs}
        if len(closed) < g.n and connected_without(g, closed):
            return v
    return None


def _isolated_degree_min(g: Graph):
    delta = min(g.degrees)
    for v in range(g.n):
        if g.degrees[v] != delta:
            continue
        if g.degrees[v] in {g.degrees[u] for u in g.neighbors(v)}:
            continue
        if connected_without(g, (v,)):
            return v
    return None


def mu_upper_bound(g: Graph) -> BoundCertificate:
    """Best derivable upper bound on mu(g), with the rule that earned it.

    Rules fire in order of decreasing strength; the first match wins.
    """
    if g.n < 3:
        raise GraphError("mu bounds are considered for at least three vertices")
    if not is_connected(g):
        raise GraphError("mu bounds require a connected graph")

    if admits_vc1(g):
        return BoundCertificate(1, "vc1", "adjacent vertices have distinct degrees")

    bip = bipartition(g)
    if bip is not None:
        if min(g.degrees) == 1:
            leaf = g.degrees.index(1)
            return BoundCertificate(
                2, "bipartite-min-degree-one", f"leaf vertex {leaf}"
            )
        sizes = (len(bip.part("U")), len(bip.part("W")))
        if sizes[0] % 2 == 0 or sizes[1] % 2 == 0:
            return BoundCertificate(
                2, "bipartite-even-part", f"part sizes {sizes[0]} and {sizes[1]}"
            )
        if vertex_connectivity(g) >= 3:
            return BoundCertificate(2, "bipartite-3-connected", "connectivity >= 3")
        v = _isolated_degree_closed(g)
        if v is not None:
            return BoundCertificate(
                2,
                "bipartite-isolated-degree-closed-neighborhood",
                f"vertex {v}: degree outside neighbor degrees, "
                "graph minus closed neighborhood connected",
            )
        v = _isolated_degree_min(g)
        if v is not None:
            return BoundCertificate(
                2,
                "bipartite-isolated-degree-min",
                f"minimum-degree vertex {v}: degree outside neighbor "
                "degrees, graph minus the vertex connected",
            )
        v = _dominant_vertex(g)
        if v is not None:
            return BoundCertificate(
                2,
                "dominant-vertex",
                f"vertex {v} dominates its neighborhood and its removal "
                "keeps the graph connected",
            )

    if not (is_cycle_graph(g) and g.n % 4 != 0):
        if all(p.length > 1 for p in maximal_simple_paths(g).paths):
            return BoundCertificate(
                2, "no-single-edge-msp", "no maximal simple path is a single edge"
            )

    return BoundCertificate(
        3,
        "keusch-2024",
        "every connected graph on at least three vertices has mu <= 3 "
        "(Keusch, JCTB 166, 2024)",
    )
