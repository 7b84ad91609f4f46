"""Ground-truth computation by pruned exhaustive search.

``find_weighting`` returns the canonical (lexicographically smallest by
edge id, then weight value) proper weighting under optional constraints;
``mu_exact`` is the exact minimum alphabet size; ``end_edge_behavior``
enumerates every proper 2-weighting of a path and classifies what the
two end-edges may carry.

Every search is an existence search by the backtracking kernel
``_search``.  It assigns the pinned edges first, in ascending edge id,
then the free edges in BFS order from vertex 0, so that a vertex
saturates (has all its edges assigned) early and conflicts prune high
in the tree.  With no pins the order is the plain BFS order.
``find_weighting`` pins edge ids one by one and reuses the completion of
its last successful search: it only searches the weights below the one
that completion already carries (see its docstring).  Searching once in
edge-id order would return the lex-least witness directly, but edge ids
saturate vertices late on many graphs: on ``product(clique:4,path:4)``
that one search takes over a minute where the pinned re-searches take
milliseconds.

Unconstrained searches (``mu_exact``, and ``has_weighting`` with no
pins and no parities) also break twin-class symmetry.  Twins are
vertices with equal closed or equal open neighbourhoods, and any
permutation of a twin class is an automorphism: it maps a proper
weighting to a proper weighting with the vertex sums of the class
permuted.  So a graph has a proper k-weighting iff it has one whose
sums never decrease along each class in ascending vertex id (a
symmetry-breaking predicate, Crawford, Ginsberg, Luks & Roy, KR 1996;
the same symmetry gives mu(K_n) = 3, Karonski, Luczak & Thomason,
JCTB 91, 2004), and the kernel prunes every other branch.  A pin or a
parity constraint on one vertex of a class does not move with the
permutation, so a constrained search, such as each pinned search of
``find_weighting``, is never pruned this way.  Any proper completion,
pruned or not, is a valid start for the pinning loop, so
``_mu_witness`` hands it the completion that settled mu and ``vcew
mu`` makes that search once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import product as iproduct

from .graph import (
    Graph,
    GraphError,
    connected_components,
    distances,
    induced_subgraph,
    neighbor_masks,
)
from .weighting import EdgeWeighting

DEFAULT_K_MAX = 5  # above mu <= 3 (Keusch 2024), so a kernel fault shows

# Practical desk-scale guards; exceed them only with force=True.
MAX_EDGES_K2 = 40
MAX_EDGES_K3 = 26


class SearchGuardError(RuntimeError):
    """Search refused: instance exceeds the desk-scale size guard."""


class NotFoundWithinCap(RuntimeError):
    """No proper weighting found for any k <= k_max.

    On a connected graph with k_max >= 3 this would contradict mu <= 3
    (Keusch, JCTB 166, 2024) and deserves loud attention, not a silent
    default.
    """


class InconsistentEndEdges(RuntimeError):
    """Observed end-edge weight pairs fit none of the three categories."""


class EndEdgeBehavior(Enum):
    SAME = "same"
    DIFFERENT = "different"
    FREE = "free"


@dataclass(frozen=True)
class SearchConstraints:
    """Optional constraints: pinned edge weights and vertex color parities.

    ``fixed_weights`` maps edge id -> weight; ``parity`` maps vertex ->
    'odd' or 'even'.
    """

    fixed_weights: dict = field(default_factory=dict)
    parity: dict = field(default_factory=dict)


def _prep(g: Graph):
    """The graph-only inputs of ``_search``, or None when ``g`` (with at
    least one vertex) is disconnected.

    Returns ``(eu, ev, bfs, nbrs)``: the two ends of each edge, the edges
    in first-encountered order along a BFS from vertex 0 (adjacent edges
    are assigned near each other, so pruning bites early), and each
    vertex's neighbours as a bitmask.  That one BFS also tells whether
    the graph is connected.
    """
    visit = distances(g, 0)
    if len(visit) < g.n:
        return None
    seen = [False] * g.m
    bfs = []
    for v in visit:
        for _, eid in g.adjacency[v]:
            if not seen[eid]:
                seen[eid] = True
                bfs.append(eid)
    eu = [e[0] for e in g.edges]
    ev = [e[1] for e in g.edges]
    return eu, ev, bfs, neighbor_masks(g)


def _twin_chains(nbrs):
    """The twin classes of the graph with neighbour bitmasks ``nbrs``
    (as ``_prep`` builds them) as chains in ascending vertex id, or None
    when no vertex has a twin.

    Returns ``(before, after)``: the previous and next vertex of each
    vertex's class, the vertex itself at either end of its chain and
    for a vertex with no twin.  A vertex cannot have both a true twin
    and a false twin, so the classes are disjoint.
    """
    before = after = None
    last = {}  # neighbourhood mask -> latest vertex with it
    for v, open_mask in enumerate(nbrs):
        # N(u) = N[v] would put u in N(u), so no open mask is a closed one
        for mask in (open_mask, open_mask | 1 << v):
            u = last.get(mask)
            last[mask] = v
            if u is not None:
                if before is None:
                    before = list(range(len(nbrs)))
                    after = list(range(len(nbrs)))
                before[v] = u
                after[u] = v
    return None if before is None else (before, after)


def _constraint_arrays(g: Graph, k: int, cons: SearchConstraints):
    fixed = [0] * g.m
    for eid, w in cons.fixed_weights.items():
        if not (0 <= eid < g.m):
            raise ValueError(f"fixed weight on unknown edge id {eid}")
        if isinstance(w, bool) or not isinstance(w, int):
            raise ValueError(f"fixed weight {w!r} is not an integer")
        if not (1 <= w <= k):
            raise ValueError(f"fixed weight {w} outside 1..{k}")
        fixed[eid] = w
    parity = [-1] * g.n
    for v, p in cons.parity.items():
        if not (0 <= v < g.n):
            raise ValueError(f"parity constraint on unknown vertex {v}")
        if p not in ("odd", "even"):
            raise ValueError(f"parity must be 'odd' or 'even', got {p!r}")
        parity[v] = 1 if p == "odd" else 0
    return fixed, parity


def _search_inputs(g: Graph, k: int, force: bool):
    """``_prep(g)``, once ``g`` passes the checks of a k-weighting search."""
    if k < 1:
        raise ValueError("k must be positive")
    if g.n < 3:
        raise GraphError("weighting search needs at least three vertices")
    prep = _prep(g)
    if prep is None:
        raise GraphError("weighting search requires a connected graph")
    _check_guard(g, k, force)
    return prep


def _check_guard(g: Graph, k: int, force: bool):
    if force:
        return
    if k == 2 and g.m > MAX_EDGES_K2:
        raise SearchGuardError(
            f"k=2 search on {g.m} edges exceeds the guard "
            f"({MAX_EDGES_K2}); pass force=True to override"
        )
    if k >= 3 and g.m > MAX_EDGES_K3:
        raise SearchGuardError(
            f"k={k} search on {g.m} edges exceeds the guard "
            f"({MAX_EDGES_K3}); pass force=True to override"
        )


def _search(n, m, eu, ev, order, k, fixed, parity, nbrs, twins):
    """Backtracking search for a proper edge weighting.

    Edges are assigned in ``order``; weight values are tried in
    ascending order, so the first hit is the lexicographically smallest
    weighting with respect to ``order``.  A partial assignment is pruned
    as soon as a saturated vertex (one with all incident edges assigned)
    conflicts with a saturated neighbor or violates its parity
    constraint.

    fixed[e] > 0 pins edge e to that weight; parity[v] in {-1, 0, 1}
    requires no constraint / an even color / an odd color at v; nbrs[v]
    is the bitmask of v's neighbours.

    ``twins`` is None or the ``(before, after)`` chains of
    ``_twin_chains``; with chains, only weightings whose sums never
    decrease along a chain are searched.  Pass them only to a search
    with no pins and no parities.

    The search is one loop, with no call per tried weight.  ``cur[pos]``
    is the weight at position ``pos`` of ``order``; the vertex sums
    ``csum``, the counts ``rem`` of unassigned edges at each vertex and
    the bitmasks ``done[c]`` of the saturated vertices with sum c are
    updated and undone in place.  Only the ends that an edge saturates
    are checked, and a dead end undoes its way straight back to the
    last free edge with a weight left to try.

    Returns a per-edge-id weight list, rebuilt from ``cur``, or None.
    """
    if m == 0:
        return []
    rem = [nb.bit_count() for nb in nbrs]
    csum = [0] * n
    # sums index done; 4n holds every sum at k <= 3 (at most 3(n - 1)),
    # and it doubles until it holds any larger sum that comes up, so its
    # size follows the sums met, not k
    cap = 4 * n
    done = [0] * cap
    cur = [0] * m
    before, after = twins or (None, None)
    pos = 0
    wt = 0  # the weight at pos when the search comes back to it, else 0
    while True:
        e = order[pos]
        u = eu[e]
        v = ev[e]
        if wt:
            cu = csum[u] - wt
            cv = csum[v] - wt
            su = not rem[u]
            sv = not rem[v]
            if su:
                done[csum[u]] ^= 1 << u
            if sv:
                done[csum[v]] ^= 1 << v
            wt += 1
            top = k
        else:
            rem[u] -= 1
            rem[v] -= 1
            cu = csum[u]
            cv = csum[v]
            su = not rem[u]
            sv = not rem[v]
            top = fixed[e]
            if top:
                wt = top
            else:
                wt = 1
                top = k
        if su or sv:
            if su and sv and cu == cv:
                wt = top + 1  # adjacent and saturated together: no weight fits
            hi = cu if cu > cv else cv
            wt -= 1
            while wt < top:
                wt += 1
                while hi + wt >= cap:
                    done += [0] * cap
                    cap += cap
                csum[u] = cx = cu + wt
                csum[v] = cv + wt
                # a saturated end must differ from its saturated
                # neighbours, meet its parity and stay in order along its
                # twin chain (each open edge at y adds 1..k, so y ends in
                # csum[y] + rem[y] .. csum[y] + k * rem[y])
                if su:
                    if done[cx] & nbrs[u]:
                        continue
                    if parity[u] >= 0 and (cx & 1) != parity[u]:
                        continue
                    if before is not None and (
                        csum[before[u]] + rem[before[u]] > cx
                        or csum[after[u]] + k * rem[after[u]] < cx
                    ):
                        continue
                if sv:
                    cx = cv + wt
                    if done[cx] & nbrs[v]:
                        continue
                    if parity[v] >= 0 and (cx & 1) != parity[v]:
                        continue
                    if before is not None and (
                        csum[before[v]] + rem[before[v]] > cx
                        or csum[after[v]] + k * rem[after[v]] < cx
                    ):
                        continue
                break
            else:
                # no weight fits: undo back to the last free edge with a
                # weight left to try
                csum[u] = cu
                csum[v] = cv
                rem[u] += 1
                rem[v] += 1
                while True:
                    pos -= 1
                    if pos < 0:
                        return None
                    e = order[pos]
                    wt = cur[pos]
                    if wt < k and not fixed[e]:
                        break
                    u = eu[e]
                    v = ev[e]
                    if not rem[u]:
                        done[csum[u]] ^= 1 << u
                    if not rem[v]:
                        done[csum[v]] ^= 1 << v
                    csum[u] -= wt
                    csum[v] -= wt
                    rem[u] += 1
                    rem[v] += 1
                continue
            if su:
                done[cu + wt] |= 1 << u
            if sv:
                done[cv + wt] |= 1 << v
        csum[u] = cu + wt
        csum[v] = cv + wt
        cur[pos] = wt
        pos += 1
        if pos == m:
            w = [0] * m
            for e, wt in zip(order, cur):
                w[e] = wt
            return w
        wt = 0


def _exists(g: Graph, k: int, fixed, parity, prep, twins=None):
    # pinned edges first: the pinned prefix is one linear pass, and every
    # vertex saturates no later among the free edges than in BFS order
    eu, ev, bfs, nbrs = prep
    if any(fixed):
        order = [e for e in range(g.m) if fixed[e]]
        order += [e for e in bfs if not fixed[e]]
    else:
        order = bfs
    return _search(g.n, g.m, eu, ev, order, k, fixed, parity, nbrs, twins)


def find_weighting(
    g: Graph,
    k: int,
    cons: SearchConstraints | None = None,
    force: bool = False,
):
    """Canonical proper k-weighting satisfying ``cons``, or None.

    The witness is the lexicographically smallest weight vector (by edge
    id, then weight value): each edge id in turn is pinned to the
    smallest weight that still leaves the instance satisfiable.

    The weight vector ``w`` of the last successful search is a
    completion that respects every pin so far.  At edge ``eid`` only the
    weights ``1 .. w[eid]-1`` are searched, in order; the first that
    succeeds is pinned and its completion becomes ``w``.  If none does,
    ``w[eid]`` is pinned without a search.  Every search made here is
    one that trying all of ``1 .. k`` at each edge would make too.
    """
    cons = cons or SearchConstraints()
    prep = _search_inputs(g, k, force)
    fixed, parity = _constraint_arrays(g, k, cons)
    w = _exists(g, k, fixed, parity, prep)
    if w is None:
        return None
    return _lex_least(g, k, fixed, parity, prep, w)


def _lex_least(g: Graph, k: int, fixed, parity, prep, w) -> EdgeWeighting:
    # the pinning loop of find_weighting, from a completion w that
    # respects the pins in fixed; fixed ends as the witness
    for eid in range(g.m):
        if fixed[eid]:
            continue
        for wt in range(1, w[eid]):
            fixed[eid] = wt
            found = _exists(g, k, fixed, parity, prep)
            if found is not None:
                w = found
                break
        else:
            fixed[eid] = w[eid]
    return EdgeWeighting(k=k, weights=tuple(fixed))


def has_weighting(
    g: Graph,
    k: int,
    cons: SearchConstraints | None = None,
    force: bool = False,
) -> bool:
    """Existence-only variant of ``find_weighting`` (no canonicalization)."""
    cons = cons or SearchConstraints()
    prep = _search_inputs(g, k, force)
    fixed, parity = _constraint_arrays(g, k, cons)
    free = not cons.fixed_weights and not cons.parity
    twins = _twin_chains(prep[3]) if free else None
    return _exists(g, k, fixed, parity, prep, twins) is not None


def mu_exact(g: Graph, k_max: int = DEFAULT_K_MAX, force: bool = False) -> int:
    """Smallest k <= k_max admitting a proper weighting.

    Disconnected graphs take the maximum over components; components
    with fewer than three vertices are rejected.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    # the BFS of _prep settles connectivity; only a disconnected graph
    # is split into its components
    prep = _prep(g) if g.n else None
    comps = [list(range(g.n))] if prep else connected_components(g)
    if not comps:
        raise GraphError("mu is undefined for the empty graph")
    best = 0
    for comp in comps:
        if len(comp) < 3:
            raise GraphError(
                f"component {comp} has fewer than three vertices; "
                "mu is undefined"
            )
        sub = g if prep else induced_subgraph(g, comp)[0]
        best = max(best, _mu_connected(sub, k_max, force, prep or _prep(sub))[0])
    return best


def _mu_connected(g: Graph, k_max: int, force: bool, prep):
    """mu of a connected graph on at least three vertices, given
    ``prep = _prep(g)``, and a proper mu-weighting (per edge id)."""
    no_parity = [-1] * g.n
    no_fixed = [0] * g.m
    twins = _twin_chains(prep[3])
    for k in range(1, k_max + 1):
        _check_guard(g, k, force)
        w = _exists(g, k, no_fixed, no_parity, prep, twins)
        if w is not None:
            return k, w
    raise NotFoundWithinCap(
        f"no proper weighting with k <= {k_max} on a connected graph "
        f"(n={g.n}, m={g.m}); if k_max >= 3 this contradicts mu <= 3 "
        "(Keusch 2024) -- please report this instance"
    )


def _mu_witness(
    g: Graph, k_max: int = DEFAULT_K_MAX, force: bool = False
) -> EdgeWeighting:
    """``find_weighting(g, mu_exact(g, k_max, force), force=force)``,
    without repeating the search that settled mu: its completion starts
    the canonicalisation, so the witness is the same."""
    prep = _prep(g) if g.n >= 3 else None
    if prep is None:
        # the witness search refuses such a graph; raise as it does
        return find_weighting(g, mu_exact(g, k_max, force), force=force)
    k, w = _mu_connected(g, k_max, force, prep)
    return _lex_least(g, k, [0] * g.m, [-1] * g.n, prep, w)


def enumerate_path_weightings(n: int):
    """All proper 2-weightings of the path on n vertices (by full enumeration)."""
    m = n - 1
    out = []
    for ws in iproduct((1, 2), repeat=m):
        ok = True
        prev = ws[0]  # color of vertex 0
        for v in range(1, n):
            c = ws[v - 1] + (ws[v] if v < n - 1 else 0)
            if c == prev:
                ok = False
                break
            prev = c
        if ok:
            out.append(ws)
    return out


def end_edge_behavior(n: int) -> EndEdgeBehavior:
    """What the two end-edges of the path of length n (n edges) may carry.

    Enumerates every proper 2-weighting: SAME if the end-edges always
    agree, DIFFERENT if they always differ, FREE if all four weight
    pairs occur.  Any other observed pattern raises InconsistentEndEdges
    since it would falsify the claimed trichotomy.

    n counts edges: the trichotomy (same for n = 1 mod 4, different for
    n = 3 mod 4, free otherwise) holds for path length, not vertex
    count, as the length-3 path with weights 1,1,2 already shows.
    """
    if n < 4:
        raise ValueError("end-edge behavior needs a path with at least 4 edges")
    pairs = {(ws[0], ws[-1]) for ws in enumerate_path_weightings(n + 1)}
    equal = {(1, 1), (2, 2)}
    mixed = {(1, 2), (2, 1)}
    if pairs and pairs <= equal:
        return EndEdgeBehavior.SAME
    if pairs and pairs <= mixed:
        return EndEdgeBehavior.DIFFERENT
    if pairs == equal | mixed:
        return EndEdgeBehavior.FREE
    raise InconsistentEndEdges(
        f"proper 2-weightings of the {n}-vertex path realize end-edge "
        f"pairs {sorted(pairs)}, which fits no category"
    )
