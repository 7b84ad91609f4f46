"""Constructive weighting procedures.

Every constructor certifies its output with the properness checker
before returning.  A certification failure on inputs satisfying the
stated preconditions would contradict the underlying guarantee and is
raised as ClaimFailure rather than papered over.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import (
    Graph,
    GraphError,
    bipartition,
    blocks_and_cut_vertices,
    cartesian_product,
    distances,
    induced_subgraph,
    is_connected,
    is_cycle_graph,
    maximal_simple_paths,
)
from .oracle import SearchConstraints, find_weighting
from .weighting import EdgeWeighting, is_proper


class PreconditionError(ValueError):
    """Constructor applied outside its stated preconditions."""


class ClaimFailure(RuntimeError):
    """A construction that is guaranteed to work produced an improper
    weighting (or a guaranteed search came up empty).  This falsifies a
    claimed result and must be reported, never silently repaired."""


@dataclass(frozen=True)
class DegreeComponentPartition:
    """Connected components of the equal-degree induced subgraphs.

    ``components`` partitions the vertex set; ``parent`` maps component
    index -> component index along the attachment forest; ``anchor_weight``
    records the cross-edge weight chosen at each component's anchor.
    """

    components: tuple
    parent: dict
    anchor_weight: dict


def _certify(g: Graph, w: EdgeWeighting, claim: str) -> EdgeWeighting:
    verdict = is_proper(g, w)
    if not verdict.proper:
        raise ClaimFailure(
            f"{claim}: constructed weighting is improper on edges "
            f"{verdict.conflicts}"
        )
    return w


def product_weighting(
    g: Graph, wg: EdgeWeighting, h: Graph, wh: EdgeWeighting
) -> EdgeWeighting:
    """Weighting on the cartesian product copying wg on g-fibers and wh
    on h-fibers; k of the output is max of the input k's."""
    if not is_proper(g, wg).proper:
        raise PreconditionError("input weighting on the first factor is improper")
    if not is_proper(h, wh).proper:
        raise PreconditionError("input weighting on the second factor is improper")
    k = max(wg.k, wh.k)
    weights = []
    for _v in range(h.n):
        weights.extend(wg.weights)
    for _u in range(g.n):
        weights.extend(wh.weights)
    prod = cartesian_product(g, h)
    return _certify(
        prod,
        EdgeWeighting(k=k, weights=tuple(weights)),
        "product composition",
    )


def degree_component_partition(g: Graph):
    """Components of the equal-degree induced subgraphs, with the
    deterministic attachment forest used by ``bipartite_product_k2``.

    Returns ``(partition, cross_weights)`` where ``cross_weights[u]`` is
    the weight assigned to the cross edge at vertex u.
    """
    comp_id = [-1] * g.n
    comps = []
    for v in range(g.n):
        if comp_id[v] != -1:
            continue
        cid = len(comps)
        comp = [v]
        comp_id[v] = cid
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for y, _ in g.adjacency[x]:
                if comp_id[y] == -1 and g.degrees[y] == g.degrees[v]:
                    comp_id[y] = cid
                    comp.append(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))

    cross = [0] * g.n
    parent = {}
    anchor_weight = {}
    done = [False] * len(comps)

    def spread(cid, start):
        # within one equal-degree component the cross weight follows
        # the anchor, flipped on odd distance in g
        dist = distances(g, start)
        for v in comps[cid]:
            if v != start:
                cross[v] = cross[start] if not dist[v] & 1 else 3 - cross[start]

    for seed_cid in range(len(comps)):
        if done[seed_cid]:
            continue
        anchor = comps[seed_cid][0]
        cross[anchor] = 1
        anchor_weight[seed_cid] = 1
        parent[seed_cid] = None
        done[seed_cid] = True
        spread(seed_cid, anchor)
        in_forest = {seed_cid}
        while True:
            link = None
            for eid, (x, y) in enumerate(g.edges):
                cx, cy = comp_id[x], comp_id[y]
                if abs(g.degrees[x] - g.degrees[y]) != 1:
                    continue
                if cx in in_forest and not done[cy]:
                    link = (x, y, cy, cx)
                    break
                if cy in in_forest and not done[cx]:
                    link = (y, x, cx, cy)
                    break
            if link is None:
                break
            x, y, new_cid, from_cid = link
            cross[y] = cross[x]
            anchor_weight[new_cid] = cross[x]
            parent[new_cid] = from_cid
            done[new_cid] = True
            spread(new_cid, y)
            in_forest.add(new_cid)

    partition = DegreeComponentPartition(
        components=tuple(comps), parent=parent, anchor_weight=anchor_weight
    )
    return partition, cross


def bipartite_product_k2(g: Graph) -> EdgeWeighting:
    """Proper 2-weighting of g x K2 for connected bipartite g, n > 2.

    First copy of g gets all-1 edges, second copy all-2; each cross edge
    weight is seeded per equal-degree component (smallest-id anchors,
    attachment along degree-difference-1 links) and propagated by
    distance parity.
    """
    if g.n <= 2:
        raise PreconditionError("factor must have more than two vertices")
    if not is_connected(g):
        raise PreconditionError("factor must be connected")
    if bipartition(g) is None:
        raise PreconditionError("factor must be bipartite")
    _, cross = degree_component_partition(g)
    # product edge layout: g-copy at K2-vertex 0, g-copy at K2-vertex 1,
    # then one cross edge per g-vertex in vertex order
    weights = [1] * g.m + [2] * g.m + list(cross)
    prod = cartesian_product(g, Graph(2, [(0, 1)]))
    return _certify(
        prod,
        EdgeWeighting(k=2, weights=tuple(weights)),
        "bipartite product with K2",
    )


# ---------------------------------------------------------------------------
# maximal-simple-path pattern weighter

_PATTERN = {
    "1122": (1, 1, 2, 2),
    "2112": (2, 1, 1, 2),
    "2211": (2, 2, 1, 1),
}


def _apply_patterns(g: Graph, msp, patterns):
    weights = [0] * g.m
    for path, name in zip(msp.paths, patterns):
        pat = _PATTERN[name]
        for i, eid in enumerate(path.edge_ids):
            weights[eid] = pat[i % 4]
    return weights


def msp_pattern_weighting(g: Graph, variant: str) -> EdgeWeighting:
    """Proper 2-weighting from periodic patterns on maximal simple paths.

    Variant 'A' (no single-edge path; no 1-mod-4 path joining two
    degree-3 vertices): 2-mod-4 paths get 1,1,2,2, all others 2,1,1,2.

    Variant 'B' (no 3-mod-4 path; every single-edge path joins vertices
    of different degrees): 2-mod-4 paths get 2,2,1,1, others 2,1,1,2.

    Each path is walked from its smaller endpoint.  An improper result
    raises ClaimFailure.
    """
    if variant not in ("A", "B"):
        raise PreconditionError(f"unknown variant {variant!r}")
    if not is_connected(g) or g.m == 0:
        raise PreconditionError("need a connected graph with edges")
    if is_cycle_graph(g) and g.n % 4 != 0:
        raise PreconditionError(
            "cycles of length not divisible by 4 are excluded"
        )
    msp = maximal_simple_paths(g)
    lengths = [p.length for p in msp.paths]
    if variant == "A":
        if any(l == 1 for l in lengths):
            raise PreconditionError(
                "variant A forbids single-edge maximal simple paths"
            )
        for p in msp.paths:
            x, y = p.endpoints
            if p.length % 4 == 1 and g.degrees[x] == 3 and g.degrees[y] == 3:
                raise PreconditionError(
                    "variant A forbids 1-mod-4 paths joining two "
                    "degree-3 vertices"
                )
        patterns = [
            "1122" if l % 4 == 2 else "2112" for l in lengths
        ]
    else:
        if any(l % 4 == 3 for l in lengths):
            raise PreconditionError(
                "variant B forbids 3-mod-4 maximal simple paths"
            )
        for p in msp.paths:
            x, y = p.endpoints
            if p.length == 1 and g.degrees[x] == g.degrees[y]:
                raise PreconditionError(
                    "variant B requires single-edge paths to join "
                    "vertices of different degrees"
                )
        patterns = [
            "2211" if l % 4 == 2 else "2112" for l in lengths
        ]

    weights = _apply_patterns(g, msp, patterns)
    return _certify(
        g, EdgeWeighting(k=2, weights=tuple(weights)), f"msp patterns ({variant})"
    )


def _block_walk(g: Graph, blk, start):
    """Edge and vertex sequences walking a cycle block from ``start``,
    smaller first neighbor preferred."""
    in_block = frozenset(blk)
    used = set()
    seq_e, seq_v = [], [start]
    v, prev_e = start, -1
    for _ in range(len(blk)):
        u, e = min(
            (u, e)
            for u, e in g.adjacency[v]
            if e in in_block and e not in used and e != prev_e
        )
        used.add(e)
        seq_e.append(e)
        seq_v.append(u)
        prev_e = e
        v = u
    return seq_e, seq_v


def cycle_block_weighting(g: Graph) -> EdgeWeighting:
    """Proper 2-weighting of a connected graph whose blocks are all cycles.

    Each block is walked from its attachment cut vertex (the root block
    from its smallest cut vertex, or smallest vertex for a lone cycle)
    and weighted with the periodic pattern 2,2,1,1, forward or backward;
    only if no combination of directions is proper may the pattern start
    at any of its four phases.  A deterministic backtracking search picks
    the blocks' weightings in breadth-first block order, forward first,
    and checks an edge once every block at its two ends is weighted.  A
    lone cycle must have length divisible by 4; a graph that no choice
    weights properly (such as a triangle with a triangle hung at each of
    its vertices, whose mu is 3) raises ClaimFailure.
    """
    if not is_connected(g) or g.m == 0:
        raise PreconditionError("need a connected graph with edges")
    decomp = blocks_and_cut_vertices(g)
    block_vertices = []
    for blk in decomp.blocks:
        vs = set()
        for eid in blk:
            vs.update(g.edges[eid])
        if len(blk) != len(vs) or len(blk) < 3:
            raise PreconditionError("every block must be a cycle")
        block_vertices.append(vs)
    if len(decomp.blocks) == 1 and g.n % 4 != 0:
        raise PreconditionError(
            "a lone cycle needs length divisible by 4 (others are excluded)"
        )

    # block-cut order: BFS from the block containing vertex 0, each block
    # started at the cut vertex linking it to its parent
    root_bid = next(i for i, vs in enumerate(block_vertices) if 0 in vs)
    root_cuts = decomp.cut_vertices & block_vertices[root_bid]
    start_of = {root_bid: min(root_cuts) if root_cuts else min(block_vertices[root_bid])}
    order = [root_bid]
    seen = {root_bid}
    queue = deque([root_bid])
    while queue:
        bid = queue.popleft()
        for v in sorted(block_vertices[bid]):
            if v not in decomp.cut_vertices:
                continue
            for nbid, vs in enumerate(block_vertices):
                if nbid not in seen and v in vs:
                    start_of[nbid] = v
                    order.append(nbid)
                    seen.add(nbid)
                    queue.append(nbid)

    pat = _PATTERN["2211"]
    # per block, its distinct pattern weightings, as (edge weights, color
    # contribution per vertex): forward and backward from the start
    # first (``n_dirs`` of them), then the other phases
    options = []
    n_dirs = []
    for bid, blk in enumerate(decomp.blocks):
        seq_e, _ = _block_walk(g, blk, start_of[bid])
        variants = []
        for shift in range(4):
            for walk in (seq_e, seq_e[::-1]):
                ew = {e: pat[(i + shift) % 4] for i, e in enumerate(walk)}
                if ew not in variants:
                    variants.append(ew)
            if shift == 0:
                n_dirs.append(len(variants))
        dirs = []
        for ew in variants:
            contrib = {}
            for e, wt in ew.items():
                for v in g.edges[e]:
                    contrib[v] = contrib.get(v, 0) + wt
            dirs.append((ew, contrib))
        options.append(dirs)

    # ready[i]: the edges whose end colors are final once block order[i]
    # is weighted
    last = [0] * g.n
    for i, bid in enumerate(order):
        for v in block_vertices[bid]:
            last[v] = i
    ready = [[] for _ in order]
    for x, y in g.edges:
        ready[max(last[x], last[y])].append((x, y))

    color = [0] * g.n
    chosen = [None] * len(decomp.blocks)

    def assign(i, all_phases):
        if i == len(order):
            return True
        bid = order[i]
        dirs = options[bid] if all_phases else options[bid][: n_dirs[bid]]
        for ew, contrib in dirs:
            for v, c in contrib.items():
                color[v] += c
            if all(color[x] != color[y] for x, y in ready[i]):
                chosen[bid] = ew
                if assign(i + 1, all_phases):
                    return True
            for v, c in contrib.items():
                color[v] -= c
        return False

    if not (assign(0, False) or assign(0, True)):
        raise ClaimFailure(
            "no direction or phase of the 2,2,1,1 pattern on the cycle "
            "blocks yields a proper weighting"
        )
    weights = [0] * g.m
    for ew in chosen:
        for e, wt in ew.items():
            weights[e] = wt
    return _certify(
        g, EdgeWeighting(k=2, weights=tuple(weights)), "cycle-block pattern"
    )


def multipartite_weighting(r: int, n: int):
    """Balanced complete multipartite graph and its matrix weighting.

    Edge from part i to part j (i < j) has weight 2 iff its part-i
    endpoint is the last vertex of part i, else 1.  Returns the graph
    and the certified weighting.
    """
    from .families import complete_multipartite

    if r < 2 or n < 2:
        raise PreconditionError("need at least two parts of size at least two")
    g = complete_multipartite([n] * r)
    weights = []
    for u, v in g.edges:
        # parts are consecutive blocks of n vertices; u < v so u is in
        # the earlier part
        weights.append(2 if u % n == n - 1 else 1)
    return g, _certify(
        g, EdgeWeighting(k=2, weights=tuple(weights)), "multipartite matrix"
    )


def dominant_vertex_weighting(g: Graph, v: int) -> EdgeWeighting:
    """Proper 2-weighting for connected bipartite g with a dominant vertex.

    Requires deg(v) > deg(u) for all neighbors u and g - v connected.
    With both parts odd: all edges at v get weight 2 and g - v is
    weighted by a parity-constrained search (odd colors on v's side,
    even on the other).  With an even part the bound holds outright and
    the weighting comes from an unconstrained search.
    """
    if not is_connected(g):
        raise PreconditionError("graph must be connected")
    bip = bipartition(g)
    if bip is None:
        raise PreconditionError("graph must be bipartite")
    if g.n < 4:
        raise PreconditionError("graph is too small")
    nbrs = g.neighbors(v)
    if not nbrs or any(g.degrees[u] >= g.degrees[v] for u in nbrs):
        raise PreconditionError(
            f"vertex {v} does not strictly dominate its neighborhood"
        )
    rest = [x for x in range(g.n) if x != v]
    sub, vmap, emap = induced_subgraph(g, rest)
    if not is_connected(sub):
        raise PreconditionError(f"removing vertex {v} disconnects the graph")

    part_u = bip.part("U") if bip.side[v] == "U" else bip.part("W")
    part_w = bip.part("W") if bip.side[v] == "U" else bip.part("U")
    if len(part_u) % 2 == 1 and len(part_w) % 2 == 1:
        # both parts odd: remove v, force odd colors on its side
        inv = {orig: i for i, orig in enumerate(vmap)}
        parity = {inv[x]: "odd" for x in part_u if x != v}
        parity.update({inv[y]: "even" for y in part_w})
        ws = find_weighting(sub, 2, SearchConstraints(parity=parity))
        if ws is None:
            raise ClaimFailure(
                "no parity-constrained 2-weighting on the graph minus its "
                "dominant vertex; this contradicts the even-part guarantee"
            )
        weights = [2] * g.m
        for sub_eid, orig_eid in enumerate(emap):
            weights[orig_eid] = ws.weights[sub_eid]
    else:
        ws = find_weighting(g, 2)
        if ws is None:
            raise ClaimFailure(
                "no 2-weighting on a connected bipartite graph with an "
                "even part; this contradicts the even-part guarantee"
            )
        weights = list(ws.weights)
    return _certify(
        g, EdgeWeighting(k=2, weights=tuple(weights)), "dominant vertex"
    )
