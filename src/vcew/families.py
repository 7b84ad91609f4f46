"""Deterministic generators for the graph families under study.

Includes the family-spec mini-language used by the CLI
(``path:7``, ``cycle:8``, ``clique:4``, ``kpart:3,3,3``, ``theta:1,5,5``,
``gpt:1,1,1,1,1,3``, ``hypercube:3``, ``product(cycle:4,path:2)``),
a seeded random connected bipartite generator with a documented PRNG,
and exhaustive enumeration of small connected graphs up to isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .formats import MAX_EDGES, MAX_VERTICES
from .graph import (
    Graph,
    GraphError,
    cartesian_product,
    is_connected,
    neighbor_masks,
)


class FamilyError(ValueError):
    """Invalid family parameters or unparseable family spec."""


@dataclass(frozen=True)
class GptParams:
    """Path lengths of a generalized polygon tree with <= 3 interior regions.

    Four hub vertices u, v, u', v'; paths of length a and b join u-v,
    c and d join u'-v', e joins u-u', f joins v-v'.  A zero length
    identifies the two endpoints of its path.
    """

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d, self.e, self.f)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise FamilyError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise FamilyError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique_graph(n: int) -> Graph:
    if n < 1:
        raise FamilyError("clique needs at least one vertex")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_multipartite(sizes) -> Graph:
    sizes = list(sizes)
    if len(sizes) < 2:
        raise FamilyError("complete multipartite needs at least two parts")
    if any(s < 1 for s in sizes):
        raise FamilyError("part sizes must be positive")
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
    part = [0] * n
    for i in range(len(sizes)):
        for v in range(bounds[i], bounds[i + 1]):
            part[v] = i
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part[u] != part[v]
    ]
    return Graph(n, edges)


def theta_graph(lengths) -> Graph:
    """Internally disjoint paths of the given lengths joining roots 0 and 1.

    Interior vertices are numbered path by path after the roots.
    """
    lengths = list(lengths)
    if len(lengths) < 1:
        raise FamilyError("theta needs at least one path")
    if any(l < 1 for l in lengths):
        raise FamilyError("theta path lengths must be positive")
    if sum(1 for l in lengths if l == 1) > 1:
        raise FamilyError("at most one theta path may have length 1 (no parallel edges)")
    if 2 + sum(lengths) - len(lengths) < 3:
        # e.g. theta(1) is a single edge
        raise FamilyError("theta graph must have at least three vertices")
    edges = []
    nxt = 2
    for l in lengths:
        prev = 0
        for _ in range(l - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


def gpt_graph(p: GptParams) -> Graph:
    """Generalized polygon tree with at most three interior regions.

    Hubs get provisional ids u=0, v=1, u'=2, v'=3; zero-length paths
    identify their endpoints, surviving hubs are renumbered in ascending
    provisional order, then interiors follow path by path.  Two
    length-one paths joining the same hub pair degenerate to a single
    edge (the region they bound collapses); parameter tuples producing
    loops are rejected.
    """
    t = p.as_tuple()
    if any(l < 0 for l in t):
        raise FamilyError("gpt path lengths must be non-negative")
    paths = [(0, 1, p.a), (0, 1, p.b), (2, 3, p.c), (2, 3, p.d), (0, 2, p.e), (1, 3, p.f)]
    # identify endpoints of zero-length paths (union-find on the hubs)
    root = list(range(4))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for x, y, l in paths:
        if l == 0:
            rx, ry = find(x), find(y)
            if rx != ry:
                root[max(rx, ry)] = min(rx, ry)
    hubs = sorted({find(h) for h in range(4)})
    hub_id = {h: i for i, h in enumerate(hubs)}
    nxt = len(hubs)
    edges = []
    hub_edges = set()
    for x, y, l in paths:
        if l == 0:
            continue
        prev = hub_id[find(x)]
        last = hub_id[find(y)]
        if l == 1:
            if prev == last:
                raise FamilyError(f"gpt{t} produces a loop")
            pair = (min(prev, last), max(prev, last))
            if pair in hub_edges:
                continue  # collapsed region: parallel unit paths merge
            hub_edges.add(pair)
            edges.append(pair)
            continue
        for _ in range(l - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, last))
    if nxt < 3:
        raise FamilyError(f"gpt{t} has fewer than three vertices")
    try:
        g = Graph(nxt, edges)
    except GraphError as exc:
        raise FamilyError(f"gpt{t} is not simple: {exc}") from None
    if not is_connected(g):
        raise FamilyError(f"gpt{t} is disconnected")
    return g


def hypercube_graph(n: int) -> Graph:
    if n < 1:
        raise FamilyError("hypercube dimension must be at least 1")
    g = path_graph(2)
    for _ in range(n - 1):
        g = cartesian_product(g, path_graph(2))
    return g


def make(spec: str) -> Graph:
    """Build a graph from a family-spec string (whitespace-insensitive).

    The vertex and edge counts are computed from the parameters first; a
    spec above ``formats.MAX_VERTICES`` vertices or ``formats.MAX_EDGES``
    edges raises FamilyError before any graph is built.
    """
    s = "".join(spec.split())
    tree = _parse_spec(s)
    n, m = _spec_size(tree)
    if n > MAX_VERTICES or m > MAX_EDGES:
        raise FamilyError(
            f"spec {s!r} builds more than {MAX_VERTICES} vertices "
            f"or {MAX_EDGES} edges"
        )
    return _build_spec(tree)


def split_product_spec(s: str):
    """The factor specs ``(A, B)`` of a whitespace-free ``product(A,B)``
    spec, split at the first comma outside all parentheses that a letter
    follows (family names start with a letter, arguments are integers,
    so A may take several arguments); None when ``s`` is not a product
    spec.  Raises FamilyError when there is no such comma."""
    if not (s.startswith("product(") and s.endswith(")")):
        return None
    inner = s[len("product("):-1]
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0 and inner[i + 1:i + 2].isalpha():
            return inner[:i], inner[i + 1:]
    raise FamilyError(f"product spec needs two comma-separated factors: {s!r}")


def _hypercube_size(args):
    # a dimension above 64 is sized as 64, already far past the limits,
    # so that no huge power of two is computed
    d = min(args[0], 64)
    return 1 << d, d * (1 << d) // 2


def _gpt_size(lengths):
    # at most: hubs merge and parallel unit paths collapse
    return 4 + sum(max(l - 1, 0) for l in lengths), sum(lengths)


# name: (argument count, or None for one or more; builder; (n, m) of the
# graph the builder makes from valid arguments)
_FAMILIES = {
    "path": (1, lambda a: path_graph(a[0]), lambda a: (a[0], a[0] - 1)),
    "cycle": (1, lambda a: cycle_graph(a[0]), lambda a: (a[0], a[0])),
    "clique": (
        1,
        lambda a: clique_graph(a[0]),
        lambda a: (a[0], a[0] * (a[0] - 1) // 2),
    ),
    "kpart": (
        None,
        complete_multipartite,
        lambda a: (sum(a), (sum(a) ** 2 - sum(x * x for x in a)) // 2),
    ),
    "theta": (None, theta_graph, lambda a: (2 + sum(a) - len(a), sum(a))),
    "gpt": (6, lambda a: gpt_graph(GptParams(*a)), _gpt_size),
    "hypercube": (1, lambda a: hypercube_graph(a[0]), _hypercube_size),
}


def _parse_spec(s: str):
    # the parse tree of a whitespace-free spec: ("product", A, B) or
    # (name, args) for a family
    factors = split_product_spec(s)
    if factors is not None:
        return ("product", _parse_spec(factors[0]), _parse_spec(factors[1]))
    if ":" not in s:
        raise FamilyError(f"unparseable family spec {s!r}")
    name, _, argstr = s.partition(":")
    try:
        args = [int(a) for a in argstr.split(",")] if argstr else []
    except ValueError:
        raise FamilyError(f"non-integer arguments in family spec {s!r}") from None
    if name not in _FAMILIES or not args or _FAMILIES[name][0] not in (None, len(args)):
        raise FamilyError(f"unknown family or wrong arity in spec {s!r}")
    return (name, args)


def _spec_size(tree):
    # (n, m) of the graph a parse tree builds, from its parameters alone;
    # negative parameters count as zero (the builder rejects them)
    if tree[0] == "product":
        (n1, m1), (n2, m2) = _spec_size(tree[1]), _spec_size(tree[2])
        return n1 * n2, n1 * m2 + n2 * m1
    _, _, size = _FAMILIES[tree[0]]
    return size([max(a, 0) for a in tree[1]])


def _build_spec(tree) -> Graph:
    if tree[0] == "product":
        return cartesian_product(_build_spec(tree[1]), _build_spec(tree[2]))
    _, build, _ = _FAMILIES[tree[0]]
    return build(tree[1])


# ---------------------------------------------------------------------------
# seeded random connected bipartite graphs


_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class _Lcg:
    """64-bit linear congruential generator (part of the external interface).

    state' = (state * 6364136223846793005 + 1442695040888963407) mod 2^64;
    below(k) advances once and returns (state' >> 11) % k.
    """

    def __init__(self, seed: int):
        self.state = seed & _LCG_MASK

    def below(self, k: int) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        return (self.state >> 11) % k


def random_connected_bipartite(n: int, m: int, seed: int) -> Graph:
    """Seeded, reproducible connected bipartite graph.

    Procedure (fixed, so seeds are portable): pick the smaller part size
    uniformly among feasible sizes, build a spanning tree by attaching
    shuffled vertices to a random already-connected vertex of the
    opposite part, then add uniformly chosen extra cross edges.
    """
    if n < 2:
        raise FamilyError("random bipartite graph needs at least two vertices")
    if not (n - 1 <= m <= (n // 2) * ((n + 1) // 2)):
        raise FamilyError(f"infeasible edge count m={m} for n={n}")
    rng = _Lcg(seed)
    sizes = [s for s in range(1, n) if s * (n - s) >= m]
    n1 = sizes[rng.below(len(sizes))]
    edges = [(0, n1)]
    in_u = [0]
    in_w = [n1]
    rest = [v for v in range(n) if v not in (0, n1)]
    for i in range(len(rest) - 1, 0, -1):
        j = rng.below(i + 1)
        rest[i], rest[j] = rest[j], rest[i]
    for x in rest:
        if x < n1:
            edges.append((x, in_w[rng.below(len(in_w))]))
            in_u.append(x)
        else:
            edges.append((in_u[rng.below(len(in_u))], x))
            in_w.append(x)
    present = {(min(u, v), max(u, v)) for u, v in edges}
    candidates = [
        (u, w)
        for u in range(n1)
        for w in range(n1, n)
        if (u, w) not in present
    ]
    while len(edges) < m:
        i = rng.below(len(candidates))
        edges.append(candidates.pop(i))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# exhaustive enumeration of small connected graphs up to isomorphism


def _wl_colors(masks, n):
    # iterated degree refinement; returns the final colours and the sorted
    # signatures of the last round, both canonical across isomorphic graphs
    # (the signatures also fix the colour multiset and the edge count)
    nbrs = []
    for mk in masks:
        nb = []
        while mk:
            b = mk & -mk
            nb.append(b.bit_length() - 1)
            mk ^= b
        nbrs.append(nb)
    col = [len(nb) for nb in nbrs]
    classes = len(set(col))
    for _ in range(n):
        sigs = [
            (col[v], tuple(sorted([col[u] for u in nbrs[v]]))) for v in range(n)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        col = [ranks[s] for s in sigs]
        new_classes = len(set(col))
        if new_classes == classes:
            break
        classes = new_classes
    return col, tuple(sorted(sigs))


def _isomorphisms(m1, c1, m2, c2, n):
    # every colour-preserving vertex mapping of graph 1 onto graph 2, found
    # by backtracking; yields img with img[v] the image of v
    order = sorted(range(n), key=lambda v: (c1.count(c1[v]), c1[v], v))
    return _extend_mapping(m1, c1, m2, c2, order, [False] * n, [0] * n, 0)


def _extend_mapping(m1, c1, m2, c2, order, used, img, i):
    # the mappings of _isomorphisms that agree with img on order[:i]; a
    # module-level generator, so the recursion leaves no reference cycle
    n = len(order)
    if i == n:
        yield tuple(img)
        return
    v = order[i]
    for t in range(n):
        if used[t] or c2[t] != c1[v]:
            continue
        ok = True
        for j in range(i):
            u = order[j]
            if ((m1[v] >> u) & 1) != ((m2[t] >> img[u]) & 1):
                ok = False
                break
        if ok:
            used[t] = True
            img[v] = t
            yield from _extend_mapping(m1, c1, m2, c2, order, used, img, i + 1)
            used[t] = False


def _masks_isomorphic(m1, c1, m2, c2, n):
    return next(_isomorphisms(m1, c1, m2, c2, n), None) is not None


def _subset_image(subset, perm):
    img = 0
    while subset:
        b = subset & -subset
        img |= 1 << perm[b.bit_length() - 1]
        subset ^= b
    return img


@lru_cache(maxsize=None)
def _connected_mask_reps(n: int):
    # all connected graphs on n vertices, one per isomorphism class: a new
    # vertex joins every nonempty neighbour subset of every (n-1)-vertex
    # representative in ascending order, and the first candidate of each
    # class is kept.  A subset that an automorphism of its base maps from
    # an earlier subset gives a candidate isomorphic to an earlier one, so
    # it is skipped unbuilt; the others are compared only within their
    # bucket of equal refinement signatures.
    if n == 1:
        return ((0,),)
    top = n - 1
    reps = []
    buckets = {}
    for base in _connected_mask_reps(top):
        base_col, _ = _wl_colors(base, top)
        autos = list(_isomorphisms(base, base_col, base, base_col, top))
        seen = bytearray(1 << top)
        for subset in range(1, 1 << top):
            if seen[subset]:
                continue
            for perm in autos:
                seen[_subset_image(subset, perm)] = 1
            masks = [base[v] | (((subset >> v) & 1) << top) for v in range(top)]
            masks.append(subset)
            col, key = _wl_colors(masks, n)
            # bucketed by the signature's hash, not the signature, which
            # is most of a bucket's memory; a collision only adds tests
            bucket = buckets.setdefault(hash(key), [])
            if not any(
                _masks_isomorphic(masks, col, m2, c2, n) for m2, c2 in bucket
            ):
                masks = tuple(masks)
                bucket.append((masks, col))
                reps.append(masks)
    return tuple(reps)


def _graph_from_masks(masks) -> Graph:
    n = len(masks)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (masks[u] >> v) & 1
    ]
    return Graph(n, edges)


def enumerate_connected(n: int):
    """All connected graphs on n vertices up to isomorphism, 3 <= n <= 8.

    Deterministic order (orderly generation): each graph on n - 1
    vertices, in this order, gets a new vertex joined to each of its
    nonempty neighbour subsets in ascending order, and the first
    candidate of every isomorphism class is kept.  Subsets in one orbit
    of the base graph's automorphisms are built once, and each candidate
    is tested for isomorphism only against the kept graphs with the same
    refinement signature.
    """
    if not (3 <= n <= 8):
        raise FamilyError("enumeration supports 3 <= n <= 8")
    return [_graph_from_masks(masks) for masks in _connected_mask_reps(n)]


def graphs_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism test for small graphs (used by generator validation)."""
    if g.n != h.n or g.m != h.m:
        return False
    gm = neighbor_masks(g)
    hm = neighbor_masks(h)
    cg, gkey = _wl_colors(gm, g.n)
    ch, hkey = _wl_colors(hm, h.n)
    if gkey != hkey:
        return False
    return _masks_isomorphic(gm, cg, hm, ch, g.n)
