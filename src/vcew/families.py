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

from .graph import Graph, GraphError, cartesian_product, is_connected


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
    """Build a graph from a family-spec string (whitespace-insensitive)."""
    return _parse_spec("".join(spec.split()))


def split_product_spec(s: str):
    """The factor specs ``(A, B)`` of a whitespace-free ``product(A,B)``
    spec, split at the comma outside all parentheses; None when ``s`` is
    not a product spec.  Raises FamilyError when there is no such comma."""
    if not (s.startswith("product(") and s.endswith(")")):
        return None
    inner = s[len("product("):-1]
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return inner[:i], inner[i + 1:]
    raise FamilyError(f"product spec needs two comma-separated factors: {s!r}")


def _parse_spec(s: str) -> Graph:
    factors = split_product_spec(s)
    if factors is not None:
        return cartesian_product(_parse_spec(factors[0]), _parse_spec(factors[1]))
    if ":" not in s:
        raise FamilyError(f"unparseable family spec {s!r}")
    name, _, argstr = s.partition(":")
    try:
        args = [int(a) for a in argstr.split(",")] if argstr else []
    except ValueError:
        raise FamilyError(f"non-integer arguments in family spec {s!r}") from None
    if name == "path" and len(args) == 1:
        return path_graph(args[0])
    if name == "cycle" and len(args) == 1:
        return cycle_graph(args[0])
    if name == "clique" and len(args) == 1:
        return clique_graph(args[0])
    if name == "kpart" and args:
        return complete_multipartite(args)
    if name == "theta" and args:
        return theta_graph(args)
    if name == "gpt" and len(args) == 6:
        return gpt_graph(GptParams(*args))
    if name == "hypercube" and len(args) == 1:
        return hypercube_graph(args[0])
    raise FamilyError(f"unknown family or wrong arity in spec {s!r}")


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
    # iterated degree refinement; canonical across isomorphic graphs
    col = [bin(mk).count("1") for mk in masks]
    classes = len(set(col))
    for _ in range(n):
        sigs = []
        for v in range(n):
            nb = []
            mk = masks[v]
            while mk:
                b = mk & -mk
                nb.append(col[b.bit_length() - 1])
                mk ^= b
            nb.sort()
            sigs.append((col[v], tuple(nb)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        col = [ranks[s] for s in sigs]
        new_classes = len(set(col))
        if new_classes == classes:
            break
        classes = new_classes
    return col


def _masks_isomorphic(m1, c1, m2, c2, n):
    # backtracking vertex mapping guided by refinement colors
    order = sorted(range(n), key=lambda v: (c1.count(c1[v]), c1[v], v))
    used = [False] * n
    img = [0] * n

    def bt(i):
        if i == n:
            return True
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
                if bt(i + 1):
                    return True
                used[t] = False
        return False

    return bt(0)


@lru_cache(maxsize=None)
def _connected_mask_reps(n: int):
    # all connected graphs on n labeled-canonical vertices, one per
    # isomorphism class, grown by attaching a new vertex to every
    # nonempty neighbor subset of every (n-1)-vertex representative
    if n == 1:
        return ((0,),)
    reps = []
    buckets = {}
    for base in _connected_mask_reps(n - 1):
        for subset in range(1, 1 << (n - 1)):
            masks = [base[v] | (((subset >> v) & 1) << (n - 1)) for v in range(n - 1)]
            masks.append(subset)
            col = _wl_colors(masks, n)
            key = (sum(bin(mk).count("1") for mk in masks), tuple(sorted(col)))
            bucket = buckets.setdefault(key, [])
            if not any(
                _masks_isomorphic(masks, col, m2, c2, n) for m2, c2 in bucket
            ):
                bucket.append((masks, col))
                reps.append(tuple(masks))
    return tuple(reps)


def _graph_from_masks(masks) -> Graph:
    n = len(masks)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (masks[u] >> v) & 1
    ]
    return Graph(n, edges)


def enumerate_connected(n: int):
    """All connected graphs on n vertices up to isomorphism, 3 <= n <= 8.

    Deterministic order (canonical augmentation with isomorph rejection).
    """
    if not (3 <= n <= 8):
        raise FamilyError("enumeration supports 3 <= n <= 8")
    return [_graph_from_masks(masks) for masks in _connected_mask_reps(n)]


def graphs_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism test for small graphs (used by generator validation)."""
    if g.n != h.n or g.m != h.m:
        return False
    gm = [0] * g.n
    hm = [0] * h.n
    for u, v in g.edges:
        gm[u] |= 1 << v
        gm[v] |= 1 << u
    for u, v in h.edges:
        hm[u] |= 1 << v
        hm[v] |= 1 << u
    cg = _wl_colors(gm, g.n)
    ch = _wl_colors(hm, h.n)
    if sorted(cg) != sorted(ch):
        return False
    return _masks_isomorphic(gm, cg, hm, ch, g.n)
