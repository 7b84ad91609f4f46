"""Reference computations the benchmark checks vcew against.

Nothing here imports vcew: graph builders follow the numbering rules
documented for the family specs and the cartesian product, and the
values come from brute force or from the paper's closed forms, so a
fault in the program cannot hide behind the same fault in its check.
A graph is a pair ``(n, edges)`` with each edge written smaller
endpoint first, in the program's edge-id order.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

# OEIS A001349: connected graphs on n unlabelled vertices.
CONNECTED_COUNTS = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


class CheckFailure(AssertionError):
    """An output of the program disagrees with its reference."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailure(message)


def _edge(u, v):
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# graph builders


def path_graph(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle_graph(n):
    return n, [_edge(i, (i + 1) % n) for i in range(n)]


def clique_graph(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


FAMILIES = {"path": path_graph, "cycle": cycle_graph, "clique": clique_graph}


def multipartite_graph(sizes):
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    n = len(part)
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]


def theta_graph(lengths):
    """Paths of the given lengths between roots 0 and 1; interior vertices
    are numbered path by path after the roots."""
    edges = []
    nxt = 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append(_edge(prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.append(_edge(prev, 1))
    return nxt, edges


def gpt_graph(t):
    """Generalized polygon tree ``gpt:a,b,c,d,e,f``, or None if the tuple
    gives no simple graph on at least three vertices.

    Hubs u=0, v=1, u'=2, v'=3; a and b join u-v, c and d join u'-v', e
    joins u-u', f joins v-v'.  A zero length merges its two hubs into
    the smaller one, surviving hubs are renumbered in ascending order,
    interior vertices follow path by path, and a second unit path
    between the same two hubs adds no edge.
    """
    paths = tuple(zip((0, 0, 2, 2, 0, 1), (1, 1, 3, 3, 2, 3), t))
    root = [0, 1, 2, 3]

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for x, y, length in paths:
        if length == 0:
            rx, ry = find(x), find(y)
            root[max(rx, ry)] = min(rx, ry)
    hubs = sorted({find(h) for h in range(4)})
    hub_id = {h: i for i, h in enumerate(hubs)}
    nxt = len(hubs)
    edges = []
    for x, y, length in paths:
        if length == 0:
            continue
        prev, last = hub_id[find(x)], hub_id[find(y)]
        if length == 1:
            if prev == last:
                return None
            if _edge(prev, last) not in edges:
                edges.append(_edge(prev, last))
            continue
        for _ in range(length - 1):
            edges.append(_edge(prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.append(_edge(prev, last))
    if nxt < 3 or len(set(edges)) != len(edges):
        return None
    return nxt, edges


def product_graph(g, h):
    """Cartesian product; vertex (u, v) is u * |H| + v, copies of G's edges
    (one per vertex of H) come first, then copies of H's."""
    (gn, ge), (hn, he) = g, h
    edges = [(a * hn + v, b * hn + v) for v in range(hn) for a, b in ge]
    edges += [(u * hn + a, u * hn + b) for u in range(gn) for a, b in he]
    return gn * hn, edges


def cactus_graph(blocks):
    """Cycles glued at single vertices.  ``blocks`` lists ``(length,
    parent, position)``; block 0 has no parent, and every later block
    shares the vertex at ``position`` of its parent's cycle."""
    edges, cycles, n = [], [], 0
    for length, parent, position in blocks:
        if parent is None:
            vs = list(range(n, n + length))
            n += length
        else:
            vs = [cycles[parent][position]] + list(range(n, n + length - 1))
            n += length - 1
        edges += [_edge(vs[i], vs[(i + 1) % length]) for i in range(length)]
        cycles.append(vs)
    return n, edges


def random_bipartite(rng: random.Random, n: int, m: int):
    """Connected bipartite graph: a random spanning tree across two
    random parts, then random extra cross edges up to m."""
    side = [0, 1] + [rng.randrange(2) for _ in range(n - 2)]
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    placed = [order[0]]
    for v in order[1:]:
        opposite = [u for u in placed if side[u] != side[v]]
        if not opposite:
            side[v] ^= 1
            opposite = [u for u in placed if side[u] != side[v]]
        edges.add(_edge(v, rng.choice(opposite)))
        placed.append(v)
    cross = sorted(
        (u, v) for u in range(n) for v in range(u + 1, n)
        if side[u] != side[v] and (u, v) not in edges
    )
    rng.shuffle(cross)
    edges.update(cross[: max(0, m - len(edges))])
    return n, sorted(edges)


# ---------------------------------------------------------------------------
# structural references


def adjacency(g):
    n, edges = g
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def degrees(g):
    return [len(a) for a in adjacency(g)]


def is_bipartite(g):
    adj = adjacency(g)
    side = [-1] * g[0]
    for s in range(g[0]):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if side[y] < 0:
                    side[y] = 1 - side[x]
                    queue.append(y)
                elif side[y] == side[x]:
                    return False
    return True


def _connected_without(adj, n, removed):
    rest = [v for v in range(n) if not (removed >> v) & 1]
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen and not (removed >> y) & 1:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(rest)


def kappa_brute(g):
    """Vertex connectivity as the size of a smallest vertex set whose
    removal disconnects the graph (n - 1 for a complete graph)."""
    n, edges = g
    adj = adjacency(g)
    if len(edges) == n * (n - 1) // 2:
        return n - 1
    for size in range(n - 1):
        for cut in itertools.combinations(range(n), size):
            if not _connected_without(adj, n, sum(1 << v for v in cut)):
                return size
    return n - 1


# ---------------------------------------------------------------------------
# weightings


def vertex_sums(g, weights):
    sums = [0] * g[0]
    for (u, v), w in zip(g[1], weights):
        sums[u] += w
        sums[v] += w
    return sums


def is_proper(g, weights):
    sums = vertex_sums(g, weights)
    return all(sums[u] != sums[v] for u, v in g[1])


def first_proper(g, k):
    """Lexicographically least proper k-weighting (by edge id, then
    weight) by plain enumeration, or None."""
    for weights in itertools.product(range(1, k + 1), repeat=len(g[1])):
        if is_proper(g, weights):
            return weights
    return None


def mu_family(family, n):
    """Thm 1.3: mu of the path, cycle and clique on n >= 3 vertices."""
    if family == "path":
        return 1 if n == 3 else 2
    if family == "cycle":
        return 2 if n % 4 == 0 else 3
    return 3


def mu_theta(lengths):
    """Thm 4.2: mu of the theta graph with at least three paths."""
    lengths = sorted(lengths)
    if all(length == 2 for length in lengths):
        return 1
    if lengths[0] == 1 and all(length % 4 == 1 for length in lengths[1:]):
        return 3
    return 2


def parse_weighting_text(text):
    """``(k, edges, weights)`` from the weighting format: a ``k m`` header
    and one ``u v w`` line per edge."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    expect(len(lines) >= 1 and len(lines[0]) == 2, f"bad weighting header in {text[:40]!r}")
    k, m = int(lines[0][0]), int(lines[0][1])
    rows = [tuple(int(x) for x in line) for line in lines[1:]]
    expect(len(rows) == m and all(len(r) == 3 for r in rows), "weighting rows do not match header")
    expect(all(1 <= r[2] <= k for r in rows), f"weight outside 1..{k}")
    return k, [(u, v) for u, v, _ in rows], [w for _, _, w in rows]
