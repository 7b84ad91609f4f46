"""Canonical text formats for graphs and weightings.

Edge-list format: optional ``#`` comment lines; first data line ``n m``;
then ``m`` lines ``u v`` with 0-based vertex ids in ascending edge-id
order.  Writers emit ``min(u, v)`` first.  A header with more than
``MAX_VERTICES`` vertices is rejected before anything is allocated for
them.

Weighting format: optional ``#`` comments; header line ``k m``; then one
line per edge in edge-id order, ``u v w`` with ``w`` in ``1..k``.
"""

from __future__ import annotations

from .graph import Graph, GraphError
from .weighting import EdgeWeighting

# Largest vertex count an edge-list header may declare.  ``Graph`` holds
# per-vertex lists, so the header alone would otherwise size memory:
# ``1000000 0`` peaks above 100 MiB in ``vcew decompose``.
MAX_VERTICES = 100_000

# Largest edge count a family spec may build (``families.make``): twice
# MAX_VERTICES, so paths and cycles at the vertex limit build.  ``Graph``
# keeps about 310 bytes per edge: ``product(path:400,path:250)`` (199,350
# edges) peaks at about 120 MiB in ``vcew decompose``.
MAX_EDGES = 200_000


class FormatError(ValueError):
    """Unparseable graph or weighting text."""


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_edge_list(text: str) -> Graph:
    lines = _data_lines(text)
    try:
        _, header = next(lines)
    except StopIteration:
        raise FormatError("empty graph input") from None
    fields = header.split()
    if len(fields) != 2:
        raise FormatError(f"expected header 'n m', got {header!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise FormatError(f"non-integer header {header!r}") from None
    if n > MAX_VERTICES:
        raise FormatError(
            f"header declares {n} vertices, above the limit of {MAX_VERTICES}"
        )
    edges = []
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer edge {line!r}") from None
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, found {len(edges)}")
    try:
        return Graph(n, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from None


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_weighting(text: str):
    """Parse a weighting file into ``(edges, EdgeWeighting)``.

    The edge list is implicit in the per-edge lines; callers validate it
    against their graph.
    """
    lines = _data_lines(text)
    try:
        _, header = next(lines)
    except StopIteration:
        raise FormatError("empty weighting input") from None
    fields = header.split()
    if len(fields) != 2:
        raise FormatError(f"expected header 'k m', got {header!r}")
    try:
        k, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise FormatError(f"non-integer header {header!r}") from None
    edges = []
    weights = []
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 'u v w', got {line!r}")
        try:
            u, v, w = (int(f) for f in fields)
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer entry {line!r}") from None
        if not (1 <= w <= k):
            raise FormatError(f"line {lineno}: weight {w} outside 1..{k}")
        edges.append((u, v))
        weights.append(w)
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, found {len(edges)}")
    return edges, EdgeWeighting(k=k, weights=tuple(weights))


def format_weighting(g: Graph, w: EdgeWeighting) -> str:
    if len(w.weights) != g.m:
        raise ValueError("weighting does not cover the graph's edge set")
    lines = [f"{w.k} {g.m}"]
    lines.extend(
        f"{u} {v} {w.weights[eid]}" for eid, (u, v) in enumerate(g.edges)
    )
    return "\n".join(lines) + "\n"
