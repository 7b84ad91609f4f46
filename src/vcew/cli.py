"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 search cap exceeded or no
weighting within the requested alphabet, 4 precondition violation,
5 verification failures.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .classifiers import _dominant_vertex
from .constructors import (
    ClaimFailure,
    PreconditionError,
    bipartite_product_k2,
    cycle_block_weighting,
    dominant_vertex_weighting,
    msp_pattern_weighting,
    multipartite_weighting,
    product_weighting,
)
from .families import FamilyError, make, split_product_spec
from .formats import FormatError, format_weighting, parse_edge_list
from .graph import (
    Graph,
    GraphError,
    blocks_and_cut_vertices,
    cartesian_product,
    maximal_simple_paths,
)
from .oracle import (
    DEFAULT_K_MAX,
    NotFoundWithinCap,
    SearchGuardError,
    _mu_witness,
    find_weighting,
)
from .verify import given_options, run_sweep, theorem_ids
from .weighting import is_proper

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_PRECONDITION = 4
EXIT_VERIFY = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def load_graph(source: str) -> Graph:
    """Resolve a graph source: an edge-list file path or a family spec."""
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                return parse_edge_list(fh.read())
        except (FormatError, OSError) as exc:
            raise CliError(EXIT_PARSE, f"cannot read graph from {source}: {exc}")
    try:
        return make(source)
    except FamilyError as exc:
        raise CliError(EXIT_PARSE, f"bad graph source {source!r}: {exc}")


def _oracle(source, g, *, k=None, kmax=DEFAULT_K_MAX, force=False):
    if k is None:
        return g, _mu_witness(g, k_max=kmax, force=force)
    w = find_weighting(g, k, force=force)
    if w is None:
        raise CliError(EXIT_CAP, f"no proper {k}-weighting exists")
    return g, w


def _product(source, g, *, force=False):
    try:
        factors = split_product_spec("".join(source.split()))
    except FamilyError as exc:
        raise CliError(EXIT_PARSE, f"bad product spec {source!r}: {exc}")
    if factors is None or os.path.exists(source):
        raise CliError(
            EXIT_PRECONDITION,
            "method 'product' needs a product(spec,spec) source",
        )
    # g is make(source), the product of the factors' graphs
    ga, gb = (make(f) for f in factors)
    wa = _mu_witness(ga, force=force)
    wb = _mu_witness(gb, force=force)
    return g, product_weighting(ga, wa, gb, wb)


def _bipk2(source, g):
    return cartesian_product(g, Graph(2, [(0, 1)])), bipartite_product_k2(g)


def _multipartite(source, g):
    # recover (r, n): in K_{n,...,n} every degree is n(r-1), so the
    # part size is n minus that common degree
    n_part = g.n - max(g.degrees) if g.degrees else 0
    if n_part < 2 or g.n % n_part:
        raise CliError(
            EXIT_PRECONDITION,
            "method 'multipartite' needs a balanced complete "
            "multipartite graph with parts of size >= 2",
        )
    r = g.n // n_part
    built, w = multipartite_weighting(r, n_part)
    if built.edges != g.edges or built.n != g.n:
        raise CliError(
            EXIT_PRECONDITION,
            "source graph is not the canonical balanced complete "
            f"multipartite graph on {r} parts of size {n_part}",
        )
    return g, w


def _dominant(source, g, *, vertex=None):
    if vertex is None:
        vertex = _dominant_vertex(g)
        if vertex is None:
            raise CliError(
                EXIT_PRECONDITION,
                "no dominant vertex with connected remainder found",
            )
    return g, dominant_vertex_weighting(g, vertex)


# each --method name and its builder; a builder's keyword-only parameters
# are the options it takes, and it returns (host graph, weighting)
_METHODS = {
    "oracle": _oracle,
    "product": _product,
    "bipk2": _bipk2,
    "msp-a": lambda source, g: (g, msp_pattern_weighting(g, "A")),
    "msp-b": lambda source, g: (g, msp_pattern_weighting(g, "B")),
    "cycle-blocks": lambda source, g: (g, cycle_block_weighting(g)),
    "multipartite": _multipartite,
    "dominant": _dominant,
}


def _construct(method: str, source: str, **options):
    """Build a weighting of ``source`` by ``method`` with the options that
    are not None, map its errors to exit codes and check it is proper."""
    builder = _METHODS[method]
    try:
        options = given_options(builder, f"method {method!r}", options)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc))
    g = load_graph(source)
    try:
        host, w = builder(source, g, **options)
    except NotFoundWithinCap as exc:
        kmax = options.get("kmax", DEFAULT_K_MAX)
        if kmax >= 3:
            raise CliError(
                EXIT_CAP,
                "POTENTIAL COUNTEREXAMPLE TO THE 1-2-3 THEOREM "
                f"(mu <= 3, Keusch 2024): {exc}",
            )
        raise CliError(EXIT_CAP, f"mu exceeds --kmax {kmax}: {exc}")
    except SearchGuardError as exc:
        raise CliError(EXIT_CAP, str(exc))
    except (PreconditionError, GraphError, FamilyError) as exc:
        raise CliError(EXIT_PRECONDITION, str(exc))
    except ClaimFailure as exc:
        raise CliError(EXIT_VERIFY, f"CONSTRUCTION FALSIFIED A CLAIM: {exc}")
    verdict = is_proper(host, w)
    if not verdict.proper:
        raise CliError(
            EXIT_VERIFY,
            f"constructed weighting is improper on edges {verdict.conflicts}",
        )
    return host, w


def _cmd_mu(args) -> int:
    g, w = _construct("oracle", args.source, kmax=args.kmax, force=args.force)
    print(f"mu={w.k}")
    sys.stdout.write(format_weighting(g, w))
    return EXIT_OK


def _cmd_weight(args) -> int:
    host, w = _construct(
        args.method, args.source, k=args.k, vertex=args.vertex, force=args.force
    )
    sys.stdout.write(format_weighting(host, w))
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        report = run_sweep(
            args.theorem,
            max_edges=args.max_edges,
            max_vertices=args.max_vertices,
            seed=args.seed,
            samples=args.samples,
        )
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc))
    except SearchGuardError as exc:
        raise CliError(EXIT_CAP, str(exc))
    print(f"theorem={report.theorem}")
    print(f"instances={report.instances}")
    print(f"passes={report.passes}")
    print(f"failures={len(report.failures)}")
    print(f"seconds={report.seconds:.3f}")
    for desc, expected, got in report.failures:
        print(f"failure={desc} expected={expected} got={got}")
    if not report.instances:
        raise CliError(
            EXIT_PRECONDITION, f"{report.theorem} checked no instances with these options"
        )
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_decompose(args) -> int:
    g = load_graph(args.source)
    try:
        if args.kind == "msp":
            decomp = maximal_simple_paths(g)
            print(f"paths={len(decomp.paths)}")
            for i, p in enumerate(decomp.paths):
                shape = "closed" if p.closed else "open"
                verts = ",".join(map(str, p.vertices))
                print(f"path {i}: length={p.length} {shape} vertices={verts}")
        else:
            decomp = blocks_and_cut_vertices(g)
            print(f"blocks={len(decomp.blocks)}")
            print(f"cut_vertices={','.join(map(str, decomp.cut_vertices)) or '-'}")
            for i, blk in enumerate(decomp.blocks):
                edges = " ".join(f"{g.edges[e][0]}-{g.edges[e][1]}" for e in blk)
                print(f"block {i}: {edges}")
    except GraphError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc))
    return EXIT_OK


def _positive_int(text: str) -> int:
    """The argparse type of ``--k``, ``--kmax`` and the sweep bounds
    ``--max-edges``, ``--max-vertices`` and ``--samples``: an integer
    >= 1."""
    try:
        value = int(text)
    except ValueError:
        # argparse would name this function where the user expects "int"
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcew",
        description="Vertex-coloring edge-weightings: exact mu, "
        "constructions and verification sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_mu = sub.add_parser("mu", help="exact mu and a canonical witness")
    p_mu.add_argument("source", help="edge-list file or family spec")
    p_mu.add_argument("--kmax", type=_positive_int, default=DEFAULT_K_MAX)
    p_mu.add_argument("--force", action="store_true", help="override size guards")
    p_mu.set_defaults(fn=_cmd_mu)

    p_w = sub.add_parser("weight", help="construct a weighting")
    p_w.add_argument("source", help="edge-list file or family spec")
    p_w.add_argument(
        "--method",
        required=True,
        choices=list(_METHODS),
    )
    p_w.add_argument(
        "--k", type=_positive_int, default=None, help="alphabet size (oracle)"
    )
    p_w.add_argument("--vertex", type=int, default=None, help="dominant vertex")
    p_w.add_argument(
        "--force",
        action="store_true",
        default=None,
        help="override size guards (oracle, product)",
    )
    p_w.set_defaults(fn=_cmd_weight)

    p_v = sub.add_parser("verify", help="run a theorem verification sweep")
    p_v.add_argument("--theorem", required=True, help=", ".join(theorem_ids()))
    p_v.add_argument("--max-edges", type=_positive_int, default=None)
    p_v.add_argument("--max-vertices", type=_positive_int, default=None)
    p_v.add_argument("--seed", type=int, default=None)
    p_v.add_argument("--samples", type=_positive_int, default=None)
    p_v.set_defaults(fn=_cmd_verify)

    p_d = sub.add_parser("decompose", help="print a decomposition")
    p_d.add_argument("source", help="edge-list file or family spec")
    p_d.add_argument("--kind", required=True, choices=["msp", "blocks"])
    p_d.set_defaults(fn=_cmd_decompose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
