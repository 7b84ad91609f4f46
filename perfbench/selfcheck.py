"""Show that every correctness check of the benchmark can fail.

Usage, from the root of a source checkout::

    python3 perfbench/selfcheck.py

Each case runs a check on real program output, which must pass, and
then on a copy with one planted fault, which the named check must
reject.  Exits 0 when every fault is rejected.
"""

import sys

import run


def rejects(check, fragment):
    """The check's message for the fault, or None if it passed or failed
    for a different reason."""
    from reference import CheckFailure

    try:
        check()
    except CheckFailure as exc:
        return str(exc) if fragment in str(exc) else None
    return None


def flipped_weight(text, g):
    """``text`` with one weight changed so that some edge conflicts."""
    import reference as ref

    header, *rows = text.splitlines()
    k = int(header.split()[0])
    for i, row in enumerate(rows):
        u, v, w = row.split()
        for w2 in range(1, k + 1):
            weights = [int(r.split()[2]) for r in rows]
            weights[i] = w2
            if not ref.is_proper(g, weights):
                rows[i] = f"{u} {v} {w2}"
                return "\n".join([header] + rows) + "\n"
    raise RuntimeError("no single flip makes the weighting improper")


def main() -> int:
    if not run.import_vcew():
        return 2
    import reference as ref
    import workloads as wl
    from vcew import families, graph

    lengths = (2, 3, 4)
    theta = (["mu", "theta:2,3,4"], "theta", ref.theta_graph(lengths), lengths)
    text = wl.run_cli(theta)
    mu_line, _, weighting_text = text.partition("\n")
    header, body = weighting_text.split("\n", 1)
    k, m = map(int, header.split())
    wrong_mu = f"mu={k + 1}\n{k + 1} {m}\n{body}"

    pools = {n: families.enumerate_connected(n) for n in (3, 4, 5)}
    sample = [(3, 0, 4, 2), (3, 1, 5, 7), (4, 5, 5, 20), (5, 3, 5, 9)]
    factors = {
        (n, i): (wl.as_pair(g), graph.vertex_connectivity(g))
        for n, pool in pools.items()
        for i, g in enumerate(pool)
    }
    results = [wl.product_kappa(pools, pair) for pair in sample]
    off_by_one = results[:1] + [(results[1][0], results[1][1] + 1)] + results[2:]

    graphs = [wl.as_pair(g) for n in range(3, 8) for g in families.enumerate_connected(n)]
    duplicated = list(graphs)
    duplicated[-1] = duplicated[-2]

    cases = [
        ("weight flipped onto a conflicting edge", "not proper",
         lambda t: wl.check_witnesses([theta], [t], []), text, mu_line + "\n" + flipped_weight(weighting_text, theta[2])),
        ("kappa off by one", "formula gives",
         lambda r: wl.check_connectivity(sample, factors, r, [0, 1]), results, off_by_one),
        ("duplicated enumerated graph", "matches no atlas graph",
         wl.check_enumeration, graphs, duplicated),
        ("wrong theta mu", "Thm 4.2",
         lambda t: wl.check_witnesses([theta], [t], []), text, wrong_mu),
    ]
    ok = True
    for name, fragment, check, good, bad in cases:
        check(good)  # raises if the unmodified output is rejected
        message = rejects(lambda: check(bad), fragment)
        ok &= message is not None
        print(f"{'rejected' if message else 'NOT REJECTED'}: {name}: {message}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
