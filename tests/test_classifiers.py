import hashlib

import pytest

from vcew.classifiers import (
    BoundCertificate,
    mu_gpt,
    mu_path_cycle_clique,
    mu_theta,
    mu_upper_bound,
)
from vcew.families import (
    FamilyError,
    GptParams,
    clique_graph,
    complete_multipartite,
    cycle_graph,
    enumerate_connected,
    hypercube_graph,
    path_graph,
    theta_graph,
)
from vcew.graph import Graph, GraphError
from vcew.oracle import mu_exact


def test_mu_path_cycle_clique_table():
    assert mu_path_cycle_clique("path", 3) == 1
    assert mu_path_cycle_clique("path", 4) == 2
    assert mu_path_cycle_clique("cycle", 4) == 2
    assert mu_path_cycle_clique("cycle", 5) == 3
    assert mu_path_cycle_clique("cycle", 8) == 2
    assert mu_path_cycle_clique("clique", 3) == 3
    assert mu_path_cycle_clique("clique", 6) == 3


def test_mu_path_cycle_clique_validation():
    with pytest.raises(ValueError):
        mu_path_cycle_clique("path", 2)
    with pytest.raises(ValueError):
        mu_path_cycle_clique("wheel", 5)


def test_mu_theta_values():
    assert mu_theta([2, 2, 2]) == 1
    assert mu_theta([2, 2, 2, 2]) == 1
    assert mu_theta([1, 5, 5]) == 3
    assert mu_theta([5, 5, 1]) == 3  # order-insensitive
    assert mu_theta([1, 5, 9, 13]) == 3
    assert mu_theta([2, 2, 3]) == 2
    assert mu_theta([1, 5, 6]) == 2


def test_mu_theta_validation():
    with pytest.raises(ValueError):
        mu_theta([2, 2])  # needs three paths
    with pytest.raises(ValueError):
        mu_theta([0, 2, 2])
    with pytest.raises(ValueError):
        mu_theta([1, 1, 2])  # two unit paths form a parallel edge


def test_mu_gpt_values():
    assert mu_gpt(GptParams(2, 2, 2, 2, 2, 2)) == 1
    assert mu_gpt(GptParams(2, 2, 2, 2, 4, 4)) == 2
    assert mu_gpt(GptParams(2, 2, 0, 0, 1, 1)) == 1


def test_mu_gpt_degenerate_shapes():
    # all side paths empty: the two cross paths close into a cycle
    assert mu_gpt(GptParams(0, 0, 0, 0, 3, 3)) == 3
    assert mu_gpt(GptParams(0, 0, 0, 0, 4, 4)) == 2
    # parallel unit paths merge, leaving a plain 6-cycle
    assert mu_gpt(GptParams(1, 1, 1, 1, 1, 3)) == 3
    # theta-shaped degenerations use the theta formula
    assert mu_gpt(GptParams(0, 0, 5, 5, 1, 0)) == 3
    assert mu_gpt(GptParams(2, 2, 2, 2, 0, 0)) == 1


def test_mu_gpt_rejects_non_bipartite():
    with pytest.raises(FamilyError):
        mu_gpt(GptParams(1, 2, 2, 2, 2, 2))  # odd 3-cycle through a and b


def test_mu_gpt_matches_oracle_spot_checks():
    for t in [(2, 2, 2, 2, 2, 2), (2, 2, 2, 2, 4, 4), (0, 0, 0, 0, 3, 3)]:
        p = GptParams(*t)
        from vcew.families import gpt_graph

        assert mu_gpt(p) == mu_exact(gpt_graph(p))


def test_bound_certificate_fields():
    cert = mu_upper_bound(path_graph(3))
    assert isinstance(cert, BoundCertificate)
    assert cert.bound == 1
    assert cert.rule == "vc1"
    assert cert.witness_details


def test_rule_engine_order():
    assert mu_upper_bound(theta_graph([2, 2, 2])).rule == "vc1"
    leaf = mu_upper_bound(path_graph(4))
    assert (leaf.bound, leaf.rule) == (2, "bipartite-min-degree-one")
    even = mu_upper_bound(hypercube_graph(3))
    assert (even.bound, even.rule) == (2, "bipartite-even-part")
    k33 = mu_upper_bound(complete_multipartite([3, 3]))
    assert (k33.bound, k33.rule) == (2, "bipartite-3-connected")
    # non-bipartite theta with all path lengths >= 2
    msp = mu_upper_bound(theta_graph([2, 2, 3]))
    assert (msp.bound, msp.rule) == (2, "no-single-edge-msp")
    # every remaining connected graph: mu <= 3 (Keusch 2024)
    for g in (cycle_graph(5), clique_graph(4), clique_graph(7)):
        cert = mu_upper_bound(g)
        assert (cert.bound, cert.rule) == (3, "keusch-2024")


def test_rule_engine_bad_cycles_skip_msp_rule():
    # C6 is bipartite with even parts, but a non-4-divisible cycle must
    # not reach the pattern rule; strip bipartiteness with C7
    cert = mu_upper_bound(cycle_graph(7))
    assert cert.rule == "keusch-2024"
    assert cert.bound == 3 == mu_exact(cycle_graph(7))


def test_rule_engine_validation():
    with pytest.raises(GraphError):
        mu_upper_bound(Graph(2, [(0, 1)]))
    with pytest.raises(GraphError):
        mu_upper_bound(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))


def test_bounds_never_undercut_oracle_spot_checks():
    for g in (path_graph(6), cycle_graph(6), clique_graph(5),
              theta_graph([1, 5, 5]), hypercube_graph(3)):
        cert = mu_upper_bound(g)
        if g.m <= 26:
            assert cert.bound >= mu_exact(g)


# SHA-256 of repr([(bound, rule, witness_details), ...]) of mu_upper_bound
# over the 12,111 graphs of enumerate_connected(3..8), in enumeration
# order; it pins which vertex each isolated-degree rule names
RULE_ENGINE_SHA256 = "331ee65e52cd7e3623b8560c6434ad92892262fdd1995e9697937c7d0b438078"


def test_rule_engine_outputs_are_pinned():
    certs = [
        (cert.bound, cert.rule, cert.witness_details)
        for n in range(3, 9)
        for cert in map(mu_upper_bound, enumerate_connected(n))
    ]
    assert len(certs) == 12111
    assert hashlib.sha256(repr(certs).encode()).hexdigest() == RULE_ENGINE_SHA256
