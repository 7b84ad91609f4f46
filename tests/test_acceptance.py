"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Numeric tolerances are exact equalities / zero-failure counts; the
stated wall-clock budgets are asserted where a criterion carries one.
"""

from instance_pools import (
    bipk2_instances,
    cycle_block_instances,
    dominant_instances,
    msp_candidates,
    multipartite_instances,
    product_instances,
)
from vcew.constructors import (
    PreconditionError,
    bipartite_product_k2,
    cycle_block_weighting,
    dominant_vertex_weighting,
    msp_pattern_weighting,
    multipartite_weighting,
    product_weighting,
)
from vcew.verify import (
    verify_bipartite_products,
    verify_end_edges,
    verify_gpt,
    verify_mu_table,
    verify_multipartite,
    verify_no_single_edge_msp,
    verify_product_composition,
    verify_product_connectivity,
    verify_soundness,
    verify_theta,
    verify_vc1_product_equivalence,
)


def check_sweep(capfd, number, label, report, budget=None):
    ok = report.ok and report.instances > 0
    if budget is not None:
        ok = ok and report.seconds < budget
    with capfd.disabled():
        print(
            f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} "
            f"[{report.instances} instances, {len(report.failures)} failures, "
            f"{report.seconds:.1f}s]"
        )
    assert report.ok, f"criterion {number}: failures {report.failures[:5]}"
    assert report.instances > 0
    if budget is not None:
        assert report.seconds < budget, (
            f"criterion {number}: {report.seconds:.1f}s over the "
            f"{budget}s budget"
        )


def test_criterion_01_mu_table(capfd):
    check_sweep(capfd, 1, "fixed mu table", verify_mu_table(), budget=10)


def test_criterion_02_theta_classification(capfd):
    check_sweep(capfd, 2, "theta classification", verify_theta(), budget=300)


def test_criterion_03_gpt_classification(capfd):
    check_sweep(capfd, 3, "gpt classification", verify_gpt(), budget=600)


def test_criterion_04_bipartite_products(capfd):
    report = verify_bipartite_products(samples=100, seed=0)
    assert report.instances >= 100
    check_sweep(capfd, 4, "bipartite products", report)


def test_criterion_05_composition_bound(capfd):
    report = verify_product_composition()
    assert report.instances == 36
    check_sweep(capfd, 5, "composition bound", report)


def test_criterion_06_vc1_equivalence(capfd):
    report = verify_vc1_product_equivalence(max_vertices=5)
    check_sweep(capfd, 6, "vc1 product equivalence", report)


def test_criterion_07_connectivity_formula(capfd):
    report = verify_product_connectivity(max_vertices=36)
    check_sweep(capfd, 7, "product connectivity formula", report, budget=240)


def test_criterion_08_end_edge_trichotomy(capfd):
    report = verify_end_edges()
    assert report.instances == 13  # n = 4..16
    check_sweep(capfd, 8, "end-edge trichotomy", report)


def test_criterion_09_no_single_edge_msp(capfd):
    # claim verification, not regression: a failure here is a finding
    report = verify_no_single_edge_msp(max_vertices=8)
    check_sweep(capfd, 9, "no-single-edge-msp claim", report)


def test_criterion_10_constructor_certification(capfd):
    counts = {}
    failures = []

    def attempt(kind, name, fn):
        try:
            fn()
        except PreconditionError:
            return
        except Exception as exc:  # certification or claim failure
            failures.append((kind, name, str(exc)))
            return
        counts[kind] = counts.get(kind, 0) + 1

    for name, g, wg, h, wh in product_instances():
        attempt("product", name, lambda: product_weighting(g, wg, h, wh))
    for name, g in bipk2_instances():
        attempt("bipk2", name, lambda: bipartite_product_k2(g))
    for variant in ("A", "B"):
        for name, g in msp_candidates():
            attempt(
                f"msp-{variant}",
                name,
                lambda: msp_pattern_weighting(g, variant),
            )
    for name, g in cycle_block_instances():
        attempt("cycle-blocks", name, lambda: cycle_block_weighting(g))
    for r, n in multipartite_instances():
        attempt(
            "multipartite", f"{r},{n}", lambda: multipartite_weighting(r, n)
        )
    for name, g, v in dominant_instances():
        attempt("dominant", name, lambda: dominant_vertex_weighting(g, v))

    enough = all(counts.get(kind, 0) >= 20 for kind in (
        "product", "bipk2", "msp-A", "msp-B", "cycle-blocks",
        "multipartite", "dominant",
    ))
    ok = enough and not failures
    with capfd.disabled():
        detail = ", ".join(f"{k}:{v}" for k, v in sorted(counts.items()))
        print(
            f"criterion 10 (constructor certification): "
            f"{'PASS' if ok else 'FAIL'} [{detail}; "
            f"{len(failures)} failures]"
        )
    assert not failures, failures[:5]
    assert enough, counts


def test_criterion_11_rule_engine_soundness(capfd):
    report = verify_soundness(max_vertices=7)
    check_sweep(capfd, 11, "rule-engine soundness", report)


def test_criterion_12_multipartite(capfd):
    report = verify_multipartite()
    assert report.instances == 4
    check_sweep(capfd, 12, "multipartite construction", report)
