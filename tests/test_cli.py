import subprocess
import sys

import pytest

from vcew import cli, constructors, families, graph
from vcew.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_VERIFY,
    main,
)
from vcew.formats import parse_weighting
from vcew.graph import Graph
from vcew.oracle import NotFoundWithinCap
from vcew.verify import run_sweep
from vcew.weighting import is_proper


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mu_command(capsys):
    code, out, _ = run(capsys, "mu", "cycle:5")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "mu=3"
    assert lines[1] == "3 5"  # witness header: k m
    assert len(lines) == 2 + 5


def test_mu_cap_exceeded(capsys):
    code, _, err = run(capsys, "mu", "theta:1,5,5", "--kmax", "2")
    assert code == EXIT_CAP
    assert "mu exceeds --kmax 2" in err
    assert "COUNTEREXAMPLE" not in err


def test_mu_beyond_three_is_a_counterexample(capsys, monkeypatch):
    # mu <= 3 is a theorem (Keusch 2024); only a search fault gets here
    def no_weighting(*args, **kwargs):
        raise NotFoundWithinCap("no proper weighting with k <= 5")

    monkeypatch.setattr(cli, "_mu_witness", no_weighting)
    code, _, err = run(capsys, "mu", "cycle:5")
    assert code == EXIT_CAP
    assert "POTENTIAL COUNTEREXAMPLE TO THE 1-2-3 THEOREM" in err


def test_mu_on_disconnected_graph_matches_oracle_method(capsys, tmp_path):
    # two disjoint paths: mu_exact takes the maximum over the components,
    # but the witness search needs a connected graph, and both commands
    # refuse the same way before printing anything
    path = tmp_path / "two_paths.edges"
    path.write_text("6 4\n0 1\n1 2\n3 4\n4 5\n", encoding="utf-8")
    code, out, err = run(capsys, "mu", str(path))
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert "connected" in err
    assert run(capsys, "weight", str(path), "--method", "oracle") == (code, out, err)


def test_mu_rejects_tiny_graph(capsys):
    code, _, err = run(capsys, "mu", "path:2")
    assert code == EXIT_PRECONDITION
    assert err


def test_weight_oracle_canonical(capsys):
    code, out, _ = run(capsys, "weight", "cycle:4", "--method", "oracle")
    assert code == EXIT_OK
    edges, w = parse_weighting(out)
    assert w.weights == (1, 1, 2, 2)


def test_weight_oracle_infeasible_k(capsys):
    code, _, err = run(
        capsys, "weight", "theta:1,5,5", "--method", "oracle", "--k", "2"
    )
    assert code == EXIT_CAP
    assert "no proper 2-weighting" in err


def test_weight_product(capsys):
    code, out, _ = run(
        capsys, "weight", "product(cycle:4,path:3)", "--method", "product"
    )
    assert code == EXIT_OK
    edges, w = parse_weighting(out)
    assert len(edges) == 4 * 3 + 2 * 4
    assert w.k == 2


def test_weight_product_malformed_spec(capsys, tmp_path, monkeypatch):
    for bad in ("product(path:3)", "product(path:3,path:4"):
        code, _, err = run(capsys, "weight", bad, "--method", "product")
        assert code == EXIT_PARSE, bad
    # a graph file whose name is a product spec without a top-level comma
    monkeypatch.chdir(tmp_path)
    (tmp_path / "product(path:3)").write_text("3 2\n0 1\n1 2\n", encoding="utf-8")
    code, _, err = run(capsys, "weight", "product(path:3)", "--method", "product")
    assert code == EXIT_PARSE
    assert "bad product spec" in err


def test_weight_product_builds_the_product_twice(capsys, monkeypatch):
    # once when the source is loaded and once when product_weighting
    # certifies its weighting; the builder reuses the loaded host
    calls = []

    def counted(g, h):
        calls.append((g.n, h.n))
        return graph.cartesian_product(g, h)

    for module in (families, cli, constructors):
        monkeypatch.setattr(module, "cartesian_product", counted)
    code, out, _ = run(
        capsys, "weight", "product(cycle:12,cycle:9)", "--method", "product"
    )
    assert code == EXIT_OK
    assert calls == [(12, 9), (12, 9)]
    edges, w = parse_weighting(out)
    assert is_proper(Graph(108, edges), w)


def test_weight_product_first_factor_with_several_arguments(capsys):
    code, out, _ = run(
        capsys, "weight", "product(kpart:2,2,path:3)", "--method", "product"
    )
    assert code == EXIT_OK
    edges, w = parse_weighting(out)
    assert is_proper(Graph(12, edges), w)


def test_weight_product_refuses_a_graph_file(capsys, tmp_path, monkeypatch):
    # a file whose name is a product spec holds its own graph, not the
    # product the name spells
    monkeypatch.chdir(tmp_path)
    (tmp_path / "product(path:3,path:3)").write_text(
        "4 3\n0 1\n1 2\n2 3\n", encoding="utf-8"
    )
    code, out, err = run(
        capsys, "weight", "product(path:3,path:3)", "--method", "product"
    )
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert "needs a product(spec,spec) source" in err


def test_weight_bipk2(capsys):
    code, out, _ = run(capsys, "weight", "cycle:6", "--method", "bipk2")
    assert code == EXIT_OK
    edges, w = parse_weighting(out)
    assert len(edges) == 6 + 6 + 6
    g = Graph(12, edges)
    assert is_proper(g, w)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["cycle:6", "--method", "bipk2", "--k", "3"], "--k"),
        (["cycle:6", "--method", "bipk2", "--force"], "--force"),
        (["cycle:6", "--method", "oracle", "--vertex", "0"], "--vertex"),
        (["kpart:2,3", "--method", "dominant", "--k", "2"], "--k"),
    ],
)
def test_weight_refuses_options_the_method_does_not_take(capsys, argv, flag):
    code, out, err = run(capsys, "weight", *argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert f"does not take {flag}" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["weight", "path:4", "--method", "oracle", "--k", "0"], "--k"),
        (["weight", "path:4", "--method", "oracle", "--k", "-2"], "--k"),
        (["mu", "path:4", "--kmax", "0"], "--kmax"),
        (["mu", "path:4", "--kmax", "-1"], "--kmax"),
    ],
)
def test_alphabet_sizes_below_one_are_parse_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (EXIT_PARSE, "")
    assert f"argument {flag}: must be a positive integer" in captured.err


@pytest.mark.parametrize(
    "source, vertex", [("kpart:2,2", "99"), ("theta:2,2,2", "-6"), ("theta:2,2,2", "-1")]
)
def test_weight_dominant_vertex_out_of_range(capsys, source, vertex):
    code, out, err = run(
        capsys, "weight", source, "--method", "dominant", "--vertex", vertex
    )
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert f"vertex {vertex} is not in 0.." in err


def test_weight_product_force_reaches_factor_searches(capsys):
    # C27 needs a k = 3 search on 27 edges, above the guard
    code, _, err = run(
        capsys, "weight", "product(cycle:27,path:3)", "--method", "product"
    )
    assert code == EXIT_CAP
    assert "force" in err
    code, out, _ = run(
        capsys, "weight", "product(cycle:27,path:3)", "--method", "product", "--force"
    )
    assert code == EXIT_OK
    edges, w = parse_weighting(out)
    assert w.k == 3
    assert is_proper(Graph(81, edges), w)


def test_weight_bipk2_precondition(capsys):
    code, _, err = run(capsys, "weight", "cycle:5", "--method", "bipk2")
    assert code == EXIT_PRECONDITION
    assert "bipartite" in err


def test_weight_cycle_blocks(capsys):
    code, out, _ = run(capsys, "weight", "cycle:8", "--method", "cycle-blocks")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "2 8"


def test_weight_cycle_blocks_shifted_phase(capsys, tmp_path):
    # two 4-cycles on adjacent vertices of a 6-cycle: mu = 2, and the
    # construction must find a proper 2-weighting, not report a failure
    path = tmp_path / "cactus.edges"
    path.write_text(
        "12 14\n0 1\n1 2\n2 3\n0 3\n0 4\n4 5\n5 6\n6 7\n7 8\n0 8\n"
        "4 9\n9 10\n10 11\n4 11\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "weight", str(path), "--method", "cycle-blocks")
    assert (code, err) == (EXIT_OK, "")
    edges, w = parse_weighting(out)
    assert w.k == 2
    assert is_proper(Graph(12, edges), w)


def test_weight_msp_variants(capsys):
    code, out, _ = run(capsys, "weight", "theta:2,2,2", "--method", "msp-a")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "weight", "theta:2,2,2", "--method", "msp-b")
    assert code == EXIT_OK
    code, _, err = run(capsys, "weight", "cycle:6", "--method", "msp-a")
    assert code == EXIT_PRECONDITION


def test_weight_multipartite(capsys):
    code, out, _ = run(capsys, "weight", "kpart:3,3,3", "--method", "multipartite")
    assert code == EXIT_OK
    code, _, err = run(capsys, "weight", "kpart:2,3", "--method", "multipartite")
    assert code == EXIT_PRECONDITION


def test_weight_dominant_autodetect(capsys):
    code, out, _ = run(capsys, "weight", "kpart:2,3", "--method", "dominant")
    assert code == EXIT_OK
    edges, w = parse_weighting(out)
    assert is_proper(Graph(5, edges), w)


def test_verify_green(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "thm-1.3")
    assert code == EXIT_OK
    lines = dict(
        line.split("=", 1) for line in out.splitlines() if "=" in line
    )
    assert lines["theorem"] == "thm-1.3"
    assert lines["failures"] == "0"
    assert int(lines["instances"]) == int(lines["passes"]) > 0
    assert float(lines["seconds"]) >= 0


def test_verify_with_narrowed_sweep(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "thm-4.2", "--max-edges", "9"
    )
    assert code == EXIT_OK
    assert "failures=0" in out


def test_verify_lemma_23_narrowed_to_small_products():
    # 3 x 3 products only: the sweep must not enumerate larger pools
    report = run_sweep("lemma-2.3", max_vertices=9)
    assert report.ok
    assert report.instances == 3


def test_verify_refuses_options_the_sweep_does_not_take(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "thm-1.3", "--max-vertices", "9")
    assert (code, out) == (EXIT_PARSE, "")
    assert "--max-vertices" in err
    code, _, err = run(capsys, "verify", "--theorem", "thm-4.2", "--seed", "4")
    assert code == EXIT_PARSE
    assert "--seed" in err and "--max-edges" in err


@pytest.mark.parametrize(
    "theorem, option, value",
    [
        ("thm-2.4", "--samples", "-3"),
        ("thm-2.4", "--samples", "0"),
        ("soundness", "--max-vertices", "0"),
        ("lemma-2.3", "--max-vertices", "-36"),
        ("thm-4.2", "--max-edges", "0"),
    ],
)
def test_verify_bounds_below_one_are_parse_errors(capsys, theorem, option, value):
    # before, each ran an empty sweep and exited 0 with instances=0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", theorem, option, value])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (EXIT_PARSE, "")
    assert f"argument {option}: must be a positive integer, got {value}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("lemma-2.3", "--max-vertices", "8"),  # below the 3 x 3 products
        ("thm-4.2", "--max-edges", "4"),  # below the smallest theta graph
        ("soundness", "--max-vertices", "2"),
    ],
)
def test_verify_sweep_that_checks_nothing_exits_precondition(capsys, argv):
    code, out, err = run(capsys, "verify", "--theorem", *argv)
    assert code == EXIT_PRECONDITION
    assert "instances=0" in out.splitlines()
    assert f"{argv[0]} checked no instances" in err


def test_verify_guard_error_exits_cap(capsys):
    # theta:1,5,21 has mu = 3, and its k = 3 search on 27 edges is above
    # the guard of 26 edges
    code, out, err = run(capsys, "verify", "--theorem", "thm-4.2", "--max-edges", "27")
    assert (code, out) == (EXIT_CAP, "")
    assert "exceeds the guard" in err


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "thm-9.9")
    assert code == EXIT_PARSE
    assert "unknown theorem" in err


def test_decompose_msp(capsys):
    code, out, _ = run(capsys, "decompose", "theta:2,3,4", "--kind", "msp")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "paths=3"
    assert all(line.startswith("path ") for line in lines[1:])


def test_decompose_blocks_from_file(capsys, tmp_path):
    # two triangles sharing vertex 2
    path = tmp_path / "g.edges"
    path.write_text(
        "# two triangles\n5 6\n0 1\n1 2\n0 2\n2 3\n3 4\n2 4\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "decompose", str(path), "--kind", "blocks")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "blocks=2"
    assert lines[1] == "cut_vertices=2"


def test_file_roundtrip_mu(capsys, tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n", encoding="utf-8")
    code, out, _ = run(capsys, "mu", str(path))
    assert code == EXIT_OK
    assert out.splitlines()[0] == "mu=2"


def test_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("3 1\n0 zero\n", encoding="utf-8")
    code, _, err = run(capsys, "mu", str(path))
    assert code == EXIT_PARSE


def test_edge_list_vertex_count_guard(capsys, tmp_path):
    # rejected from the header alone, before a per-vertex list is built
    path = tmp_path / "huge.edges"
    path.write_text("1000000000 0\n", encoding="utf-8")
    code, _, err = run(capsys, "decompose", str(path), "--kind", "blocks")
    assert code == EXIT_PARSE
    assert "above the limit" in err


@pytest.mark.parametrize("spec", ["path:1000000000", "clique:100000", "hypercube:40"])
def test_family_spec_size_guard(capsys, spec):
    # rejected from the spec's parameters alone, before any graph is built
    code, _, err = run(capsys, "decompose", spec, "--kind", "blocks")
    assert code == EXIT_PARSE
    assert "builds more than" in err


def test_bad_family_spec(capsys):
    code, _, err = run(capsys, "mu", "moebius:7")
    assert code == EXIT_PARSE
    assert "bad graph source" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vcew.cli", "mu", "path:3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines()[0] == "mu=1"


def test_parser_reuse_leaks_no_state(capsys):
    # each command prints in one process, after the others, what it
    # prints when it is the first command of a fresh process
    commands = [
        ["weight", "theta:2,2,2", "--method", "dominant", "--vertex", "0"],
        ["weight", "theta:2,2,2", "--method", "dominant"],
        ["mu", "theta:2,2,2"],
        ["verify", "--theorem", "thm-1.3"],
    ]

    def stable(out):
        return [line for line in out.splitlines() if not line.startswith("seconds=")]

    for argv in commands:
        fresh = subprocess.run(
            [sys.executable, "-m", "vcew.cli", *argv], capture_output=True, text=True
        )
        code, out, err = run(capsys, *argv)
        assert (code, stable(out), err) == (
            fresh.returncode,
            stable(fresh.stdout),
            fresh.stderr,
        ), argv
