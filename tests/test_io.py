import pytest

from vcew.families import cycle_graph, theta_graph
from vcew.formats import (
    MAX_VERTICES,
    FormatError,
    format_edge_list,
    format_weighting,
    parse_edge_list,
    parse_weighting,
)
from vcew.oracle import find_weighting


def test_edge_list_round_trip():
    g = theta_graph([2, 3, 4])
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_and_layout():
    text = "# a comment\n4 2\n\n1 0\n# another\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4
    assert g.edges == ((0, 1), (2, 3))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0 1\n",
        "3 2\n0 1\n",
        "3 1\n0 x\n",
        "3 1\n0 1 2\n",
        "2 1\n0 0\n",
    ],
)
def test_edge_list_parse_errors(text):
    with pytest.raises(FormatError):
        parse_edge_list(text)


def test_edge_list_vertex_limit():
    assert parse_edge_list(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
    with pytest.raises(FormatError, match="above the limit"):
        parse_edge_list(f"{MAX_VERTICES + 1} 0\n")


def test_weighting_round_trip():
    g = cycle_graph(8)
    w = find_weighting(g, 2)
    edges, parsed = parse_weighting(format_weighting(g, w))
    assert tuple(edges) == g.edges
    assert parsed == w


def test_weighting_range_check():
    with pytest.raises(FormatError):
        parse_weighting("2 1\n0 1 3\n")
