from __future__ import annotations

import pytest

from rdom.enumeration import enumerate_graphs
from rdom.graph6 import Graph6Error, iter_graph6, parse_graph6, write_graph6
from rdom.iso import are_isomorphic
from named_graphs import complete_graph, cycle_graph, path_graph
from oracles import encode_graph6_oracle


def test_k4_example():
    g = parse_graph6("C~")
    assert g.n == 4 and g.edge_count() == 6
    assert are_isomorphic(g, complete_graph(4))


def test_c5_cycle_order_encodes_to_dhc():
    assert write_graph6(cycle_graph(5)) == "Dhc"
    assert parse_graph6("Dhc").adj == cycle_graph(5).adj


def test_header_accepted():
    assert parse_graph6(">>graph6<<C~").edge_count() == 6


def test_bytes_input():
    assert parse_graph6(b"C~").n == 4


def test_roundtrip_on_enumerated_corpus():
    for n in range(3, 9):
        for g in enumerate_graphs(n, "special-subcubic"):
            s = write_graph6(g)
            assert parse_graph6(s).adj == g.adj
            assert write_graph6(parse_graph6(s)) == s


def test_matches_independent_encoder():
    for g in [cycle_graph(5), complete_graph(4), path_graph(7), cycle_graph(9)]:
        assert write_graph6(g) == encode_graph6_oracle(g)
    for n in (4, 6, 8):
        for g in enumerate_graphs(n, "cubic"):
            assert write_graph6(g) == encode_graph6_oracle(g)


def test_long_form_orders():
    for n in (63, 64):
        g = path_graph(n)
        s = write_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s).adj == g.adj


def test_empty_and_tiny():
    from rdom.graph import Graph

    assert write_graph6(Graph(0, [])) == "?"
    assert parse_graph6("?").n == 0
    assert parse_graph6("@").n == 1


@pytest.mark.parametrize("bad,message", [
    ("", "empty"),
    ("C", "payload"),
    ("C~~", "payload"),
    ("~~", "long-form"),
    ("\x05~", "range"),
    ("Dh", "payload"),
])
def test_malformed_inputs(bad, message):
    with pytest.raises(Graph6Error, match=message):
        parse_graph6(bad)


def test_nonzero_padding_rejected():
    # C5 needs 10 data bits of 12; flipping a padding bit must fail
    good = "Dhc"
    bad = good[:-1] + chr(ord(good[-1]) + 1)  # sets the low (padding) bit
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6(bad)


def test_order_cap_rejected():
    # long form declaring n = 65
    s = "~" + chr(63) + chr(64) + chr(63 + 1)
    with pytest.raises(Graph6Error, match="cap"):
        parse_graph6(s)


def test_iter_graph6_reports_line_numbers():
    rows = list(iter_graph6(["C~\n", "\n", "notgraph6###\n", "Dhc\n"]))
    assert rows[0][0] == 1 and rows[0][1].n == 4
    assert rows[1][0] == 3 and rows[1][1] is None and "range" in rows[1][2]
    assert rows[2][0] == 4 and rows[2][1].n == 5
