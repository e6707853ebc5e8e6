"""Graph model, text format round-tripping, links, degree pruning, pattern kernel."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_closing_patterns, reference_common_mask
from zng.hypergraph import (
    GraphFormatError,
    RPartiteHypergraph,
    closing_patterns,
    common_mask,
    complete_graph,
    format_graph,
    parse_graph,
    read_graph,
    write_graph,
)

C6_EDGES = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]


def test_edges_are_stored_sorted_and_counted():
    g = RPartiteHypergraph((3, 3), reversed(C6_EDGES))
    assert g.r == 2
    assert g.edges == tuple(sorted(C6_EDGES))
    assert g.num_edges == 6


def test_constructor_validation():
    with pytest.raises(ValueError):
        RPartiteHypergraph((), [])
    with pytest.raises(ValueError):
        RPartiteHypergraph((2, -1), [])
    # empty parts are legal; they just admit no edges
    assert RPartiteHypergraph((2, 0), []).num_edges == 0
    with pytest.raises(ValueError):
        RPartiteHypergraph((2, 2), [(0, 0, 0)])  # arity
    with pytest.raises(ValueError):
        RPartiteHypergraph((2, 2), [(0, 2)])  # range
    with pytest.raises(ValueError):
        RPartiteHypergraph((2, 2), [(0, 0), (0, 0)])  # duplicate


def test_degrees_and_neighbor_masks():
    g = RPartiteHypergraph((3, 3), C6_EDGES)
    assert [g.degree(0, v) for v in range(3)] == [2, 2, 2]
    assert [g.degree(1, v) for v in range(3)] == [2, 2, 2]
    assert g.neighbor_mask((0,)) == 0b011  # neighbors 0 and 1
    assert g.neighbor_mask((1,)) == 0b110
    assert g.neighbor_mask((9,)) == 0


def test_neighbor_mask_three_parts():
    g = complete_graph((2, 2, 3))
    assert g.neighbor_mask((1, 0)) == 0b111
    assert g.degree(2, 0) == 4


def test_link_is_the_prefix_graph():
    g = complete_graph((2, 3, 2))
    link = g.link(1)
    assert link.part_sizes == (2, 3)
    assert link.num_edges == g.degree(2, 1) == 6
    with pytest.raises(ValueError):
        g.link(2)


def test_prune_low_degree_removes_every_cold_vertex():
    # last-part degrees: 0 -> 2, 1 -> 1, 2 -> 0
    g = RPartiteHypergraph((3, 3), [(0, 0), (1, 0), (2, 1)])
    pruned = g.prune_low_degree(2)
    assert pruned.removed_vertices == (1, 2)
    assert pruned.removed_edges == 1
    assert pruned.graph.part_sizes == (3, 3)  # sizes never shrink
    assert pruned.graph.edges == ((0, 0), (1, 0))


def test_prune_accepts_exact_fractional_thresholds():
    g = RPartiteHypergraph((3, 3), [(0, 0), (1, 0), (2, 1)])
    assert g.prune_low_degree(Fraction(3, 2)).removed_vertices == (1, 2)
    assert g.prune_low_degree(Fraction(1, 2)).removed_vertices == (2,)
    assert g.prune_low_degree(0).removed_vertices == ()


def test_complete_graph_has_all_transversals():
    g = complete_graph((2, 3, 2))
    assert g.num_edges == 12
    assert (1, 2, 1) in set(g.edges)


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------

def test_format_is_canonical_and_parses_back():
    g = RPartiteHypergraph((3, 3), C6_EDGES)
    text = format_graph(g)
    assert text.startswith("zng 2 3 3\n")
    assert text.endswith("\n")
    lines = text.strip().splitlines()
    assert lines[1:] == sorted(lines[1:])
    assert parse_graph(text) == g


def test_parse_accepts_comments_and_blank_lines():
    text = "# a comment\nzng 2 2 2\n\n0 0\n# another\n1 1\n"
    g = parse_graph(text)
    assert g.edges == ((0, 0), (1, 1))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("zng 2 2\n")  # header count mismatch
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("gnz 2 2 2\n")  # bad magic
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("zng 2 2 2\n0\n")  # arity
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph("zng 2 2 2\n0 0\n0 2\n")  # vertex out of range
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("zng 2 2 2\n0 x\n")  # non-integer
    with pytest.raises(GraphFormatError):
        parse_graph("")  # missing header


def test_parse_reports_duplicate_edge_with_first_line():
    text = "zng 2 2 2\n0 0\n1 1\n0 0\n"
    with pytest.raises(GraphFormatError, match="line 4") as err:
        parse_graph(text)
    assert "line 2" in str(err.value)  # names where the edge first appeared


def test_file_round_trip(tmp_path):
    g = complete_graph((2, 2, 2))
    path = tmp_path / "g.zng"
    write_graph(g, path)
    assert read_graph(path) == g


part_sizes_st = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


@settings(max_examples=150)
@given(part_sizes_st, st.data())
def test_random_graphs_round_trip_through_text(part_sizes, data):
    cells = list(itertools.product(*(range(m) for m in part_sizes)))
    edges = data.draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    g = RPartiteHypergraph(part_sizes, edges)
    again = parse_graph(format_graph(g))
    assert again == g
    assert format_graph(again) == format_graph(g)


@settings(max_examples=100)
@given(part_sizes_st)
def test_complete_graph_masks_are_full(part_sizes):
    g = complete_graph(part_sizes)
    full = (1 << part_sizes[-1]) - 1
    for prefix in itertools.product(*(range(m) for m in part_sizes[:-1])):
        assert g.neighbor_mask(prefix) == full


def test_degree_boundary_examples():
    empty = RPartiteHypergraph((2, 2, 2), [])
    for part, size in enumerate(empty.part_sizes):
        for v in range(size):
            assert empty.degree(part, v) == 0

    full = complete_graph((2, 2, 2))
    for part, size in enumerate(full.part_sizes):
        for v in range(size):
            assert full.degree(part, v) == 4  # 2*2 transversals through v


def test_link_boundary_examples():
    isolated = RPartiteHypergraph((2, 2, 2), [(0, 0, 0)])
    assert isolated.link(1).num_edges == 0

    full = complete_graph((2, 3, 2))
    for v in range(2):
        assert full.link(v) == complete_graph((2, 3))


def test_link_edge_counts_recount_degrees():
    import random

    from helpers import random_graph

    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng, (3, 4, 3), 0.4)
        assert sum(g.link(v).num_edges for v in range(3)) == g.num_edges
        for v in range(3):
            assert g.link(v).num_edges == g.degree(2, v)


def test_prune_threshold_boundaries():
    g = RPartiteHypergraph((3, 3), [(0, 0), (1, 0), (2, 1)])
    untouched = g.prune_low_degree(0)
    assert untouched.graph == g and untouched.removed_edges == 0

    cleared = g.prune_low_degree(3)  # above the max degree of 2
    assert cleared.graph.num_edges == 0
    assert cleared.removed_vertices == (0, 1, 2)


def test_prune_one_cold_vertex_among_three():
    # last-part degrees (1, 5, 5); threshold 2 drops exactly the first
    edges = [(0, 0)] + [(i, 1) for i in range(5)] + [(i, 2) for i in range(5)]
    pruned = RPartiteHypergraph((5, 3), edges).prune_low_degree(2)
    assert pruned.removed_vertices == (0,)
    assert pruned.removed_edges == 1
    assert pruned.graph.num_edges == 10


def test_parse_complete_three_part_graph_text():
    lines = ["zng 3 2 2 2"]
    lines += [f"{a} {b} {c}" for a in range(2) for b in range(2) for c in range(2)]
    assert parse_graph("\n".join(lines) + "\n") == complete_graph((2, 2, 2))


# ----------------------------------------------------------------------
# the pattern kernel
# ----------------------------------------------------------------------

@settings(max_examples=200)
@given(st.lists(st.integers(1, 5), min_size=0, max_size=3), st.data())
def test_closing_patterns_are_the_patterns_with_these_maxima(part_sizes, data):
    s_list = [data.draw(st.integers(1, m + 1), label=f"s{i}") for i, m in enumerate(part_sizes)]
    position = tuple(
        data.draw(st.integers(0, m - 1), label=f"p{i}") for i, m in enumerate(part_sizes)
    )
    assert list(closing_patterns(position, s_list)) == reference_closing_patterns(
        position, s_list, part_sizes
    )


@settings(max_examples=200)
@given(st.lists(st.integers(1, 4), min_size=0, max_size=3), st.integers(1, 6), st.data())
def test_common_mask_is_the_plain_and(part_sizes, width, data):
    cells = list(itertools.product(*(range(m) for m in part_sizes)))
    masks = {
        cell: data.draw(st.integers(0, (1 << width) - 1), label=str(cell))
        for cell in cells
        if data.draw(st.booleans(), label=f"has {cell}")
    }
    pattern = tuple(
        tuple(sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1), label=f"S{i}")))
        for i, m in enumerate(part_sizes)
    )
    common = data.draw(st.sampled_from([-1, (1 << width) - 1, 0b101]), label="common")
    assert common_mask(masks, pattern, common) == reference_common_mask(masks, pattern, common)
