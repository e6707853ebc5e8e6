"""Exact search versus raw exhaustion, witnesses, and the ledger."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    check_trusted_table,
    edge_graph,
    exhaustive_z,
    naive_count,
    reference_search,
    small_shapes,
)
from zng import hypergraph
from zng.count import count_ordered
from zng.errors import BudgetError
from zng.hypergraph import shape
from zng.oracle import _search, append_ledger, exact_z


def test_query_validation():
    """shape() checks the sides; exact_z refuses a shape with no part or a part below 1."""
    with pytest.raises(ValueError, match="^1 side sizes for a 2-part graph, which takes 2$"):
        shape((2, 2), (2,))
    with pytest.raises(ValueError, match="^side sizes must be >= 1$"):
        shape((2, 2), (2, 0))
    assert shape([2, 0], [2, 2]) == ((2, 0), (2, 2))  # a graph may have an empty part
    for m_list in ((), (2, 0), (0, 2)):
        with pytest.raises(ValueError) as refused:
            exact_z(shape(m_list, (2,) * len(m_list)))
        assert str(refused.value) == f"part sizes must be >= 1, got {m_list}"
    assert shape((2, 2), (2, 2)).label() == "z(2,2;2,2)"


def test_ground_truth_values_via_both_routes():
    for m_list, s_list, expected in [
        ((2, 2), (2, 2), 3),
        ((3, 3), (2, 2), 6),
        ((2, 2, 2), (1, 1, 2), 4),
    ]:
        query = shape(m_list, s_list)
        raw = exhaustive_z(query)
        searched = exact_z(query)
        assert raw.z == expected
        assert searched.z == expected
        assert raw.witness.num_edges == expected
        assert searched.witness.num_edges == expected


def test_z44_by_search_matches_exhaustion():
    query = shape((4, 4), (2, 2))
    searched = exact_z(query)
    raw = exhaustive_z(query)
    assert searched.z == raw.z == 9
    assert searched.nodes < raw.nodes  # pruning must actually prune


def test_witnesses_are_pattern_free_and_optimal():
    for m_list, s_list in [((2, 2), (2, 2)), ((3, 3), (2, 2)), ((2, 2, 2), (1, 1, 2))]:
        query = shape(m_list, s_list)
        result = exact_z(query)
        assert count_ordered(result.witness, s_list) == 0
        # no pattern-free graph with one more edge exists
        cells = list(itertools.product(*(range(m) for m in m_list)))
        for extra in itertools.combinations(cells, result.z + 1):
            g = edge_graph(m_list, extra)
            assert naive_count(g, s_list) > 0


def test_witness_is_the_lexicographically_least_optimum():
    query = shape((3, 3), (2, 2))
    result = exact_z(query)
    cells = list(itertools.product(range(3), range(3)))
    optima = [
        edges
        for edges in itertools.combinations(cells, result.z)
        if naive_count(edge_graph((3, 3), edges), (2, 2)) == 0
    ]
    assert result.witness.edges == min(optima)


def test_search_determinism():
    query = shape((3, 4), (2, 2))
    a = exact_z(query)
    b = exact_z(query)
    assert a.z == b.z and a.witness == b.witness and a.nodes == b.nodes


def test_monotonicity_in_parts_and_pattern():
    base = exact_z(shape((3, 3), (2, 2))).z
    assert exact_z(shape((4, 3), (2, 2))).z >= base
    assert exact_z(shape((3, 4), (2, 2))).z >= base
    assert exact_z(shape((3, 3), (3, 2))).z >= base
    assert exact_z(shape((3, 3), (2, 3))).z >= base


def test_trivial_ceiling_iff_pattern_cannot_fit():
    # equality with the all-edges graph exactly when some s_i > m_i
    full = exact_z(shape((2, 3), (3, 2)))
    assert full.z == 6
    assert full.witness.num_edges == 6
    clipped = exact_z(shape((2, 3), (2, 2)))
    assert clipped.z < 6
    assert exact_z(shape((2, 2), (1, 1))).z == 0  # a single edge is forbidden


def test_single_part_queries():
    # with one part, edges are vertices and the pattern is s chosen vertices
    assert exact_z(shape((5,), (3,))).z == 2
    assert exhaustive_z(shape((5,), (3,))).z == 2


def test_degree_cap_closed_form():
    # forbidding K_{1,s2} caps each left degree at s2 - 1
    for m1, m2, s2 in [(2, 3, 2), (3, 2, 3), (2, 4, 3)]:
        expected = m1 * min(s2 - 1, m2)
        assert exact_z(shape((m1, m2), (1, s2))).z == expected


def test_swap_symmetry_bipartite():
    for m1, m2, s1, s2 in [(2, 3, 2, 2), (3, 2, 1, 2), (3, 3, 2, 3), (2, 4, 2, 3)]:
        a = exact_z(shape((m1, m2), (s1, s2))).z
        b = exact_z(shape((m2, m1), (s2, s1))).z
        assert a == b


def test_edge_caps_reject_large_queries():
    with pytest.raises(BudgetError):
        exhaustive_z(shape((8, 4), (2, 2)))  # 32 > 30
    with pytest.raises(BudgetError):
        exact_z(shape((8, 5), (2, 2)))  # 40 > 36
    exact_z(shape((8, 4), (2, 2)), edge_cap=32)
    with pytest.raises(BudgetError, match="patterns exceed"):
        exhaustive_z(shape((25,), (12,)))  # C(25, 12) pattern bitmasks


def test_edge_caps_name_counts_too_long_to_print():
    # 10^8000 potential edges, which str() refuses; no edge is listed first
    query = shape((10**4000, 10**4000), (1, 1))
    for oracle in (exhaustive_z, exact_z):
        with pytest.raises(BudgetError, match=r"^at least 2\^26575 potential edges exceed"):
            oracle(query)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.data(),
)
def test_search_equals_exhaustion_on_random_small_queries(m_list, data):
    m_list = tuple(m_list)
    s_list = tuple(
        data.draw(st.integers(1, m + 1), label=f"s{i}") for i, m in enumerate(m_list)
    )
    if math.prod(m_list) > 12:
        return
    query = shape(m_list, s_list)
    assert exact_z(query).z == exhaustive_z(query).z


def _search_matches_exhaustion_on_every_shape(max_edges: int) -> int:
    """exact_z against exhaustive_z on every r <= 3 shape with s_i <= m_i."""
    shapes = 0
    for m_list, s_list in small_shapes(max_edges):
        query = shape(m_list, s_list)
        searched, exhausted = exact_z(query), exhaustive_z(query)
        assert searched.z == exhausted.z, query.label()
        for witness in (searched.witness, exhausted.witness):
            check_trusted_table(witness)
            assert witness.num_edges == searched.z
            assert naive_count(witness, s_list) == 0, query.label()
        shapes += 1
    return shapes


def test_search_equals_exhaustion_on_every_shape_up_to_10_edges():
    assert _search_matches_exhaustion_on_every_shape(10) == 579


@pytest.mark.slow
def test_search_equals_exhaustion_on_every_shape_up_to_12_edges():
    assert _search_matches_exhaustion_on_every_shape(12) == 945


@pytest.mark.slow
def test_search_equals_exhaustion_on_every_shape_up_to_16_edges():
    assert _search_matches_exhaustion_on_every_shape(16) == 1765


# four-part shapes, with s_r = 1 and with a side of one among them
FOUR_PART_SHAPES = [
    ((2, 2, 2, 2), (2, 2, 2, 2)),
    ((2, 2, 2, 2), (1, 2, 2, 2)),
    ((2, 2, 2, 2), (2, 2, 2, 1)),
    ((3, 2, 2, 2), (2, 2, 1, 2)),
    ((3, 2, 2, 2), (2, 2, 2, 2)),
    ((2, 2, 2, 3), (2, 2, 2, 2)),
    ((2, 2, 2, 2), (1, 1, 1, 1)),
]


def _search_matches_reference(min_edges: int, max_edges: int) -> int:
    """_search against reference_search on every small shape in the edge range."""
    shapes = 0
    for m_list, s_list in small_shapes(max_edges):
        if math.prod(m_list) >= min_edges:
            query = shape(m_list, s_list)
            assert _search(query) == reference_search(query), query.label()
            shapes += 1
    return shapes


def test_search_equals_reference_search_on_11_to_12_edges():
    assert _search_matches_reference(11, 12) == 366


def test_search_equals_reference_search_on_four_parts():
    for m_list, s_list in FOUR_PART_SHAPES:
        query = shape(m_list, s_list)
        assert _search(query) == reference_search(query), query.label()


# r = 3 shapes whose checks split into a near part (ranks in the prefix's own
# first-part block) of two or more ranks (s_2 = 3) or a far part over two or
# more earlier blocks (s_1 = 3); the shapes up to 12 edges have neither
NEAR_FAR_SHAPES = [
    ((4, 3, 3), (3, 2, 2)),  # 50,913 nodes
    ((3, 4, 3), (2, 3, 2)),  # 85,932 nodes
    ((4, 4, 2), (3, 2, 2)),  # 17,835 nodes
]


@pytest.mark.parametrize("m_list, s_list", NEAR_FAR_SHAPES)
def test_search_equals_reference_search_on_near_and_far_parts(m_list, s_list):
    query = shape(m_list, s_list)
    assert _search(query) == reference_search(query)


@pytest.mark.slow
def test_search_equals_reference_search_up_to_16_edges():
    assert _search_matches_reference(1, 16) == 1765


@pytest.mark.parametrize(
    "m_list, s_list, z, nodes",
    [
        ((6, 6), (2, 2), 16, 846_720),
        ((6, 6), (2, 3), 21, 2_239_243),
        ((4, 4, 2), (2, 2, 2), 25, 200_990),
        ((5, 5), (3, 2), 16, 36_925),  # every check a group at r = 2
        ((3, 3, 2, 2), (2, 2, 1, 2), 30, 349_686),  # four parts, a side of one
        ((4, 3, 3), (2, 2, 2), 28, 689_862),  # near ANDs of one rank, m_r = 3
    ],
)
def test_stress_trees_are_pinned(m_list, s_list, z, nodes):
    # deep canonical chains that the shapes up to 10 edges never reach
    result = exact_z(shape(m_list, s_list))
    assert (result.z, result.nodes) == (z, nodes)
    assert result.witness.num_edges == z
    assert naive_count(result.witness, s_list) == 0


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------

def test_ledger_appends_with_single_header(tmp_path):
    path = tmp_path / "oracle.tsv"
    first = exact_z(shape((2, 2), (2, 2)))
    second = exact_z(shape((3, 3), (2, 2)))
    append_ledger(path, first, "w1.zng")
    append_ledger(path, second, "w2.zng")
    lines = path.read_text().splitlines()
    assert lines[0] == "query\tz\tnodes\twitness"
    assert lines[1].split("\t") == ["z(2,2;2,2)", "3", str(first.nodes), "w1.zng"]
    assert len(lines) == 3


def test_ledger_treats_an_empty_file_as_new(tmp_path):
    path = tmp_path / "oracle.tsv"
    path.touch()
    append_ledger(path, exact_z(shape((2, 2), (2, 2))), "w1.zng")
    assert path.read_bytes() == b"query\tz\tnodes\twitness\nz(2,2;2,2)\t3\t8\tw1.zng\n"


def test_failed_ledger_write_leaves_the_old_ledger(tmp_path, monkeypatch):
    path = tmp_path / "oracle.tsv"
    append_ledger(path, exact_z(shape((2, 2), (2, 2))), "w1.zng")
    append_ledger(path, exact_z(shape((3, 3), (2, 2))), "w2.zng")
    before = path.read_bytes()
    assert before.count(b"\n") == 3  # the header and two rows

    def swap_fails(src, dst):
        raise OSError("simulated failure before the new ledger is swapped in")

    monkeypatch.setattr(hypergraph.os, "replace", swap_fails)
    with pytest.raises(OSError, match="simulated"):
        append_ledger(path, exact_z(shape((2, 3), (2, 2))), "w3.zng")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["oracle.tsv"]  # no temp file left


def test_ledger_bytes_are_pinned(tmp_path):
    path = tmp_path / "oracle.tsv"
    append_ledger(path, exact_z(shape((2, 2), (2, 2))), "w1.zng")
    append_ledger(path, exact_z(shape((3, 3), (2, 2))), "w2.zng")
    assert path.read_bytes() == (
        b"query\tz\tnodes\twitness\n"
        b"z(2,2;2,2)\t3\t8\tw1.zng\n"
        b"z(3,3;2,2)\t6\t74\tw2.zng\n"
    )
