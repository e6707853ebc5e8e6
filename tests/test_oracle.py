"""Exact search versus raw exhaustion, witnesses, bounds, and the ledger."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_count
from zng.count import count_ordered
from zng.errors import BudgetError
from zng.hypergraph import RPartiteHypergraph
from zng.oracle import (
    BoundRow,
    ZQuery,
    append_ledger,
    bound_expression,
    bound_table,
    exact_z,
    exhaustive_z,
    format_bound_table,
)


def test_query_validation():
    with pytest.raises(ValueError):
        ZQuery((), ())
    with pytest.raises(ValueError):
        ZQuery((2, 2), (2,))
    with pytest.raises(ValueError):
        ZQuery((2, 0), (2, 2))
    with pytest.raises(ValueError):
        ZQuery((2, 2), (2, 0))
    assert ZQuery((2, 2), (2, 2)).label() == "z(2,2;2,2)"


def test_ground_truth_values_via_both_routes():
    for m_list, s_list, expected in [
        ((2, 2), (2, 2), 3),
        ((3, 3), (2, 2), 6),
        ((2, 2, 2), (1, 1, 2), 4),
    ]:
        query = ZQuery(m_list, s_list)
        raw = exhaustive_z(query)
        searched = exact_z(query)
        assert raw.z == expected
        assert searched.z == expected
        assert raw.witness.num_edges == expected
        assert searched.witness.num_edges == expected


def test_z44_by_search_matches_exhaustion():
    query = ZQuery((4, 4), (2, 2))
    searched = exact_z(query)
    raw = exhaustive_z(query)
    assert searched.z == raw.z == 9
    assert searched.nodes < raw.nodes  # pruning must actually prune


def test_witnesses_are_pattern_free_and_optimal():
    for m_list, s_list in [((2, 2), (2, 2)), ((3, 3), (2, 2)), ((2, 2, 2), (1, 1, 2))]:
        query = ZQuery(m_list, s_list)
        result = exact_z(query)
        assert count_ordered(result.witness, s_list) == 0
        # no pattern-free graph with one more edge exists
        cells = list(itertools.product(*(range(m) for m in m_list)))
        for extra in itertools.combinations(cells, result.z + 1):
            g = RPartiteHypergraph(m_list, extra)
            assert naive_count(g, s_list) > 0


def test_witness_is_the_lexicographically_least_optimum():
    query = ZQuery((3, 3), (2, 2))
    result = exact_z(query)
    cells = list(itertools.product(range(3), range(3)))
    optima = [
        edges
        for edges in itertools.combinations(cells, result.z)
        if naive_count(RPartiteHypergraph((3, 3), edges), (2, 2)) == 0
    ]
    assert result.witness.edges == min(optima)


def test_search_determinism():
    query = ZQuery((3, 4), (2, 2))
    a = exact_z(query)
    b = exact_z(query)
    assert a.z == b.z and a.witness == b.witness and a.nodes == b.nodes


def test_monotonicity_in_parts_and_pattern():
    base = exact_z(ZQuery((3, 3), (2, 2))).z
    assert exact_z(ZQuery((4, 3), (2, 2))).z >= base
    assert exact_z(ZQuery((3, 4), (2, 2))).z >= base
    assert exact_z(ZQuery((3, 3), (3, 2))).z >= base
    assert exact_z(ZQuery((3, 3), (2, 3))).z >= base


def test_trivial_ceiling_iff_pattern_cannot_fit():
    # equality with the all-edges graph exactly when some s_i > m_i
    full = exact_z(ZQuery((2, 3), (3, 2)))
    assert full.z == 6
    assert full.witness.num_edges == 6
    clipped = exact_z(ZQuery((2, 3), (2, 2)))
    assert clipped.z < 6
    assert exact_z(ZQuery((2, 2), (1, 1))).z == 0  # a single edge is forbidden


def test_single_part_queries():
    # with one part, edges are vertices and the pattern is s chosen vertices
    assert exact_z(ZQuery((5,), (3,))).z == 2
    assert exhaustive_z(ZQuery((5,), (3,))).z == 2


def test_degree_cap_closed_form():
    # forbidding K_{1,s2} caps each left degree at s2 - 1
    for m1, m2, s2 in [(2, 3, 2), (3, 2, 3), (2, 4, 3)]:
        expected = m1 * min(s2 - 1, m2)
        assert exact_z(ZQuery((m1, m2), (1, s2))).z == expected


def test_swap_symmetry_bipartite():
    for m1, m2, s1, s2 in [(2, 3, 2, 2), (3, 2, 1, 2), (3, 3, 2, 3), (2, 4, 2, 3)]:
        a = exact_z(ZQuery((m1, m2), (s1, s2))).z
        b = exact_z(ZQuery((m2, m1), (s2, s1))).z
        assert a == b


def test_edge_caps_reject_large_queries():
    with pytest.raises(BudgetError):
        exhaustive_z(ZQuery((8, 4), (2, 2)))  # 32 > 30
    with pytest.raises(BudgetError):
        exact_z(ZQuery((8, 5), (2, 2)))  # 40 > 36
    exact_z(ZQuery((8, 4), (2, 2)), edge_cap=32)


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
    query = ZQuery(m_list, s_list)
    assert exact_z(query).z == exhaustive_z(query).z


def _search_matches_exhaustion_on_every_shape(max_edges: int) -> int:
    """exact_z against exhaustive_z on every r <= 3 shape with s_i <= m_i."""
    shapes = 0
    for r in (1, 2, 3):
        for m_list in itertools.product(range(1, max_edges + 1), repeat=r):
            if math.prod(m_list) > max_edges:
                continue
            for s_list in itertools.product(*(range(1, m + 1) for m in m_list)):
                query = ZQuery(m_list, s_list)
                searched = exact_z(query)
                assert searched.z == exhaustive_z(query).z, query.label()
                assert searched.witness.num_edges == searched.z
                assert naive_count(searched.witness, s_list) == 0, query.label()
                shapes += 1
    return shapes


def test_search_equals_exhaustion_on_every_shape_up_to_10_edges():
    assert _search_matches_exhaustion_on_every_shape(10) == 579


@pytest.mark.slow
def test_search_equals_exhaustion_on_every_shape_up_to_12_edges():
    assert _search_matches_exhaustion_on_every_shape(12) == 945


# ----------------------------------------------------------------------
# bound comparisons and the ledger
# ----------------------------------------------------------------------

def test_bound_expression_values():
    assert bound_expression(ZQuery((3, 3), (2, 2))) == pytest.approx(3 * math.sqrt(3))
    assert bound_expression(ZQuery((10, 25), (2, 4))) == 50.0


def test_bound_table_ratios():
    rows = bound_table([ZQuery((2, 2), (2, 2)), ZQuery((3, 3), (2, 2))])
    assert [row.value for row in rows] == [3, 6]
    assert rows[0].ratio == pytest.approx(3 / (2 * math.sqrt(2)), abs=1e-9)  # ~1.06
    assert rows[1].ratio == pytest.approx(6 / (3 * math.sqrt(3)), abs=1e-9)  # ~1.15
    assert all(row.kind == "exact" for row in rows)


def test_bound_table_accepts_construction_witnesses():
    import warnings

    from zng.construct import build, derive_params

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = derive_params((2,), 4, 5, (10,))
    graph = build(params, seed=1).graph
    rows = bound_table([(ZQuery((10, 25), (2, 4)), graph)])
    assert rows[0].kind == "witness"
    assert rows[0].value == 50
    assert rows[0].ratio == 1.0  # 50 / (10 * 25^(1/2)) exactly


def test_bound_table_rejects_bad_witnesses():
    with pytest.raises(ValueError, match="parts"):
        bound_table([(ZQuery((3, 3), (2, 2)), RPartiteHypergraph((2, 2), []))])
    complete = RPartiteHypergraph(
        (3, 3), itertools.product(range(3), range(3))
    )
    with pytest.raises(ValueError, match="pattern-free"):
        bound_table([(ZQuery((3, 3), (2, 2)), complete)])


def test_format_bound_table_is_tsv():
    rows = [BoundRow(ZQuery((2, 2), (2, 2)), 3, "exact", 2.828427, 1.060660)]
    text = format_bound_table(rows)
    lines = text.splitlines()
    assert lines[0] == "query\tvalue\tkind\tbound\tratio"
    assert lines[1].startswith("z(2,2;2,2)\t3\texact\t")


def test_ledger_appends_with_single_header(tmp_path):
    path = tmp_path / "oracle.tsv"
    first = exact_z(ZQuery((2, 2), (2, 2)))
    second = exact_z(ZQuery((3, 3), (2, 2)))
    append_ledger(path, first, "w1.zng")
    append_ledger(path, second, "w2.zng")
    lines = path.read_text().splitlines()
    assert lines[0] == "query\tz\tnodes\twitness"
    assert lines[1].split("\t") == ["z(2,2;2,2)", "3", str(first.nodes), "w1.zng"]
    assert len(lines) == 3


def test_ledger_bytes_are_pinned(tmp_path):
    path = tmp_path / "oracle.tsv"
    append_ledger(path, exact_z(ZQuery((2, 2), (2, 2))), "w1.zng")
    append_ledger(path, exact_z(ZQuery((3, 3), (2, 2))), "w2.zng")
    assert path.read_bytes() == (
        b"query\tz\tnodes\twitness\n"
        b"z(2,2;2,2)\t3\t8\tw1.zng\n"
        b"z(3,3;2,2)\t6\t74\tw2.zng\n"
    )
