"""Exact pattern counting, generalized binomials, and the convexity chain."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    R2_EXAMPLES,
    apply_examples,
    bipartite_graphs,
    check_trusted_table,
    complete_graph,
    edge_graph,
    gen_binom,
    graphs_with_sides,
    naive_count,
    random_graph,
    reference_jensen,
    reference_neighborhoods,
)
import zng.certify
import zng.count
import zng.hypergraph
from zng.certify import TABLE_CAP, verify_freeness
from zng.count import (
    count_ordered,
    count_report,
    degree_histogram,
    jensen_lower_bound,
)
from zng.errors import BudgetError
from zng.hypergraph import RPartiteHypergraph, codegree_blocks, set_bits

C6 = edge_graph((3, 3), [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])


# ----------------------------------------------------------------------
# generalized binomial: reference_jensen's own step, in Fractions
# ----------------------------------------------------------------------

def test_gen_binom_frozen_values():
    assert gen_binom(Fraction(3, 2), 2) == Fraction(3, 8)
    assert gen_binom(5, 2) == 10
    assert gen_binom(Fraction(1, 2), 2) == 0  # below s - 1
    assert gen_binom(7, 1) == 7
    with pytest.raises(ValueError):
        gen_binom(3, 0)


@settings(max_examples=300)
@given(st.integers(0, 30), st.integers(1, 6))
def test_gen_binom_matches_comb_at_integers(n, s):
    assert gen_binom(n, s) == math.comb(n, s)


@settings(max_examples=300)
@given(
    st.fractions(min_value=0, max_value=40, max_denominator=64),
    st.fractions(min_value=0, max_value=40, max_denominator=64),
    st.integers(1, 5),
)
def test_gen_binom_is_nondecreasing_and_convex(x, y, s):
    lo, hi = sorted((x, y))
    assert gen_binom(lo, s) <= gen_binom(hi, s)
    mid = (lo + hi) / 2
    assert gen_binom(mid, s) * 2 <= gen_binom(lo, s) + gen_binom(hi, s)


# ----------------------------------------------------------------------
# exact counting versus the all-subsets reference
# ----------------------------------------------------------------------

def test_count_frozen_examples():
    assert count_ordered(complete_graph((3, 3)), (2, 2)) == 9
    assert count_ordered(C6, (2, 2)) == 0
    assert count_ordered(C6, (1, 1)) == 6  # single edges
    assert count_ordered(C6, (2, 1)) == 3  # cherries from the left


def test_count_validation(monkeypatch):
    with pytest.raises(ValueError):
        count_ordered(C6, (2,))
    with pytest.raises(ValueError):
        count_ordered(C6, (2, 0))
    monkeypatch.setattr(zng.count, "DEFAULT_PATTERN_BUDGET", 100)
    with pytest.raises(BudgetError):
        count_ordered(complete_graph((20, 20)), (2, 2))


def test_declared_last_part_size_allocates_nothing():
    # a 10^8-vertex last part with no edges: memory follows the edges
    g = edge_graph((2, 10**8), [])
    tracemalloc.start()
    try:
        assert count_ordered(g, (1, 1)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the bound too: a vertex without edges is not visited (its empty link
    # bounds 0), and no mask is as wide as the declared last part
    for part_sizes, edges in [
        ((2, 2, 10**8), []),
        ((2, 2, 10**8), [(1, 0, 0)]),
        ((2, 2, 2, 10**8), []),
        ((2, 2, 2, 10**8), [(1, 0, 1, 0)]),
    ]:
        g = edge_graph(part_sizes, edges)
        tracemalloc.start()
        try:
            report = count_report(g, (1,) * len(part_sizes))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.exact == len(edges) and report.lower_bound == str(len(edges))
        assert peak < 1 << 20


def test_count_is_zero_when_any_side_is_too_big():
    assert count_ordered(C6, (4, 2)) == 0
    assert jensen_lower_bound(C6, (4, 2)) == 0


def test_count_matches_naive_reference_on_200_seeded_samples():
    rng = random.Random(20260819)
    for trial in range(200):
        r = rng.choice((2, 3))
        parts = tuple(rng.randint(1, 4) for _ in range(r))
        g = random_graph(rng, parts, rng.random())
        s_list = tuple(rng.randint(1, 2) for _ in range(r))
        assert count_ordered(g, s_list) == naive_count(g, s_list), (parts, s_list)


@settings(max_examples=300)
@given(graphs_with_sides(min_r=2))
@example((complete_graph((3, 2)), (2, 3)))  # s_r > m_r: exact is 0, intermediate 6
def test_count_report_matches_naive_counts(case):
    g, s_list = case
    report = count_report(g, s_list)
    assert report.exact == naive_count(g, s_list) == count_ordered(g, s_list)
    assert report.intermediate == naive_count(g, s_list[:-1] + (1,))


def test_count_agrees_with_freeness_verdict():
    # zero copies at side sizes (s_1..s_{r-1}, t) iff the verifier passes
    rng = random.Random(7)
    for _ in range(60):
        parts = (rng.randint(1, 4), rng.randint(1, 4))
        g = random_graph(rng, parts, rng.random())
        s, t = rng.randint(1, 2), rng.randint(1, 3)
        zero = count_ordered(g, (s, t)) == 0
        assert zero == verify_freeness(g, (s,), t).passed


# each r = 2 route for RPartiteHypergraph.pattern_sizes, taken whatever its cost
R2_ROUTES = {
    "blocks": lambda H, s_list: H.pattern_blocks(s_list),
    "codegree": lambda H, s_list: codegree_blocks(H.links().values(), *s_list),
}


@settings(max_examples=200)
@given(bipartite_graphs(), st.integers(1, 4), st.integers(1, 3))
@apply_examples([(case, 2, 2) for case in R2_EXAMPLES])
def test_both_r2_routes_give_the_same_certificate_and_counts(case, t, s_2):
    g, s = case
    results = {}
    for name, route in R2_ROUTES.items():
        # with no table kept, verify reads pattern_sizes, and so the route
        with (
            mock.patch.object(RPartiteHypergraph, "pattern_sizes", route),
            mock.patch.object(zng.certify, "TABLE_CAP", -1),
        ):
            report = count_report(g, (s, s_2))
            results[name] = (verify_freeness(g, (s,), t), report.exact, report.intermediate)
    report = count_report(g, (s, s_2))
    assert results["codegree"] == results["blocks"]
    cert = verify_freeness(g, (s,), t)._replace(table=None)
    assert results["blocks"] == (cert, report.exact, report.intermediate)
    assert report.exact == naive_count(g, (s, s_2))


def test_a_kept_table_comes_from_the_block_kernel():
    # a sparse r = 2 graph whose pattern_sizes takes the co-degree route
    g, s_list = edge_graph((13, 13), [(v, v) for v in range(13)]), (3,)
    with mock.patch.object(zng.hypergraph, "codegree_blocks", wraps=codegree_blocks) as spy:
        assert len(list(g.pattern_sizes(s_list))) == 0 and spy.call_count == 1
        spy.reset_mock()
        cert = verify_freeness(g, s_list, 2)
    assert cert.pattern_count == 286 <= TABLE_CAP and spy.call_count == 0
    assert list(cert.table) == reference_neighborhoods(g, s_list)


# ----------------------------------------------------------------------
# the convexity chain
# ----------------------------------------------------------------------

def test_jensen_equals_exact_on_complete_graphs():
    # equality case of convexity: all degrees equal, all links complete
    for r in (1, 2, 3):
        for parts in itertools.product((1, 2, 3, 4, 5), repeat=r):
            g = complete_graph(parts)
            for s_list in itertools.product((1, 2), repeat=r):
                exact = count_ordered(g, s_list)
                assert jensen_lower_bound(g, s_list) == exact, (parts, s_list)


def test_jensen_never_exceeds_exact_on_random_bipartite_40_edge_graphs():
    rng = random.Random(1)
    for _ in range(100):
        cells = list(itertools.product(range(8), range(8)))
        edges = rng.sample(cells, 40)
        g = edge_graph((8, 8), edges)
        for s_list in ((2, 2), (2, 3), (3, 2)):
            exact = count_ordered(g, s_list)
            bound = jensen_lower_bound(g, s_list)
            assert bound <= exact


def test_jensen_never_exceeds_exact_on_random_instances():
    rng = random.Random(99)
    for _ in range(150):
        r = rng.choice((2, 3))
        parts = tuple(rng.randint(1, 6) for _ in range(r))
        g = random_graph(rng, parts, rng.random())
        s_list = tuple(rng.randint(1, 3) for _ in range(r))
        assert jensen_lower_bound(g, s_list) <= count_ordered(g, s_list)


@st.composite
def mask_tables(draw):
    """Masks of one width, 1..200 bits, each nonzero."""
    width = draw(st.integers(1, 200))
    return draw(st.lists(st.integers(1, (1 << width) - 1), max_size=40))


FULL = (1 << 130) - 1  # a width that is not a multiple of 64


@settings(max_examples=300)
@given(mask_tables())
@example([])
@example([FULL])
@example([1] * 5)  # m_r = 1
@apply_examples([([FULL] * (2**k - 1),) for k in range(1, 7)])
@apply_examples([([FULL] * 2**k,) for k in range(1, 7)])  # the count carries into a new plane
@example([(1 << 67) - 1] * 63 + [1, 1 << 66])  # 2^6 - 1 and 2^6 beside each other
def test_the_bit_plane_histogram_is_the_set_bits_degree_count(masks):
    degrees = Counter(itertools.chain.from_iterable(map(set_bits, masks)))
    assert degree_histogram(masks) == dict(Counter(degrees.values()))


def test_jensen_handles_degenerate_parts():
    empty = edge_graph((3, 0), [])
    assert jensen_lower_bound(empty, (2, 2)) == 0
    lonely = edge_graph((1,), [(0,)])
    assert jensen_lower_bound(lonely, (1,)) == 1 == count_ordered(lonely, (1,))


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

def test_count_report_fields():
    report = count_report(complete_graph((3, 3)), (2, 2))
    assert report.exact == 9
    assert report.intermediate == count_ordered(complete_graph((3, 3)), (2, 1))
    assert report.lower_bound == "9"
    assert report.density == "1"
    assert report.bound_holds
    assert count_report(edge_graph((3, 4), [(0, 0), (2, 3)]), (1, 1)).density == "1/6"


def test_count_on_complete_graphs_is_the_product_of_binomials():
    # closed form: each s_i-subset tuple is a copy, independently per part
    for parts in itertools.product((1, 2, 3, 4, 5), repeat=2):
        g = complete_graph(parts)
        for s_list in itertools.product(*(range(1, m + 1) for m in parts)):
            expected = math.prod(math.comb(m, s) for m, s in zip(parts, s_list))
            assert count_ordered(g, s_list) == expected
    for parts in itertools.product((1, 2, 3, 4), repeat=3):
        g = complete_graph(parts)
        for s_list in itertools.product(*(range(1, m + 1) for m in parts)):
            expected = math.prod(math.comb(m, s) for m, s in zip(parts, s_list))
            assert count_ordered(g, s_list) == expected
    big = complete_graph((5, 5, 5))
    for s_list in ((1, 1, 1), (2, 3, 5), (5, 5, 5)):
        expected = math.prod(math.comb(5, s) for s in s_list)
        assert count_ordered(big, s_list) == expected


@settings(max_examples=150, deadline=None)
@given(
    parts=st.lists(st.integers(0, 4), min_size=1, max_size=5),
    sides=st.lists(st.integers(1, 4), min_size=5, max_size=5),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# r = 5 links that recurse two levels on mask tables, with a fractional bound
@example(parts=[3, 2, 2, 2, 4], sides=[2, 1, 1, 2, 2], density=0.9, seed=0)
@example(parts=[4, 4, 4, 4, 4], sides=[2, 2, 1, 1, 2], density=0.9, seed=0)
@example(parts=[3, 0], sides=[2, 1, 1, 1, 1], density=1.0, seed=0)  # an empty last part
@example(parts=[0, 3, 3], sides=[1, 1, 2, 1, 1], density=1.0, seed=0)  # an empty first part
@example(parts=[2, 4, 3], sides=[3, 1, 1, 1, 1], density=1.0, seed=0)  # s_1 > m_1
@example(parts=[4, 4, 4], sides=[2, 2, 2, 1, 1], density=0.0, seed=0)  # no edge
@example(parts=[4, 4, 4, 4], sides=[2, 2, 1, 2, 1], density=0.0, seed=0)
@example(parts=[4], sides=[3, 1, 1, 1, 1], density=0.6, seed=1)
def test_jensen_matches_link_based_reference(parts, sides, density, seed):
    # the integer chain, reduced, against the Fraction chain of tests/helpers.py
    g = random_graph(random.Random(seed), tuple(parts), density)
    s_list = tuple(sides[: len(parts)])
    with mock.patch.object(zng.count, "RPartiteHypergraph", wraps=RPartiteHypergraph) as links:
        bound = jensen_lower_bound(g, s_list)
    reference = reference_jensen(g, s_list)
    assert bound == reference  # Fractions: the same reduced numerator and denominator
    for call in links.call_args_list:  # the link graphs built at r >= 4
        check_trusted_table(RPartiteHypergraph(*call.args))
    report = count_report(g, s_list)
    assert report.lower_bound == str(reference) and reference <= report.exact
    assert report.bound_holds
