"""Parameter derivation, greedy selection, freeness certificates, seeds."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_graph, reference_select
from zng.construct import (
    CapacityWarning,
    ConstructionError,
    PartSplitAdvisory,
    build,
    derive_params,
    family_graph,
    format_certificate,
    integer_root,
    sequential_select,
    verify_freeness,
)
from zng.errors import BudgetError
from zng.hypergraph import RPartiteHypergraph, complete_graph
from zng.seeds import derive_seed

C6 = RPartiteHypergraph((3, 3), [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])


# ----------------------------------------------------------------------
# integer roots and parameter derivation
# ----------------------------------------------------------------------

def test_integer_root_examples():
    assert integer_root(0, 3) == 0
    assert integer_root(63, 2) == 7
    assert integer_root(64, 2) == 8
    assert integer_root(10**18, 3) == 10**6


@settings(max_examples=300)
@given(st.integers(0, 10**24), st.integers(1, 8))
def test_integer_root_is_the_floor_root(n, k):
    root = integer_root(n, k)
    assert root**k <= n < (root + 1) ** k


@pytest.mark.parametrize(
    "s_list,t,q,degree,capacity",
    [
        ((2,), 4, 5, 3, 104),
        ((2,), 2, 5, 1, 12),
        ((2,), 4, 7, 3, 400),
        ((2,), 4, 9, 3, 1093),
        ((2,), 4, 11, 3, 2440),
        ((2,), 4, 13, 3, 4760),
        ((2, 2), 64, 3, 3, 0),
        ((2, 2), 82, 3, 4, 0),
        ((2, 2), 4, 3, 1, 1),
    ],
)
def test_derive_params_frozen_values(s_list, t, q, degree, capacity):
    params = derive_params(s_list, t, q)
    assert params.degree == degree
    assert params.capacity == capacity
    assert params.n == q ** math.prod(s_list)
    assert params.degree ** (params.s_total - 1) < t
    assert (params.degree + 1) ** (params.s_total - 1) >= t


def test_derive_params_validation():
    with pytest.raises(ValueError, match="hypothesis"):
        derive_params((2,), 1, 5)  # t below prod(s_list)
    with pytest.raises(ValueError):
        derive_params((1,), 4, 5)  # prod(s) < 2: nothing to randomize
    with pytest.raises(ValueError):
        derive_params((), 4, 5)
    with pytest.raises(ValueError):
        derive_params((2,), 4, 6)  # not a prime power
    with pytest.raises(BudgetError):
        derive_params((2,), 4, 1 << 17)
    with pytest.raises(ValueError):
        derive_params((2,), 4, 5, (10, 10))  # m_list length mismatch


def test_capacity_overflow_warns_but_derives():
    with pytest.warns(CapacityWarning):
        params = derive_params((2, 2), 4, 3, (2, 2))  # 4 tuples > capacity 1
    assert params.m_list == (2, 2)


def test_balanced_split_advisory():
    with pytest.warns(PartSplitAdvisory):
        derive_params((2,), 4, 5, (10,))  # capacity 104 allows more


def test_capacity_exact_fit_is_silent():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        derive_params((2,), 4, 5, (104,))


# ----------------------------------------------------------------------
# seed splitting
# ----------------------------------------------------------------------

def test_derive_seed_is_deterministic_and_label_sensitive():
    a = derive_seed(42, "restart", 0)
    assert a == derive_seed(42, "restart", 0)
    assert a != derive_seed(42, "restart", 1)
    assert a != derive_seed(43, "restart", 0)
    assert a != derive_seed(42, "sweep", 0)
    assert 0 <= a < 1 << 64


# ----------------------------------------------------------------------
# the greedy selection and the full build
# ----------------------------------------------------------------------

def _params(s_list, t, q, m_list):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return derive_params(s_list, t, q, m_list)


def test_build_bipartite_example():
    params = _params((2,), 4, 5, (10,))
    result = build(params, seed=1)
    assert result.graph.num_edges == 50  # m * q
    assert result.graph.part_sizes == (10, 25)
    assert result.certificate.passed
    assert result.certificate.max_size <= 3  # t - 1
    assert result.certificate.pattern_count == math.comb(10, 2)
    assert result.certificate.bezout_bound == 3


def test_build_is_deterministic_in_the_seed():
    params = _params((2,), 4, 5, (10,))
    a = build(params, seed=7)
    b = build(params, seed=7)
    c = build(params, seed=8)
    assert a.graph == b.graph
    assert format_certificate(a.certificate) == format_certificate(b.certificate)
    assert a.family.to_dict() == b.family.to_dict()
    assert a.family.to_dict() != c.family.to_dict()


def test_build_vacuous_single_position():
    # one tuple cannot contain a 2-subset; freeness holds vacuously
    params = _params((2,), 4, 5, (1,))
    result = build(params, seed=0)
    assert result.graph.num_edges == 5
    assert result.certificate.pattern_count == 0
    assert result.certificate.passed


def test_build_three_part_instance():
    params = _params((2, 2), 4, 3, (2, 2))
    result = build(params, seed=7)
    assert result.graph.num_edges == 108  # 4 positions * 27 points
    assert result.graph.part_sizes == (2, 2, 81)
    assert result.certificate.passed
    assert result.certificate.max_size <= params.bezout_bound == 1


def test_build_three_part_high_threshold_instance():
    # t far above the 27-point evaluation domain: every pattern passes, and
    # the certificate records the true maximum rather than the slack bound.
    params = _params((2, 2), 82, 3, (2, 2))
    assert params.degree == 4
    result = build(params, seed=2)
    assert result.graph.num_edges == 108
    assert result.certificate.passed
    assert result.certificate.max_size <= 27 <= params.t - 1


def test_every_prefix_tuple_covers_exactly_q_to_s_minus_1_points():
    from collections import Counter

    bi = build(_params((2,), 4, 5, (10,)), seed=3).graph
    for v in range(10):
        assert bi.degree(0, v) == 5
        assert bi.neighbor_mask((v,)).bit_count() == 5

    tri = build(_params((2, 2), 4, 3, (2, 2)), seed=3).graph
    per_prefix = Counter(e[:2] for e in tri.edges)
    assert per_prefix == {(a, b): 27 for a in range(2) for b in range(2)}


def test_mean_resample_rate_is_small():
    params = _params((2,), 4, 5, (20,))
    total = 0
    for seed in range(100):
        result = build(params, seed)
        assert result.certificate.passed
        total += result.family.resamples
    # mean resamples per position stays below one (100 seeds x 20 positions)
    assert total < 2000


def test_distinctness_is_forced_when_duplicates_collide():
    # t=2 makes any repeated polynomial a violation on a 2-point domain,
    # so the greedy must reject duplicates and still succeed for m <= q^2
    params = _params((2,), 2, 2, (4,))
    result = build(params, seed=3)
    assert result.certificate.passed
    coeff_sets = {
        tuple(tuple(c) for c in p["coeffs"])
        for p in result.family.to_dict()["polys"]
    }
    assert len(coeff_sets) == 4


def test_construction_error_names_position_and_pattern():
    # only 4 distinct linear univariate polynomials exist over GF(2); the
    # fifth position can never be filled when t=2 forbids any repetition
    params = _params((2,), 2, 2, (5,))
    with pytest.raises(ConstructionError) as err:
        build(params, seed=0, position_retry_cap=8, restart_cap=2)
    message = str(err.value)
    assert "position" in message and "restarts" in message
    assert err.value.attempts


def test_build_budget_checks():
    params = _params((2,), 4, 5, (10,))
    with pytest.raises(BudgetError):
        build(params, seed=0, point_budget=4)  # domain has 5 points
    with pytest.raises(BudgetError):
        build(params, seed=0, pattern_budget=10)  # C(10,2) = 45 patterns


def test_build_requires_part_sizes():
    params = derive_params((2,), 4, 5)
    with pytest.raises(ValueError):
        build(params, seed=0)
    with pytest.raises(ValueError):
        sequential_select(params, seed=0)


def test_sequential_select_enforces_the_point_budget():
    params = _params((2,), 4, 5, (10,))
    with pytest.raises(BudgetError):
        sequential_select(params, seed=0, point_budget=4)  # domain has 5 points
    assert len(sequential_select(params, seed=0, point_budget=5).polys) == 10


@pytest.mark.parametrize(
    "select, cap",
    [
        (sequential_select, "position_retry_cap"),
        (build, "position_retry_cap"),
        (build, "restart_cap"),
    ],
)
@pytest.mark.parametrize("value", [0, -1])
def test_caps_below_one_are_rejected(select, cap, value):
    params = _params((2,), 4, 5, (10,))
    with pytest.raises(ValueError, match=cap):
        select(params, seed=0, **{cap: value})


# (s_list, t, q, m_list, seeds, resamples): prime and extension fields, one
# to three variables, r = 2 and r = 3; resamples says whether the seeds
# reach the rejection path
SELECT_SHAPES = [
    ((2,), 4, 5, (6,), range(4), False),
    ((2,), 2, 5, (12,), range(4), True),
    ((2,), 3, 4, (14,), range(4), True),
    ((3,), 4, 4, (6,), range(4), True),
    ((2, 2), 4, 5, (4, 4), range(2), True),
    ((2, 2), 5, 5, (5, 5), range(1), True),
]


def _select_outcome(select, params, seed):
    try:
        return select(params, seed)
    except ConstructionError as err:
        return str(err), err.attempts


@pytest.mark.parametrize("shape", SELECT_SHAPES, ids=str)
def test_select_matches_agreement_set_reference(shape):
    s_list, t, q, m_list, seeds, resamples_expected = shape
    params = _params(s_list, t, q, m_list)
    total_resamples = 0
    for seed in seeds:
        family = sequential_select(params, seed)
        polys, resamples = reference_select(params, seed)
        assert family.polys == polys
        assert family.resamples == resamples
        assert family_graph(params, family) == reference_graph(params, polys)
        total_resamples += resamples
    assert (total_resamples > 0) == resamples_expected


def test_select_failure_matches_reference():
    params = _params((2,), 2, 2, (5,))
    for seed in range(3):
        fast = _select_outcome(lambda p, s: sequential_select(p, s, 8), params, seed)
        slow = _select_outcome(lambda p, s: reference_select(p, s, 8), params, seed)
        assert isinstance(fast, tuple) and fast == slow


def test_family_graph_matches_build_and_is_reproducible():
    params = _params((2,), 4, 5, (6,))
    result = build(params, seed=11)
    assert family_graph(params, result.family) == result.graph
    polys = result.family.to_dict()["polys"]
    assert [p["tuple"] for p in polys] == sorted(p["tuple"] for p in polys)


# ----------------------------------------------------------------------
# the standalone verifier
# ----------------------------------------------------------------------

def test_verify_rejects_complete_bipartite():
    cert = verify_freeness(complete_graph((4, 4)), (2,), 2)
    assert not cert.passed
    assert cert.max_size == 4
    assert cert.argmax_pattern == ((0, 1),)


def test_verify_passes_sparse_cycle():
    cert = verify_freeness(C6, (2,), 2)
    assert cert.passed
    assert cert.max_size <= 1
    assert cert.pattern_count == 3


def test_verify_input_validation():
    with pytest.raises(ValueError):
        verify_freeness(C6, (2, 2), 2)  # wrong s_list arity
    with pytest.raises(ValueError):
        verify_freeness(C6, (0,), 2)
    with pytest.raises(ValueError):
        verify_freeness(C6, (2,), 0)
    with pytest.raises(BudgetError):
        verify_freeness(complete_graph((30, 4)), (2,), 5, pattern_budget=100)


def test_verify_elides_large_tables_but_keeps_the_argmax():
    cert = verify_freeness(complete_graph((3, 3)), (2,), 4, table_cap=2)
    assert cert.table is None
    assert cert.max_size == 3
    assert cert.argmax_pattern is not None
    kept = verify_freeness(complete_graph((3, 3)), (2,), 4, table_cap=3)
    assert kept.table is not None and len(kept.table) == 3


def test_certificate_json_round_trips():
    params = _params((2,), 4, 5, (4,))
    cert = build(params, seed=2).certificate
    text = format_certificate(cert)
    data = json.loads(text)
    assert data["passed"] is True
    assert data["seed"] == 2
    assert data["params"]["q"] == 5
    assert data["family"]["polys"]
    assert data["bezout_bound"] == 3
    assert text == format_certificate(cert)  # stable serialization


def test_built_graph_text_reverifies(tmp_path):
    from zng.hypergraph import read_graph, write_graph

    params = _params((2,), 4, 5, (8,))
    result = build(params, seed=5)
    path = tmp_path / "g.zng"
    write_graph(result.graph, path)
    cert = verify_freeness(read_graph(path), (2,), 4)
    assert cert.passed == result.certificate.passed
    assert cert.max_size == result.certificate.max_size
