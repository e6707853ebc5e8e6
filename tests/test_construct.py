"""Parameter derivation, greedy selection, freeness certificates, seeds."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BALANCED_SPLIT,
    OVER_CAPACITY,
    advice_kind,
    certificates,
    check_trusted_table,
    edge_graph,
    flat_blocks,
    graphs_with_sides,
    reference_certificate_text,
    reference_graph,
    reference_neighborhoods,
    reference_select,
)
from zng import construct, gf, hypergraph
from zng.certify import TABLE_CAP, format_certificate, verify_freeness
from zng.construct import (
    _range_ok,
    build,
    derive_params,
    integer_root,
    sequential_select,
)
from zng.errors import BudgetError, ConstructionError
from zng.hypergraph import complete_graph
from zng.mpoly import monomial_basis, monomial_rows
from zng.seeds import derive_seed

C6 = edge_graph((3, 3), [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])


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
    parts = len(s_list)
    if capacity:  # the balanced split at capacity: no advice
        params = derive_params(s_list, t, q, (integer_root(capacity, parts),) * parts)
        assert params.advice is None
    else:
        params = derive_params(s_list, t, q, (1,) * parts)
        assert advice_kind(params.advice) == OVER_CAPACITY
    assert params.degree == degree
    assert params.capacity == capacity
    assert params.n == q ** math.prod(s_list)
    assert params.degree ** (params.s_total - 1) < t
    assert (params.degree + 1) ** (params.s_total - 1) >= t


def test_derive_params_validation():
    with pytest.raises(ValueError, match="hypothesis"):
        derive_params((2,), 1, 5, (5,))  # t below prod(s_list)
    with pytest.raises(ValueError):
        derive_params((1,), 4, 5, (5,))  # prod(s) < 2: nothing to randomize
    with pytest.raises(ValueError):
        derive_params((), 4, 5, ())
    with pytest.raises(ValueError):
        derive_params((2,), 4, 6, (6,))  # not a prime power
    with pytest.raises(BudgetError):
        derive_params((2,), 4, 1 << 17, (5,))
    with pytest.raises(ValueError):
        derive_params((2,), 4, 5, (10, 10))  # m_list length mismatch
    with pytest.raises(ValueError):
        derive_params((2,), 4, 5, (0,))  # a part below 1


def test_derive_params_budgets_huge_t_before_its_powers():
    # the basis every build makes, checked before q ** (degree + 1)
    params = derive_params((2, 2), 83**3, 3, (1, 1))
    assert advice_kind(params.advice) == BALANCED_SPLIT
    assert params.degree == 82  # C(85, 3) = 98,770 monomials
    with pytest.raises(BudgetError, match="102340 monomials"):
        derive_params((2, 2), 84**3, 3, (1, 1))  # degree 83: C(86, 3) = 102,340
    with pytest.raises(BudgetError, match="basis"):
        derive_params((2,), 10**7, 5, (1,))
    # a capacity str() cannot print: 5**6000 // 11998 has 4,191 digits, 5**7000 4,887
    params = derive_params((2,), 6000, 5, (3,))
    assert params.capacity == 5**6000 // 11998
    assert advice_kind(params.advice) == BALANCED_SPLIT
    with pytest.raises(BudgetError, match="4300 digits"):
        derive_params((2,), 7000, 5, (3,))


def test_capacity_overflow_advises_but_derives():
    params = derive_params((2, 2), 4, 3, (2, 2))  # 4 tuples > capacity 1
    assert params.m_list == (2, 2)
    assert params.advice == (
        "4 tuples exceed the derived capacity 1; the density guarantee does not "
        "cover this run (freeness is still certified exhaustively)"
    )


def test_balanced_split_advisory():
    params = derive_params((2,), 4, 5, (10,))  # capacity 104 allows more
    assert params.advice == (
        "capacity 104 would allow a balanced split with 104 vertices per part "
        "(10 tuples requested)"
    )


def test_capacity_exact_fit_is_silent():
    assert derive_params((2,), 4, 5, (104,)).advice is None


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


@settings(max_examples=200)
@given(
    st.integers(-(10**30), 10**30),
    st.lists(st.one_of(st.integers(-(10**9), 10**9), st.text("abcqrz_-0123456789")), max_size=4),
)
def test_derive_seed_is_the_frozen_sha256_rule(master, labels):
    """The builtin sha256 gives hashlib's digest: the first 8 bytes, big endian."""
    text = "\x1f".join(["zng-seed-v1", str(master), *map(str, labels)])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    assert derive_seed(master, *labels) == int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# the greedy selection and the full build
# ----------------------------------------------------------------------

def _params(s_list, t, q, m_list):
    """derive_params, asserting the advice its capacity calls for, if any."""
    params = derive_params(s_list, t, q, m_list)
    tuples, parts = math.prod(m_list), len(m_list)
    if tuples > params.capacity:
        expected = OVER_CAPACITY
    elif tuples < integer_root(params.capacity, parts) ** parts:
        expected = BALANCED_SPLIT
    else:
        expected = None
    assert advice_kind(params.advice) == expected
    return params


def test_range_ok_is_exact_when_t_is_a_perfect_power():
    # s = 3, t = 4: the limit n^(2/6) is q itself
    assert _range_ok(_params((3,), 4, 5, (5,))) is True
    assert _range_ok(_params((3,), 4, 5, (6,))) is False


def test_range_ok_decides_the_analyze_shape_in_integers():
    # (2, 2), t = 16: 16^(1/3) is irrational; 25 tuples far exceed 2401^0.21
    assert _range_ok(_params((2, 2), 16, 7, (5, 5))) is False
    assert _range_ok(_params((2, 2), 16, 7, (1, 1))) is True


def test_range_ok_reports_a_near_tie_as_unknown():
    # log_n(178) falls short of sqrt(5)/6 at n = 103^3 by about 7e-8: floats
    # answer True, but powers of up to RANGE_OK_BITS bits cannot separate them
    params = _params((3,), 5, 103, (178,))
    gap = math.log(178) / math.log(params.n) - math.sqrt(5) / 6
    assert -1e-7 < gap < 0
    assert _range_ok(params) is None


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([(2,), (3,), (2, 2), (4,), (2, 3)]),
    st.integers(0, 30),
    st.sampled_from([2, 3, 4, 5, 7, 9, 11, 16, 25, 27, 49, 61, 127]),
    st.integers(1, 2000),
)
def test_range_ok_agrees_with_floats_away_from_ties(s_list, extra_t, q, tuples):
    params = _params(s_list, math.prod(s_list) + extra_t, q, (tuples,) + (1,) * (len(s_list) - 1))
    s = params.s_total
    exponent = params.t ** (1 / (s - 1)) / (s * (s - 1))
    gap = math.log(tuples) - exponent * math.log(params.n)
    decided = _range_ok(params)
    if abs(gap) > 1e-3:
        assert decided == (gap < 0)
    elif abs(gap) > 1e-9:
        assert decided in (None, gap < 0)


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
    assert Counter(e[:1] for e in bi.edges) == {(v,): 5 for v in range(10)}
    assert [size for _, size in flat_blocks(bi, (1,))] == [5] * 10

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


def test_build_enforces_the_point_budget():
    params = _params((2,), 4, 5, (10,))
    with pytest.raises(BudgetError, match="^evaluation domain has 5 points, above the budget 4$"):
        build(params, seed=0, point_budget=4)
    assert len(build(params, seed=0, point_budget=5).family.polys) == 10


def test_build_budget_checks(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a refused build made its monomial rows")

    monkeypatch.setattr(construct, "monomial_rows", no_rows)
    # ten masks of 25 bits, one bit over the cap
    monkeypatch.setattr(hypergraph, "DEFAULT_MASK_BIT_CAP", 249)
    params = _params((2,), 4, 5, (10,))
    # each case breaks its own check and every later one, so the first check
    # to run decides; the domain has 5 points and C(10,2) = 45 patterns
    for kwargs, error, match in (
        (dict(restart_cap=0, position_retry_cap=0, point_budget=4), ValueError, "restart_cap"),
        (dict(position_retry_cap=0, point_budget=4, pattern_budget=10), ValueError,
         "position_retry_cap"),
        (dict(point_budget=4, pattern_budget=10), BudgetError, "evaluation domain"),
        (dict(pattern_budget=10), BudgetError, "mask lookups"),
        (dict(), BudgetError, "^the mask table needs 250 bits, above the cap 249$"),
    ):
        with pytest.raises(error, match=match):
            build(params, seed=0, **kwargs)


def test_a_build_makes_its_rows_and_tables_once(monkeypatch):
    """The golden restarts build: six restarts read one set of rows and tables."""
    calls = {"monomial_rows": 0, "int_arith": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(construct, "monomial_rows", spy("monomial_rows", monomial_rows))
    monkeypatch.setattr(gf.Field, "int_arith", spy("int_arith", gf.Field.int_arith))
    params = _params((2,), 2, 5, (24,))
    family = build(params, 20260819, position_retry_cap=8).family
    assert family.restarts == 6
    assert calls == {"monomial_rows": 1, "int_arith": 1}


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
    args = (params, _rows(params)) if select is sequential_select else (params,)
    with pytest.raises(ValueError, match=cap):
        select(*args, seed=0, **{cap: value})


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
    ((1, 2), 2, 4, (3, 8), range(3), True),  # S = 2 at r = 3, either part
    ((2, 1), 2, 5, (10, 4), range(3), True),
    ((2,), 4, 3, (12,), range(4), False),  # q < t: equal polynomials are kept
]


def _rows(params):
    """The monomial rows build makes for params."""
    return monomial_rows(monomial_basis(params.s_total - 1, params.degree), params.field)


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
        family = sequential_select(params, _rows(params), seed)
        polys, resamples = reference_select(params, seed)
        assert family.polys == polys
        assert family.resamples == resamples
        assert dict(enumerate(family.masks)) == reference_graph(params, polys).masks
        total_resamples += resamples
    assert (total_resamples > 0) == resamples_expected


def test_equal_polynomials_are_kept_when_q_is_below_t():
    # every pattern agrees on at most q = 3 < t points, so nothing is rejected
    params = _params((2,), 4, 3, (12,))
    family = sequential_select(params, _rows(params), seed=0)
    assert family.resamples == 0
    assert len(set(family.polys.values())) < len(family.polys)


def test_select_failure_matches_reference():
    # four polynomials of degree 1 over GF(2) cannot fill a line of five
    for s_list, m_list in [((2,), (5,)), ((1, 2), (2, 5)), ((2, 1), (5, 2))]:
        params = _params(s_list, 2, 2, m_list)
        for seed in range(3):
            fast = _select_outcome(lambda p, s: sequential_select(p, _rows(p), s, 8), params, seed)
            slow = _select_outcome(lambda p, s: reference_select(p, s, 8), params, seed)
            assert isinstance(fast, tuple) and fast == slow


def test_family_graph_matches_build_and_is_reproducible():
    params = _params((2,), 4, 5, (6,))
    result = build(params, seed=11)
    assert reference_graph(params, result.family.polys) == result.graph
    assert build(params, seed=11).graph == result.graph
    polys = result.family.to_dict()["polys"]
    assert [p["tuple"] for p in polys] == sorted(p["tuple"] for p in polys)


# the golden builds of tests/test_golden.py: (s_list, t, q, m_list, retries)
GOLDEN_BUILDS = [
    *(((2,), 4, q, (q,), 64) for q in (5, 7, 9, 11, 13)),
    ((2, 2), 16, 7, (5, 5), 64),
    ((2, 2), 16, 11, (11, 11), 64),
    ((3,), 9, 9, (6,), 64),
    ((2, 2), 5, 5, (5, 5), 64),
    ((2,), 2, 5, (24,), 8),
]


@pytest.mark.parametrize("shape", GOLDEN_BUILDS, ids=str)
def test_family_graph_equals_the_validated_graph(shape):
    s_list, t, q, m_list, retries = shape
    params = _params(s_list, t, q, m_list)
    graph = build(params, 20260819, position_retry_cap=retries).graph
    check_trusted_table(graph)
    validated = edge_graph(graph.part_sizes, graph.edges)
    assert graph.part_sizes == validated.part_sizes
    assert graph.edges == validated.edges  # same edges, same order


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


def test_verify_budget_counts_mask_lookups():
    # one pattern, but it ANDs 1000 prefix masks: the work is above 100
    empty = edge_graph((1000, 3), [])
    with pytest.raises(BudgetError):
        verify_freeness(empty, (1000,), 1, pattern_budget=100)
    assert verify_freeness(empty, (1000,), 1, pattern_budget=1000).pattern_count == 1


def test_verify_elides_large_tables_but_keeps_the_argmax():
    cert = verify_freeness(complete_graph((TABLE_CAP + 1, 3)), (1,), 4)
    assert cert.table is None
    assert cert.max_size == 3
    assert cert.argmax_pattern is not None
    kept = verify_freeness(complete_graph((TABLE_CAP, 3)), (1,), 4)
    assert kept.table is not None and len(kept.table) == TABLE_CAP


@settings(max_examples=300)
@given(graphs_with_sides(min_r=2), st.integers(1, 5))
def test_verify_matches_the_per_pattern_reference(case, t):
    g, s_list = case
    reference = reference_neighborhoods(g, s_list[:-1])
    cert = verify_freeness(g, s_list[:-1], t)
    max_size = max((size for _, size in reference), default=0)
    assert cert.pattern_count == len(reference)
    assert cert.max_size == max_size
    assert cert.argmax_pattern == next((p for p, size in reference if size == max_size), None)
    assert cert.table == tuple(reference)
    assert cert.passed == (max_size < t)


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
    assert text == reference_certificate_text(cert)


@settings(max_examples=100, deadline=None)
@given(certificates())
def test_certificate_text_matches_the_json_encoder(cert):
    assert format_certificate(cert) == reference_certificate_text(cert)


def test_built_graph_text_reverifies(tmp_path):
    from zng.hypergraph import read_graph, write_graph

    params = _params((2,), 4, 5, (8,))
    result = build(params, seed=5)
    path = tmp_path / "g.zng"
    write_graph(result.graph, path)
    cert = verify_freeness(read_graph(path), (2,), 4)
    assert cert.passed == result.certificate.passed
    assert cert.max_size == result.certificate.max_size
