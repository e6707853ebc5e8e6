"""Monomial bases, evaluation, agreement sets, and sampling uniformity."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zng.errors import BudgetError
from zng.gf import make_field
from zng.mpoly import (
    MultiPoly,
    agreement_set,
    domain,
    evaluate,
    graph_mask,
    monomial_basis,
    random_poly,
)


@pytest.mark.parametrize("v", range(0, 7))
@pytest.mark.parametrize("d", range(0, 7))
def test_basis_size_is_binomial(v, d):
    assert len(monomial_basis(v, d)) == math.comb(v + d, d)


def test_basis_order_is_frozen():
    basis = monomial_basis(2, 2)
    assert basis.exponents == (
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    )


def test_basis_exponents_unique_and_degree_bounded():
    basis = monomial_basis(3, 4)
    assert len(set(basis.exponents)) == len(basis)
    assert all(sum(e) <= 4 for e in basis.exponents)


def test_basis_size_cap():
    with pytest.raises(BudgetError):
        monomial_basis(20, 20)
    # a cap met exactly is allowed
    assert len(monomial_basis(6, 6, size_cap=math.comb(12, 6))) == math.comb(12, 6)


def test_domain_enumerates_all_points_lexicographically():
    field = make_field(3, 1)
    pts = list(domain(field, 2))
    assert len(pts) == 9
    assert pts == sorted(pts)
    assert pts[0] == ((0,), (0,))


def _direct_eval(f: MultiPoly, point):
    """Reference evaluation: sum coeff * prod(var^exp) term by term."""
    field = f.field
    acc = field.zero
    for exps, coeff in zip(f.basis.exponents, f.coeffs):
        term = coeff
        for x, e in zip(point, exps):
            for _ in range(e):
                term = field.mul(term, x)
        acc = field.add(acc, term)
    return acc


@pytest.mark.parametrize("p,k,v,d", [(5, 1, 2, 3), (2, 2, 2, 2), (3, 1, 3, 2)])
def test_evaluate_matches_direct_expansion(p, k, v, d):
    field = make_field(p, k)
    basis = monomial_basis(v, d)
    rng = random.Random(99)
    for _ in range(20):
        f = random_poly(basis, field, rng)
        for point in domain(field, v):
            assert evaluate(f, point) == _direct_eval(f, point)


def test_coefficient_length_is_checked():
    field = make_field(5, 1)
    basis = monomial_basis(1, 2)
    with pytest.raises(ValueError):
        MultiPoly(field=field, basis=basis, coeffs=((1,), (2,)))


def test_random_poly_is_deterministic_per_seed():
    field = make_field(3, 2)
    basis = monomial_basis(2, 2)
    a = random_poly(basis, field, random.Random(17))
    b = random_poly(basis, field, random.Random(17))
    c = random_poly(basis, field, random.Random(18))
    assert a.coeffs == b.coeffs
    assert a.coeffs != c.coeffs


# ----------------------------------------------------------------------
# agreement sets
# ----------------------------------------------------------------------

def test_agreement_set_of_identical_polys_is_whole_domain():
    field = make_field(5, 1)
    basis = monomial_basis(1, 2)
    f = random_poly(basis, field, random.Random(0))
    assert len(agreement_set([f, f])) == 5


def test_univariate_agreement_bounded_by_degree_over_1000_pairs():
    # distinct degree <= d polynomials agree on at most d points
    field = make_field(11, 1)
    d = 4
    basis = monomial_basis(1, d)
    rng = random.Random(2024)
    pairs = 0
    while pairs < 1000:
        f = random_poly(basis, field, rng)
        g = random_poly(basis, field, rng)
        if f.coeffs == g.coeffs:
            continue
        pairs += 1
        assert len(agreement_set([f, g])) <= d


def test_multivariate_agreement_matches_pointwise_scan():
    field = make_field(3, 1)
    basis = monomial_basis(2, 2)
    rng = random.Random(5)
    for _ in range(25):
        fs = [random_poly(basis, field, rng) for _ in range(3)]
        expected = {
            point
            for point in domain(field, 2)
            if len({evaluate(f, point) for f in fs}) == 1
        }
        assert agreement_set(fs) == expected


def test_agreement_set_validates_inputs():
    field = make_field(5, 1)
    basis = monomial_basis(1, 2)
    other = monomial_basis(1, 3)
    f = random_poly(basis, field, random.Random(0))
    g = random_poly(other, field, random.Random(0))
    with pytest.raises(ValueError):
        agreement_set([])
    with pytest.raises(ValueError):
        agreement_set([f, g])


def test_agreement_point_budget():
    field = make_field(5, 1)
    basis = monomial_basis(3, 1)
    f = random_poly(basis, field, random.Random(0))
    with pytest.raises(BudgetError):
        agreement_set([f, f], point_budget=100)  # 5^3 = 125 points


def test_random_poly_sampling_is_uniform():
    # 16 polynomials of degree <= 3 over GF(2); 4096 draws, 256 expected
    # each, tolerance five sigma = 5 * sqrt(4096 * (1/16) * (15/16))
    field = make_field(2, 1)
    basis = monomial_basis(1, 3)
    rng = random.Random(123)
    counts = Counter(random_poly(basis, field, rng).coeffs for _ in range(4096))
    assert len(counts) == 16
    tolerance = 5 * math.sqrt(4096 * (1 / 16) * (15 / 16))
    for coeffs, seen in counts.items():
        assert abs(seen - 256) <= tolerance, (coeffs, seen)


@settings(max_examples=100)
@given(st.integers(0, 6), st.integers(0, 6))
def test_basis_sizes_nest_by_degree(v, d):
    # degree filtration: each basis extends the previous one
    small = monomial_basis(v, d)
    large = monomial_basis(v, d + 1)
    assert large.exponents[: len(small)] == small.exponents


def test_evaluate_small_examples():
    gf5 = make_field(5, 1)
    basis = monomial_basis(2, 1)  # exponents (0,0), (1,0), (0,1)
    zero = MultiPoly(gf5, basis, (gf5.zero,) * 3)
    for point in domain(gf5, 2):
        assert evaluate(zero, point) == gf5.zero
    x1_plus_x2 = MultiPoly(gf5, basis, ((0,), (1,), (1,)))
    assert evaluate(x1_plus_x2, ((2,), (4,))) == (1,)  # 6 mod 5


def test_agreement_of_parallel_lines_is_empty():
    gf5 = make_field(5, 1)
    basis = monomial_basis(1, 1)
    x = MultiPoly(gf5, basis, ((0,), (1,)))
    x_plus_1 = MultiPoly(gf5, basis, ((1,), (1,)))
    assert agreement_set([x, x_plus_1]) == set()


def test_distinct_cubics_over_gf5_agree_on_at_most_three_points():
    gf5 = make_field(5, 1)
    basis = monomial_basis(1, 3)
    rng = random.Random(53)
    for _ in range(300):
        f = random_poly(basis, gf5, rng)
        g = random_poly(basis, gf5, rng)
        if f.coeffs == g.coeffs:
            continue
        assert len(agreement_set([f, g])) <= 3


@settings(max_examples=80, deadline=None)
@given(
    pk=st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]),
    num_vars=st.integers(1, 3),
    degree=st.integers(0, 2),
    count=st.integers(1, 4),
    keep=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mask_and_popcount_is_the_agreement_set_size(pk, num_vars, degree, count, keep, seed):
    field = make_field(*pk)
    q = field.q
    basis = monomial_basis(num_vars, degree)
    rng = random.Random(seed)
    # perturbations of one base polynomial, so agreement sets of every size occur
    base = random_poly(basis, field, rng).coeffs
    fs = [
        MultiPoly(field, basis, tuple(
            c if rng.random() < keep else field.elements()[rng.randrange(q)] for c in base
        ))
        for _ in range(count)
    ]
    common = -1
    for f in fs:
        mask = graph_mask(f)
        assert mask.bit_count() == q**num_vars  # one graph point per domain point
        common &= mask
    agreeing = agreement_set(fs)
    assert common.bit_count() == len(agreeing)
    block = (1 << q) - 1
    assert agreeing == {
        x for i, x in enumerate(domain(field, num_vars)) if common >> (i * q) & block
    }
