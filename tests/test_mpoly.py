"""Monomial bases, graph masks, agreement sizes, and sampling uniformity.

evaluate, agreement_set and domain are the residue-tuple references of
tests/helpers.py; graph_mask is checked against them.
"""

import math
import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import agreement_set, domain, evaluate, reference_graph_mask, residue_field
import zng.mpoly
from zng.errors import BudgetError
from zng.gf import make_field
from zng.mpoly import graph_mask, monomial_basis, monomial_rows, random_poly, slot_typecode


@pytest.mark.parametrize("v", range(0, 7))
@pytest.mark.parametrize("d", range(0, 7))
def test_basis_size_is_binomial(v, d):
    assert len(monomial_basis(v, d).exponents) == math.comb(v + d, d)


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
    assert len(set(basis.exponents)) == len(basis.exponents)
    assert all(sum(e) <= 4 for e in basis.exponents)


def test_basis_size_cap(monkeypatch):
    with pytest.raises(BudgetError, match="degree 20 needs a basis of"):
        monomial_basis(20, 20)
    # a cap met exactly is allowed
    monkeypatch.setattr(zng.mpoly, "DEFAULT_BASIS_CAP", math.comb(12, 6))
    assert len(monomial_basis(6, 6).exponents) == math.comb(12, 6)
    with pytest.raises(BudgetError):
        monomial_basis(7, 6)


def test_domain_enumerates_all_points_lexicographically():
    field = make_field(3)
    pts = list(domain(field, 2))
    assert len(pts) == 9
    assert pts == sorted(pts)
    assert pts[0] == ((0,), (0,))


def _direct_eval(field, basis, coeffs, point):
    """Reference evaluation: sum coeff * prod(var^exp), one product at a time."""
    ref = residue_field(field)
    acc = ref.zero
    for exps, coeff in zip(basis.exponents, coeffs):
        term = ref.elements[coeff]
        for x, e in zip(point, exps):
            for _ in range(e):
                term = ref.mul(term, x)
        acc = ref.add(acc, term)
    return acc


@pytest.mark.parametrize("p,k,v,d", [(5, 1, 2, 3), (2, 2, 2, 2), (3, 1, 3, 2)])
def test_evaluate_matches_direct_expansion(p, k, v, d):
    field = make_field(p**k)
    basis = monomial_basis(v, d)
    rng = random.Random(99)
    for _ in range(20):
        f = random_poly(basis, field, rng)
        for point in domain(field, v):
            assert evaluate(field, basis, f, point) == _direct_eval(field, basis, f, point)


def test_coefficient_length_is_checked():
    rows = monomial_rows(monomial_basis(1, 2), make_field(5))
    with pytest.raises(ValueError, match="^2 coefficients for a 3-monomial basis$"):
        graph_mask((1, 2), rows)
    with pytest.raises(ValueError, match="^4 coefficients for a 3-monomial basis$"):
        graph_mask((1, 2, 3, 4), rows)


@pytest.mark.parametrize("bad", [-1, 9])
def test_coefficients_outside_the_field_are_rejected(bad):
    field = make_field(9)
    basis = monomial_basis(1, 2)
    rows = monomial_rows(basis, field)
    with pytest.raises(ValueError, match=rf"^coefficients \(0, {bad}, 8\) outside 0\.\.8$"):
        graph_mask((0, bad, 8), rows)
    assert graph_mask((0, 4, 8), rows) == reference_graph_mask(field, basis, (0, 4, 8))


def test_random_poly_is_deterministic_per_seed():
    field = make_field(9)
    basis = monomial_basis(2, 2)
    a = random_poly(basis, field, random.Random(17))
    b = random_poly(basis, field, random.Random(17))
    c = random_poly(basis, field, random.Random(18))
    assert a == b
    assert a != c


# ----------------------------------------------------------------------
# agreement sets: popcounts of mask ANDs, and the reference
# ----------------------------------------------------------------------

def _agreement_size(field, basis, fs) -> int:
    """Points where every polynomial of fs agrees: the popcount of the mask AND."""
    rows = monomial_rows(basis, field)
    common = -1
    for f in fs:
        common &= graph_mask(f, rows)
    return common.bit_count()


def test_agreement_set_of_identical_polys_is_whole_domain():
    field = make_field(5)
    basis = monomial_basis(1, 2)
    f = random_poly(basis, field, random.Random(0))
    assert _agreement_size(field, basis, [f, f]) == len(agreement_set(field, basis, [f, f])) == 5


def test_univariate_agreement_bounded_by_degree_over_1000_pairs():
    # distinct degree <= d polynomials agree on at most d points
    field = make_field(11)
    d = 4
    basis = monomial_basis(1, d)
    rng = random.Random(2024)
    pairs = 0
    while pairs < 1000:
        f = random_poly(basis, field, rng)
        g = random_poly(basis, field, rng)
        if f == g:
            continue
        pairs += 1
        assert _agreement_size(field, basis, [f, g]) <= d


def test_multivariate_agreement_matches_pointwise_scan():
    field = make_field(3)
    basis = monomial_basis(2, 2)
    rng = random.Random(5)
    for _ in range(25):
        fs = [random_poly(basis, field, rng) for _ in range(3)]
        expected = {
            point
            for point in domain(field, 2)
            if len({_direct_eval(field, basis, f, point) for f in fs}) == 1
        }
        assert agreement_set(field, basis, fs) == expected
        assert _agreement_size(field, basis, fs) == len(expected)


def test_agreement_set_validates_inputs():
    field = make_field(5)
    basis = monomial_basis(1, 2)
    other = monomial_basis(1, 3)
    f = random_poly(basis, field, random.Random(0))
    g = random_poly(other, field, random.Random(0))
    with pytest.raises(ValueError):
        agreement_set(field, basis, [])
    with pytest.raises(ValueError):
        agreement_set(field, basis, [f, g])


def test_agreement_point_budget():
    field = make_field(5)
    basis = monomial_basis(3, 1)
    f = random_poly(basis, field, random.Random(0))
    with pytest.raises(BudgetError):
        agreement_set(field, basis, [f, f], point_budget=100)  # 5^3 = 125 points


def test_random_poly_sampling_is_uniform():
    # 16 polynomials of degree <= 3 over GF(2); 4096 draws, 256 expected
    # each, tolerance five sigma = 5 * sqrt(4096 * (1/16) * (15/16))
    field = make_field(2)
    basis = monomial_basis(1, 3)
    rng = random.Random(123)
    counts = Counter(random_poly(basis, field, rng) for _ in range(4096))
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
    assert large.exponents[: len(small.exponents)] == small.exponents


def test_evaluate_small_examples():
    gf5 = make_field(5)
    basis = monomial_basis(2, 1)  # exponents (0,0), (1,0), (0,1)
    for point in domain(gf5, 2):
        assert evaluate(gf5, basis, (0,) * 3, point) == (0,)
    x1_plus_x2 = (0, 1, 1)
    assert evaluate(gf5, basis, x1_plus_x2, ((2,), (4,))) == (1,)  # 6 mod 5
    # over GF(9), modulus x^2 + 1: indices 4 and 5 are 1 + x and 1 + 2x, and
    # at x1 = x, (1 + x) + (1 + 2x) x = 1 + 2x + 2x^2 = 2 + 2x
    gf9 = make_field(9)
    assert evaluate(gf9, monomial_basis(1, 1), (4, 5), ((0, 1),)) == (2, 2)


def test_agreement_of_parallel_lines_is_empty():
    gf5 = make_field(5)
    basis = monomial_basis(1, 1)
    x, x_plus_1 = (0, 1), (1, 1)
    assert agreement_set(gf5, basis, [x, x_plus_1]) == set()
    assert _agreement_size(gf5, basis, [x, x_plus_1]) == 0


def test_distinct_cubics_over_gf5_agree_on_at_most_three_points():
    gf5 = make_field(5)
    basis = monomial_basis(1, 3)
    rng = random.Random(53)
    for _ in range(300):
        f = random_poly(basis, gf5, rng)
        g = random_poly(basis, gf5, rng)
        if f == g:
            continue
        assert _agreement_size(gf5, basis, [f, g]) <= 3


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5, 4, 8, 9]),
    num_vars=st.integers(1, 3),
    degree=st.integers(0, 2),
    count=st.integers(1, 4),
    keep=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mask_and_popcount_is_the_agreement_set_size(q, num_vars, degree, count, keep, seed):
    field = make_field(q)
    basis = monomial_basis(num_vars, degree)
    rng = random.Random(seed)
    # perturbations of one base polynomial, so agreement sets of every size occur
    base = random_poly(basis, field, rng)
    fs = [
        tuple(c if rng.random() < keep else rng.randrange(q) for c in base)
        for _ in range(count)
    ]
    rows = monomial_rows(basis, field)
    common = -1
    for f in fs:
        mask = graph_mask(f, rows)
        assert mask.bit_count() == q**num_vars  # one graph point per domain point
        common &= mask
    agreeing = agreement_set(field, basis, fs)
    assert common.bit_count() == len(agreeing)
    block = (1 << q) - 1
    assert agreeing == {
        x for i, x in enumerate(domain(field, num_vars)) if common >> (i * q) & block
    }


# (q, num_vars, degree): the sweep ladder 5..27 plus 32 and 61 at s=(2,),
# t=4, and the stress shapes (2,2) t=16 q=11, (2,3) t=36 q=5, (3,) t=9 q=25/27
MASK_SHAPES = [
    *((q, 1, 3) for q in (5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 32, 61)),
    (11, 3, 2),
    (5, 5, 2),
    (25, 2, 2),
    (27, 2, 2),
]


@pytest.mark.parametrize("q, num_vars, degree", MASK_SHAPES, ids=str)
def test_graph_mask_matches_per_point_evaluation(q, num_vars, degree):
    field = make_field(q)
    basis = monomial_basis(num_vars, degree)
    rows = monomial_rows(basis, field)
    one = q // field.p
    rng = random.Random(q * 100 + num_vars)
    size = len(basis.exponents)
    coeff_lists = [
        (0,) * size,  # the zero polynomial
        (one,) + (0,) * (size - 1),
        (q - 1,) + (0,) * (size - 1),  # constants
        (0,) + tuple(rng.randrange(q) for _ in range(size - 1)),
        tuple(rng.randrange(q) if j % 2 else 0 for j in range(size)),
        (0,) * (size - 1) + (1,),  # a single top-degree term
        *(random_poly(basis, field, rng) for _ in range(2 if q**num_vars > 1000 else 6)),
    ]
    for coeffs in coeff_lists:
        assert graph_mask(coeffs, rows) == reference_graph_mask(field, basis, coeffs)


@pytest.mark.parametrize("q", [9, 8, 7])
def test_monomial_rows_hold_the_monomial_digits(q):
    field = make_field(q)
    p, k = field.p, field.k
    basis = monomial_basis(2, 2)
    rows = monomial_rows(basis, field)
    ref = residue_field(field)
    bits = 8 * array(rows.typecode).itemsize
    group = bits * (1 if p == 2 else k)  # the bits a point owns
    size = len(basis.exponents)
    points = list(domain(field, 2))
    assert len(rows.planes) == size and len(rows.scales) == q
    for j, planes in enumerate(rows.planes):
        monomial = tuple(q // p if i == j else 0 for i in range(size))
        values = [ref.index[evaluate(field, basis, monomial, x)] for x in points]
        assert planes == tuple(
            sum(a // p**u % p << group * i for i, a in enumerate(values)) for u in range(k)
        )
    for c, scales in enumerate(rows.scales):
        products = [ref.index[ref.mul(ref.elements[c], ref.elements[p**u])] for u in range(k)]
        if p > 2:  # digit d of each product in slot d
            products = [sum(a // p**d % p << bits * d for d in range(k)) for a in products]
        assert scales == tuple(products)


# every prime power up to 32 and a few past it: k up to 9 with p = 2, 5 with p = 3;
# GF(2^9) is the first field of characteristic 2 whose slots take 16 bits
KERNEL_ORDERS = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 49, 64, 81, 125, 243, 256,
    512,
]


@pytest.mark.parametrize("q", KERNEL_ORDERS)
def test_graph_mask_matches_the_reference_on_every_small_field(q):
    field = make_field(q)
    rng = random.Random(q)
    for num_vars in range(4):
        if q**num_vars > 5000:
            break
        basis = monomial_basis(num_vars, 3 if num_vars < 3 else 2)
        rows = monomial_rows(basis, field)
        size = len(basis.exponents)
        for coeffs in (
            (0,) * size,
            (q - 1,) * size,
            *(random_poly(basis, field, rng) for _ in range(1 if q**num_vars > 1000 else 3)),
        ):
            assert graph_mask(coeffs, rows) == reference_graph_mask(field, basis, coeffs)


def test_slot_width_changes_at_the_worst_case_sum():
    """A point's slot holds B * k * (p-1)^2: one below and one above each width change."""
    largest = [(1 << bits) - 1 for bits in (8, 16, 32)]
    assert [slot_typecode(n) for n in largest] == ["B", "H", "I"]
    assert [slot_typecode(n + 1) for n in largest] == ["H", "I", "Q"]
    # GF(81): 4 digits mod 3, so B monomials sum to 16 B at most: 240 at
    # degree 14, 256 at degree 15.  GF(251) and GF(257) at B = 1: 62,500
    # and 65,536.  GF(65521) at B = 1: 65520^2, just below 2^32.
    for q, num_vars, degree, typecode in (
        (81, 1, 14, "B"), (81, 1, 15, "H"), (251, 0, 0, "H"), (257, 0, 0, "I"),
        (65521, 0, 0, "I"),
    ):
        field = make_field(q)
        basis = monomial_basis(num_vars, degree)
        rows = monomial_rows(basis, field)
        assert rows.typecode == typecode
        rng = random.Random(degree)
        size = len(basis.exponents)
        for coeffs in ((q - 1,) * size, *(random_poly(basis, field, rng) for _ in range(3))):
            assert graph_mask(coeffs, rows) == reference_graph_mask(field, basis, coeffs)
    # and twice that at B = 2, whose masks of q^2 bits are too wide to compare
    assert monomial_rows(monomial_basis(1, 1), make_field(65521)).typecode == "Q"
