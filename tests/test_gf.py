"""Finite field arithmetic: exhaustive axioms, canonical moduli, budgets."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_field_axioms
from zng.errors import BudgetError
from zng.construct import derive_params
from zng.gf import DEFAULT_ORDER_CAP, factor_prime_power, make_field

def _prime_powers(limit: int) -> list[tuple[int, int, int]]:
    out = []
    for p in range(2, limit + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        q, k = p, 1
        while q <= limit:
            out.append((q, p, k))
            q *= p
            k += 1
    return sorted(out)


ALL_Q = _prime_powers(64)


def test_prime_power_table_is_complete():
    assert [q for q, _, _ in ALL_Q] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
        37, 41, 43, 47, 49, 53, 59, 61, 64,
    ]


@pytest.mark.parametrize("q,p,k", ALL_Q, ids=[f"q{q}" for q, _, _ in ALL_Q])
def test_field_axioms_exhaustive(q, p, k):
    field = make_field(p, k)
    assert field.q == q
    check_field_axioms(field)


def test_factor_prime_power():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(32) == (2, 5)
    assert factor_prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        factor_prime_power(6)
    with pytest.raises(ValueError):
        factor_prime_power(1)
    with pytest.raises(ValueError):
        factor_prime_power(12)


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ValueError, match="is not prime"):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(1, 1)


def test_order_cap_budget():
    with pytest.raises(BudgetError):
        make_field(2, 17)  # 2^17 > 2^16
    make_field(2, 16, order_cap=DEFAULT_ORDER_CAP)  # exactly at the cap


# ----------------------------------------------------------------------
# canonical moduli: lex-smallest monic irreducible, constant term first
# ----------------------------------------------------------------------

def test_smallest_irreducible_moduli_frozen():
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    # lex order is on the stored coefficient list, constant term first,
    # so x^3 + x^2 + 1 precedes x^3 + x + 1
    assert make_field(2, 3).modulus == (1, 0, 1, 1)
    assert make_field(5, 1).modulus is None  # prime fields carry no modulus


def test_modulus_is_irreducible_over_prime_subfield():
    # a reducible modulus would make some nonzero element non-invertible
    for p, k in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        field = make_field(p, k)
        for a in field.elements():
            if a != field.zero:
                assert field.mul(a, field.inv(a)) == field.one


def test_elements_are_lexicographic_and_indexable():
    field = make_field(3, 2)
    elems = field.elements()
    assert len(elems) == 9
    assert elems[0] == (0, 0)
    assert elems == tuple(sorted(elems))
    for i, a in enumerate(elems):
        assert field.index(a) == i


def test_frobenius_fixes_every_element():
    for p, k in [(2, 3), (3, 2), (5, 2), (2, 6)]:
        field = make_field(p, k)
        for a in field.elements():
            assert field.pow(a, field.q) == a


def test_pow_edge_cases():
    field = make_field(7, 1)
    a = (3,)
    assert field.pow(a, 0) == field.one
    assert field.pow(field.zero, 0) == field.one
    assert field.pow(a, 1) == a
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero)


def test_serialization_round_trip():
    field = make_field(3, 2)
    data = field.to_dict()
    assert data == {"p": 3, "k": 2, "modulus": [1, 0, 1]}  # x^2 + 1
    clone = make_field(data["p"], data["k"])
    assert clone == field
    assert list(clone.modulus) == data["modulus"]


@settings(max_examples=200)
@given(st.integers(0, 48), st.integers(0, 20), st.integers(0, 20))
def test_pow_is_a_homomorphism_in_the_exponent(idx, i, j):
    field = make_field(7, 2)
    a = field.elements()[idx]
    assert field.mul(field.pow(a, i), field.pow(a, j)) == field.pow(a, i + j)


def test_small_field_arithmetic_examples():
    gf2 = make_field(2, 1)
    assert gf2.add((1,), (1,)) == (0,)  # characteristic 2
    assert gf2.elements() == ((0,), (1,))

    gf5 = make_field(5, 1)
    assert gf5.inv((2,)) == (3,)  # 2 * 3 = 6 = 1 mod 5
    assert gf5.elements() == tuple((a,) for a in range(5))

    # GF(9) has modulus x^2 + 1, so x * x reduces to -1 = 2
    gf9 = make_field(3, 2)
    x = (0, 1)
    assert gf9.mul(x, x) == (2, 0)


# ----------------------------------------------------------------------
# integer tables on element indices
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q,p,k", ALL_Q, ids=[f"q{q}" for q, _, _ in ALL_Q])
def test_int_arith_matches_tuple_arithmetic(q, p, k):
    field = make_field(p, k)
    log, exp, total = field.int_arith()
    elems = field.elements()
    index = field.index
    assert len(log) == q and len(exp) == 4 * q - 3
    for a, x in enumerate(elems):
        assert exp[log[a]] == a
        for b, y in enumerate(elems):
            assert exp[log[a] + log[b]] == index(field.mul(x, y))
            assert total((a, b)) == index(field.add(x, y))
    assert total(()) == 0
    rng = random.Random(q)
    for _ in range(200):
        terms = [rng.randrange(q) for _ in range(rng.randrange(1, 8))]
        expected = field.zero
        for a in terms:
            expected = field.add(expected, elems[a])
        assert total(terms) == index(expected)


def _first_primitive(field) -> int:
    """Index of the first element in elements() order whose powers reach every nonzero element."""
    for g, a in enumerate(field.elements()):
        x, order = a, 1
        while x != field.one and order < field.q:
            x, order = field.mul(x, a), order + 1
        if x == field.one and order == field.q - 1:
            return g
    raise AssertionError("no primitive element")


@pytest.mark.parametrize("q,p,k", ALL_Q, ids=[f"q{q}" for q, _, _ in ALL_Q])
def test_int_arith_uses_the_first_primitive_element(q, p, k):
    field = make_field(p, k)
    _, exp, _ = field.int_arith()
    assert exp[1] == _first_primitive(field)
    assert make_field(p, k).int_arith()[:2] == field.int_arith()[:2]


def test_primitive_elements_are_frozen():
    assert make_field(5, 1).int_arith().exp[1] == 2
    assert make_field(7, 1).int_arith().exp[1] == 3
    assert make_field(2, 2).int_arith().exp[1] == 1  # x, modulus x^2 + x + 1
    assert make_field(3, 2).int_arith().exp[1] == 4  # 1 + x, modulus x^2 + 1


def test_make_field_builds_no_tables():
    for p, k in [(2, 1), (61, 1), (2, 5), (3, 3), (2, 8)]:
        assert make_field(p, k)._arith is None
    assert derive_params((2,), 4, 61).field._arith is None
    field = make_field(5, 2)
    assert field.int_arith() is field.int_arith()
