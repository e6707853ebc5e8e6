"""Finite field arithmetic: exhaustive axioms, canonical moduli, budgets."""

import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_field_axioms, residue_field
from zng.errors import BudgetError
from zng.construct import derive_params
from zng.gf import DEFAULT_ORDER_CAP, Field, make_field
from zng.mpoly import graph_mask, monomial_basis, monomial_rows

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
    field = make_field(q)
    assert (field.p, field.k, field.q) == (p, k, q)
    check_field_axioms(field)


def test_factor_prime_power():
    for q, p, k in ((9, 3, 2), (32, 2, 5), (7, 7, 1)):
        field = make_field(q)
        assert (field.p, field.k, field.q) == (p, k, q)
    for q in (6, 1, 12):
        with pytest.raises(ValueError):
            make_field(q)
    with pytest.raises(BudgetError):  # at the cap, not after sqrt(2^61) divisions
        make_field(2 * (2**61 - 1))


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        make_field(1)  # characteristic 1; a composite one cannot be asked for


def test_order_cap_budget():
    with pytest.raises(BudgetError):
        make_field(2**17)
    assert make_field(DEFAULT_ORDER_CAP).q == 2**16  # exactly at the cap
    started = time.perf_counter()
    for q in (1_000_000_000_000_000_003, 100_000, 10**5000):  # prime, composite, unprintable
        with pytest.raises(BudgetError):
            make_field(q)
    assert time.perf_counter() - started < 1.0  # refused before any trial division


# ----------------------------------------------------------------------
# canonical moduli: lex-smallest monic irreducible, constant term first
# ----------------------------------------------------------------------

def test_smallest_irreducible_moduli_frozen():
    assert make_field(9).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(4).modulus == (1, 1, 1)  # x^2 + x + 1
    # lex order is on the stored coefficient list, constant term first,
    # so x^3 + x^2 + 1 precedes x^3 + x + 1
    assert make_field(8).modulus == (1, 0, 1, 1)
    assert make_field(5).modulus is None  # prime fields carry no modulus


def test_modulus_is_irreducible_over_prime_subfield():
    # a reducible modulus would make some nonzero element non-invertible
    for p, k in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        ref = residue_field(make_field(p**k))
        for a in ref.elements[1:]:
            assert any(ref.mul(a, b) == ref.one for b in ref.elements)


def test_residues_are_the_lexicographic_tuples():
    for p, k in [(2, 1), (5, 1), (2, 3), (3, 2), (5, 2), (2, 6)]:
        field = make_field(p**k)
        assert [field.residues(a) for a in range(field.q)] == list(
            itertools.product(range(p), repeat=k)
        )
    assert make_field(9).residues(5) == (1, 2)  # 1 + 2x, constant term first


def _times(field):
    """The product of two element indices, read from the tables."""
    log, exp = field.int_arith()
    return lambda a, b: exp[log[a] + log[b]]


def _plus(field):
    """The sum of two element indices, by residues."""
    ref = residue_field(field)
    return lambda a, b: ref.index[ref.add(ref.elements[a], ref.elements[b])]


def _power(field, a: int, e: int) -> int:
    """a^e by e table products, starting from 1."""
    times, x = _times(field), field.q // field.p
    for _ in range(e):
        x = times(x, a)
    return x


def test_frobenius_fixes_every_element():
    for p, k in [(2, 3), (3, 2), (5, 2), (2, 6)]:
        field = make_field(p**k)
        plus = _plus(field)
        frob = [_power(field, a, p) for a in range(field.q)]
        for a in range(field.q):
            assert _power(field, a, field.q) == a
            for b in range(0, field.q, 3):
                # x -> x^p is additive in characteristic p
                assert frob[plus(a, b)] == plus(frob[a], frob[b])


def test_pow_edge_cases():
    field = make_field(49)
    log, exp = field.int_arith()
    one = field.q // field.p
    assert exp[0] == one and log[one] == 0  # a^0 = 1
    for a in range(1, field.q):
        assert exp[log[a]] == a  # a^1 = a
    # zero has no inverse: every product with zero is zero
    assert {exp[log[0] + log[b]] for b in range(field.q)} == {0}


def test_serialization_round_trip():
    field = make_field(9)
    assert Field._fields == ("p", "k", "modulus")  # q is a property, not a key
    text = json.dumps(field._asdict())
    assert text == '{"p": 3, "k": 2, "modulus": [1, 0, 1]}'  # x^2 + 1
    assert json.dumps(make_field(5)._asdict()) == '{"p": 5, "k": 1, "modulus": null}'
    data = json.loads(text)
    clone = make_field(data["p"] ** data["k"])
    assert clone == field and hash(clone) == hash(field) and clone is not field
    assert len({field, clone, make_field(3)}) == 2
    assert clone.modulus == tuple(data["modulus"])


@settings(max_examples=200)
@given(st.integers(0, 48), st.integers(0, 20), st.integers(0, 20))
def test_pow_is_a_homomorphism_in_the_exponent(a, i, j):
    field = make_field(49)
    times = _times(field)
    assert times(_power(field, a, i), _power(field, a, j)) == _power(field, a, i + j)


def test_small_field_arithmetic_examples():
    gf2 = make_field(2)
    # 1 + x is 1 at x = 0 (bit 0*2 + 1) and 1 + 1 = 0 at x = 1 (bit 1*2 + 0)
    assert graph_mask((1, 1), monomial_rows(monomial_basis(1, 1), gf2)) == 0b0110

    gf5 = make_field(5)
    assert _times(gf5)(2, 3) == 1  # 2 * 3 = 6 = 1 mod 5
    assert [gf5.residues(a) for a in range(5)] == [(a,) for a in range(5)]

    # GF(9) has modulus x^2 + 1, so x * x reduces to -1 = 2
    gf9 = make_field(9)
    x = 1  # residues (0, 1)
    assert gf9.residues(_times(gf9)(x, x)) == (2, 0)


# ----------------------------------------------------------------------
# integer tables on element indices
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q,p,k", ALL_Q, ids=[f"q{q}" for q, _, _ in ALL_Q])
def test_int_arith_matches_tuple_arithmetic(q, p, k):
    field = make_field(q)
    ref = residue_field(field)
    log, exp = field.int_arith()
    elems, index = ref.elements, ref.index
    assert len(log) == q and len(exp) == 4 * q - 3
    for a, x in enumerate(elems):
        assert exp[log[a]] == a
        for b, y in enumerate(elems):
            assert exp[log[a] + log[b]] == index[ref.mul(x, y)]


def _first_primitive(field) -> int:
    """Index of the first element whose powers reach every nonzero element."""
    ref = residue_field(field)
    for g, a in enumerate(ref.elements):
        x, order = a, 1
        while x != ref.one and order < field.q:
            x, order = ref.mul(x, a), order + 1
        if x == ref.one and order == field.q - 1:
            return g
    raise AssertionError("no primitive element")


@pytest.mark.parametrize("q,p,k", ALL_Q, ids=[f"q{q}" for q, _, _ in ALL_Q])
def test_int_arith_uses_the_first_primitive_element(q, p, k):
    field = make_field(q)
    _, exp = field.int_arith()
    assert exp[1] == _first_primitive(field)
    assert make_field(q).int_arith() == field.int_arith()


def test_primitive_elements_are_frozen():
    assert make_field(5).int_arith().exp[1] == 2
    assert make_field(7).int_arith().exp[1] == 3
    assert make_field(4).int_arith().exp[1] == 1  # x, modulus x^2 + x + 1
    assert make_field(9).int_arith().exp[1] == 4  # 1 + x, modulus x^2 + 1


def test_make_field_builds_no_tables(monkeypatch):
    def no_tables(self):
        raise AssertionError(f"tables built for GF({self.q})")

    monkeypatch.setattr(Field, "int_arith", no_tables)
    for p, k in [(2, 1), (61, 1), (2, 5), (3, 3), (2, 8)]:
        assert make_field(p**k).q == p**k
    params = derive_params((2,), 4, 61, (61,))
    assert params.advice == (
        "capacity 2307640 would allow a balanced split with 2307640 vertices per part "
        "(61 tuples requested)"
    )
