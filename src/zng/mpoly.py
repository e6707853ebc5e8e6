"""Dense multivariate polynomials of bounded total degree over a finite field.

A polynomial is the tuple of its coefficients on a fixed monomial basis:
all exponent tuples of total degree at most max_degree, in graded order
(degree first, lexicographically descending inside a degree), so
coefficient tuples line up across the whole family and serialization is
positional.  Coefficients are field element indices (gf.Field); the tuple
names neither its basis nor its field, which its caller holds once.
graph_mask turns a polynomial into the bitmask of its graph points, and is
where coefficients are checked; several polynomials agree on as many
points as the AND of their masks has bits.

graph_mask reads the monomial values of the domain F_q^num_vars, whose
points are numbered lexicographically in element order, from MonomialRows,
built once per build by monomial_rows: each monomial's values at every
point, one int per base-p digit with one fixed-width slot per point.
Multiplying by a coefficient is GF(p)-linear on the digits, so a candidate's
values at all points are sum_j c_j * V_j in B*k big-int multiply-adds by
per-coefficient constants (XORs when p = 2, where digits never carry), and
one pass over the unpacked slots reduces them mod p and sets the bits.  The
per-point references (evaluate, agreement_set, reference_graph_mask) live in
tests/helpers.py and run on residue tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array
from random import Random
from typing import Iterator, NamedTuple

from zng.errors import BudgetError
from zng.gf import Field

DEFAULT_BASIS_CAP = 100_000
DEFAULT_POINT_BUDGET = 1 << 20


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples with the given sum, first coordinate largest first."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


class MonomialBasis(NamedTuple):
    """All monomials in num_vars variables of total degree <= max_degree."""

    num_vars: int
    max_degree: int
    exponents: tuple[tuple[int, ...], ...]


def basis_size(num_vars: int, max_degree: int) -> int:
    """C(num_vars + max_degree, max_degree); BudgetError above DEFAULT_BASIS_CAP."""
    size = math.comb(num_vars + max_degree, max_degree)
    if size > DEFAULT_BASIS_CAP:
        raise BudgetError(
            f"degree {max_degree} needs a basis of {size} monomials, "
            f"above the cap {DEFAULT_BASIS_CAP}",
        )
    return size


def monomial_basis(num_vars: int, max_degree: int) -> MonomialBasis:
    """Build the graded monomial basis of basis_size(num_vars, max_degree) monomials.

    Raises:
        ValueError: negative dimensions.
        BudgetError: the basis would exceed DEFAULT_BASIS_CAP monomials.
    """
    if num_vars < 0 or max_degree < 0:
        raise ValueError("num_vars and max_degree must be nonnegative")
    size = basis_size(num_vars, max_degree)
    exps = tuple(
        exp
        for degree in range(max_degree + 1)
        for exp in _compositions(degree, num_vars)
    )
    assert len(exps) == size
    return MonomialBasis(num_vars, max_degree, exps)


def random_poly(basis: MonomialBasis, field: Field, rng: Random) -> tuple[int, ...]:
    """The coefficients of a uniform random polynomial on basis, in basis order.

    The draw consumes exactly one randrange(q) per monomial, in basis order,
    so a seeded rng reproduces the same polynomial bit for bit.
    """
    q = field.q
    return tuple(rng.randrange(q) for _ in range(len(basis.exponents)))


class MonomialRows(NamedTuple):
    """Every basis monomial at every domain point, packed into integers.

    planes[j] holds k ints, one per base-p digit u of the element indices:
    slot i of plane u holds digit u of monomial j's value at the i-th point
    of F_q^num_vars in lexicographic order.  scales[c] holds k ints too,
    the product of c with each digit's unit spread over one slot per digit,
    so sum_u digit_u * scales[c][u] is c times the value.  A slot is one
    item of an array.array of typecode.  When p > 2 a point owns k slots,
    one per digit of its value, wide enough for the worst-case sum of
    B * k * (p-1)^2 with B basis monomials.  When p = 2 a point owns one
    slot of at least k bits, the XOR of the products, which never carries.
    graph_mask reads coefficient tuples on this basis and field.
    """

    field: Field
    basis: MonomialBasis
    planes: list[tuple[int, ...]]
    scales: list[tuple[int, ...]]
    typecode: str


def slot_typecode(largest: int) -> str:
    """The narrowest unsigned array typecode whose items hold 0..largest."""
    return next(code for code in "BHIQ" if largest < 1 << 8 * array(code).itemsize)


def _to_int(slots: array) -> int:
    """The slots as one int, slot i at bits i*w.. with w bits a slot."""
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _to_slots(packed: int, typecode: str, count: int) -> array:
    """The inverse of _to_int for count slots."""
    slots = array(typecode)
    slots.frombytes(packed.to_bytes(count * slots.itemsize, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def monomial_rows(basis: MonomialBasis, field: Field) -> MonomialRows:
    """The monomial values of the whole domain, packed; callers bound the domain.

    A monomial's value is the antilog of sum_v e_v * log(x_v) mod q-1, or
    zero when a coordinate with e_v > 0 is zero.  Zero coordinates get a
    stand-in log larger than any sum of nonzero ones, so one sum decides
    both cases.
    """
    p, k, q = field.p, field.k, field.q
    log, exp = field.int_arith()
    n, big = q - 1, basis.max_degree * (q - 1) + 1
    coords = [big if e == log[0] else e for e in log]
    units = [p**u for u in range(k)]  # the index of each digit's unit
    if p == 2:
        typecode, width = slot_typecode(n), 1  # a point's slots
        spread = range(q)
    else:
        typecode, width = slot_typecode(len(basis.exponents) * k * (p - 1) ** 2), k
        shift = 8 * array(typecode).itemsize
        spread = [sum(a // unit % p << shift * d for d, unit in enumerate(units)) for a in range(q)]
    scales = [tuple(spread[exp[log[c] + log[unit]]] for unit in units) for c in range(q)]
    points = q**basis.num_vars
    planes = []
    for exps in basis.exponents:
        terms = ([e * c for c in coords] for e in exps)
        values = [exp[e % n] if e < big else 0 for e in map(sum, itertools.product(*terms))]
        plane = []
        for unit in units:
            slots = array(typecode, bytes(width * points * array(typecode).itemsize))
            slots[::width] = array(typecode, [a // unit % p for a in values])
            plane.append(_to_int(slots))
        planes.append(tuple(plane))
    return MonomialRows(field, basis, planes, scales, typecode)


def graph_mask(coeffs: tuple[int, ...], rows: MonomialRows) -> int:
    """Bitmask of the graph points {(x, f(x))} inside F_q^(num_vars+1).

    f is the polynomial with coefficient indices coeffs on rows.basis over
    rows.field.  Bit i*q + f(x_i) is set for the i-th point x_i of
    F_q^num_vars in lexicographic order: the numbering of the last part of
    the built graph, whose mask table these masks are.  The values of all
    points come from B*k products of a scale and a plane, summed (XORed when
    p = 2) and unpacked once.

    Raises:
        ValueError: not one coefficient per monomial, or one outside 0..q-1.
    """
    p, k, q = rows.field.p, rows.field.k, rows.field.q
    size = len(rows.basis.exponents)
    if len(coeffs) != size:
        raise ValueError(f"{len(coeffs)} coefficients for a {size}-monomial basis")
    if not 0 <= min(coeffs) <= max(coeffs) < q:  # a basis has at least one monomial
        raise ValueError(f"coefficients {coeffs} outside 0..{q - 1}")
    scales = itertools.chain.from_iterable(map(rows.scales.__getitem__, coeffs))
    products = map(operator.mul, scales, itertools.chain.from_iterable(rows.planes))
    points = q**rows.basis.num_vars
    if p == 2:
        values = _to_slots(functools.reduce(operator.xor, products, 0), rows.typecode, points)
    else:
        slots = _to_slots(sum(products), rows.typecode, points * k)
        values = map(p.__rmod__, slots[k - 1::k])
        for u in range(k - 2, -1, -1):
            values = map(operator.add, map(p.__mul__, values), map(p.__rmod__, slots[u::k]))
    bits = bytearray((q * points + 7) // 8)
    for vertex in map(operator.add, range(0, q * points, q), values):
        bits[vertex >> 3] |= 1 << (vertex & 7)
    return int.from_bytes(bits, "little")
