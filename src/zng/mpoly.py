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
points are numbered lexicographically in element order, from MonomialRows:
discrete logs and the field's tables (gf.Field.int_arith), built once per
build by monomial_rows.  A candidate's value at point i is then
sum_j c_j * row_i[j]: one antilog lookup per term and one integer field sum
per point.  The per-point references (evaluate, agreement_set) live in
tests/helpers.py and run on residue tuples.
"""

from __future__ import annotations

import itertools
import math
import operator
from random import Random
from typing import Iterator, NamedTuple

from zng.errors import BudgetError
from zng.gf import Field, IntArith

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
    """Every basis monomial at every domain point, as discrete logs.

    arith is field.int_arith(), and logs[i][j] is the log (in arith) of
    monomial j of basis at the i-th point of F_q^num_vars in lexicographic
    order; a zero value has the zero log.  graph_mask reads coefficient
    tuples on this basis and field.
    """

    field: Field
    basis: MonomialBasis
    arith: IntArith
    logs: list[list[int]]


def monomial_rows(basis: MonomialBasis, field: Field) -> MonomialRows:
    """The monomial values of the whole domain; callers bound the domain.

    A monomial's log is sum_v e_v * log(x_v) mod q-1, or the zero log when a
    coordinate with e_v > 0 is zero.  Zero coordinates get a stand-in log
    larger than any sum of nonzero ones, so one sum decides both cases.
    """
    arith = field.int_arith()
    log = arith.log
    zero, n = log[0], field.q - 1
    big = basis.max_degree * n + 1
    coords = [big if e == zero else e for e in log]
    logs = []
    for point in itertools.product(coords, repeat=basis.num_vars):
        row = []
        for exps in basis.exponents:
            e = sum(map(operator.mul, exps, point))
            row.append(e % n if e < big else zero)
        logs.append(row)
    return MonomialRows(field, basis, arith, logs)


def graph_mask(coeffs: tuple[int, ...], rows: MonomialRows) -> int:
    """Bitmask of the graph points {(x, f(x))} inside F_q^(num_vars+1).

    f is the polynomial with coefficient indices coeffs on rows.basis over
    rows.field.  Bit i*q + f(x_i) is set for the i-th point x_i of
    F_q^num_vars in lexicographic order: the numbering of the last part of
    the built graph, whose mask table these masks are.

    Raises:
        ValueError: not one coefficient per monomial, or one outside 0..q-1.
    """
    q, size = rows.field.q, len(rows.basis.exponents)
    if len(coeffs) != size:
        raise ValueError(f"{len(coeffs)} coefficients for a {size}-monomial basis")
    if not 0 <= min(coeffs) <= max(coeffs) < q:  # a basis has at least one monomial
        raise ValueError(f"coefficients {coeffs} outside 0..{q - 1}")
    log, exp, total = rows.arith
    term = exp.__getitem__
    coeff_logs = [log[c] for c in coeffs]
    bits = bytearray((q * len(rows.logs) + 7) // 8)
    offset = 0  # i*q for the i-th point
    for row in rows.logs:
        vertex = offset + total(map(term, map(operator.add, coeff_logs, row)))
        bits[vertex >> 3] |= 1 << (vertex & 7)
        offset += q
    return int.from_bytes(bits, "little")
