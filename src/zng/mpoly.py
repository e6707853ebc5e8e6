"""Dense multivariate polynomials of bounded total degree over a finite field.

A polynomial lives on a fixed monomial basis: all exponent tuples of total
degree at most max_degree, in graded order (degree first, lexicographically
descending inside a degree), so coefficient tuples line up across the whole
family and serialization is positional.  graph_mask turns a polynomial into
the bitmask of its graph points; several polynomials agree on as many points
as the AND of their masks has bits.  agreement_set is the exhaustive
reference for that count, evaluating over all of F_q^num_vars under a budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from random import Random
from typing import Iterator, Sequence

from zng.errors import BudgetError
from zng.gf import Field, FieldElement

DEFAULT_BASIS_CAP = 100_000
DEFAULT_POINT_BUDGET = 1 << 20

Point = tuple[FieldElement, ...]


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


@dataclass(frozen=True)
class MonomialBasis:
    """All monomials in num_vars variables of total degree <= max_degree."""

    num_vars: int
    max_degree: int
    exponents: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.exponents)


def monomial_basis(num_vars: int, max_degree: int, size_cap: int = DEFAULT_BASIS_CAP) -> MonomialBasis:
    """Build the graded monomial basis; size is C(num_vars + max_degree, max_degree).

    Raises:
        ValueError: negative dimensions.
        BudgetError: the basis would exceed size_cap monomials.
    """
    if num_vars < 0 or max_degree < 0:
        raise ValueError("num_vars and max_degree must be nonnegative")
    size = math.comb(num_vars + max_degree, max_degree)
    if size > size_cap:
        raise BudgetError(
            f"basis has {size} monomials, above the cap {size_cap}",
            required=size,
            budget=size_cap,
        )
    exps = tuple(
        exp
        for degree in range(max_degree + 1)
        for exp in _compositions(degree, num_vars)
    )
    assert len(exps) == size
    return MonomialBasis(num_vars, max_degree, exps)


@dataclass(frozen=True)
class MultiPoly:
    """A polynomial as a dense coefficient tuple on a shared basis."""

    field: Field
    basis: MonomialBasis
    coeffs: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.basis):
            raise ValueError(
                f"{len(self.coeffs)} coefficients for a {len(self.basis)}-monomial basis"
            )


def random_poly(basis: MonomialBasis, field: Field, rng: Random) -> MultiPoly:
    """Draw each coefficient independently and uniformly from the field.

    The draw consumes exactly one randrange(q) per monomial, in basis order,
    so a seeded rng reproduces the same polynomial bit for bit.
    """
    elements = field.elements()
    coeffs = tuple(elements[rng.randrange(field.q)] for _ in range(len(basis)))
    return MultiPoly(field, basis, coeffs)


def _monomial_values(basis: MonomialBasis, point: Point, field: Field) -> list[FieldElement]:
    powers: list[list[FieldElement]] = []
    for coord in point:
        col = [field.one]
        for _ in range(basis.max_degree):
            col.append(field.mul(col[-1], coord))
        powers.append(col)
    values = []
    for exps in basis.exponents:
        acc = field.one
        for var, e in enumerate(exps):
            if e:
                acc = field.mul(acc, powers[var][e])
        values.append(acc)
    return values


def _dot(f: MultiPoly, monos: list[FieldElement]) -> FieldElement:
    """f's value at the point whose monomial values are monos."""
    field = f.field
    zero = acc = field.zero
    for coeff, mono in zip(f.coeffs, monos):
        if coeff != zero:
            acc = field.add(acc, field.mul(coeff, mono))
    return acc


def evaluate(f: MultiPoly, point: Point) -> FieldElement:
    """Evaluate f at a point of F_q^num_vars."""
    if len(point) != f.basis.num_vars:
        raise ValueError(f"point has {len(point)} coordinates, expected {f.basis.num_vars}")
    return _dot(f, _monomial_values(f.basis, point, f.field))


def domain(field: Field, num_vars: int) -> Iterator[Point]:
    """All points of F_q^num_vars, lexicographic in the field's element order."""
    return itertools.product(field.elements(), repeat=num_vars)


def graph_mask(f: MultiPoly) -> int:
    """Bitmask of the graph points {(x, f(x))} of f inside F_q^(num_vars+1).

    Bit i*q + index(f(x_i)) is set for the i-th point x_i of domain(): the
    lexicographic point numbering that construct.family_graph uses for the
    last part.  One evaluation per domain point; callers bound the domain.
    """
    field, basis = f.field, f.basis
    q = field.q
    bits = bytearray((q ** (basis.num_vars + 1) + 7) // 8)
    for i, point in enumerate(domain(field, basis.num_vars)):
        vertex = i * q + field.index(_dot(f, _monomial_values(basis, point, field)))
        bits[vertex >> 3] |= 1 << (vertex & 7)
    return int.from_bytes(bits, "little")


def agreement_set(
    fs: Sequence[MultiPoly], point_budget: int = DEFAULT_POINT_BUDGET
) -> set[Point]:
    """Points where all polynomials in fs take one common value.

    Computed by exhaustive evaluation over the whole domain; the reference
    for the popcount of the AND of graph_mask values.  Adding a polynomial
    can only shrink the result; a single polynomial agrees with itself
    everywhere.

    Raises:
        ValueError: empty input, or mismatched bases.
        BudgetError: the domain has more than point_budget points.
    """
    if not fs:
        raise ValueError("agreement_set needs at least one polynomial")
    first = fs[0]
    field, basis = first.field, first.basis
    for f in fs[1:]:
        if f.basis != basis or f.field != field:
            raise ValueError("polynomials live on different bases or fields")
    size = field.q**basis.num_vars
    if size > point_budget:
        raise BudgetError(
            f"domain has {size} points, above the budget {point_budget}",
            required=size,
            budget=point_budget,
        )
    agreeing: set[Point] = set()
    for point in domain(field, basis.num_vars):
        monos = _monomial_values(basis, point, field)
        value = None
        same = True
        for f in fs:
            acc = _dot(f, monos)
            if value is None:
                value = acc
            elif acc != value:
                same = False
                break
        if same:
            agreeing.add(point)
    return agreeing
