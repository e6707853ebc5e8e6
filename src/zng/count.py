"""Exact ordered-pattern counting and the convexity lower-bound chain.

count_ordered enumerates subset choices on the first r-1 parts through
RPartiteHypergraph.pattern_sizes, which intersects prefix neighborhoods in
the last part, and sums binomials of the intersection sizes; every number is
an exact integer.  count_report takes the exact and the intermediate count
(s_r = 1) from one such pass, as both enumerate the same patterns.
jensen_lower_bound replaces each averaging step of that count with the
generalized binomial of the mean, which can only go down by convexity, so
the bound is a certified floor for the exact count on every graph, not just
asymptotically; a two-part step depends only on the edge count, so it is
evaluated once per distinct link size.  All rational arithmetic uses
fractions.Fraction; nothing here touches floats.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from zng.hypergraph import (
    DEFAULT_PATTERN_BUDGET,
    RPartiteHypergraph,
    index_masks,
    pattern_count,
    set_bits,
)

Rational = int | Fraction


def gen_binom(x: Rational, s: int) -> Fraction:
    """Generalized binomial: 0 below s-1, else x(x-1)...(x-s+1)/s!.

    Defined for exact rational x and integer s >= 1; nondecreasing and convex
    in x on x >= 0, which is what makes the averaging bound sound.
    """
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    x = Fraction(x)
    if x < s - 1:
        return Fraction(0)
    prod = Fraction(1)
    for i in range(s):
        prod *= x - i
    return prod / math.factorial(s)


def _check_sides(H: RPartiteHypergraph, s_list: tuple[int, ...]) -> None:
    if len(s_list) != H.r:
        raise ValueError(f"{len(s_list)} side sizes for a {H.r}-part graph, which takes {H.r}")
    if any(s < 1 for s in s_list):
        raise ValueError(f"pattern sizes must be >= 1, got {s_list}")


def _count_pass(
    H: RPartiteHypergraph, s_list: tuple[int, ...], pattern_budget: int
) -> tuple[int, int]:
    """(sum of C(size, s_r), sum of size) over one pass of H.pattern_sizes.

    The sizes are those of the patterns on the first r-1 parts, so the two
    sums are the counts at s_list and at s_list[:-1] + (1,).  A pattern that
    pattern_sizes leaves out has size 0 and adds 0 to both.
    """
    pattern_count(H.part_sizes[:-1], s_list[:-1], pattern_budget)
    s_r = itertools.repeat(s_list[-1])
    exact = intermediate = 0
    for _, sizes in H.pattern_sizes(s_list[:-1]):
        exact += sum(map(math.comb, sizes, s_r))
        intermediate += sum(sizes)
    return exact, intermediate


def count_ordered(H: RPartiteHypergraph, s_list: tuple[int, ...]) -> int:
    """Exact number of ordered complete patterns with side sizes s_list.

    A pattern is a tuple of subsets (S_1, ..., S_r), |S_i| = s_i, S_i inside
    part i, with every transversal r-tuple an edge.  Enumeration runs over
    the first r-1 subsets only; the last part contributes
    C(|common neighborhood|, s_r) per choice.

    Args:
        H: the graph.
        s_list: one side size per part, length r.

    Returns:
        The exact count, 0 when some s_i exceeds its part.

    Raises:
        BudgetError: more than DEFAULT_PATTERN_BUDGET mask lookups.
    """
    _check_sides(H, s_list)
    return _count_pass(H, s_list, DEFAULT_PATTERN_BUDGET)[0]


def jensen_lower_bound(H: RPartiteHypergraph, s_list: tuple[int, ...]) -> Fraction:
    """Constant-free lower bound for count_ordered via convexity.

    For two parts the bound is the closed chain
        C(m_1,s_1) * gen_binom(m_2 * gen_binom(e/m_2, s_1) / C(m_1,s_1), s_2),
    and for more parts the intermediate count is bounded per link, exactly,
    before one final averaging step over the last part:
        t_a >= sum over last-part vertices v of LB(link(v), s_list[:-1]).
    The link of v is the (r-1)-partite graph of the prefixes whose mask has
    bit v; an empty link bounds 0, so only vertices with edges are visited.
    A two-part bound depends only on its edge count, so with three parts the
    vertices are grouped by link size, counted from the mask bits, and each
    size is evaluated once; with more, each vertex's prefix ranks, grouped
    in one pass over the mask bits, recurse as the mask table of its link.

    Always <= count_ordered(H, s_list), with equality on complete graphs.
    """
    _check_sides(H, s_list)
    part_sizes = H.part_sizes
    if H.r == 1:
        # every edge is a vertex of the single part; the count is a binomial
        return gen_binom(H.num_edges, s_list[0])
    if H.r == 2:
        return _jensen_two(part_sizes, H.num_edges, s_list)
    sizes, sides = part_sizes[:-1], s_list[:-1]
    choices = pattern_count(sizes, sides)
    if choices == 0:
        return Fraction(0)
    if H.r == 3:
        degrees = Counter(itertools.chain.from_iterable(map(set_bits, H.masks.values())))
        link_sizes = Counter(degrees.values())
        t_a = sum(n * _jensen_two(sizes, size, sides) for size, n in link_sizes.items())
    else:
        t_a = Fraction(0)
        for ranks in H.links().values():
            link = RPartiteHypergraph(sizes, index_masks(ranks, sizes[-1]))
            t_a += jensen_lower_bound(link, sides)
    return choices * gen_binom(Fraction(t_a, choices), s_list[-1])


def _jensen_two(part_sizes: tuple[int, ...], num_edges: int, s_list: tuple[int, ...]) -> Fraction:
    """The closed two-part chain, a function of the edge count alone."""
    choices = math.comb(part_sizes[0], s_list[0])
    m2 = part_sizes[1]
    if choices == 0 or m2 == 0:
        return Fraction(0)
    t_a = m2 * gen_binom(Fraction(num_edges, m2), s_list[0])
    return choices * gen_binom(t_a / choices, s_list[1])


class CountReport(NamedTuple):
    """Exact count, the intermediate single-vertex count, and the bound."""

    s_list: tuple[int, ...]
    exact: int
    intermediate: int
    lower_bound: Fraction
    density: Fraction
    bound_holds: bool

    def to_dict(self) -> dict:
        """The fields, with the fractions as their str (json has no rationals)."""
        fractions = {"lower_bound": str(self.lower_bound), "density": str(self.density)}
        return {**self._asdict(), **fractions}


def count_report(
    H: RPartiteHypergraph,
    s_list: tuple[int, ...],
    pattern_budget: int = DEFAULT_PATTERN_BUDGET,
) -> CountReport:
    """Assemble the exact count, the intermediate count, and the bound.

    The exact and the intermediate count share their patterns on the first
    r-1 parts, so one pass of pattern_blocks sums both.
    """
    _check_sides(H, s_list)
    exact, intermediate = _count_pass(H, s_list, pattern_budget)
    lower = jensen_lower_bound(H, s_list)
    cells = math.prod(H.part_sizes)
    density = Fraction(H.num_edges, cells) if cells else Fraction(0)
    return CountReport(
        s_list=tuple(s_list),
        exact=exact,
        intermediate=intermediate,
        lower_bound=lower,
        density=density,
        bound_holds=lower <= exact,
    )
