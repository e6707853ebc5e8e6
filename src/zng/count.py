"""Exact ordered-pattern counting and the convexity lower-bound chain.

count_ordered enumerates subset choices on the first r-1 parts, intersects
prefix neighborhoods in the last part, and sums binomials of the
intersection sizes; every number is an exact integer.  jensen_lower_bound
replaces each averaging step of that count with the generalized binomial of
the mean, which can only go down by convexity, so the bound is a certified
floor for the exact count on every graph, not just asymptotically.  All
rational arithmetic uses fractions.Fraction; nothing here touches floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from zng.hypergraph import DEFAULT_PATTERN_BUDGET, RPartiteHypergraph, pattern_count

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


def count_ordered(
    H: RPartiteHypergraph,
    s_list: tuple[int, ...],
    pattern_budget: int = DEFAULT_PATTERN_BUDGET,
) -> int:
    """Exact number of ordered complete patterns with side sizes s_list.

    A pattern is a tuple of subsets (S_1, ..., S_r), |S_i| = s_i, S_i inside
    part i, with every transversal r-tuple an edge.  Enumeration runs over
    the first r-1 subsets only; the last part contributes
    C(|common neighborhood|, s_r) per choice.

    Args:
        H: the graph.
        s_list: one side size per part, length r.
        pattern_budget: cap on the number of enumerated subset choices.

    Returns:
        The exact count, 0 when some s_i exceeds its part.
    """
    if len(s_list) != H.r:
        raise ValueError(f"s_list has {len(s_list)} entries for an {H.r}-partite graph")
    if any(s < 1 for s in s_list):
        raise ValueError(f"pattern sizes must be >= 1, got {s_list}")
    if any(s > m for s, m in zip(s_list, H.part_sizes)):
        return 0
    pattern_count(H.part_sizes[:-1], s_list[:-1], pattern_budget)
    return sum(
        math.comb(size, s_list[-1]) for _, size in H.common_neighborhoods(s_list[:-1])
    )


def jensen_lower_bound(H: RPartiteHypergraph, s_list: tuple[int, ...]) -> Fraction:
    """Constant-free lower bound for count_ordered via convexity.

    For two parts the bound is the closed chain
        C(m_1,s_1) * gen_binom(m_2 * gen_binom(e/m_2, s_1) / C(m_1,s_1), s_2),
    and for more parts the intermediate count is bounded per link, exactly,
    before one final averaging step over the last part:
        t_a >= sum over last-part vertices v of LB(link(v), s_list[:-1]).

    Always <= count_ordered(H, s_list), with equality on complete graphs.
    """
    if len(s_list) != H.r:
        raise ValueError(f"s_list has {len(s_list)} entries for an {H.r}-partite graph")
    if any(s < 1 for s in s_list):
        raise ValueError(f"pattern sizes must be >= 1, got {s_list}")
    if H.r == 1:
        # every edge is a vertex of the single part; the count is a binomial
        return gen_binom(H.num_edges, s_list[0])
    choices = pattern_count(H.part_sizes[:-1], s_list[:-1])
    if choices == 0:
        return Fraction(0)
    if H.r == 2:
        m2 = H.part_sizes[1]
        if m2 == 0:
            return Fraction(0)
        t_a = m2 * gen_binom(Fraction(H.num_edges, m2), s_list[0])
    else:
        links: list[list[tuple[int, ...]]] = [[] for _ in range(H.part_sizes[-1])]
        for e in H.edges:  # one pass: the link of v is the edges ending at v
            links[e[-1]].append(e[:-1])
        t_a = Fraction(0)
        for prefixes in links:
            link = RPartiteHypergraph(H.part_sizes[:-1], prefixes)
            t_a += jensen_lower_bound(link, s_list[:-1])
    return choices * gen_binom(t_a / choices, s_list[-1])


@dataclass(frozen=True)
class CountReport:
    """Exact count, the intermediate single-vertex count, and the bound."""

    s_list: tuple[int, ...]
    exact: int
    intermediate: int
    lower_bound: Fraction
    density: Fraction
    bound_holds: bool

    def to_dict(self) -> dict:
        return {
            "s_list": list(self.s_list),
            "exact": self.exact,
            "intermediate": self.intermediate,
            "lower_bound": str(self.lower_bound),
            "density": str(self.density),
            "bound_holds": self.bound_holds,
        }


def count_report(
    H: RPartiteHypergraph,
    s_list: tuple[int, ...],
    pattern_budget: int = DEFAULT_PATTERN_BUDGET,
) -> CountReport:
    """Assemble the exact count, the intermediate count, and the bound."""
    exact = count_ordered(H, s_list, pattern_budget)
    intermediate = count_ordered(H, s_list[:-1] + (1,), pattern_budget)
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


@dataclass(frozen=True)
class SupersaturationReport:
    """Measured form of the density-forces-copies statement, probe constants in."""

    edge_premise_holds: bool
    copies_bound_holds: bool
    copies_bound: Fraction
    exact: int
    ratio: Fraction | None
    vacuous: bool

    def to_dict(self) -> dict:
        return {
            "edge_premise_holds": self.edge_premise_holds,
            "copies_bound_holds": self.copies_bound_holds,
            "copies_bound": str(self.copies_bound),
            "exact": self.exact,
            "ratio": str(self.ratio) if self.ratio is not None else None,
            "vacuous": self.vacuous,
        }


def supersaturation_check(
    H: RPartiteHypergraph,
    s_list: tuple[int, ...],
    c1_probe: Rational,
    c2_probe: Rational,
    pattern_budget: int = DEFAULT_PATTERN_BUDGET,
) -> SupersaturationReport:
    """Measure both halves of the density-to-copies implication.

    Premise: |E| >= c1 * (m_1 ... m_{r-1}) * m_r^(1 - 1/(s_1...s_{r-1})).
    Conclusion: count >= c2 * prod C(m_i, s_i) * p^(s_1...s_r), p = |E| / prod m_i.

    Both comparisons are exact: the fractional power in the premise is
    cleared by raising both sides to the integer exponent before comparing.
    No verdict beyond the two booleans and the realized ratio.
    """
    c1 = Fraction(c1_probe)
    c2 = Fraction(c2_probe)
    if c1 <= 0 or c2 <= 0:
        raise ValueError("probe constants must be positive")
    sigma = math.prod(s_list[:-1])
    left_cells = math.prod(H.part_sizes[:-1])
    m_last = H.part_sizes[-1]
    edges = H.num_edges
    # |E| >= c1 * left_cells * m_last^((sigma-1)/sigma), compared via sigma-th powers
    lhs = Fraction(edges) ** sigma
    rhs = (c1 * left_cells) ** sigma * m_last ** (sigma - 1)
    edge_premise = lhs >= rhs
    cells = left_cells * m_last
    density = Fraction(edges, cells) if cells else Fraction(0)
    s_all = math.prod(s_list)
    choices = pattern_count(H.part_sizes, s_list)
    copies_bound = c2 * choices * density**s_all
    exact = count_ordered(H, s_list, pattern_budget)
    ratio = Fraction(exact) / (copies_bound / c2) if copies_bound else None
    return SupersaturationReport(
        edge_premise_holds=edge_premise,
        copies_bound_holds=exact >= copies_bound,
        copies_bound=copies_bound,
        exact=exact,
        ratio=ratio,
        vacuous=edges == 0,
    )
