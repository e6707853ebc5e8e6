"""Exact ordered-pattern counting and the convexity lower-bound chain.

count_ordered enumerates subset choices on the first r-1 parts through
blocks.pattern_sizes, which intersects prefix neighborhoods in the last
part, and sums binomials of the intersection sizes; every number is an
exact integer.  count_report takes the exact and the intermediate count
(s_r = 1) from one such pass, as both enumerate the same patterns.
jensen_lower_bound replaces each averaging step of that count with the
generalized binomial of the mean, which can only go down by convexity, so
the bound is a certified floor for the exact count on every graph, not just
asymptotically.

The chain is computed in integers.  With the generalized binomial
g(x, s) = x(x-1)...(x-s+1)/s! for x >= s-1 and 0 below, one averaging step
takes a total p/d over C choices to C * g(p / q, s), q = d * C: the
numerator C * p(p-q)...(p-(s-1)q), which is 0 when p < (s-1)q, over the
denominator q^s * s!.  The denominator depends on the shape alone, so the
links of one graph share it and sum as numerators, and one gcd at the end
gives the text str(Fraction) writes.  Only jensen_lower_bound, whose
callers take a Fraction, loads fractions.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

from zng.blocks import DEFAULT_PATTERN_BUDGET, links, pattern_count, pattern_sizes
from zng.config import ExperimentConfig, set_kwargs
from zng.errors import ratio_text
from zng.hypergraph import RPartiteHypergraph, read_graph, shape, write_atomic
from zng.reader import index_masks

if TYPE_CHECKING:
    from fractions import Fraction


def _count_pass(
    H: RPartiteHypergraph, s_list: tuple[int, ...], pattern_budget: int
) -> tuple[int, int]:
    """(sum of C(size, s_r), sum of size) over one pass of pattern_sizes.

    The sizes are those of the patterns on the first r-1 parts, so the two
    sums are the counts at s_list and at s_list[:-1] + (1,).  A pattern that
    pattern_sizes leaves out has size 0 and adds 0 to both.
    """
    pattern_count(H.part_sizes[:-1], s_list[:-1], pattern_budget)
    s_r = itertools.repeat(s_list[-1])
    exact = intermediate = 0
    for _, sizes in pattern_sizes(H, s_list[:-1]):
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
        ValueError: not one side per part, or a side below 1 (shape).
        BudgetError: more than DEFAULT_PATTERN_BUDGET mask lookups.
    """
    shape(H.part_sizes, s_list)
    return _count_pass(H, s_list, DEFAULT_PATTERN_BUDGET)[0]


def jensen_lower_bound(H: RPartiteHypergraph, s_list: tuple[int, ...]) -> Fraction:
    """Constant-free lower bound for count_ordered via convexity.

    For two parts the bound is the closed chain
        C(m_1,s_1) * g(m_2 * g(e/m_2, s_1) / C(m_1,s_1), s_2),
    and for more parts the intermediate count is bounded per link, exactly,
    before one final averaging step over the last part:
        t_a >= sum over last-part vertices v of LB(link(v), s_list[:-1]).
    The link of v is the (r-1)-partite graph of the prefixes whose mask has
    bit v; an empty link bounds 0, so only vertices with edges are visited.
    A two-part bound depends only on its edge count, so with three parts the
    vertices are grouped by link size (degree_histogram) and each size is
    evaluated once; with more, each vertex's prefix ranks, grouped in one
    pass over the mask bits, recurse as the mask table of its link.

    Always <= count_ordered(H, s_list), with equality on complete graphs.
    """
    from fractions import Fraction

    shape(H.part_sizes, s_list)
    return Fraction(*_chain(H, s_list))


def _chain(H: RPartiteHypergraph, s_list: tuple[int, ...]) -> tuple[int, int]:
    """jensen_lower_bound as (numerator, denominator), not reduced."""
    if H.r == 1:  # every edge is a vertex of the single part; the count is a binomial
        return _step(1, H.num_edges, 1, s_list[0])
    if H.r == 2:
        return _two(H.part_sizes, H.num_edges, s_list)
    sizes, sides = H.part_sizes[:-1], s_list[:-1]
    choices = pattern_count(sizes, sides)
    if choices == 0:
        return 0, 1
    if H.r == 3:
        degrees = degree_histogram(H.masks.values()).items()
        chains = [(n, _two(sizes, size, sides)) for size, n in degrees]
    else:
        chains = [
            (1, _chain(RPartiteHypergraph(sizes, index_masks(ranks, sizes[-1])), sides))
            for ranks in links(H).values()
        ]
    num, den = 0, 1  # every link has the same denominator
    for n, (link_num, den) in chains:
        num += n * link_num
    return _step(choices, num, den, s_list[-1])


def _two(part_sizes: tuple[int, ...], num_edges: int, s_list: tuple[int, ...]) -> tuple[int, int]:
    """The closed two-part chain, a function of the edge count alone."""
    (m_1, m_2), (s_1, s_2) = part_sizes, s_list
    return _step(math.comb(m_1, s_1), *_step(m_2, num_edges, 1, s_1), s_2)


def _step(choices: int, num: int, den: int, s: int) -> tuple[int, int]:
    """choices * g(num / (den * choices), s) as (numerator, denominator).

    (0, 1) when choices is 0.  Only the graph a chain starts on can have no
    choice: _chain builds links only once the first r-1 parts have room for
    a pattern.
    """
    if choices == 0:
        return 0, 1
    q = den * choices
    top = choices if num >= (s - 1) * q else 0
    for i in range(s):
        top *= num - i * q
    return top, q**s * math.factorial(s)


def degree_histogram(masks: Iterable[int]) -> dict[int, int]:
    """Each degree d >= 1 in the last part -> the number of vertices of degree d.

    A vertex's degree is the number of masks with its bit.  Plane k holds
    bit k of every vertex's degree, so a mask is one ripple-carry add into
    the planes.  The vertices with an edge then split into classes of equal
    degree one plane at a time, and only non-empty classes are kept.
    """
    planes: list[int] = []
    for carry in masks:
        k = 0
        while carry:
            if k == len(planes):
                planes.append(carry)
                break
            planes[k], carry = planes[k] ^ carry, planes[k] & carry
            k += 1
    seen = 0
    for plane in planes:
        seen |= plane
    classes = {0: seen} if seen else {}
    for k, plane in enumerate(planes):
        split = {}
        for degree, members in classes.items():
            high = members & plane
            if high:
                split[degree | 1 << k] = high
            if high != members:
                split[degree] = members ^ high
        classes = split
    return {degree: members.bit_count() for degree, members in classes.items()}


class CountReport(NamedTuple):
    """Exact count, the intermediate single-vertex count, and the bound.

    lower_bound and density are exact fractions as str(Fraction) writes
    them, so the record is count.json as it stands.
    """

    s_list: tuple[int, ...]
    exact: int
    intermediate: int
    lower_bound: str
    density: str
    bound_holds: bool


def count_report(
    H: RPartiteHypergraph,
    s_list: tuple[int, ...],
    pattern_budget: int = DEFAULT_PATTERN_BUDGET,
) -> CountReport:
    """Assemble the exact count, the intermediate count, and the bound.

    The exact and the intermediate count share their patterns on the first
    r-1 parts, so one pass of pattern_sizes sums both.
    """
    s_list = shape(H.part_sizes, s_list).s_list
    exact, intermediate = _count_pass(H, s_list, pattern_budget)
    num, den = _chain(H, s_list)
    cells = math.prod(H.part_sizes)
    return CountReport(
        s_list=s_list,
        exact=exact,
        intermediate=intermediate,
        lower_bound=ratio_text(num, den),
        density=ratio_text(H.num_edges, cells) if cells else "0",
        bound_holds=num <= exact * den,
    )


def run_count(config: ExperimentConfig, out: Path) -> tuple[bool, dict]:
    """zng count: out/count.json, and (bound_holds, the status line's fields)."""
    graph = read_graph(config.graph)
    fields = count_report(graph, config.s, **set_kwargs(pattern_budget=config.budget))._asdict()
    write_atomic(out / "count.json", json.dumps(fields, indent=2, sort_keys=True) + "\n")
    return fields["bound_holds"], {"graph": config.graph, **fields}
