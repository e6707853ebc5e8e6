"""The block kernel: every pattern's common-neighbourhood size, a run at a time.

A pattern picks s_i vertices in each of the first r-1 parts of an
RPartiteHypergraph, and its size counts the last-part vertices completing
all of its transversal prefixes.  pattern_blocks folds the prefix masks a
run of patterns shares once and yields every pattern's size, a run at a
time; verify's table reads it.  pattern_sizes, read by counting and by
verify otherwise, runs it too, except at r = 2 on a graph where
CODEGREE_WEIGHT * (edges + sum_v C(deg v, s)) is below
C(m_1, s) * (POPCOUNT_BASE + ceil(m_r / 64)): there codegree_blocks counts
the s-subsets of each last-part vertex's neighbourhood, from links, leaving
out size 0.  pattern_count checks an enumeration's lookups against a budget.

certify, count and construct load this module; the oracle, which checks
only the patterns closing at each new edge, does not.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Iterator, Sequence

from zng.errors import BudgetError, int_text
from zng.hypergraph import Pattern, RPartiteHypergraph, common_mask, prefix_ranks, set_bits

DEFAULT_PATTERN_BUDGET = 1_000_000
# The r = 2 route rule (pattern_sizes) in 64-bit words: a popcount costs its
# width plus POPCOUNT_BASE, a co-degree step CODEGREE_WEIGHT.  Timed on the
# s = (2,), t = 4 builds at m = q, co-degree overtakes the block kernel near
# q = 280 at s = 2 (2.2x slower at q = 127, 2.2x faster at q = 509) and by
# q = 11 at s = 3 (3.4x faster at q = 61); these weights switch between
# q = 283 and 307 at s = 2, and between q = 13 and 17 at s = 3.
POPCOUNT_BASE = 256
CODEGREE_WEIGHT = 512


def links(graph: RPartiteHypergraph) -> dict[int, list[int]]:
    """Each last-part vertex with an edge -> its prefixes' ranks, ascending.

    One step per edge.  At r = 2 the ranks are the vertex's neighbours in
    part 1.
    """
    out: dict[int, list[int]] = {}
    for rank, mask in graph.masks.items():  # ascending
        for v in set_bits(mask):
            out.setdefault(v, []).append(rank)
    return out


def pattern_sizes(
    graph: RPartiteHypergraph, s_list: Sequence[int]
) -> Iterable[tuple[Pattern, list[int]]]:
    """Pattern sizes in blocks, by the cheaper of two exact routes.

    Blocks are pattern_blocks' (first, sizes), in pattern order, except
    that a block may stop early and a pattern in no block has size 0.
    At r = 2 a pattern P is an s-subset of part 1, and its size is the
    number of last-part vertices whose link holds all of P.  So
    codegree_blocks costs one step per edge to transpose the masks plus
    sum_v C(deg v, s) increments, against C(m_1, s) popcounts in
    pattern_blocks, each weighed as POPCOUNT_BASE plus its ceil(m_r / 64)
    words.  It runs iff CODEGREE_WEIGHT * (edges + sum_v C(deg v, s)) is
    below the popcounts' summed weight, so its work stays within a
    constant factor of the block kernel's, and its Counter has at most
    C(m_1, s) keys, which the pattern_count budget bounds; the transpose
    is skipped when CODEGREE_WEIGHT * edges alone reaches that weight.
    Every other graph, and every r != 2, goes through pattern_blocks.
    """
    if graph.r == 2:
        (s,) = s_list
        m_1, m_r = graph.part_sizes
        weight = math.comb(m_1, s) * (POPCOUNT_BASE + -(-m_r // 64))
        edges = graph.num_edges
        if CODEGREE_WEIGHT * edges < weight:
            neighbourhoods = links(graph).values()
            steps = edges + sum(math.comb(len(link), s) for link in neighbourhoods)
            if CODEGREE_WEIGHT * steps < weight:
                return codegree_blocks(neighbourhoods, s)
    return pattern_blocks(graph, s_list)


def pattern_blocks(
    graph: RPartiteHypergraph, s_list: Sequence[int]
) -> Iterator[tuple[Pattern, list[int]]]:
    """Common-neighbourhood sizes of every pattern with sides s_list, in blocks.

    A pattern picks an s_i-subset of each part i < r, and its size counts
    the last-part vertices completing all of its transversal prefixes.
    Patterns come in itertools.product(combinations...) order, grouped by
    head: every side fixed but the last element of the last side.  Each
    block is (first, sizes): first is the block's first pattern, sizes[k]
    is the size of pattern k of block_patterns(first, len(sizes)), and
    the last element runs on to the end of its part.

    For each choice of the outer sides 1..r-2, common_mask folds their
    prefix masks once into a column of m_{r-1} masks; a head ANDs its
    columns once, and its sizes are the popcounts of that AND with each
    later column.  Every AND starts from -1, so no int grows wider than
    the masks.  Each call copies the mask table into a list indexed by
    rank, at its first block, so a shape with no pattern (some
    s_i > m_i) allocates nothing however large its declared parts.
    """
    sizes = graph.part_sizes[:-1]
    if any(s > m for m, s in zip(sizes, s_list)):
        return
    masks = [0] * math.prod(sizes)
    for rank, mask in graph.masks.items():
        masks[rank] = mask
    if not sizes:  # one part: the empty pattern, completed by every edge
        yield (), [masks[0].bit_count()]
        return
    *outer_sizes, m = sizes
    *outer_s, s = s_list
    for outer in itertools.product(
        *(itertools.combinations(range(mi), si) for mi, si in zip(outer_sizes, outer_s))
    ):
        bases = [rank * m for rank in prefix_ranks(outer, outer_sizes)]
        column = [common_mask(masks, [base + j for base in bases]) for j in range(m)]
        for head in itertools.combinations(range(m - 1), s - 1):
            common = common_mask(column, head)
            start = head[-1] + 1 if head else 0
            yield (*outer, (*head, start)), list(
                map(int.bit_count, map(common.__and__, column[start:]))
            )


def codegree_blocks(
    neighbourhoods: Iterable[list[int]], s: int
) -> list[tuple[Pattern, list[int]]]:
    """At r = 2, ((P,), [size]) for every s-subset P of part 1 with a nonzero size.

    neighbourhoods are the last-part vertices' links in part 1, each
    ascending, so each s-subset comes out as a sorted tuple; P's size is the
    number of links that hold it.  The blocks are in pattern order.
    """
    subsets = map(itertools.combinations, neighbourhoods, itertools.repeat(s))
    sizes = Counter(itertools.chain.from_iterable(subsets))
    return [((pattern,), [size]) for pattern, size in sorted(sizes.items())]


def block_patterns(first: Pattern, k: int) -> Iterator[Pattern]:
    """The first k patterns of the pattern_blocks block that starts at first, in order."""
    if not first:  # one part: the block of the empty pattern
        return iter((first,))
    outer, last = first[:-1], first[-1]
    lasts = map(last[:-1].__add__, zip(range(last[-1], last[-1] + k)))
    return map(outer.__add__, zip(lasts))


def pattern_count(
    part_sizes: Sequence[int], s_list: Sequence[int], budget: int | None = None
) -> int:
    """prod C(m_i, s_i): the number of patterns to enumerate.

    The budget bounds the work, not just the patterns: each pattern costs
    one mask lookup per transversal prefix, prod s_i of them, so the check
    compares count * prod s_i with the budget.

    Raises:
        BudgetError: the lookups are above budget (no check when budget is None).
    """
    count = math.prod(math.comb(m, s) for m, s in zip(part_sizes, s_list))
    lookups = count * math.prod(s_list)
    if budget is not None and lookups > budget:
        raise BudgetError(
            f"{int_text(lookups)} mask lookups for {int_text(count)} patterns "
            f"exceed the budget {budget}",
        )
    return count
