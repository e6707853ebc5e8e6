"""Ordered r-partite r-graphs with exact, desk-scale queries.

An edge is an r-tuple of zero-based vertex indices, coordinate i indexing
part i.  A graph is its prefix-mask table: for every (r-1)-prefix with an
edge, the set of last-part vertices completing it, stored as an int bitmask
so common neighborhoods are AND + popcount.  The prefixes are numbered by
lexicographic rank, their index in
itertools.product(range(m_1), ..., range(m_{r-1})), and the table is a dict
from rank to nonzero mask, so memory follows the edges however large the
declared parts.  The edges are derived from the masks: ranks in ascending
order, then bits in ascending order, which is lexicographic order.  The
container is immutable by convention.

The pattern kernel lives here too.  A Shape is the paper's
z(m_1, ..., m_r; s_1, ..., s_r), and shape(), which makes every one, checks
the sides for every mode.  A pattern picks s_i vertices in each of the
first r-1 parts; prefix_ranks numbers its transversal prefixes (for
r = 2 they are just its one side), common_mask ANDs the masks at those
ranks, pattern_count checks an enumeration's lookups against a budget, and
closing_patterns lists the patterns whose lex-max prefix is a given one,
each with its other (earlier) ranks for selection and the oracle to read.
RPartiteHypergraph.pattern_blocks, the block kernel, folds the prefix
masks a run of patterns shares once and yields every pattern's size, a run
at a time; verify's table reads it.  pattern_sizes, read by counting and
by verify otherwise, runs it too, except at r = 2 on a graph where
CODEGREE_WEIGHT * (edges + sum_v C(deg v, s)) is below
C(m_1, s) * (POPCOUNT_BASE + ceil(m_r / 64)): there codegree_blocks counts
the s-subsets of each last-part vertex's neighbourhood, leaving out size 0.

Graphs serialize to a small line format:

    zng <r> <m_1> ... <m_r>
    <v_1> ... <v_r>          one edge per line

'#' starts a comment, blank lines are skipped, edges are written in
lexicographic order so equal graphs produce byte-identical files.  The
reader, zng.reader, loads only when read_graph is first called, so modes
that read no graph do not compile it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import re
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from zng.errors import BudgetError, int_text

DEFAULT_PATTERN_BUDGET = 1_000_000
DEFAULT_MASK_BIT_CAP = 1 << 32  # bits over all of a mask table's masks
# The r = 2 route rule (RPartiteHypergraph.pattern_sizes) in 64-bit words: a
# popcount costs its width plus POPCOUNT_BASE, a co-degree step CODEGREE_WEIGHT.
# Timed on the s = (2,), t = 4 builds at m = q, co-degree overtakes the block
# kernel near q = 280 at s = 2 (2.2x slower at q = 127, 2.2x faster at q = 509)
# and by q = 11 at s = 3 (3.4x faster at q = 61); these weights switch between
# q = 283 and 307 at s = 2, and between q = 13 and 17 at s = 3.
POPCOUNT_BASE = 256
CODEGREE_WEIGHT = 512

_ONE = re.compile("1")

Edge = tuple[int, ...]
Pattern = tuple[tuple[int, ...], ...]  # one vertex subset per part


class RPartiteHypergraph(NamedTuple):
    """An r-partite r-graph on fixed part sizes, built from a trusted mask table.

    Attributes:
        part_sizes: tuple (m_1, ..., m_r); the property r is their number.
        masks: dict from the lexicographic rank of each (r-1)-prefix with an
            edge to its nonzero last-part mask, bit v for vertex v, below
            1 << m_r, in ascending rank order.  Nothing here checks them.
    """

    part_sizes: tuple[int, ...]
    masks: dict[int, int]

    @property
    def r(self) -> int:
        return len(self.part_sizes)

    @property
    def num_edges(self) -> int:
        return sum(map(int.bit_count, self.masks.values()))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges in lexicographic order, derived from the masks on each access."""
        return tuple((*prefix, v) for prefix, bits in self._rows() for v in bits)

    def _rows(self) -> Iterator[tuple[Edge, list[int]]]:
        """(prefix, its last-part vertices in ascending order) per mask, in rank order."""
        sizes = self.part_sizes[::-1][1:]
        for rank, mask in self.masks.items():  # ascending, as the table's producers insert
            prefix = ()
            for m in sizes:
                rank, v = divmod(rank, m)
                prefix = (v, *prefix)
            yield prefix, set_bits(mask)

    def links(self) -> dict[int, list[int]]:
        """Each last-part vertex with an edge -> its prefixes' ranks, ascending.

        One step per edge.  At r = 2 the ranks are the vertex's neighbours in
        part 1.
        """
        links: dict[int, list[int]] = {}
        for rank, mask in self.masks.items():  # ascending
            for v in set_bits(mask):
                links.setdefault(v, []).append(rank)
        return links

    def pattern_sizes(self, s_list: Sequence[int]) -> Iterable[tuple[Pattern, list[int]]]:
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
        if self.r == 2:
            (s,) = s_list
            m_1, m_r = self.part_sizes
            weight = math.comb(m_1, s) * (POPCOUNT_BASE + -(-m_r // 64))
            edges = self.num_edges
            if CODEGREE_WEIGHT * edges < weight:
                links = self.links().values()
                steps = edges + sum(math.comb(len(link), s) for link in links)
                if CODEGREE_WEIGHT * steps < weight:
                    return codegree_blocks(links, s)
        return self.pattern_blocks(s_list)

    def pattern_blocks(self, s_list: Sequence[int]) -> Iterator[tuple[Pattern, list[int]]]:
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
        sizes = self.part_sizes[:-1]
        if any(s > m for m, s in zip(sizes, s_list)):
            return
        masks = [0] * math.prod(sizes)
        for rank, mask in self.masks.items():
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

    def __repr__(self) -> str:  # no mask table: it may hold 600k edges
        return f"RPartiteHypergraph(parts={self.part_sizes}, edges={self.num_edges})"


def codegree_blocks(links: Iterable[list[int]], s: int) -> list[tuple[Pattern, list[int]]]:
    """At r = 2, ((P,), [size]) for every s-subset P of part 1 with a nonzero size.

    links are the last-part vertices' neighbourhoods in part 1, each
    ascending, so each s-subset comes out as a sorted tuple; P's size is the
    number of links that hold it.  The blocks are in pattern order.
    """
    subsets = map(itertools.combinations, links, itertools.repeat(s))
    sizes = Counter(itertools.chain.from_iterable(subsets))
    return [((pattern,), [size]) for pattern, size in sorted(sizes.items())]


def mask_table_budget(bits: int) -> None:
    """BudgetError if a mask table's widths sum to over DEFAULT_MASK_BIT_CAP bits."""
    if bits > DEFAULT_MASK_BIT_CAP:
        raise BudgetError(
            f"the mask table needs {int_text(bits)} bits, above the cap {DEFAULT_MASK_BIT_CAP}"
        )


def index_masks(indices: Sequence[int], m_last: int) -> dict[int, int]:
    """The mask table of sorted, distinct edge indices, prefix rank * m_r + v.

    Each mask is set bit by bit in a bytearray and read once, as ORing a bit
    into an int would copy the whole int.  A BudgetError comes first, before
    any allocation, if the masks' widths sum to over DEFAULT_MASK_BIT_CAP bits.
    """
    runs, lo = [], 0  # (the rank's first index, its slice of indices)
    while lo < len(indices):
        base = indices[lo] - indices[lo] % m_last
        hi = bisect.bisect_left(indices, base + m_last, lo)
        runs.append((base, lo, hi))
        lo = hi
    mask_table_budget(sum(indices[hi - 1] - base + 1 for base, _, hi in runs))
    masks = {}
    for base, lo, hi in runs:
        buf = bytearray((indices[hi - 1] - base >> 3) + 1)
        for v in map(base.__rsub__, indices[lo:hi]):
            buf[v >> 3] |= 1 << (v & 7)
        masks[base // m_last] = int.from_bytes(buf, "little")
    return masks


def set_bits(mask: int) -> list[int]:
    """The set bits of mask in ascending order."""
    # bit v of the mask is character v of its reversed binary text
    return [match.start() for match in _ONE.finditer(format(mask, "b")[::-1])]


# ----------------------------------------------------------------------
# the pattern kernel
# ----------------------------------------------------------------------

class Shape(NamedTuple):
    """z(m_1, ..., m_r; s_1, ..., s_r): one part size and one side size per part."""

    m_list: tuple[int, ...]
    s_list: tuple[int, ...]

    @property
    def potential_edges(self) -> int:
        return math.prod(self.m_list)

    def label(self) -> str:
        ms = ",".join(map(str, self.m_list))
        ss = ",".join(map(str, self.s_list))
        return f"z({ms};{ss})"


def shape(m_list: Sequence[int], s_list: Sequence[int], t: int | None = None) -> Shape:
    """The Shape of parts m_list with sides s_list, or (*s_list, t) when t is given.

    Only the sides are checked: a graph may have a part of size 0.

    Raises:
        ValueError: not one side per part, or a side below 1.
    """
    sides = tuple(s_list) if t is None else (*s_list, t)
    r = len(m_list)
    if len(sides) != r:
        takes = r - (t is not None)
        raise ValueError(f"{len(s_list)} side sizes for a {r}-part graph, which takes {takes}")
    if any(s < 1 for s in sides):
        raise ValueError("side sizes must be >= 1")
    return Shape(tuple(m_list), sides)


def prefix_ranks(pattern: Pattern, part_sizes: Sequence[int]) -> list[int]:
    """Lexicographic ranks of pattern's transversal prefixes, in product order.

    A prefix (p_1, ..., p_k) on parts of sizes m_1, ..., m_k has rank
    (...(p_1 * m_2 + p_2) * m_3 ...) + p_k, its index in
    itertools.product(range(m_1), ..., range(m_k)).  With no part there is
    one prefix, rank 0.
    """
    ranks = [0]
    for side, m in zip(pattern, part_sizes):
        ranks = [rank * m + v for rank in ranks for v in side]
    return ranks


def block_patterns(first: Pattern, k: int) -> Iterator[Pattern]:
    """The first k patterns of the pattern_blocks block that starts at first, in order."""
    if not first:  # one part: the block of the empty pattern
        return iter((first,))
    outer, last = first[:-1], first[-1]
    lasts = map(last[:-1].__add__, zip(range(last[-1], last[-1] + k)))
    return map(outer.__add__, zip(lasts))


def common_mask(masks: Sequence[int], ranks: Iterable[int]) -> int:
    """The AND of masks[rank] for every rank, from -1; stops early once it reaches 0.

    masks holds one neighbour mask per prefix, indexed by prefix rank, and
    ranks are some of a pattern's prefix_ranks.  With no rank it is -1.
    """
    common = -1
    for rank in ranks:
        common &= masks[rank]
        if not common:
            break
    return common


def closing_patterns(
    position: Edge, part_sizes: Sequence[int], s_list: Sequence[int]
) -> Iterator[tuple[Pattern, list[int]]]:
    """(pattern, others) per pattern whose lexicographically largest prefix is position.

    A pattern picks s_i indices from part i; its lex-max prefix is the tuple
    of per-part maxima.  When prefixes are filled in lexicographic order,
    these are the patterns that become complete at position.  others is
    prefix_ranks(pattern, part_sizes)[:-1]: the last rank is position's own,
    so others are the ranks of the pattern's earlier prefixes.
    """
    per_part = []
    for p_i, s_i in zip(position, s_list):
        if p_i < s_i - 1:
            return
        per_part.append(
            [(*rest, p_i) for rest in itertools.combinations(range(p_i), s_i - 1)]
        )
    for pattern in itertools.product(*per_part):
        yield pattern, prefix_ranks(pattern, part_sizes)[:-1]


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


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------

def format_graph(graph: RPartiteHypergraph) -> str:
    lines = ["zng " + " ".join(str(m) for m in (graph.r, *graph.part_sizes))]
    for prefix, bits in graph._rows():
        head = "".join(f"{p} " for p in prefix)
        lines.extend(map(head.__add__, map(str, bits)))
    return "\n".join(lines) + "\n"


def write_atomic(path: str | Path, text: str) -> None:
    """Write ASCII text to path through a temp file in the same directory.

    Missing parent directories are made first, so a directory exists only
    once a run writes into it.  os.replace then swaps the temp file in, so
    readers see the old file or the whole new one.  A failure at any point
    leaves the target as it was and removes the temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="ascii", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_graph(graph: RPartiteHypergraph, path: str | Path) -> None:
    write_atomic(path, format_graph(graph))


def read_graph(path: str | Path) -> RPartiteHypergraph:
    """The graph in the file at path, parsed by zng.reader, imported on the first call."""
    from zng.reader import parse_graph

    return parse_graph(Path(path).read_text(encoding="ascii"))
