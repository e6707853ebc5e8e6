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

The pattern kernel lives here too.  A pattern picks s_i vertices in each of
the first r-1 parts; prefix_ranks numbers its transversal prefixes (for
r = 2 they are just its one side), common_mask ANDs the masks at those
ranks, closing_patterns lists the patterns whose lex-max prefix is a given
one, and pattern_count sizes an enumeration and checks its mask lookups
against a budget.  RPartiteHypergraph.pattern_blocks is the block kernel
that verification and counting enumerate: it folds the prefix masks a run
of patterns shares once, and yields each run's sizes as one list.
Selection and the oracle turn each closing pattern into its ranks once, not
once per candidate or search node.

Graphs serialize to a small line format:

    zng <r> <m_1> ... <m_r>
    <v_1> ... <v_r>          one edge per line

'#' starts a comment, blank lines are skipped, edges are written in
lexicographic order so equal graphs produce byte-identical files.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import re
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from zng.errors import BudgetError, ZngError, int_text

DEFAULT_PATTERN_BUDGET = 1_000_000

_ONE = re.compile("1")

Edge = tuple[int, ...]
Pattern = tuple[tuple[int, ...], ...]  # one vertex subset per part


class GraphFormatError(ZngError):
    """A graph file or edge list violates the format contract."""


class RPartiteHypergraph:
    """An r-partite r-graph on fixed part sizes.

    Attributes:
        part_sizes: tuple (m_1, ..., m_r).
        r: number of parts.
        masks: dict from the lexicographic rank of each (r-1)-prefix with an
            edge to its nonzero last-part mask, bit v for vertex v.
    """

    __slots__ = ("part_sizes", "r", "masks")

    def __init__(self, part_sizes: Sequence[int], edges: Iterable[Edge]):
        sizes = tuple(int(m) for m in part_sizes)
        if len(sizes) < 1:
            raise ValueError("need at least one part")
        if any(m < 0 for m in sizes):
            raise ValueError(f"part sizes must be nonnegative, got {sizes}")
        indices: set[int] = set()
        for e in edges:
            e = tuple(e)
            if len(e) != len(sizes):
                raise ValueError(f"edge {e} has arity {len(e)}, expected {len(sizes)}")
            index = 0
            for i, v in enumerate(e):
                m = sizes[i]
                if not isinstance(v, int):
                    raise ValueError(f"edge {e}: index {v!r} is not an integer")
                if not 0 <= v < m:
                    raise ValueError(f"edge {e}: index {v} out of range for part {i + 1}")
                index = index * m + v
            if index in indices:
                raise ValueError(f"duplicate edge {e}")
            indices.add(index)
        self.part_sizes, self.r = sizes, len(sizes)
        self.masks = index_masks(sorted(indices), sizes[-1])

    @classmethod
    def from_masks(cls, part_sizes: tuple[int, ...], masks: dict[int, int]) -> RPartiteHypergraph:
        """The graph of a trusted mask table: ranks ascending, masks nonzero, below 1 << m_r."""
        graph = cls.__new__(cls)
        graph.part_sizes, graph.r, graph.masks = part_sizes, len(part_sizes), masks
        return graph

    # -- queries ---------------------------------------------------------

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
        for rank, mask in self.masks.items():  # ascending, as both constructors insert
            prefix = ()
            for m in sizes:
                rank, v = divmod(rank, m)
                prefix = (v, *prefix)
            yield prefix, set_bits(mask)

    def pattern_blocks(self, s_list: Sequence[int]) -> Iterator[tuple[Pattern, list[int]]]:
        """Common-neighbourhood sizes of every pattern with sides s_list, in blocks.

        A pattern picks an s_i-subset of each part i < r, and its size counts
        the last-part vertices completing all of its transversal prefixes.
        Patterns come in itertools.product(combinations...) order, grouped by
        head: every side fixed but the last element of the last side.  Each
        block is (first, sizes): first is the block's first pattern and
        sizes[k] is the size of block_pattern(first, k); the last element
        runs on to the end of its part.

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
            column = [common_mask(masks, [base + j for base in bases], -1) for j in range(m)]
            for head in itertools.combinations(range(m - 1), s - 1):
                common = common_mask(column, head, -1)
                start = head[-1] + 1 if head else 0
                yield (*outer, (*head, start)), list(
                    map(int.bit_count, map(common.__and__, column[start:]))
                )

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RPartiteHypergraph)
            and self.part_sizes == other.part_sizes
            and self.masks == other.masks
        )

    def __repr__(self) -> str:
        return f"RPartiteHypergraph(parts={self.part_sizes}, edges={self.num_edges})"


def complete_graph(part_sizes: Sequence[int]) -> RPartiteHypergraph:
    """The complete r-partite r-graph: every transversal tuple is an edge."""
    edges = itertools.product(*(range(m) for m in part_sizes))
    return RPartiteHypergraph(part_sizes, edges)


def index_masks(indices: Sequence[int], m_last: int) -> dict[int, int]:
    """The mask table of sorted, distinct edge indices, prefix rank * m_r + v.

    Each mask is set bit by bit in a bytearray and read once, as ORing a bit
    into an int would copy the whole int.
    """
    masks, lo = {}, 0
    while lo < len(indices):
        base = indices[lo] - indices[lo] % m_last  # the rank's first index
        hi = bisect.bisect_left(indices, base + m_last, lo)
        buf = bytearray((indices[hi - 1] - base >> 3) + 1)
        for v in map(base.__rsub__, indices[lo:hi]):
            buf[v >> 3] |= 1 << (v & 7)
        masks[base // m_last] = int.from_bytes(buf, "little")
        lo = hi
    return masks


def set_bits(mask: int) -> list[int]:
    """The set bits of mask in ascending order."""
    # bit v of the mask is character v of its reversed binary text
    return [match.start() for match in _ONE.finditer(format(mask, "b")[::-1])]


# ----------------------------------------------------------------------
# the pattern kernel
# ----------------------------------------------------------------------

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


def block_pattern(first: Pattern, k: int) -> Pattern:
    """The k-th pattern of the pattern_blocks block that starts at first."""
    if not k:
        return first
    *outer, last = first
    return (*outer, (*last[:-1], last[-1] + k))


def common_mask(masks: Sequence[int], ranks: Iterable[int], common: int) -> int:
    """common AND masks[rank] for every rank; stops early once it reaches 0.

    masks holds one neighbour mask per prefix, indexed by prefix rank, and
    ranks are a pattern's prefix_ranks.
    """
    for rank in ranks:
        common &= masks[rank]
        if not common:
            break
    return common


def closing_patterns(position: Edge, s_list: Sequence[int]) -> Iterator[Pattern]:
    """Patterns whose lexicographically largest prefix is position.

    A pattern picks s_i indices from part i; its lex-max prefix is the tuple
    of per-part maxima.  When prefixes are filled in lexicographic order,
    these are the patterns that become complete at position.
    """
    per_part = []
    for p_i, s_i in zip(position, s_list):
        if p_i < s_i - 1:
            return
        per_part.append(
            [(*rest, p_i) for rest in itertools.combinations(range(p_i), s_i - 1)]
        )
    yield from itertools.product(*per_part)


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


def parse_graph(text: str) -> RPartiteHypergraph:
    """Parse the line format; every complaint carries its 1-based line number.

    The checks here are the constructor's, with line numbers, so the graph
    is built without running them a second time.
    """
    part_sizes: tuple[int, ...] | None = None
    seen: dict[int, int] = {}  # edge index -> its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        if part_sizes is None:
            if tokens[0] != "zng":
                raise GraphFormatError(f"line {lineno}: expected 'zng' header, got {tokens[0]!r}")
            try:
                numbers = [int(t) for t in tokens[1:]]
            except ValueError:
                raise GraphFormatError(f"line {lineno}: header fields must be integers") from None
            if not numbers or len(numbers) != numbers[0] + 1:
                raise GraphFormatError(
                    f"line {lineno}: header must read 'zng r m_1 ... m_r'"
                )
            r, sizes = numbers[0], numbers[1:]
            if r < 1 or any(m < 0 for m in sizes):
                raise GraphFormatError(f"line {lineno}: bad part count or part sizes")
            part_sizes = tuple(sizes)
            continue
        try:
            edge = tuple(map(int, tokens))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: edge fields must be integers") from None
        if len(edge) != r:
            raise GraphFormatError(f"line {lineno}: edge has {len(edge)} indices, expected {r}")
        index = 0
        for i, v in enumerate(edge):
            m = part_sizes[i]
            if not 0 <= v < m:
                raise GraphFormatError(
                    f"line {lineno}: index {v} out of range for part {i + 1} (size {m})"
                )
            index = index * m + v
        first = seen.setdefault(index, lineno)
        if first != lineno:
            raise GraphFormatError(
                f"line {lineno}: duplicate edge {' '.join(map(str, edge))} "
                f"(first seen on line {first})"
            )
    if part_sizes is None:
        raise GraphFormatError("line 1: missing 'zng' header")
    return RPartiteHypergraph.from_masks(part_sizes, index_masks(sorted(seen), part_sizes[-1]))


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
    return parse_graph(Path(path).read_text(encoding="ascii"))
