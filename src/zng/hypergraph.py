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
container is immutable by convention.  zng.reader.index_masks builds a table
from sorted edge indices; mask_table_budget, the cap it checks first, is
here, as construct checks it too.

The shared part of the pattern kernel lives here too.  A Shape is the
paper's z(m_1, ..., m_r; s_1, ..., s_r), and shape(), which makes every
one, checks the sides for every mode.  A pattern picks s_i vertices in each
of the first r-1 parts; prefix_ranks numbers its transversal prefixes (for
r = 2 they are just its one side), common_mask ANDs the masks at those
ranks, and closing_patterns lists the patterns whose lex-max prefix is a
given one, each with its other (earlier) ranks for selection and the oracle
to read.  The block kernel, which sizes every pattern of a graph, is
zng.blocks; the oracle does not load it.

Graphs serialize to a small line format:

    zng <r> <m_1> ... <m_r>
    <v_1> ... <v_r>          one edge per line

'#' starts a comment, blank lines are skipped, edges are written in
lexicographic order so equal graphs produce byte-identical files.  The
reader, zng.reader, loads only when read_graph is first called, so modes
that read no graph do not compile it.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from zng.errors import BudgetError, int_text

DEFAULT_MASK_BIT_CAP = 1 << 32  # bits over all of a mask table's masks

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

    def __repr__(self) -> str:  # no mask table: it may hold 600k edges
        return f"RPartiteHypergraph(parts={self.part_sizes}, edges={self.num_edges})"


def mask_table_budget(bits: int) -> None:
    """BudgetError if a mask table's widths sum to over DEFAULT_MASK_BIT_CAP bits."""
    if bits > DEFAULT_MASK_BIT_CAP:
        raise BudgetError(
            f"the mask table needs {int_text(bits)} bits, above the cap {DEFAULT_MASK_BIT_CAP}"
        )


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
