"""Ordered r-partite r-graphs with exact, desk-scale queries.

An edge is an r-tuple of zero-based vertex indices, coordinate i indexing
part i.  The container is immutable by convention and keeps one derived
index: for every (r-1)-prefix, the set of last-part vertices completing it,
stored as an int bitmask so common neighborhoods are AND + popcount.  The
prefixes are numbered by lexicographic rank, their index in
itertools.product(range(m_1), ..., range(m_{r-1})), and the masks are a flat
list indexed by that rank, built on the first query that needs it.

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

import itertools
import math
import operator
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from zng.errors import BudgetError, ZngError, int_text

DEFAULT_PATTERN_BUDGET = 1_000_000

_PREFIX = operator.itemgetter(slice(0, -1))
_LAST = operator.itemgetter(-1)

Edge = tuple[int, ...]
Pattern = tuple[tuple[int, ...], ...]  # one vertex subset per part


class GraphFormatError(ZngError):
    """A graph file or edge list violates the format contract."""


class RPartiteHypergraph:
    """An r-partite r-graph on fixed part sizes.

    Attributes:
        part_sizes: tuple (m_1, ..., m_r).
        r: number of parts.
        edges: edges in lexicographic order.
    """

    __slots__ = ("part_sizes", "r", "edges", "_prefix_masks")

    def __init__(self, part_sizes: Sequence[int], edges: Iterable[Edge]):
        sizes = tuple(int(m) for m in part_sizes)
        if len(sizes) < 1:
            raise ValueError("need at least one part")
        if any(m < 0 for m in sizes):
            raise ValueError(f"part sizes must be nonnegative, got {sizes}")
        seen: set[Edge] = set()
        for e in edges:
            e = tuple(e)
            if len(e) != len(sizes):
                raise ValueError(f"edge {e} has arity {len(e)}, expected {len(sizes)}")
            for i, v in enumerate(e):
                if not 0 <= v < sizes[i]:
                    raise ValueError(f"edge {e}: index {v} out of range for part {i + 1}")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        self._fill(sizes, tuple(sorted(seen)))

    @classmethod
    def _checked(cls, part_sizes: tuple[int, ...], edges: tuple[Edge, ...]) -> RPartiteHypergraph:
        """A graph whose caller has already validated and sorted its edges."""
        graph = cls.__new__(cls)
        graph._fill(part_sizes, edges)
        return graph

    def _fill(self, part_sizes: tuple[int, ...], edges: tuple[Edge, ...]) -> None:
        self.part_sizes = part_sizes
        self.r = len(part_sizes)
        self.edges = edges
        self._prefix_masks: list[int] | None = None

    def _masks(self) -> list[int]:
        """Neighbour masks indexed by prefix rank, built on first use."""
        if self._prefix_masks is None:
            sizes = self.part_sizes[:-1]
            masks = [0] * math.prod(sizes)
            # edges are sorted, so each prefix's edges are consecutive, and
            # distinct, so the sum of their bits is their OR
            for prefix, group in itertools.groupby(self.edges, _PREFIX):
                masks[_prefix_rank(prefix, sizes)] = sum(map((1).__lshift__, map(_LAST, group)))
            self._prefix_masks = masks
        return self._prefix_masks

    # -- queries ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

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
        the masks.  The mask table is built at the first block, so a shape
        with no pattern (some s_i > m_i) allocates nothing however large its
        declared parts.
        """
        sizes = self.part_sizes[:-1]
        if any(s > m for m, s in zip(sizes, s_list)):
            return
        masks = self._masks()
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
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.part_sizes, self.edges))

    def __repr__(self) -> str:
        return f"RPartiteHypergraph(parts={self.part_sizes}, edges={self.num_edges})"


def complete_graph(part_sizes: Sequence[int]) -> RPartiteHypergraph:
    """The complete r-partite r-graph: every transversal tuple is an edge."""
    edges = itertools.product(*(range(m) for m in part_sizes))
    return RPartiteHypergraph(part_sizes, edges)


# ----------------------------------------------------------------------
# the pattern kernel
# ----------------------------------------------------------------------

def _prefix_rank(prefix: Sequence[int], part_sizes: Sequence[int]) -> int:
    """The index of prefix in itertools.product(range(m_1), ..., range(m_k)).

    Coordinates beyond part_sizes are ignored, so an edge gives the rank of
    its (r-1)-prefix.
    """
    rank = 0
    for v, m in zip(prefix, part_sizes):
        rank = rank * m + v
    return rank


def prefix_ranks(pattern: Pattern, part_sizes: Sequence[int]) -> Sequence[int]:
    """Lexicographic ranks of pattern's transversal prefixes, in product order.

    A prefix (p_1, ..., p_k) on parts of sizes m_1, ..., m_k has rank
    (...(p_1 * m_2 + p_2) * m_3 ...) + p_k, its index in
    itertools.product(range(m_1), ..., range(m_k)).  With one part the ranks
    are the pattern's only side; with none there is one prefix, rank 0.
    """
    if len(pattern) == 1:
        return pattern[0]
    return tuple(_prefix_rank(prefix, part_sizes) for prefix in itertools.product(*pattern))


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
            required=lookups,
            budget=budget,
        )
    return count


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------

def format_graph(graph: RPartiteHypergraph) -> str:
    lines = ["zng " + " ".join(str(m) for m in (graph.r, *graph.part_sizes))]
    lines.extend(" ".join(str(v) for v in e) for e in graph.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> RPartiteHypergraph:
    """Parse the line format; every complaint carries its 1-based line number.

    The checks here are the constructor's, with line numbers, so the graph
    is built without running them a second time.
    """
    part_sizes: tuple[int, ...] | None = None
    seen: dict[Edge, int] = {}
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
        if len(edge) != len(part_sizes):
            raise GraphFormatError(
                f"line {lineno}: edge has {len(edge)} indices, expected {len(part_sizes)}"
            )
        for i, v in enumerate(edge):
            if not 0 <= v < part_sizes[i]:
                raise GraphFormatError(
                    f"line {lineno}: index {v} out of range for part {i + 1} "
                    f"(size {part_sizes[i]})"
                )
        first = seen.setdefault(edge, lineno)
        if first != lineno:
            raise GraphFormatError(
                f"line {lineno}: duplicate edge {' '.join(map(str, edge))} "
                f"(first seen on line {first})"
            )
    if part_sizes is None:
        raise GraphFormatError("line 1: missing 'zng' header")
    return RPartiteHypergraph._checked(part_sizes, tuple(sorted(seen)))


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
