"""Ordered r-partite r-graphs with exact, desk-scale queries.

An edge is an r-tuple of zero-based vertex indices, coordinate i indexing
part i.  The container is immutable by convention and keeps one derived
index: for every (r-1)-prefix, the set of last-part vertices completing it,
stored as an int bitmask so common neighborhoods are AND + popcount.

Graphs serialize to a small line format:

    zng <r> <m_1> ... <m_r>
    <v_1> ... <v_r>          one edge per line

'#' starts a comment, blank lines are skipped, edges are written in
lexicographic order so equal graphs produce byte-identical files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from zng.errors import ZngError

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

    __slots__ = ("part_sizes", "r", "edges", "_prefix_masks", "_degrees")

    def __init__(self, part_sizes: Sequence[int], edges: Iterable[Edge]):
        sizes = tuple(int(m) for m in part_sizes)
        if len(sizes) < 1:
            raise ValueError("need at least one part")
        if any(m < 0 for m in sizes):
            raise ValueError(f"part sizes must be nonnegative, got {sizes}")
        self.part_sizes = sizes
        self.r = len(sizes)
        seen: set[Edge] = set()
        for e in edges:
            e = tuple(e)
            if len(e) != self.r:
                raise ValueError(f"edge {e} has arity {len(e)}, expected {self.r}")
            for i, v in enumerate(e):
                if not 0 <= v < sizes[i]:
                    raise ValueError(f"edge {e}: index {v} out of range for part {i + 1}")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        self.edges: tuple[Edge, ...] = tuple(sorted(seen))
        masks: dict[Edge, int] = {}
        for e in self.edges:
            masks[e[:-1]] = masks.get(e[:-1], 0) | (1 << e[-1])
        self._prefix_masks = masks
        degs = [[0] * m for m in sizes]
        for e in self.edges:
            for i, v in enumerate(e):
                degs[i][v] += 1
        self._degrees = degs

    # -- queries ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, part: int, vertex: int) -> int:
        """Number of edges through the given vertex of the given part (0-based)."""
        if not 0 <= part < self.r:
            raise ValueError(f"part {part} out of range")
        if not 0 <= vertex < self.part_sizes[part]:
            raise ValueError(f"vertex {vertex} out of range for part {part}")
        return self._degrees[part][vertex]

    def neighbor_mask(self, prefix: Edge) -> int:
        """Bitmask of last-part vertices v with prefix + (v,) an edge."""
        return self._prefix_masks.get(tuple(prefix), 0)

    def common_neighborhoods(self, s_list: Sequence[int]) -> Iterator[tuple[Pattern, int]]:
        """(pattern, size) for every choice of s_i-subsets of parts i < r, in order.

        size counts the last-part vertices completing every transversal
        prefix of the pattern: the popcount of the AND of their masks.
        """
        full = (1 << self.part_sizes[-1]) - 1
        for pattern in itertools.product(
            *(itertools.combinations(range(m), s) for m, s in zip(self.part_sizes[:-1], s_list))
        ):
            common = full
            for prefix in itertools.product(*pattern):
                common &= self._prefix_masks.get(prefix, 0)
                if not common:
                    break
            yield pattern, common.bit_count()

    def link(self, vertex: int) -> "RPartiteHypergraph":
        """The (r-1)-graph of edge prefixes through a last-part vertex.

        The link of v has one edge per edge of self ending at v, so its edge
        count equals degree(r-1, v).
        """
        if self.r < 2:
            raise ValueError("link needs at least two parts")
        if not 0 <= vertex < self.part_sizes[-1]:
            raise ValueError(f"vertex {vertex} out of range for the last part")
        prefixes = [e[:-1] for e in self.edges if e[-1] == vertex]
        return RPartiteHypergraph(self.part_sizes[:-1], prefixes)

    def prune_low_degree(self, threshold: int | Fraction) -> "PruneResult":
        """Drop all edges through last-part vertices of degree below threshold.

        The threshold is compared exactly (int or Fraction), vertices stay in
        place as isolated vertices, and part sizes do not change.
        """
        last = self.r - 1
        removed_vertices = tuple(
            v for v in range(self.part_sizes[last]) if self._degrees[last][v] < threshold
        )
        dropped = set(removed_vertices)
        kept = [e for e in self.edges if e[-1] not in dropped]
        graph = RPartiteHypergraph(self.part_sizes, kept)
        return PruneResult(graph, self.num_edges - len(kept), removed_vertices)

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


# The link of a last-part vertex is itself an RPartiteHypergraph, one part
# shorter; no separate class is needed.
LinkHypergraph = RPartiteHypergraph


@dataclass(frozen=True)
class PruneResult:
    """Outcome of prune_low_degree: the kept graph plus what was removed."""

    graph: RPartiteHypergraph
    removed_edges: int
    removed_vertices: tuple[int, ...]


def complete_graph(part_sizes: Sequence[int]) -> RPartiteHypergraph:
    """The complete r-partite r-graph: every transversal tuple is an edge."""
    edges = itertools.product(*(range(m) for m in part_sizes))
    return RPartiteHypergraph(part_sizes, edges)


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------

def format_graph(graph: RPartiteHypergraph) -> str:
    lines = ["zng " + " ".join(str(m) for m in (graph.r, *graph.part_sizes))]
    lines.extend(" ".join(str(v) for v in e) for e in graph.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> RPartiteHypergraph:
    """Parse the line format; every complaint carries its 1-based line number."""
    part_sizes: tuple[int, ...] | None = None
    edges: list[Edge] = []
    seen: dict[Edge, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
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
            edge = tuple(int(t) for t in tokens)
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
        if edge in seen:
            raise GraphFormatError(
                f"line {lineno}: duplicate edge {' '.join(map(str, edge))} "
                f"(first seen on line {seen[edge]})"
            )
        seen[edge] = lineno
        edges.append(edge)
    if part_sizes is None:
        raise GraphFormatError("line 1: missing 'zng' header")
    return RPartiteHypergraph(part_sizes, edges)


def write_graph(graph: RPartiteHypergraph, path: str | Path) -> None:
    Path(path).write_text(format_graph(graph), encoding="ascii")


def read_graph(path: str | Path) -> RPartiteHypergraph:
    return parse_graph(Path(path).read_text(encoding="ascii"))
