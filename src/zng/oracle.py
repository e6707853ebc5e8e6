"""Exact extremal edge counts for tiny forbidden-pattern queries.

Two independent routes to the same number.  exhaustive_z enumerates every
subset of potential edges and re-checks pattern-freeness from scratch with a
direct all-subsets test; it exists to be unarguable.  exact_z is the usable
search: depth-first over potential edges in lexicographic order, include
branch first, with an upper-bound cutoff, incremental freeness checking on
prefix-neighborhood bitmasks, and a canonical-form restriction (first-part
blocks non-increasing) that quotients out first-part relabelings.  Both
return a witness; exact_z's is the lexicographically least optimum, which
the include-first search order finds first by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from zng.count import count_ordered
from zng.errors import BudgetError
from zng.hypergraph import Edge, RPartiteHypergraph

DEFAULT_EXHAUSTIVE_EDGE_CAP = 30
DEFAULT_SEARCH_EDGE_CAP = 36


@dataclass(frozen=True)
class ZQuery:
    """Part sizes and forbidden ordered-pattern side sizes, one per part."""

    m_list: tuple[int, ...]
    s_list: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.m_list) != len(self.s_list) or not self.m_list:
            raise ValueError("m_list and s_list must be equal-length and nonempty")
        if any(m < 1 for m in self.m_list) or any(s < 1 for s in self.s_list):
            raise ValueError("all sizes must be >= 1")

    @property
    def potential_edges(self) -> int:
        return math.prod(self.m_list)

    def label(self) -> str:
        ms = ",".join(map(str, self.m_list))
        ss = ",".join(map(str, self.s_list))
        return f"z({ms};{ss})"


@dataclass(frozen=True)
class ZResult:
    """The exact maximum, one witness attaining it, and the search size."""

    query: ZQuery
    z: int
    witness: RPartiteHypergraph
    nodes: int


def _contains_pattern(edges: set[Edge], query: ZQuery) -> bool:
    """Direct all-subsets containment test; no neighborhood shortcuts."""
    for subsets in itertools.product(
        *(itertools.combinations(range(m), s) for m, s in zip(query.m_list, query.s_list))
    ):
        if all(tup in edges for tup in itertools.product(*subsets)):
            return True
    return False


def exhaustive_z(query: ZQuery, edge_cap: int = DEFAULT_EXHAUSTIVE_EDGE_CAP) -> ZResult:
    """Raw exhaustion over all 2^N edge subsets; the reference oracle.

    Subsets that cannot beat the running best are skipped by popcount, which
    never changes the maximum. The witness is the first optimum in subset
    order.

    Raises:
        BudgetError: more than edge_cap potential edges.
    """
    pot = list(itertools.product(*(range(m) for m in query.m_list)))
    n = len(pot)
    if n > edge_cap:
        raise BudgetError(
            f"{n} potential edges exceed the exhaustion cap {edge_cap}",
            required=n,
            budget=edge_cap,
        )
    best = -1
    best_edges: list[Edge] = []
    nodes = 0
    for mask in range(1 << n):
        nodes += 1
        if mask.bit_count() <= best:
            continue
        edges = {pot[i] for i in range(n) if mask >> i & 1}
        if not _contains_pattern(edges, query):
            best = len(edges)
            best_edges = sorted(edges)
    witness = RPartiteHypergraph(query.m_list, best_edges)
    return ZResult(query=query, z=best, witness=witness, nodes=nodes)


class _Search:
    """Depth-first state for exact_z over lexicographic potential edges."""

    def __init__(self, query: ZQuery):
        self.query = query
        self.pot: list[Edge] = list(
            itertools.product(*(range(m) for m in query.m_list))
        )
        self.n = len(self.pot)
        self.block = self.n // query.m_list[0]
        self.bits = [0] * self.n
        self.masks: dict[Edge, int] = {}
        self.count = 0
        self.best = -1
        self.best_bits: list[int] = []
        self.nodes = 0

    def _completes_pattern(self, edge: Edge) -> bool:
        """Whether adding edge closes an ordered pattern; masks already updated."""
        query = self.query
        r = len(edge)
        s_last = query.s_list[-1]
        choices = []
        for i in range(r - 1):
            s_i = query.s_list[i]
            if s_i > query.m_list[i]:
                return False
            others = [v for v in range(query.m_list[i]) if v != edge[i]]
            choices.append(
                [(*rest, edge[i]) for rest in itertools.combinations(others, s_i - 1)]
            )
        for subsets in itertools.product(*choices):
            common = -1
            for prefix in itertools.product(*(sorted(s) for s in subsets)):
                common &= self.masks.get(prefix, 0)
                if not common:
                    break
            if common.bit_count() >= s_last:
                return True
        return False

    def run(self) -> tuple[int, list[int], int]:
        self._dfs(0, True)
        return self.best, self.best_bits, self.nodes

    def _dfs(self, pos: int, tight: bool) -> None:
        self.nodes += 1
        if pos == self.n:
            if self.count > self.best:
                self.best = self.count
                self.best_bits = self.bits.copy()
            return
        if self.count + (self.n - pos) <= self.best:
            return
        offset = pos % self.block
        in_first_block = pos < self.block
        if offset == 0:
            tight = not in_first_block
        prev_bit = self.bits[pos - self.block] if not in_first_block else 1
        edge = self.pot[pos]
        prefix = edge[:-1]
        for bit in (1, 0):
            if tight and bit > prev_bit:
                continue
            if bit:
                self.masks[prefix] = self.masks.get(prefix, 0) | (1 << edge[-1])
                if self._completes_pattern(edge):
                    self.masks[prefix] &= ~(1 << edge[-1])
                    continue
                self.bits[pos] = 1
                self.count += 1
                self._dfs(pos + 1, tight and bit == prev_bit)
                self.count -= 1
                self.bits[pos] = 0
                self.masks[prefix] &= ~(1 << edge[-1])
            else:
                self._dfs(pos + 1, tight and bit == prev_bit)


def exact_z(query: ZQuery, edge_cap: int = DEFAULT_SEARCH_EDGE_CAP) -> ZResult:
    """Branch-and-bound exact maximum with a canonical, deterministic witness.

    The search assigns potential edges in lexicographic order, include
    branch first, so complete assignments are visited in decreasing
    edge-list order preference; the first optimum found is therefore the
    lexicographically least one, and first-part relabelings are cut by
    requiring per-vertex edge blocks to be non-increasing.

    Raises:
        BudgetError: more than edge_cap potential edges.
    """
    n = query.potential_edges
    if n > edge_cap:
        raise BudgetError(
            f"{n} potential edges exceed the search cap {edge_cap}",
            required=n,
            budget=edge_cap,
        )
    search = _Search(query)
    best, best_bits, nodes = search.run()
    edges = [search.pot[i] for i in range(n) if best_bits[i]]
    witness = RPartiteHypergraph(query.m_list, edges)
    return ZResult(query=query, z=best, witness=witness, nodes=nodes)


# ----------------------------------------------------------------------
# bound comparison table and the results ledger
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundRow:
    """One query compared against the closed-form bound expression."""

    query: ZQuery
    value: int
    kind: str  # "exact" from the search, "witness" from a supplied graph
    bound: float
    ratio: float


def bound_expression(query: ZQuery) -> float:
    """m_1 ... m_{r-1} * m_r^(1 - 1/(s_1 ... s_{r-1})), as a float for display."""
    sigma = math.prod(query.s_list[:-1]) if len(query.s_list) > 1 else query.s_list[0]
    left = math.prod(query.m_list[:-1])
    return left * query.m_list[-1] ** (1 - 1 / sigma)


def bound_table(
    entries: Sequence[ZQuery | tuple[ZQuery, RPartiteHypergraph | None]],
    edge_cap: int = DEFAULT_SEARCH_EDGE_CAP,
) -> list[BoundRow]:
    """Compare exact values (or construction witnesses) to the bound expression.

    Each entry is a ZQuery, optionally paired with a witness graph whose edge
    count serves as a lower witness when the query is out of search range.
    Witness graphs must match the query's parts and be pattern-free.
    """
    rows = []
    for entry in entries:
        if isinstance(entry, ZQuery):
            query, witness = entry, None
        else:
            query, witness = entry
        if witness is None:
            result = exact_z(query, edge_cap)
            value, kind = result.z, "exact"
        else:
            if witness.part_sizes != query.m_list:
                raise ValueError(
                    f"witness parts {witness.part_sizes} do not match {query.label()}"
                )
            if count_ordered(witness, query.s_list) != 0:
                raise ValueError(f"witness for {query.label()} is not pattern-free")
            value, kind = witness.num_edges, "witness"
        bound = bound_expression(query)
        rows.append(
            BoundRow(
                query=query,
                value=value,
                kind=kind,
                bound=bound,
                ratio=value / bound if bound else float("inf"),
            )
        )
    return rows


def format_bound_table(rows: Sequence[BoundRow]) -> str:
    lines = ["query\tvalue\tkind\tbound\tratio"]
    for row in rows:
        lines.append(
            f"{row.query.label()}\t{row.value}\t{row.kind}\t{row.bound:.6f}\t{row.ratio:.6f}"
        )
    return "\n".join(lines) + "\n"


LEDGER_HEADER = "query\tz\tnodes\twitness\n"


def append_ledger(path: str | Path, result: ZResult, witness_path: str) -> None:
    """Append one outcome to the results ledger; a new file gets the header."""
    path = Path(path)
    line = f"{result.query.label()}\t{result.z}\t{result.nodes}\t{witness_path}\n"
    header = "" if path.exists() else LEDGER_HEADER
    with path.open("a", encoding="ascii") as handle:
        handle.write(header + line)
