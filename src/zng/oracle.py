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

When exact_z adds an edge, it checks only the patterns that close at the
edge's prefix (hypergraph.closing_patterns: those whose per-part maxima are
that prefix).  Edges are assigned in lexicographic order, so no prefix above
the current one has an edge yet.  Any other pattern through the new edge has
such a prefix, so its common neighbourhood is empty and it cannot complete.

The search numbers the (r-1)-prefixes by lexicographic rank
(hypergraph.prefix_ranks), so potential edge pos is prefix pos // m_r with
last-part vertex pos % m_r, and the neighbour masks are a flat list indexed
by rank.  Before the search starts, every prefix's closing patterns are
turned into tuples of prefix ranks, once; each include step then runs
hypergraph.common_mask over those tuples and needs no tuple slicing, dict
lookup or pattern generation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

from zng.errors import BudgetError
from zng.hypergraph import (
    DEFAULT_PATTERN_BUDGET,
    RPartiteHypergraph,
    closing_patterns,
    common_mask,
    pattern_count,
    prefix_ranks,
    write_atomic,
)

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


def exhaustive_z(query: ZQuery, edge_cap: int = DEFAULT_EXHAUSTIVE_EDGE_CAP) -> ZResult:
    """Raw exhaustion over all 2^N edge subsets; the reference oracle.

    Bit i of a subset is potential edge i in lexicographic order.  Each
    ordered pattern becomes the bitmask of all its transversal tuples, once,
    and a subset contains the pattern iff it contains that whole bitmask: a
    direct all-subsets containment test with no neighborhood shortcuts.
    Subsets that cannot beat the running best are skipped by popcount, which
    never changes the maximum.  The witness is the first optimum in subset
    order.

    Raises:
        BudgetError: more than edge_cap potential edges, or pattern
            bitmasks that take more than DEFAULT_PATTERN_BUDGET edge lookups
            to build (hypergraph.pattern_count).
    """
    pot = list(itertools.product(*(range(m) for m in query.m_list)))
    n = len(pot)
    if n > edge_cap:
        raise BudgetError(
            f"{n} potential edges exceed the exhaustion cap {edge_cap}",
            required=n,
            budget=edge_cap,
        )
    pattern_count(query.m_list, query.s_list, DEFAULT_PATTERN_BUDGET)
    bit = {edge: 1 << i for i, edge in enumerate(pot)}
    patterns = [
        sum(bit[edge] for edge in itertools.product(*subsets))
        for subsets in itertools.product(
            *(itertools.combinations(range(m), s) for m, s in zip(query.m_list, query.s_list))
        )
    ]
    best = -1
    best_mask = 0
    nodes = 0
    for mask in range(1 << n):
        nodes += 1
        if mask.bit_count() <= best:
            continue
        if not any(mask & pattern == pattern for pattern in patterns):
            best = mask.bit_count()
            best_mask = mask
    best_edges = [edge for i, edge in enumerate(pot) if best_mask >> i & 1]
    witness = RPartiteHypergraph(query.m_list, best_edges)
    return ZResult(query=query, z=best, witness=witness, nodes=nodes)


def _search(query: ZQuery) -> tuple[int, list[int], int]:
    """Depth-first branch and bound; returns (best, its edge bits, nodes).

    Potential edge pos joins prefix rank pos // m_r to last-part vertex
    pos % m_r.  masks[rank] is that prefix's neighbour mask so far, and
    closing[rank] holds the prefix_ranks of every pattern closing at it,
    built once per search.
    """
    sizes, s_list = query.m_list[:-1], query.s_list[:-1]
    closing = [
        tuple(prefix_ranks(pattern, sizes) for pattern in closing_patterns(prefix, s_list))
        for prefix in itertools.product(*(range(m) for m in sizes))
    ]
    masks = [0] * len(closing)
    n = query.potential_edges
    block = n // query.m_list[0]
    m_last, s_last = query.m_list[-1], query.s_list[-1]
    bits = [0] * n
    best, best_bits, nodes = -1, [], 0

    def dfs(pos: int, count: int, tight: bool) -> None:
        nonlocal best, best_bits, nodes
        nodes += 1
        if pos == n:
            if count > best:
                best, best_bits = count, bits.copy()
            return
        if count + (n - pos) <= best:
            return
        # tight: this first-part block equals the previous one so far, so it
        # may not set a bit the previous block left clear
        if pos < block:
            prev_bit = 1
        else:
            prev_bit = bits[pos - block]
            if pos % block == 0:
                tight = True
        if prev_bit or not tight:  # include first; it keeps tight
            rank, v = divmod(pos, m_last)
            masks[rank] |= 1 << v
            for ranks in closing[rank]:
                if common_mask(masks, ranks, -1).bit_count() >= s_last:
                    break  # the edge completes a pattern
            else:
                bits[pos] = 1
                dfs(pos + 1, count + 1, tight)
                bits[pos] = 0
            masks[rank] ^= 1 << v
        dfs(pos + 1, count, tight and not prev_bit)

    dfs(0, 0, False)
    return best, best_bits, nodes


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
    best, best_bits, nodes = _search(query)
    pot = itertools.product(*(range(m) for m in query.m_list))
    edges = [edge for edge, bit in zip(pot, best_bits) if bit]
    witness = RPartiteHypergraph(query.m_list, edges)
    return ZResult(query=query, z=best, witness=witness, nodes=nodes)


# ----------------------------------------------------------------------
# the results ledger
# ----------------------------------------------------------------------

LEDGER_HEADER = "query\tz\tnodes\twitness\n"


def append_ledger(path: str | Path, result: ZResult, witness_path: str) -> None:
    """Append one outcome to the results ledger; a new file gets the header.

    The whole ledger is rewritten through write_atomic, so a failed write
    leaves the old ledger as it was instead of a torn last row.
    """
    path = Path(path)
    line = f"{result.query.label()}\t{result.z}\t{result.nodes}\t{witness_path}\n"
    try:
        old = path.read_bytes().decode("ascii")  # as stored, line ends too
    except FileNotFoundError:
        old = LEDGER_HEADER
    write_atomic(path, old + line)
