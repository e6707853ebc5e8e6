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
by rank.  Before the search starts, each prefix's closing patterns are
turned, once, into their other prefix ranks: the pattern's ranks besides
the prefix's own, which are all earlier prefixes.  The include step checks
them inline, with no call per pattern, and skips them while the prefix has
fewer than s_r neighbours; the exclude branch is the next turn of a loop,
and leaf children are counted in their parent (see _search).
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import NamedTuple

from zng.errors import BudgetError, int_text
from zng.hypergraph import (
    DEFAULT_PATTERN_BUDGET,
    RPartiteHypergraph,
    closing_patterns,
    index_masks,
    pattern_count,
    prefix_ranks,
    set_bits,
    write_atomic,
)

DEFAULT_EXHAUSTIVE_EDGE_CAP = 30
DEFAULT_SEARCH_EDGE_CAP = 36


class _ZQuery(NamedTuple):
    m_list: tuple[int, ...]
    s_list: tuple[int, ...]


class ZQuery(_ZQuery):
    """Part sizes and forbidden ordered-pattern side sizes, one per part.

    The constructor checks the sizes; _make and _replace would skip that
    check, so nothing calls them.
    """

    __slots__ = ()

    def __new__(cls, m_list: tuple[int, ...], s_list: tuple[int, ...]) -> ZQuery:
        if len(m_list) != len(s_list) or not m_list:
            raise ValueError("m_list and s_list must be equal-length and nonempty")
        if any(m < 1 for m in m_list) or any(s < 1 for s in s_list):
            raise ValueError("all sizes must be >= 1")
        return super().__new__(cls, m_list, s_list)

    @property
    def potential_edges(self) -> int:
        return math.prod(self.m_list)

    def label(self) -> str:
        ms = ",".join(map(str, self.m_list))
        ss = ",".join(map(str, self.s_list))
        return f"z({ms};{ss})"


class ZResult(NamedTuple):
    """The exact maximum, one witness attaining it, and the search size."""

    query: ZQuery
    z: int
    witness: RPartiteHypergraph
    nodes: int


def exhaustive_z(query: ZQuery) -> ZResult:
    """Raw exhaustion over all 2^N edge subsets; the reference oracle.

    Bit i of a subset is potential edge i in lexicographic order.  Each
    ordered pattern becomes the bitmask of all its transversal tuples, once,
    and a subset contains the pattern iff it contains that whole bitmask: a
    direct all-subsets containment test with no neighborhood shortcuts.
    Subsets that cannot beat the running best are skipped by popcount, which
    never changes the maximum.  The witness is the first optimum in subset
    order.

    Raises:
        BudgetError: more than DEFAULT_EXHAUSTIVE_EDGE_CAP potential edges,
            or pattern bitmasks that take more than DEFAULT_PATTERN_BUDGET
            edge lookups to build (hypergraph.pattern_count).
    """
    n, cap = query.potential_edges, DEFAULT_EXHAUSTIVE_EDGE_CAP
    if n > cap:
        raise BudgetError(f"{int_text(n)} potential edges exceed the exhaustion cap {cap}")
    pattern_count(query.m_list, query.s_list, DEFAULT_PATTERN_BUDGET)
    pot = list(itertools.product(*(range(m) for m in query.m_list)))
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
    witness = RPartiteHypergraph(query.m_list, index_masks(set_bits(best_mask), query.m_list[-1]))
    return ZResult(query=query, z=best, witness=witness, nodes=nodes)


def _search(query: ZQuery) -> tuple[int, list[int], int]:
    """Depth-first branch and bound; returns (best, its edge bits, nodes).

    A node is one visit of a search state (pos, count, tight): the root and
    every child of a node that is neither a leaf (pos == n) nor cut by the
    bound (count + n - pos <= best).  A node at pos has its include child at
    pos + 1 first, if the canonical rule and the closing checks allow it,
    then its exclude child.  dfs turns the exclude child into the next turn
    of its loop and calls itself only for an include child below the last
    position; an include child at pos + 1 == n is a leaf counted where it
    is found, and an include child is never cut, because its bound is its
    parent's.  dfs returns the number of nodes it visited: itself, what its
    include children return, and one exclude child per turn of its loop,
    pos - first in all.  It holds the bound as stop = count + n - best,
    capped at n, and recomputes it only where best can change: after an
    include child returns or a leaf is found.

    Potential edge pos joins prefix rank pos // m_r to last-part vertex
    pos % m_r, and masks[rank] is that prefix's neighbour mask so far.  A
    pattern closing at a rank contains the rank, so it is kept as its other
    prefix ranks only.  One other rank o goes to singles[rank]: the new edge
    completes that pattern iff cur & masks[o] has s_r bits, where cur is
    the rank's mask with the new edge.  Longer ones go to groups[rank].
    An AND with cur has at most cur's bits, so an include whose cur has
    fewer than s_r bits completes no pattern and skips every check; the
    others try singles most recent rank first.  A group's ranks are earlier
    prefixes, whose masks stay fixed while the rank's edges are assigned.
    So the first include on the current path whose cur has s_r bits ANDs
    each group's masks and keeps in fixed[rank] those with s_r bits or
    more, for this and the rank's later includes.  An include that gives
    the rank its first edge sets fixed[rank] to None, because the earlier
    ranks may have changed since it was built.
    """
    sizes, s_list = query.m_list[:-1], query.s_list[:-1]
    n = query.potential_edges
    block = n // query.m_list[0]
    m_last, s_last = query.m_list[-1], query.s_list[-1]
    singles, groups = [], []
    for rank, prefix in enumerate(itertools.product(*(range(m) for m in sizes))):
        others = [
            tuple(o for o in prefix_ranks(pattern, sizes) if o != rank)
            for pattern in closing_patterns(prefix, s_list)
        ]
        singles.append(sorted((ranks[0] for ranks in others if len(ranks) == 1), reverse=True))
        groups.append([ranks for ranks in others if len(ranks) != 1])
    # per position: rank, last-part bit, the rank's checks, index in bits
    at = [
        (rank, 1 << v, singles[rank], groups[rank], block + pos)
        for pos in range(n)
        for rank, v in [divmod(pos, m_last)]
    ]
    starts = [pos % block == 0 for pos in range(n)]
    masks = [0] * len(singles)
    fixed = [None] * len(groups)
    everyone = (1 << m_last) - 1  # a group's AND starts from every last-part vertex
    # bits[block + pos] is edge pos; the leading ones let the first block
    # read its previous block's bit at bits[pos] like every other
    bits = [1] * block + [0] * n
    best, best_bits = -1, []

    def dfs(pos: int, count: int, tight: bool) -> int:
        nonlocal best, best_bits
        first, nodes = pos, 1
        stop = n if count > best else count + n - best  # the bound cuts at pos >= stop
        while pos < stop:
            # tight: this first-part block equals the previous one so far, so
            # it may not set a bit the previous block left clear
            if starts[pos]:
                tight = True
            if tight and not bits[pos]:
                pos += 1  # no include; the exclude child keeps tight
                continue
            rank, vbit, single, group, here = at[pos]  # include first; it keeps tight
            old = masks[rank]
            cur = old | vbit
            if not old:
                fixed[rank] = None  # the earlier ranks may have changed
            closes = cur.bit_count() >= s_last  # else no AND with cur has s_last bits
            if closes:
                for o in single:
                    if (cur & masks[o]).bit_count() >= s_last:
                        break  # the edge completes a pattern
                else:
                    ands = fixed[rank]
                    if ands is None:
                        ands = fixed[rank] = []
                        for others in group:
                            common = everyone
                            for o in others:
                                common &= masks[o]
                                if not common:
                                    break
                            if common.bit_count() >= s_last:
                                ands.append(common)
                    for common in ands:
                        if (cur & common).bit_count() >= s_last:
                            break
                    else:
                        closes = False
            if not closes:
                if pos + 1 < n:
                    masks[rank] = cur
                    bits[here] = 1
                    nodes += dfs(pos + 1, count + 1, tight)
                    bits[here] = 0
                    masks[rank] = old
                else:
                    nodes += 1
                    if count >= best:
                        best, best_bits = count + 1, bits[block:-1] + [1]
                stop = n if count > best else count + n - best
            pos += 1
            tight = False  # the previous block's bit was set, or tight was off
        if pos == n and count > best:  # a leaf, not a cut by the bound
            best, best_bits = count, bits[block:]
        return nodes + pos - first  # each turn visited an exclude child

    nodes = dfs(0, 0, False)
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
        raise BudgetError(f"{int_text(n)} potential edges exceed the search cap {edge_cap}")
    best, best_bits, nodes = _search(query)
    edges = [pos for pos, bit in enumerate(best_bits) if bit]  # sorted edge indices
    witness = RPartiteHypergraph(query.m_list, index_masks(edges, query.m_list[-1]))
    return ZResult(query=query, z=best, witness=witness, nodes=nodes)


# ----------------------------------------------------------------------
# the results ledger
# ----------------------------------------------------------------------

LEDGER_HEADER = "query\tz\tnodes\twitness\n"


def append_ledger(path: str | Path, result: ZResult, witness_path: str) -> None:
    """Append one outcome to the results ledger; a new or empty file gets the header.

    The whole ledger is rewritten through write_atomic, so a failed write
    leaves the old ledger as it was instead of a torn last row.
    """
    path = Path(path)
    line = f"{result.query.label()}\t{result.z}\t{result.nodes}\t{witness_path}\n"
    try:
        old = path.read_bytes().decode("ascii")  # as stored, line ends too
    except FileNotFoundError:
        old = ""
    write_atomic(path, (old or LEDGER_HEADER) + line)
