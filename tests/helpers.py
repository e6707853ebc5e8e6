"""Shared brute-force references and generators for the test suite.

Everything here recomputes results from first principles with no shortcuts,
so package code can be checked against an implementation too simple to be
wrong.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from fractions import Fraction

from hypothesis import example
from hypothesis import strategies as st

from zng.certify import FreenessCertificate
from zng.construct import DEFAULT_POSITION_RETRY_CAP
from zng.errors import BudgetError, ConstructionError, int_text
from zng.hypergraph import (
    DEFAULT_PATTERN_BUDGET,
    RPartiteHypergraph,
    Shape,
    block_patterns,
    closing_patterns,
    common_mask,
    index_masks,
    pattern_count,
    prefix_ranks,
    set_bits,
)
from zng.mpoly import DEFAULT_POINT_BUDGET, monomial_basis, random_poly
from zng.oracle import ZResult


# the two kinds of ConstructionParams.advice, each by a phrase of its text
OVER_CAPACITY = "tuples exceed the derived capacity"
BALANCED_SPLIT = "would allow a balanced split"


def advice_kind(text: str | None) -> str | None:
    """OVER_CAPACITY or BALANCED_SPLIT, whichever text gives; None for neither."""
    return next((kind for kind in (OVER_CAPACITY, BALANCED_SPLIT) if kind in (text or "")), None)


def logged_advice(err: str) -> list[str]:
    """The advice_kind of each line of a CLI run's stderr that gives advice, in order."""
    return [kind for kind in map(advice_kind, err.splitlines()) if kind]


# ----------------------------------------------------------------------
# residue-tuple arithmetic: the field reference, sharing no code with zng.gf
# ----------------------------------------------------------------------

class ResidueField:
    """GF(p^k) on tuples of k residues mod p, constant term first.

    Products are schoolbook convolutions reduced by long division by the
    field's modulus.  elements lists the tuples lexicographically, which is
    the element numbering of zng.gf: index[e] is e's element index.
    """

    def __init__(self, p: int, k: int, modulus):
        self.p, self.k, self.q, self.modulus = p, k, p**k, modulus
        self.elements = tuple(itertools.product(range(p), repeat=k))
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.zero = self.elements[0]
        self.one = (1,) + (0,) * (k - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return (a[0] * b[0] % p,)
        rem = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                rem[i + j] += x * y
        while len(rem) > k:  # subtract lead * x^(deg - k) * modulus
            lead = rem.pop() % p
            for i, c in enumerate(self.modulus[:k]):
                rem[len(rem) - k + i] -= lead * c
        return tuple(c % p for c in rem)


@functools.lru_cache(maxsize=None)
def residue_field(field) -> ResidueField:
    """The residue-tuple reference for a zng.gf.Field: its p, k and modulus only."""
    return ResidueField(field.p, field.k, field.modulus)


def domain(field, num_vars: int):
    """All points of F_q^num_vars as residue tuples, lexicographic."""
    return itertools.product(residue_field(field).elements, repeat=num_vars)


def evaluate(field, basis, coeffs, point):
    """The polynomial coeffs on basis at a point of residue tuples, term by term.

    Returns a residue tuple.

    Raises:
        ValueError: not one coefficient per monomial, or not one coordinate
            per variable.
    """
    ref = residue_field(field)
    if len(coeffs) != len(basis.exponents):
        raise ValueError(f"{len(coeffs)} coefficients for a {len(basis.exponents)}-monomial basis")
    if len(point) != basis.num_vars:
        raise ValueError(f"point has {len(point)} coordinates, expected {basis.num_vars}")
    powers = []  # powers[v][e] = point[v]^e
    for x in point:
        column = [ref.one]
        for _ in range(basis.max_degree):
            column.append(ref.mul(column[-1], x))
        powers.append(column)
    acc = ref.zero
    for exps, c in zip(basis.exponents, coeffs):
        if c:
            term = ref.elements[c]
            for column, e in zip(powers, exps):
                if e:
                    term = ref.mul(term, column[e])
            acc = ref.add(acc, term)
    return acc


def agreement_set(field, basis, fs, point_budget: int = DEFAULT_POINT_BUDGET) -> set:
    """Points where all coefficient tuples fs on basis take one common value.

    Evaluated point by point with evaluate: the reference for the popcount
    of the AND of graph_mask values.

    Raises:
        ValueError: empty input, or a tuple of another length than basis
            (evaluate).
        BudgetError: the domain has more than point_budget points.
    """
    if not fs:
        raise ValueError("agreement_set needs at least one polynomial")
    size = field.q**basis.num_vars
    if size > point_budget:
        raise BudgetError(f"domain has {size} points, above the budget {point_budget}")
    return {
        point
        for point in domain(field, basis.num_vars)
        if len({evaluate(field, basis, f, point) for f in fs}) == 1
    }


# ----------------------------------------------------------------------
# graphs from edge lists, and the mask-table contract the constructor trusts
# ----------------------------------------------------------------------

def edge_graph(part_sizes, edges) -> RPartiteHypergraph:
    """The graph of an edge list, each edge's bit ORed into its prefix's mask.

    Every edge must have one index per part, each in range, and be new.
    This uses neither hypergraph.index_masks nor the parser, so a test that
    compares either with it has two independent sides.
    """
    part_sizes = tuple(part_sizes)
    masks: dict[int, int] = {}
    for edge in edges:
        assert len(edge) == len(part_sizes), f"edge {edge} has the wrong arity"
        assert all(0 <= v < m for v, m in zip(edge, part_sizes)), f"edge {edge} out of range"
        rank = 0
        for v, m in zip(edge[:-1], part_sizes):
            rank = rank * m + v
        mask = masks.get(rank, 0)
        assert not mask >> edge[-1] & 1, f"duplicate edge {edge}"
        masks[rank] = mask | 1 << edge[-1]
    return RPartiteHypergraph(part_sizes, dict(sorted(masks.items())))


def complete_graph(part_sizes: tuple[int, ...]) -> RPartiteHypergraph:
    """The complete r-partite r-graph: every transversal tuple is an edge."""
    full = (1 << part_sizes[-1]) - 1  # 0 for an empty last part, which has no edge
    prefixes = math.prod(part_sizes[:-1]) if full else 0
    return RPartiteHypergraph(part_sizes, dict.fromkeys(range(prefixes), full))


def check_trusted_table(graph: RPartiteHypergraph) -> None:
    """Assert that graph's mask table keeps the contract the constructor trusts.

    Ranks are ints, ascending and in [0, m_1 * ... * m_{r-1}); masks are
    nonzero and below 1 << m_r.
    """
    ranks = list(graph.masks)
    assert all(type(rank) is int for rank in ranks), ranks
    assert ranks == sorted(ranks), ranks
    assert all(0 <= rank < math.prod(graph.part_sizes[:-1]) for rank in ranks), ranks
    full = 1 << graph.part_sizes[-1]
    assert all(0 < mask < full for mask in graph.masks.values()), graph.masks


def naive_count(H: RPartiteHypergraph, s_list: tuple[int, ...]) -> int:
    """All-subsets ordered pattern counter; no neighborhood tricks."""
    edge_set = set(H.edges)
    total = 0
    for subsets in itertools.product(
        *(
            itertools.combinations(range(m), s)
            for m, s in zip(H.part_sizes, s_list)
        )
    ):
        if all(e in edge_set for e in itertools.product(*subsets)):
            total += 1
    return total


def reference_format_graph(graph: RPartiteHypergraph) -> str:
    """hypergraph.format_graph written edge by edge from the sorted edge tuples."""
    lines = ["zng " + " ".join(str(m) for m in (graph.r, *graph.part_sizes))]
    lines.extend(" ".join(str(v) for v in e) for e in sorted(graph.edges))
    return "\n".join(lines) + "\n"


def reference_closing_patterns(position, s_list, part_sizes):
    """Every pattern on parts of the given sizes whose per-part maxima are position."""
    return [
        pattern
        for pattern in itertools.product(
            *(itertools.combinations(range(m), s) for m, s in zip(part_sizes, s_list))
        )
        if tuple(max(side) for side in pattern) == tuple(position)
    ]


def reference_common_mask(masks, pattern) -> int:
    """The AND over every transversal prefix, from -1, with no early exit."""
    common = -1
    for prefix in itertools.product(*pattern):
        common &= masks.get(prefix, 0)
    return common


def flat_blocks(H: RPartiteHypergraph, s_list) -> list:
    """H.pattern_blocks(s_list) flattened to one (pattern, size) per pattern."""
    return [
        (pattern, size)
        for first, sizes in H.pattern_blocks(s_list)
        for pattern, size in zip(block_patterns(first, len(sizes)), sizes)
    ]


def reference_neighborhoods(H: RPartiteHypergraph, s_list) -> list:
    """(pattern, size) per pattern in product order, one reference_common_mask each."""
    masks = {}
    for e in H.edges:
        masks[e[:-1]] = masks.get(e[:-1], 0) | 1 << e[-1]
    return [
        (pattern, reference_common_mask(masks, pattern).bit_count())
        for pattern in itertools.product(
            *(itertools.combinations(range(m), s) for m, s in zip(H.part_sizes, s_list))
        )
    ]


def reference_search(query: Shape) -> tuple[int, list[int], int]:
    """oracle._search as a plain recursion: one dfs call per node.

    Returns (best, its edge bits, nodes).  Potential edge pos joins prefix
    rank pos // m_r to last-part vertex pos % m_r.  masks[rank] is that
    prefix's neighbour mask so far, and closing[rank] holds the prefix_ranks
    of every pattern closing at it, built once per search.
    """
    sizes, s_list = query.m_list[:-1], query.s_list[:-1]
    closing = [
        tuple(
            prefix_ranks(pattern, sizes) for pattern, _ in closing_patterns(prefix, sizes, s_list)
        )
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
                if common_mask(masks, ranks).bit_count() >= s_last:
                    break  # the edge completes a pattern
            else:
                bits[pos] = 1
                dfs(pos + 1, count + 1, tight)
                bits[pos] = 0
            masks[rank] ^= 1 << v
        dfs(pos + 1, count, tight and not prev_bit)

    dfs(0, 0, False)
    return best, best_bits, nodes


DEFAULT_EXHAUSTIVE_EDGE_CAP = 30


def exhaustive_z(query: Shape) -> ZResult:
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


@st.composite
def graphs_with_sides(draw, min_r: int = 1, max_r: int = 4):
    """(graph, s_list): r parts of 0..4 vertices, any edge set, s_i in 1..m_i + 1.

    s_i may exceed m_i, so some shapes have no pattern at all.
    """
    r = draw(st.integers(min_r, max_r))
    top = 4 if r < 4 else 3
    part_sizes = tuple(draw(st.lists(st.integers(0, top), min_size=r, max_size=r)))
    cells = list(itertools.product(*(range(m) for m in part_sizes)))
    edges = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    s_list = tuple(draw(st.integers(1, m + 1)) for m in part_sizes)
    return edge_graph(part_sizes, edges), s_list


@st.composite
def bipartite_graphs(draw):
    """(graph, s): r = 2 with parts of 0..7 vertices, any edge set, s in 1..m_1 + 1."""
    part_sizes = (draw(st.integers(0, 7)), draw(st.integers(0, 7)))
    cells = list(itertools.product(*map(range, part_sizes)))
    edges = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return edge_graph(part_sizes, edges), draw(st.integers(1, part_sizes[0] + 1))


# bipartite_graphs examples on both sides of the cost rule
R2_EXAMPLES = [
    (edge_graph((6, 5), []), 2),  # co-degree, with every size 0
    (complete_graph((4, 4)), 2),  # blocks
    (edge_graph((7, 7), [(0, 0), (1, 0), (2, 0), (3, 1), (5, 1), (6, 6)]), 2),
    (edge_graph((7, 4), [(0, 0), (1, 0), (2, 0), (4, 0), (6, 3)]), 3),
    (edge_graph((6, 3), [(0, 0), (4, 0)]), 1),  # s = 1, co-degree
    (complete_graph((3, 3)), 1),  # s = 1, blocks
    (edge_graph((2, 3), [(0, 0), (1, 0)]), 3),  # s > m_1: no pattern
]


def apply_examples(examples):
    """A decorator adding @example(*args) for each args in examples."""
    def decorate(test):
        for args in examples:
            test = example(*args)(test)
        return test
    return decorate


def small_shapes(max_edges: int):
    """Every (m_list, s_list) with r <= 3, s_i <= m_i and prod(m_i) <= max_edges."""
    for r in (1, 2, 3):
        for m_list in itertools.product(range(1, max_edges + 1), repeat=r):
            if math.prod(m_list) > max_edges:
                continue
            for s_list in itertools.product(*(range(1, m + 1) for m in m_list)):
                yield m_list, s_list


def random_graph(
    rng: random.Random, part_sizes: tuple[int, ...], density: float
) -> RPartiteHypergraph:
    """Each potential edge kept independently with the given probability."""
    edges = [
        cell
        for cell in itertools.product(*(range(m) for m in part_sizes))
        if rng.random() < density
    ]
    return edge_graph(part_sizes, edges)


def check_field_axioms(field) -> None:
    """Exhaustive commutative-field axioms on the integer tables.

    Builds q x q add/mul tables from the residue sum and exp[log a + log b],
    then checks associativity, commutativity, distributivity, identities,
    and inverses over every triple with plain list lookups.
    """
    log, exp = field.int_arith()
    ref = residue_field(field)
    q = field.q
    rng = range(q)
    add = [[ref.index[ref.add(x, y)] for y in ref.elements] for x in ref.elements]
    mul = [[exp[log[a] + log[b]] for b in rng] for a in rng]
    zero = 0
    one = field.q // field.p
    assert zero != one
    for a in rng:
        assert add[a][zero] == a
        assert mul[a][one] == a
        assert mul[a][zero] == zero
        for b in rng:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
    # additive and multiplicative inverses exist
    for a in rng:
        assert zero in add[a]
        if a != zero:
            assert one in mul[a]
    for a in rng:
        row_a_add = add[a]
        row_a_mul = mul[a]
        for b in rng:
            ab_add = row_a_add[b]
            ab_mul = row_a_mul[b]
            add_b = add[b]
            mul_b = mul[b]
            for c in rng:
                assert add[ab_add][c] == row_a_add[add_b[c]]
                assert mul[ab_mul][c] == row_a_mul[mul_b[c]]
                assert row_a_mul[add_b[c]] == add[ab_mul][mul[a][c]]


def reference_select(
    params,
    seed: int,
    position_retry_cap: int = DEFAULT_POSITION_RETRY_CAP,
    point_budget: int = DEFAULT_POINT_BUDGET,
):
    """Greedy selection that checks every pattern with agreement_set.

    Same draws, same pattern order and same error text as
    construct.sequential_select, but each candidate re-evaluates every
    polynomial of every closing pattern over the whole domain.  Returns
    (polys, resamples).
    """
    rng = random.Random(seed)
    basis = monomial_basis(params.s_total - 1, params.degree)
    chosen = {}
    resamples = 0
    for position in itertools.product(*(range(m) for m in params.m_list)):
        last_violation = None
        for _ in range(position_retry_cap):
            candidate = random_poly(basis, params.field, rng)
            last_violation = None
            for pattern, _ in closing_patterns(position, params.m_list, params.s_list):
                fs = [
                    candidate if tup == position else chosen[tup]
                    for tup in itertools.product(*pattern)
                ]
                size = len(agreement_set(params.field, basis, fs, point_budget))
                if size > params.t - 1:
                    last_violation = pattern, size
                    break
            if last_violation is None:
                chosen[position] = candidate
                break
            resamples += 1
        else:
            pattern, size = last_violation
            raise ConstructionError(
                f"position {position}: {position_retry_cap} candidates rejected; "
                f"last violating pattern {pattern} agreed on {size} >= {params.t} points",
                attempts=[(seed, len(chosen), position, pattern)],
            )
    return chosen, resamples


def reference_graph_mask(field, basis, coeffs) -> int:
    """mpoly.graph_mask by per-point evaluation: one evaluate per domain point.

    Each point's bit is set in a bytearray, read once, so the cost is linear
    in the mask width (ORing bits into one int would copy it at every point).
    """
    ref = residue_field(field)
    buf = bytearray((ref.q ** (basis.num_vars + 1) + 7) >> 3)
    for i, x in enumerate(domain(field, basis.num_vars)):
        bit = i * ref.q + ref.index[evaluate(field, basis, coeffs, x)]
        buf[bit >> 3] |= 1 << (bit & 7)
    return int.from_bytes(buf, "little")


def reference_graph(params, polys) -> RPartiteHypergraph:
    """Graph points by per-point evaluation, numbered coordinate by coordinate."""
    ref = residue_field(params.field)
    basis = monomial_basis(params.s_total - 1, params.degree)
    edges = []
    for position, f in polys.items():
        for x in domain(params.field, basis.num_vars):
            vertex = 0
            for coord in (*x, evaluate(params.field, basis, f, x)):
                vertex = vertex * params.q + ref.index[coord]
            edges.append((*position, vertex))
    return edge_graph((*params.m_list, params.n), edges)


def gen_binom(x: int | Fraction, s: int) -> Fraction:
    """Generalized binomial: 0 below s-1, else x(x-1)...(x-s+1)/s!, in Fractions.

    Defined for exact rational x and integer s >= 1; nondecreasing and convex
    in x on x >= 0, which is what makes the averaging bound sound.
    """
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    x = Fraction(x)
    if x < s - 1:
        return Fraction(0)
    prod = Fraction(1)
    for i in range(s):
        prod *= x - i
    return prod / math.factorial(s)


def reference_jensen(H: RPartiteHypergraph, s_list: tuple[int, ...]) -> Fraction:
    """The convexity bound with one link graph per last-part vertex, in Fractions.

    The link of v is built by filtering H.edges for edges ending at v, and
    each averaging step is gen_binom of a Fraction, so nothing is shared with
    count's integer chain.
    """
    if H.r == 1:
        return gen_binom(H.num_edges, s_list[0])
    choices = pattern_count(H.part_sizes[:-1], s_list[:-1])
    if choices == 0:
        return Fraction(0)
    if H.r == 2:
        m2 = H.part_sizes[1]
        if m2 == 0:
            return Fraction(0)
        t_a = m2 * gen_binom(Fraction(H.num_edges, m2), s_list[0])
    else:
        t_a = Fraction(0)
        for v in range(H.part_sizes[-1]):
            link = edge_graph(H.part_sizes[:-1], [e[:-1] for e in H.edges if e[-1] == v])
            t_a += reference_jensen(link, s_list[:-1])
    return choices * gen_binom(t_a / choices, s_list[-1])


def reference_certificate_text(cert: FreenessCertificate) -> str:
    """certify.format_certificate by json's own indenting encoder.

    The layout is spelled out here: the record's fields are the keys, tuples
    are arrays, and each table row is a {"pattern", "size"} object.
    """
    data = cert._asdict()
    if cert.table is not None:
        data["table"] = [{"pattern": pattern, "size": size} for pattern, size in cert.table]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@st.composite
def certificates(draw):
    """FreenessCertificates with r = 2..4 parts and any mix of optional fields.

    Table None, empty or full (row shapes may differ), range_ok null or a
    bool, and the family None or in PolyFamily.to_dict's layout with 0..3
    residues per coefficient.
    """
    r = draw(st.integers(2, 4))
    ints = st.integers(0, 10**6)
    side = st.lists(ints, min_size=1, max_size=3).map(tuple)
    pattern = st.lists(side, min_size=r - 1, max_size=r - 1).map(tuple)
    table = st.none() | st.lists(st.tuples(pattern, ints), max_size=8).map(tuple)
    k = draw(st.integers(0, 3))
    poly = st.fixed_dictionaries(
        {
            "tuple": st.lists(ints, min_size=r - 1, max_size=r - 1),
            "coeffs": st.lists(st.lists(ints, min_size=k, max_size=k), max_size=4),
        }
    )
    family = st.none() | st.fixed_dictionaries(
        {
            "basis": st.fixed_dictionaries({"num_vars": ints, "max_degree": ints}),
            "field": st.fixed_dictionaries(
                {"p": ints, "k": st.just(k), "modulus": st.none() | st.lists(ints)}
            ),
            "polys": st.lists(poly, max_size=5),
            "resamples": ints,
            "restarts": ints,
        }
    )
    return FreenessCertificate(
        part_sizes=tuple(draw(st.lists(ints, min_size=r, max_size=r))),
        s_list=tuple(draw(st.lists(ints, min_size=r - 1, max_size=r - 1))),
        t=draw(ints),
        pattern_count=draw(ints),
        max_size=draw(ints),
        argmax_pattern=draw(st.none() | pattern),
        table=draw(table),
        passed=draw(st.booleans()),
        seed=draw(st.none() | st.integers(0, 2**64 - 1)),
        params=draw(st.none() | st.dictionaries(st.sampled_from("nqrt"), ints)),
        family=draw(family),
        bezout_bound=draw(st.none() | ints),
        range_ok=draw(st.none() | st.booleans()),
    )
