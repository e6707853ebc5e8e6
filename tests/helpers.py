"""Shared brute-force references and generators for the test suite.

Everything here recomputes results from first principles with no shortcuts,
so package code can be checked against an implementation too simple to be
wrong.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from zng.construct import DEFAULT_POSITION_RETRY_CAP, ConstructionError
from zng.count import gen_binom
from zng.hypergraph import RPartiteHypergraph, closing_patterns, pattern_count
from zng.mpoly import (
    DEFAULT_POINT_BUDGET,
    agreement_set,
    domain,
    evaluate,
    monomial_basis,
    random_poly,
)


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


def reference_closing_patterns(position, s_list, part_sizes):
    """Every pattern on parts of the given sizes whose per-part maxima are position."""
    return [
        pattern
        for pattern in itertools.product(
            *(itertools.combinations(range(m), s) for m, s in zip(part_sizes, s_list))
        )
        if tuple(max(side) for side in pattern) == tuple(position)
    ]


def reference_common_mask(masks, pattern, common: int) -> int:
    """The AND over every transversal prefix, with no early exit."""
    for prefix in itertools.product(*pattern):
        common &= masks.get(prefix, 0)
    return common


def random_graph(
    rng: random.Random, part_sizes: tuple[int, ...], density: float
) -> RPartiteHypergraph:
    """Each potential edge kept independently with the given probability."""
    edges = [
        cell
        for cell in itertools.product(*(range(m) for m in part_sizes))
        if rng.random() < density
    ]
    return RPartiteHypergraph(part_sizes, edges)


def check_field_axioms(field) -> None:
    """Exhaustive commutative-field axioms via integer index tables.

    Builds q x q add/mul tables indexed by element position, then checks
    associativity, commutativity, distributivity, identities, and inverses
    over every triple with plain list lookups.
    """
    elems = field.elements()
    q = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[field.add(a, b)] for b in elems] for a in elems]
    mul = [[index[field.mul(a, b)] for b in elems] for a in elems]
    zero = index[field.zero]
    one = index[field.one]
    assert zero != one
    rng = range(q)
    for a in rng:
        assert add[a][zero] == a
        assert mul[a][one] == a
        assert mul[a][zero] == zero
        for b in rng:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
    # additive and multiplicative inverses exist and match the methods
    for a in elems:
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one
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
            for pattern in closing_patterns(position, params.s_list):
                fs = [
                    candidate if tup == position else chosen[tup]
                    for tup in itertools.product(*pattern)
                ]
                size = len(agreement_set(fs, point_budget))
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


def reference_graph(params, polys) -> RPartiteHypergraph:
    """Graph points by per-point evaluation, numbered coordinate by coordinate."""
    fld = params.field
    edges = []
    for position, f in polys.items():
        for x in domain(fld, params.s_total - 1):
            vertex = 0
            for coord in (*x, evaluate(f, x)):
                vertex = vertex * params.q + fld.index(coord)
            edges.append((*position, vertex))
    return RPartiteHypergraph((*params.m_list, params.n), edges)


def reference_jensen(H: RPartiteHypergraph, s_list: tuple[int, ...]) -> Fraction:
    """The convexity bound with one H.link(v) call per last-part vertex."""
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
            t_a += reference_jensen(H.link(v), s_list[:-1])
    return choices * gen_binom(t_a / choices, s_list[-1])
