"""Random-algebraic construction of dense pattern-free r-partite r-graphs.

Each tuple of vertices drawn from the first r-1 parts gets its own random
polynomial of bounded total degree; the tuple is joined to the graph points
{(x, f(x))} inside the last part, which is all of F_q^s.  Polynomials are
chosen greedily in lexicographic tuple order: a candidate is kept only if
every complete pattern it completes has an agreement set of fewer than t
points, so the forbidden complete pattern with t last-part vertices can
never appear.  That size is the popcount of the AND of the tuples'
last-part neighbour masks (mpoly.graph_mask), which also make up the emitted
graph.  A final exhaustive verification pass certifies the result
independently of how the family was chosen.

Derived quantities (polynomial degree, tuple capacity) use exact integer
root-and-floor arithmetic throughout; no floating point touches anything
that decides acceptance.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from zng.errors import BudgetError, ZngError
from zng.gf import Field, factor_prime_power, make_field
from zng.hypergraph import (
    DEFAULT_PATTERN_BUDGET,
    Pattern,
    RPartiteHypergraph,
    closing_patterns,
    common_mask,
    pattern_count,
)
from zng.mpoly import (
    DEFAULT_POINT_BUDGET,
    MonomialBasis,
    MultiPoly,
    graph_mask,
    monomial_basis,
    random_poly,
)
from zng.seeds import derive_seed

DEFAULT_POSITION_RETRY_CAP = 64
DEFAULT_RESTART_CAP = 16
DEFAULT_TABLE_CAP = 2048


class CapacityWarning(UserWarning):
    """Requested part sizes fall outside the derived tuple capacity."""


class PartSplitAdvisory(UserWarning):
    """A balanced split of the tuple capacity would allow larger parts."""


class ConstructionError(ZngError):
    """The greedy selection ran out of retries.

    Carries the furthest attempt so failures are reportable: attempts is a
    list of (sub_seed, positions_filled, position, pattern) tuples, best
    first.
    """

    def __init__(self, message: str, attempts: list[tuple] | None = None):
        super().__init__(message)
        self.attempts = attempts or []


def integer_root(n: int, k: int) -> int:
    """Largest a with a**k <= n, by pure integer bisection."""
    if n < 0 or k < 1:
        raise ValueError("integer_root needs n >= 0 and k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    hi = 1
    while hi**k <= n:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _ceil_root(n: int, k: int) -> int:
    """Smallest a with a**k >= n."""
    floor = integer_root(n, k)
    return floor if floor**k == n else floor + 1


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionParams:
    """Validated inputs plus every derived constant the pipeline needs.

    Attributes:
        r: number of parts of the output graph (len(s_list) + 1).
        s_list: forbidden side sizes on the first r-1 parts.
        t: forbidden last-part side size.
        q: field order.
        m_list: requested first r-1 part sizes, or None when only the
            derived constants are wanted.
        s_total: product of s_list; polynomials live in s_total - 1 variables.
        degree: maximum total degree of the family polynomials.
        capacity: how many tuples the theory supports at this (q, degree).
        n: last part size, q**s_total.
        field: the ready-made field GF(q).
    """

    r: int
    s_list: tuple[int, ...]
    t: int
    q: int
    m_list: tuple[int, ...] | None
    s_total: int
    degree: int
    capacity: int
    n: int
    field: Field

    @property
    def bezout_bound(self) -> int:
        """degree**(s_total-1), the guaranteed agreement-set ceiling."""
        return self.degree ** (self.s_total - 1)

    def tuple_count(self) -> int:
        if self.m_list is None:
            raise ValueError("params carry no m_list")
        return math.prod(self.m_list)

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "s_list": list(self.s_list),
            "t": self.t,
            "q": self.q,
            "m_list": list(self.m_list) if self.m_list is not None else None,
            "s_total": self.s_total,
            "degree": self.degree,
            "capacity": self.capacity,
            "n": self.n,
            "field": self.field.to_dict(),
        }


def derive_params(
    s_list: tuple[int, ...],
    t: int,
    q: int,
    m_list: tuple[int, ...] | None = None,
) -> ConstructionParams:
    """Derive (degree, capacity, n) from the pattern shape and field order.

    degree is the largest d with d**(s_total-1) < t, computed as the exact
    integer ceil of t^(1/(s_total-1)) minus one; capacity is
    floor(floor((q**(degree+1))^(1/(s_total-1))) / (2*degree)).  Both use
    integer root extraction only.

    Args:
        s_list: side sizes for the first r-1 parts, each >= 1.
        t: forbidden last-part side size, must satisfy t >= prod(s_list).
        q: field order, a prime power within the supported range.
        m_list: optional requested part sizes; when present they are checked
            against capacity (warning, not error) and against a balanced
            split advisory.

    Raises:
        ValueError: empty or sub-unit s_list, s_total < 2, t below the
            hypothesis threshold, q not a prime power.
        BudgetError: q above the field-order cap.
    """
    s_list = tuple(int(s) for s in s_list)
    if not s_list or any(s < 1 for s in s_list):
        raise ValueError(f"side sizes must be >= 1, got {s_list}")
    s_total = math.prod(s_list)
    if s_total < 2:
        raise ValueError(f"prod(s_list) = {s_total} < 2; nothing to randomize")
    if t < s_total:
        raise ValueError(f"t = {t} violates the hypothesis t >= prod(s_list) = {s_total}")
    p, k = factor_prime_power(q)
    fld = make_field(p, k)
    degree = _ceil_root(t, s_total - 1) - 1
    assert degree >= 1 and degree ** (s_total - 1) < t, (degree, s_total, t)
    capacity = integer_root(q ** (degree + 1), s_total - 1) // (2 * degree)
    n = q**s_total
    if m_list is not None:
        m_list = tuple(int(m) for m in m_list)
        if len(m_list) != len(s_list):
            raise ValueError(f"m_list has {len(m_list)} parts, expected {len(s_list)}")
        if any(m < 1 for m in m_list):
            raise ValueError(f"part sizes must be >= 1, got {m_list}")
        tuples = math.prod(m_list)
        if tuples > capacity:
            warnings.warn(
                f"{tuples} tuples exceed the derived capacity {capacity}; "
                "the density guarantee does not cover this run "
                "(freeness is still certified exhaustively)",
                CapacityWarning,
                stacklevel=2,
            )
        else:
            balanced = integer_root(capacity, len(m_list))
            if tuples < balanced ** len(m_list):
                warnings.warn(
                    f"capacity {capacity} would allow a balanced split with "
                    f"{balanced} vertices per part ({tuples} tuples requested)",
                    PartSplitAdvisory,
                    stacklevel=2,
                )
    return ConstructionParams(
        r=len(s_list) + 1,
        s_list=s_list,
        t=int(t),
        q=int(q),
        m_list=m_list,
        s_total=s_total,
        degree=degree,
        capacity=capacity,
        n=n,
        field=fld,
    )


def _range_ok(params: ConstructionParams) -> bool | None:
    """Whether prod(m) stays inside n^(t^(1/(s-1)) / (s(s-1))); report only.

    Exact when t is a perfect (s-1)-th power; otherwise decided in floats,
    which is fine for a purely informational field.
    """
    if params.m_list is None:
        return None
    prod_m = params.tuple_count()
    s = params.s_total
    root = integer_root(params.t, s - 1)
    if root ** (s - 1) == params.t:
        return prod_m ** (s * (s - 1)) <= params.n**root
    exponent = params.t ** (1.0 / (s - 1)) / (s * (s - 1))
    return math.log(prod_m) <= exponent * math.log(params.n)


# ----------------------------------------------------------------------
# the polynomial family
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PolyFamily:
    """One polynomial per tuple of first-part indices, its graph_mask, and stats."""

    m_list: tuple[int, ...]
    field: Field
    basis: MonomialBasis
    polys: dict[tuple[int, ...], MultiPoly]
    masks: dict[tuple[int, ...], int]
    resamples: int = 0
    restarts: int = 0

    def positions(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(m) for m in self.m_list))

    def to_dict(self) -> dict:
        return {
            "basis": {"num_vars": self.basis.num_vars, "max_degree": self.basis.max_degree},
            "field": self.field.to_dict(),
            "polys": [
                {"tuple": list(pos), "coeffs": [list(c) for c in self.polys[pos].coeffs]}
                for pos in self.positions()
            ],
            "resamples": self.resamples,
            "restarts": self.restarts,
        }


def _check_select_args(
    params: ConstructionParams, position_retry_cap: int, point_budget: int
) -> None:
    if position_retry_cap < 1:
        raise ValueError(f"position_retry_cap must be >= 1, got {position_retry_cap}")
    points = params.q ** (params.s_total - 1)
    if points > point_budget:
        raise BudgetError(
            f"evaluation domain has {points} points, above the budget {point_budget}",
            required=points,
            budget=point_budget,
        )


def sequential_select(
    params: ConstructionParams,
    seed: int,
    position_retry_cap: int = DEFAULT_POSITION_RETRY_CAP,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> PolyFamily:
    """Pick the polynomial family greedily, one tuple position at a time.

    Positions run in lexicographic order.  Candidates are drawn uniformly
    from all polynomials of total degree <= params.degree; a candidate is
    accepted iff no complete pattern it closes has an agreement set of t or
    more points.  Rejection resamples the same position, up to
    position_retry_cap draws.

    Each closing pattern's AND of already-chosen masks is taken once per
    position, so a candidate costs one graph_mask plus one AND and popcount
    per pattern; the popcount is the pattern's agreement-set size.

    Raises:
        ValueError: position_retry_cap below 1.
        BudgetError: the evaluation domain has more than point_budget points.
        ConstructionError: some position exhausted its retries; the message
            names the position and the violating pattern.
    """
    if params.m_list is None:
        raise ValueError("sequential_select needs params with m_list")
    _check_select_args(params, position_retry_cap, point_budget)
    rng = random.Random(seed)
    basis = monomial_basis(params.s_total - 1, params.degree)
    chosen: dict[tuple[int, ...], MultiPoly] = {}
    masks: dict[tuple[int, ...], int] = {}
    resamples = 0
    for position in itertools.product(*(range(m) for m in params.m_list)):
        masks[position] = -1  # not chosen yet; every closing pattern contains it
        closing = [
            (pattern, common_mask(masks, pattern, -1))
            for pattern in closing_patterns(position, params.s_list)
        ]
        last_violation: tuple[Pattern, int] | None = None
        for _ in range(position_retry_cap):
            candidate = random_poly(basis, params.field, rng)
            mask = graph_mask(candidate)
            sizes = ((pattern, (common & mask).bit_count()) for pattern, common in closing)
            last_violation = next((v for v in sizes if v[1] >= params.t), None)
            if last_violation is None:
                chosen[position] = candidate
                masks[position] = mask
                break
            resamples += 1
        else:
            pattern, size = last_violation
            raise ConstructionError(
                f"position {position}: {position_retry_cap} candidates rejected; "
                f"last violating pattern {pattern} agreed on {size} >= {params.t} points",
                attempts=[(seed, len(chosen), position, pattern)],
            )
    return PolyFamily(
        m_list=params.m_list,
        field=params.field,
        basis=basis,
        polys=chosen,
        masks=masks,
        resamples=resamples,
    )


# ----------------------------------------------------------------------
# freeness certification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FreenessCertificate:
    """Exhaustive record of every pattern's common-neighborhood size.

    The full per-pattern table is kept only up to table_cap entries; larger
    runs keep the maximum and its pattern, which is all the verdict needs.
    """

    part_sizes: tuple[int, ...]
    s_list: tuple[int, ...]
    t: int
    pattern_count: int
    max_size: int
    argmax_pattern: Pattern | None
    table: tuple[tuple[Pattern, int], ...] | None
    passed: bool
    seed: int | None = None
    params: dict | None = None
    family: dict | None = None
    bezout_bound: int | None = None
    range_ok: bool | None = None

    def to_dict(self) -> dict:
        return {
            "part_sizes": list(self.part_sizes),
            "s_list": list(self.s_list),
            "t": self.t,
            "pattern_count": self.pattern_count,
            "max_size": self.max_size,
            "argmax_pattern": [list(side) for side in self.argmax_pattern]
            if self.argmax_pattern is not None
            else None,
            "table": [
                {"pattern": [list(side) for side in pat], "size": size}
                for pat, size in self.table
            ]
            if self.table is not None
            else None,
            "passed": self.passed,
            "seed": self.seed,
            "params": self.params,
            "family": self.family,
            "bezout_bound": self.bezout_bound,
            "range_ok": self.range_ok,
        }


def format_certificate(cert: FreenessCertificate) -> str:
    return json.dumps(cert.to_dict(), indent=2, sort_keys=True) + "\n"


def write_certificate(cert: FreenessCertificate, path: str | Path) -> None:
    Path(path).write_text(format_certificate(cert), encoding="ascii")


def verify_freeness(
    H: RPartiteHypergraph,
    s_list: tuple[int, ...],
    t: int,
    pattern_budget: int = DEFAULT_PATTERN_BUDGET,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> FreenessCertificate:
    """Exhaustively check that no ordered complete pattern reaches t.

    Enumerates every choice of s_i-subsets of part i for i < r, intersects
    the prefix neighborhoods in the last part, and records the maximum
    intersection size.  Works on arbitrary graphs with matching part
    structure, independent of how they were built.

    Raises:
        BudgetError: more than pattern_budget patterns to enumerate.
    """
    if len(s_list) != H.r - 1:
        raise ValueError(f"s_list has {len(s_list)} entries for an {H.r}-partite graph")
    if any(s < 1 for s in s_list):
        raise ValueError(f"side sizes must be >= 1, got {s_list}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    patterns = pattern_count(H.part_sizes[:-1], s_list, pattern_budget)
    max_size = 0
    argmax: Pattern | None = None
    table: list[tuple[Pattern, int]] | None = [] if patterns <= table_cap else None
    for pattern, size in H.common_neighborhoods(s_list):
        if table is not None:
            table.append((pattern, size))
        if size > max_size or argmax is None:
            max_size, argmax = size, pattern
    return FreenessCertificate(
        part_sizes=H.part_sizes,
        s_list=tuple(s_list),
        t=int(t),
        pattern_count=patterns,
        max_size=max_size,
        argmax_pattern=argmax,
        table=tuple(table) if table is not None else None,
        passed=max_size <= t - 1,
    )


# ----------------------------------------------------------------------
# the full build
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BuildResult:
    graph: RPartiteHypergraph
    family: PolyFamily
    certificate: FreenessCertificate


def family_graph(params: ConstructionParams, family: PolyFamily) -> RPartiteHypergraph:
    """The r-graph joining every tuple to the graph points of its polynomial.

    Last-part vertices are the points of F_q^s_total numbered
    lexicographically by coordinate in the field's element order; a tuple's
    edges are the set bits of its neighbour mask (mpoly.graph_mask).
    """
    edges = []
    for position, mask in family.masks.items():
        while mask:
            low = mask & -mask
            edges.append((*position, low.bit_length() - 1))
            mask ^= low
    return RPartiteHypergraph((*family.m_list, params.n), edges)


def build(
    params: ConstructionParams,
    seed: int,
    position_retry_cap: int = DEFAULT_POSITION_RETRY_CAP,
    restart_cap: int = DEFAULT_RESTART_CAP,
    point_budget: int = DEFAULT_POINT_BUDGET,
    pattern_budget: int = DEFAULT_PATTERN_BUDGET,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> BuildResult:
    """Select a family, emit the graph, and certify freeness end to end.

    The whole run is a function of (params, seed): selection attempts use
    sub-seeds derived from the master seed with role labels ("restart", i),
    so outputs are bit-identical across reruns.

    Raises:
        ValueError: position_retry_cap or restart_cap below 1.
        BudgetError: the evaluation domain or the certification pattern
            count exceeds its budget.
        ConstructionError: every restart exhausted its retries; the error
            carries the best attempt (most positions filled first).
    """
    if params.m_list is None:
        raise ValueError("build needs params with m_list")
    if restart_cap < 1:
        raise ValueError(f"restart_cap must be >= 1, got {restart_cap}")
    _check_select_args(params, position_retry_cap, point_budget)
    pattern_count(params.m_list, params.s_list, pattern_budget)
    attempts: list[tuple] = []
    family: PolyFamily | None = None
    for restart in range(restart_cap):
        sub_seed = derive_seed(seed, "restart", restart)
        try:
            selected = sequential_select(
                params, sub_seed, position_retry_cap, point_budget
            )
        except ConstructionError as err:
            attempts.extend(err.attempts)
            continue
        family = dataclasses.replace(selected, restarts=restart)
        break
    if family is None:
        attempts.sort(key=lambda rec: -rec[1])
        best = attempts[0]
        raise ConstructionError(
            f"no passing family after {restart_cap} restarts; best attempt "
            f"(seed {best[0]}) filled {best[1]} positions before position "
            f"{best[2]} failed on pattern {best[3]}; the field order is likely "
            "too small for this shape",
            attempts=attempts,
        )
    graph = family_graph(params, family)
    cert = verify_freeness(
        graph, params.s_list, params.t, pattern_budget, table_cap
    )
    cert = dataclasses.replace(
        cert,
        seed=seed,
        params=params.to_dict(),
        family=family.to_dict(),
        bezout_bound=params.bezout_bound,
        range_ok=_range_ok(params),
    )
    return BuildResult(graph=graph, family=family, certificate=cert)
