"""Random-algebraic construction of dense pattern-free r-partite r-graphs.

Each tuple of vertices drawn from the first r-1 parts gets its own random
polynomial of bounded total degree; the tuple is joined to the graph points
{(x, f(x))} inside the last part, which is all of F_q^s.  Polynomials are
chosen greedily in lexicographic tuple order: a candidate is kept only if
every complete pattern it completes has an agreement set of fewer than t
points, so the forbidden complete pattern with t last-part vertices can
never appear.  That size is the popcount of the AND of the tuples' last-part
neighbour masks (mpoly.graph_mask, read from monomial rows that build
computes once and every restart reads); the pattern's other tuples come
earlier (hypergraph.closing_patterns), so their AND is ready first.  At
s_total = 2, Bezout decides instead: only a polynomial equal to an earlier
one on the tuple's line can close a violating pattern.  The accepted
masks, one per tuple in rank order, are the emitted graph's mask table as
they stand: the graph's edges are derived from them.  A final exhaustive
verification pass (certify.verify_freeness) certifies the result
independently of how the family was chosen.  A polynomial is its tuple of
coefficients, field element indices 0..q-1 on PolyFamily.basis; the
certificate (PolyFamily.to_dict) writes each as its residue tuple, constant
term first (gf.Field.residues).

Derived quantities (polynomial degree, tuple capacity) use exact integer
root-and-floor arithmetic throughout; no floating point touches anything
that decides acceptance.

run_construct and run_sweep are `zng construct` and `zng sweep`: each point
is derive_params -> build -> graph.zng and certificate.json.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from pathlib import Path
from typing import NamedTuple

from zng.certify import FreenessCertificate, verify_freeness, write_certificate
from zng.config import ExperimentConfig, log, set_kwargs
from zng.errors import BudgetError, ConstructionError, int_text, ratio_text
from zng.gf import Field, make_field
from zng.hypergraph import (
    DEFAULT_PATTERN_BUDGET,
    Pattern,
    RPartiteHypergraph,
    closing_patterns,
    common_mask,
    mask_table_budget,
    pattern_count,
    shape,
    write_atomic,
    write_graph,
)
from zng.mpoly import (
    DEFAULT_POINT_BUDGET,
    MonomialBasis,
    MonomialRows,
    basis_size,
    graph_mask,
    monomial_basis,
    monomial_rows,
    random_poly,
)
from zng.seeds import derive_seed

DEFAULT_POSITION_RETRY_CAP = 64
DEFAULT_RESTART_CAP = 16
RANGE_OK_BITS = 1 << 20
# str() of an int with more digits fails (sys.get_int_max_str_digits), and
# the advice and the certificate print the capacity
PRINTABLE_LIMIT = 10**4300


def integer_root(n: int, k: int) -> int:
    """Largest a with a**k <= n, by pure integer bisection."""
    if n < 0 or k < 1:
        raise ValueError("integer_root needs n >= 0 and k >= 1")
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


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------

class ConstructionParams(NamedTuple):
    """Validated inputs plus every derived constant the pipeline needs.

    Attributes:
        r: number of parts of the output graph (len(s_list) + 1).
        s_list: forbidden side sizes on the first r-1 parts.
        t: forbidden last-part side size.
        q: field order.
        m_list: requested first r-1 part sizes.
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
    m_list: tuple[int, ...]
    s_total: int
    degree: int
    capacity: int
    n: int
    field: Field

    @property
    def bezout_bound(self) -> int:
        """degree**(s_total-1), the guaranteed agreement-set ceiling."""
        return self.degree ** (self.s_total - 1)

    @property
    def advice(self) -> str | None:
        """Why m_list sits badly against the capacity, or None where it fits.

        Too many tuples leave the density guarantee behind; too few, when a
        balanced split of the capacity would give every part more vertices,
        are worth a note too.  Neither stops a build.
        """
        tuples = math.prod(self.m_list)
        if tuples > self.capacity:
            return (
                f"{int_text(tuples)} tuples exceed the derived capacity {self.capacity}; "
                "the density guarantee does not cover this run "
                "(freeness is still certified exhaustively)"
            )
        balanced = integer_root(self.capacity, len(self.m_list))
        if tuples < balanced ** len(self.m_list):
            return (
                f"capacity {self.capacity} would allow a balanced split with "
                f"{balanced} vertices per part ({tuples} tuples requested)"
            )
        return None

    def to_dict(self) -> dict:
        """The fields, with the field as its _asdict()."""
        return {**self._asdict(), "field": self.field._asdict()}


def derive_params(
    s_list: tuple[int, ...],
    t: int,
    q: int,
    m_list: tuple[int, ...],
) -> ConstructionParams:
    """Derive (degree, capacity, n) from the pattern shape and field order.

    degree is the largest d with d**(s_total-1) < t, which is the integer
    (s_total-1)-th root of t - 1; capacity is
    floor(floor((q**(degree+1))^(1/(s_total-1))) / (2*degree)).  Both use
    integer root extraction only.

    Args:
        s_list: side sizes for the first r-1 parts, each >= 1.
        t: forbidden last-part side size, must satisfy t >= prod(s_list).
        q: field order, a prime power within the supported range.
        m_list: requested part sizes, one per side; how they sit against
            the capacity is the returned record's advice, not an error.

    Raises:
        ValueError: not one part per side, a side or t below 1 (shape), a
            part below 1, s_total < 2, t below the hypothesis threshold, or
            q not a prime power (gf.make_field).
        BudgetError: q above 2^16, prime power or not (gf.make_field), a
            basis above the cap (mpoly.basis_size), or a capacity of more
            than 4300 digits.
    """
    shape((*m_list, 0), s_list, t)  # 0 stands for n, the last part, until q is checked
    if any(m < 1 for m in m_list):
        raise ValueError(f"part sizes must be >= 1, got {m_list}")
    s_total = math.prod(s_list)
    if s_total < 2:
        raise ValueError(f"prod(s_list) = {s_total} < 2; nothing to randomize")
    if t < s_total:
        raise ValueError(f"t = {t} violates the hypothesis t >= prod(s_list) = {s_total}")
    fld = make_field(q)
    degree = integer_root(t - 1, s_total - 1)
    assert degree >= 1 and degree ** (s_total - 1) < t, (degree, s_total, t)
    basis_size(s_total - 1, degree)  # what every build makes
    capacity = integer_root(q ** (degree + 1), s_total - 1) // (2 * degree)
    if capacity >= PRINTABLE_LIMIT:
        raise BudgetError(f"the capacity at q={q}, degree {degree} has over 4300 digits")
    return ConstructionParams(
        r=len(s_list) + 1,
        s_list=s_list,
        t=t,
        q=q,
        m_list=m_list,
        s_total=s_total,
        degree=degree,
        capacity=capacity,
        n=q**s_total,
        field=fld,
    )


def _range_ok(params: ConstructionParams) -> bool | None:
    """Whether prod(m) stays inside n^(t^(1/(s-1)) / (s(s-1))); report only.

    With P = prod(m), c = s(s-1) and x = t^(1/(s-1)) the question is
    P^c <= n^x, decided in integers.  At precision j an integer root gives
    a / 2^j <= x < (a + 1) / 2^j, so P^(c 2^j) <= n^a means yes and
    P^(c 2^j) > n^(a+1) means no (as does anything but yes when a / 2^j is
    x exactly).  Each step doubles the precision; once P^(c 2^j) would pass
    RANGE_OK_BITS bits a tie still open is reported as None.
    """
    prod_m, n, t = math.prod(params.m_list), params.n, params.t
    k = params.s_total - 1
    c = params.s_total * k
    j = 0
    while c << j <= RANGE_OK_BITS // prod_m.bit_length():
        scaled = t << (j * k)
        a = integer_root(scaled, k)
        power = prod_m ** (c << j)
        if power <= n**a:
            return True
        if a**k == scaled or power > n ** (a + 1):
            return False
        j += 1
    return None


# ----------------------------------------------------------------------
# the polynomial family
# ----------------------------------------------------------------------

class PolyFamily(NamedTuple):
    """One coefficient tuple per tuple of first-part indices, its graph_mask, and stats."""

    field: Field
    basis: MonomialBasis
    polys: dict[tuple[int, ...], tuple[int, ...]]
    masks: list[int]  # one per position, in lexicographic order like polys
    resamples: int = 0
    restarts: int = 0

    def to_dict(self) -> dict:
        """The family as the certificate writes it; equal coefficients share one residue list."""
        residues = {
            c: list(self.field.residues(c))
            for c in set(itertools.chain.from_iterable(self.polys.values()))
        }
        return {
            "basis": {"num_vars": self.basis.num_vars, "max_degree": self.basis.max_degree},
            "field": self.field._asdict(),
            "polys": [
                {"tuple": list(pos), "coeffs": list(map(residues.__getitem__, coeffs))}
                for pos, coeffs in self.polys.items()
            ],
            "resamples": self.resamples,
            "restarts": self.restarts,
        }


def sequential_select(
    params: ConstructionParams,
    rows: MonomialRows,
    seed: int,
    position_retry_cap: int = DEFAULT_POSITION_RETRY_CAP,
) -> PolyFamily:
    """Pick the polynomial family greedily, one tuple position at a time.

    Positions run in lexicographic order.  Candidates are drawn uniformly
    from all polynomials of total degree <= params.degree; a candidate is
    accepted iff no complete pattern it closes has an agreement set of t or
    more points.  Rejection resamples the same position, up to
    position_retry_cap draws.

    rows holds the domain's monomial values on params' basis and field
    (mpoly.monomial_rows).  Each closing pattern's other tuples are chosen
    already, and the AND of their masks is taken once per position, so a
    candidate costs one graph_mask over those rows plus one AND and
    popcount per pattern; the popcount is the pattern's agreement-set size.

    With s_total = 2 (one side of two, the rest of one) Bezout decides
    instead: a pattern's other tuple lies on the position's line, the
    positions that differ only in the part of two, and two distinct
    polynomials in one variable of degree < t agree on fewer than t points,
    equal ones on all q.  So a candidate is rejected iff q >= t and an
    earlier tuple of its line has the same coefficients; the line's accepted
    polynomials are then distinct, so that pattern is the only violating one.
    Only accepted candidates get a graph_mask.

    Raises:
        ValueError: position_retry_cap below 1.
        ConstructionError: some position exhausted its retries; the message
            names the position and the violating pattern.
    """
    if position_retry_cap < 1:
        raise ValueError(f"position_retry_cap must be >= 1, got {position_retry_cap}")
    rng = random.Random(seed)
    chosen: dict[tuple[int, ...], tuple[int, ...]] = {}
    masks: list[int] = []  # indexed by position rank, as positions come in lex order
    resamples = 0
    # at s_total = 2, the part whose side is two; a line fixes every other part
    part = params.s_list.index(2) if params.s_total == 2 else None
    # line -> coefficients accepted on it -> their position's index in part
    lines: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for position in itertools.product(*(range(m) for m in params.m_list)):
        if part is None:
            closing = [
                (pattern, common_mask(masks, others))
                for pattern, others in closing_patterns(position, params.m_list, params.s_list)
            ]
        else:
            line = lines.setdefault(position[:part] + position[part + 1:], {})
        last_violation: tuple[Pattern, int] | None = None
        for _ in range(position_retry_cap):
            candidate = random_poly(rows.basis, params.field, rng)
            if part is None:
                mask = graph_mask(candidate, rows)
                sizes = ((pattern, (common & mask).bit_count()) for pattern, common in closing)
                last_violation = next((v for v in sizes if v[1] >= params.t), None)
            elif params.q >= params.t and candidate in line:
                sides = list(zip(position))
                sides[part] = (line[candidate], position[part])
                last_violation = tuple(sides), params.q
            else:
                mask, last_violation = graph_mask(candidate, rows), None
                line[candidate] = position[part]
            if last_violation is None:
                chosen[position] = candidate
                masks.append(mask)
                break
            resamples += 1
        else:
            pattern, size = last_violation
            raise ConstructionError(
                f"position {position}: {position_retry_cap} candidates rejected; "
                f"last violating pattern {pattern} agreed on {size} >= {params.t} points",
                attempts=[(seed, len(chosen), position, pattern)],
            )
    return PolyFamily(params.field, rows.basis, chosen, masks, resamples)


# ----------------------------------------------------------------------
# the full build
# ----------------------------------------------------------------------

class BuildResult(NamedTuple):
    graph: RPartiteHypergraph
    family: PolyFamily
    certificate: FreenessCertificate


def build(
    params: ConstructionParams,
    seed: int,
    position_retry_cap: int = DEFAULT_POSITION_RETRY_CAP,
    restart_cap: int = DEFAULT_RESTART_CAP,
    point_budget: int = DEFAULT_POINT_BUDGET,
    pattern_budget: int = DEFAULT_PATTERN_BUDGET,
) -> BuildResult:
    """Select a family, emit the graph, and certify freeness end to end.

    The whole run is a function of (params, seed): selection attempts use
    sub-seeds derived from the master seed with role labels ("restart", i),
    so outputs are bit-identical across reruns.  The basis and the monomial
    rows are made once, after the checks, and every restart reads them.

    Raises:
        ValueError: position_retry_cap or restart_cap below 1.
        BudgetError: the evaluation domain, the certification pattern
            count or the mask table (prod(m_list) masks of n bits) exceeds
            its budget.
        ConstructionError: every restart exhausted its retries; the error
            carries the best attempt (most positions filled first).
    """
    if restart_cap < 1:
        raise ValueError(f"restart_cap must be >= 1, got {restart_cap}")
    if position_retry_cap < 1:
        raise ValueError(f"position_retry_cap must be >= 1, got {position_retry_cap}")
    points = params.q ** (params.s_total - 1)
    if points > point_budget:
        raise BudgetError(
            f"evaluation domain has {int_text(points)} points, above the budget {point_budget}",
        )
    pattern_count(params.m_list, params.s_list, pattern_budget)
    mask_table_budget(math.prod(params.m_list) * params.n)
    rows = monomial_rows(monomial_basis(params.s_total - 1, params.degree), params.field)
    attempts: list[tuple] = []
    family: PolyFamily | None = None
    for restart in range(restart_cap):
        sub_seed = derive_seed(seed, "restart", restart)
        try:
            selected = sequential_select(params, rows, sub_seed, position_retry_cap)
        except ConstructionError as err:
            attempts.extend(err.attempts)
            continue
        family = selected._replace(restarts=restart)
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
    graph = RPartiteHypergraph((*params.m_list, params.n), dict(enumerate(family.masks)))
    cert = verify_freeness(graph, params.s_list, params.t, pattern_budget)
    cert = cert._replace(
        seed=seed,
        params=params.to_dict(),
        family=family.to_dict(),
        bezout_bound=params.bezout_bound,
        range_ok=_range_ok(params),
    )
    return BuildResult(graph=graph, family=family, certificate=cert)


# ----------------------------------------------------------------------
# zng construct and zng sweep
# ----------------------------------------------------------------------

def _build_point(
    config: ExperimentConfig, q: int, m_list: tuple[int, ...], seed: int, out: Path
) -> BuildResult:
    """derive_params -> build -> out/graph.zng and out/certificate.json."""
    params = derive_params(config.s, config.t, q, m_list)
    if params.advice:
        log(params.advice)
    budgets = set_kwargs(
        point_budget=config.budget,
        pattern_budget=config.budget,
        position_retry_cap=config.retries,
        restart_cap=config.restarts,
    )
    result = build(params, seed, **budgets)
    write_graph(result.graph, out / "graph.zng")
    write_certificate(result.certificate, out / "certificate.json")
    return result


def run_construct(config: ExperimentConfig, out: Path) -> tuple[bool, dict]:
    """zng construct: one point, and (passed, the status line's fields)."""
    result = _build_point(config, config.q[0], config.m, config.seed, out)
    cert = result.certificate
    return cert.passed, {
        "edges": result.graph.num_edges,
        "part_sizes": result.graph.part_sizes,
        "max_size": cert.max_size,
        "t": cert.t,
        "passed": cert.passed,
    }


def run_sweep(config: ExperimentConfig, out: Path) -> tuple[bool, dict]:
    """zng sweep: one point per field order and out/sweep.tsv; a failed point is a failed row."""
    s_total = math.prod(config.s)
    lines = ["q\tm\tedges\tbound\tratio\tverdict"]
    failures = 0
    for q in config.q:
        m_list = config.m if config.m else (q,) * len(config.s)
        sub_seed = derive_seed(config.seed, "sweep", "q", q)
        bound = math.prod(m_list) * q ** (s_total - 1)
        row = f"{q}\t{','.join(map(str, m_list))}\t"
        started = time.perf_counter()
        try:
            result = _build_point(config, q, m_list, sub_seed, out / f"q{q}")
        except (ValueError, ConstructionError, BudgetError) as err:
            failures += 1
            log(f"sweep q={q} failed in {time.perf_counter() - started:.3f}s: {err}")
            lines.append(f"{row}-\t{int_text(bound, '-')}\t-\tfailed")
            continue
        edges = result.graph.num_edges
        verdict = "pass" if result.certificate.passed else "failed"
        failures += verdict == "failed"
        log(f"sweep q={q} done in {time.perf_counter() - started:.3f}s")
        lines.append(f"{row}{edges}\t{bound}\t{ratio_text(edges, bound)}\t{verdict}")
    write_atomic(out / "sweep.tsv", "\n".join(lines) + "\n")
    return failures == 0, {
        "points": len(config.q),
        "failed": failures,
    }
