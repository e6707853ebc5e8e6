"""Freeness certificates: exhaustive verification and their JSON form.

verify_freeness works on any graph with a matching part structure,
independently of how it was built, so `zng verify` loads only this module
and the graph model; `construct.build` adds its inputs (seed, parameters,
family) to the certificate it gets from here.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Callable, Hashable, NamedTuple, Sequence

from zng.hypergraph import (
    DEFAULT_PATTERN_BUDGET,
    Pattern,
    RPartiteHypergraph,
    block_pattern,
    pattern_count,
    write_atomic,
)

TABLE_CAP = 2048


class FreenessCertificate(NamedTuple):
    """Exhaustive record of every pattern's common-neighborhood size.

    The full per-pattern table is kept only up to TABLE_CAP entries;
    larger runs keep the maximum and its pattern, which is all the verdict
    needs.
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


def format_certificate(cert: FreenessCertificate) -> str:
    """The certificate as json.dumps(indent=2, sort_keys=True) plus a newline.

    The keys are the record's fields and tuples are arrays; each table row
    is a {"pattern", "size"} object.  With an indent, json encodes in pure
    Python, so the two long lists, the table and the family's polys (in
    PolyFamily.to_dict's layout), are left out of that call and put in from
    _json_rows.
    """
    head = cert._replace(table=None)._asdict()
    holes = {}
    if cert.table is not None:
        head["table"] = "\x00table"
        holes['"\\u0000table"'] = _json_rows(
            cert.table,
            "  ",
            lambda row: tuple(map(len, row[0])),
            lambda row: {"pattern": [[0] * len(side) for side in row[0]], "size": 0},
            lambda row: (*itertools.chain.from_iterable(row[0]), row[1]),
        )
    if cert.family is not None:
        head["family"] = {**cert.family, "polys": "\x00polys"}
        holes['"\\u0000polys"'] = _json_rows(
            cert.family["polys"],
            "    ",
            lambda row: (len(row["tuple"]), *map(len, row["coeffs"])),
            lambda row: {
                "coeffs": [[0] * len(c) for c in row["coeffs"]],
                "tuple": [0] * len(row["tuple"]),
            },
            lambda row: (*itertools.chain.from_iterable(row["coeffs"]), *row["tuple"]),
        )
    text = json.dumps(head, indent=2, sort_keys=True)
    for hole, rows in holes.items():
        text = text.replace(hole, rows)
    return text + "\n"


def _json_rows(
    rows: Sequence,
    pad: str,
    shape: Callable[[Any], Hashable],
    zero: Callable[[Any], object],
    values: Callable[[Any], tuple[int, ...]],
) -> str:
    """A list of rows as json.dumps(indent=2) writes it on a line indented by pad.

    The rows of one shape(row) share a template: the encoding of zero(row),
    whose only digits are its zeros, with each 0 made a %d.  values(row)
    fills it in the order json writes the numbers.
    """
    if not rows:
        return "[]"
    inner = "\n" + pad + "  "
    templates: dict[Hashable, str] = {}
    texts = []
    for row in rows:
        key = shape(row)
        template = templates.get(key)
        if template is None:
            text = json.dumps(zero(row), indent=2, sort_keys=True)
            template = templates[key] = text.replace("\n", inner).replace("0", "%d")
        texts.append(template % values(row))
    return "[" + inner + ("," + inner).join(texts) + "\n" + pad + "]"


def write_certificate(cert: FreenessCertificate, path: str | Path) -> None:
    write_atomic(path, format_certificate(cert))


def verify_freeness(
    H: RPartiteHypergraph,
    s_list: tuple[int, ...],
    t: int,
    pattern_budget: int = DEFAULT_PATTERN_BUDGET,
) -> FreenessCertificate:
    """Exhaustively check that no ordered complete pattern reaches t.

    Takes every pattern's size (the common neighbourhood in the last part of
    its s_i-subsets of parts i < r) from H.pattern_sizes, one block at a
    time, and records the maximum and the first pattern in pattern order
    that reaches it: the argmax starts at the first pattern, with maximum 0,
    and moves only to a size above the maximum so far.  pattern_sizes runs
    pattern_blocks, except at r = 2 on graphs sparse enough for its
    co-degree route, which leaves out the patterns of size 0, so a table
    holds 0 for every pattern left out.  Works on arbitrary graphs with
    matching part structure, independent of how they were built.

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
    argmax = tuple(tuple(range(s)) for s in s_list) if patterns else None
    table: list[tuple[Pattern, int]] | None = [] if patterns <= TABLE_CAP else None
    for first, sizes in H.pattern_sizes(s_list):
        best = max(sizes)
        if best > max_size:
            max_size, argmax = best, block_pattern(first, sizes.index(best))
        if table is not None:
            table.extend((block_pattern(first, k), size) for k, size in enumerate(sizes))
    if table is not None and len(table) < patterns:  # put in the left-out patterns, at 0
        sizes_of = dict(table)
        every = itertools.product(
            *(itertools.combinations(range(m), s) for m, s in zip(H.part_sizes, s_list))
        )
        table = [(pattern, sizes_of.get(pattern, 0)) for pattern in every]
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
