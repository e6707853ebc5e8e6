"""Freeness certificates: exhaustive verification and their JSON form.

verify_freeness works on any graph with a matching part structure,
independently of how it was built, so `zng verify` (run_verify) loads only
this module and the graph model; a table of every pattern, kept up to
TABLE_CAP, is the block kernel's.  `construct.build` adds its inputs (seed,
parameters, family) to the certificate it gets from here.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Callable, Hashable, NamedTuple, Sequence

from zng.config import ExperimentConfig, set_kwargs
from zng.hypergraph import (
    DEFAULT_PATTERN_BUDGET,
    Pattern,
    RPartiteHypergraph,
    block_patterns,
    pattern_count,
    read_graph,
    shape,
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
    whose only digits are its zeros, with each 0 made a %d.  The rows'
    templates are joined into one string, and one % fills it with every
    row's values(row), in the order json writes the numbers.
    """
    if not rows:
        return "[]"
    inner = "\n" + pad + "  "
    shapes = list(map(shape, rows))
    templates = {
        key: json.dumps(zero(row), indent=2, sort_keys=True).replace("\n", inner).replace("0", "%d")
        for key, row in dict(zip(shapes, rows)).items()
    }
    text = ("," + inner).join(map(templates.__getitem__, shapes))
    numbers = tuple(itertools.chain.from_iterable(map(values, rows)))
    return "[" + inner + text % numbers + "\n" + pad + "]"


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
    its s_i-subsets of parts i < r) one block at a time, and records the
    maximum and the first pattern in pattern order that reaches it: the
    argmax starts at the first pattern, with maximum 0, and moves only to a
    size above the maximum so far.  The blocks come from H.pattern_sizes,
    which may leave out patterns of size 0, or from H.pattern_blocks, which
    gives every pattern, where the table of at most TABLE_CAP patterns is
    kept.  Works on arbitrary graphs with matching part structure,
    independent of how they were built.

    Raises:
        ValueError: not one side per part besides the last, or a side or t
            below 1 (shape).
        BudgetError: more than pattern_budget mask lookups, patterns times
            prod(s_list) (pattern_count).
    """
    shape(H.part_sizes, s_list, t)
    patterns = pattern_count(H.part_sizes[:-1], s_list, pattern_budget)
    max_size = 0
    argmax = tuple(tuple(range(s)) for s in s_list) if patterns else None
    table: list[tuple[Pattern, int]] | None = [] if patterns <= TABLE_CAP else None
    for first, sizes in (H.pattern_sizes if table is None else H.pattern_blocks)(s_list):
        best = max(sizes)
        if best > max_size:
            max_size = best
            *_, argmax = block_patterns(first, sizes.index(best) + 1)
        if table is not None:
            table.extend(zip(block_patterns(first, len(sizes)), sizes))
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


def run_verify(config: ExperimentConfig, out: Path) -> tuple[bool, dict]:
    """zng verify: out/certificate.json, and (passed, the status line's fields)."""
    graph = read_graph(config.graph)
    cert = verify_freeness(graph, config.s, config.t, **set_kwargs(pattern_budget=config.budget))
    write_certificate(cert, out / "certificate.json")
    return cert.passed, {
        "graph": config.graph,
        "max_size": cert.max_size,
        "argmax_pattern": cert.argmax_pattern,
        "t": cert.t,
        "passed": cert.passed,
    }
