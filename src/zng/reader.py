"""The graph text reader: parse_graph, which hypergraph.read_graph calls.

Only verify and count read a graph, so only they load this module.  Text in
exactly the shape format_graph writes is read by prefix runs
(_parse_canonical); any other text is read line by line (_parse_lines), and
every complaint comes from that reader.
"""

from __future__ import annotations

import itertools

from zng.errors import GraphFormatError, parse_int
from zng.hypergraph import RPartiteHypergraph, index_masks

_CANONICAL_BODY = str.maketrans("", "", "0123456789 \n")  # deletes what format_graph writes


def parse_graph(text: str) -> RPartiteHypergraph:
    """Parse the line format; every complaint carries its 1-based line number.

    Valid text in format_graph's shape is read by prefix runs
    (_parse_canonical).  Any other text, with comments, other whitespace,
    lines out of order or an error, is read by _parse_lines, so every
    complaint comes from there.
    """
    graph = _parse_canonical(text)
    return _parse_lines(text) if graph is None else graph


def _parse_lines(text: str) -> RPartiteHypergraph:
    """parse_graph one line at a time, with comments and any whitespace.

    The one place that checks an edge (arity, range, duplicates), each with
    its line number; an integer too long for int() is a BudgetError.
    """
    part_sizes: tuple[int, ...] | None = None
    seen: dict[int, int] = {}  # edge index -> its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        if part_sizes is None:
            if tokens[0] != "zng":
                raise GraphFormatError(f"line {lineno}: expected 'zng' header, got {tokens[0]!r}")
            try:
                numbers = [parse_int(t, f"line {lineno}: header field") for t in tokens[1:]]
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
            edge = tuple(parse_int(t, f"line {lineno}: edge field") for t in tokens)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: edge fields must be integers") from None
        if len(edge) != r:
            raise GraphFormatError(f"line {lineno}: edge has {len(edge)} indices, expected {r}")
        index = 0
        for i, v in enumerate(edge):
            m = part_sizes[i]
            if not 0 <= v < m:
                raise GraphFormatError(
                    f"line {lineno}: index {v} out of range for part {i + 1} (size {m})"
                )
            index = index * m + v
        first = seen.setdefault(index, lineno)
        if first != lineno:
            raise GraphFormatError(
                f"line {lineno}: duplicate edge {' '.join(map(str, edge))} "
                f"(first seen on line {first})"
            )
    if part_sizes is None:
        raise GraphFormatError("line 1: missing 'zng' header")
    return RPartiteHypergraph(part_sizes, index_masks(sorted(seen), part_sizes[-1]))


def _parse_canonical(text: str) -> RPartiteHypergraph | None:
    """The graph of text if it is valid and in format_graph's shape, else None.

    Text that differs from the shape only where the line-wise parser reads
    the same edges (a leading zero; at r = 1 a leading space) may be read
    too.  The shape: the exact header `zng r m_1 ... m_r`, then lines of r tokens
    split by single spaces, each ending in a newline, with strictly
    ascending edge indices.  One str.translate checks that the body holds
    only digits, spaces and newlines (anything else, even a form feed that
    splitlines would break a line at, sends the text to the line-wise
    parser).  A line's last field is cut off by one rpartition and read by
    one int(); the text before it, its prefix, is split and range-checked
    once per run of lines that share it.  Ascending indices make every edge
    distinct, so no duplicate check or sort is needed, and index_masks
    checks the mask widths before it allocates any mask.
    """
    head, _, body = text.partition("\n")
    try:
        r, *sizes = map(int, head.split(" ")[1:])
    except ValueError:  # no field, not an integer, or too many digits
        return None
    if head != f"zng {r} " + " ".join(map(str, sizes)) or len(sizes) != r or r < 1:
        return None
    if body.translate(_CANONICAL_BODY) or min(sizes) < 0:
        return None  # a character format_graph does not write, or m_i < 0
    lines = body.split("\n")
    if lines.pop():  # text after the last newline
        return None
    *outer, m = sizes
    indices: list[int] = []
    prefix, last = None, -1  # the run's prefix text, the last edge index
    try:
        for head, _, field in map(str.rpartition, lines, itertools.repeat(" ")):
            if head != prefix:
                tokens = head.split(" ") if head else []
                if len(tokens) != r - 1:
                    return None
                rank = 0
                for token, size in zip(tokens, outer):
                    v = int(token)
                    if v >= size:
                        return None
                    rank = rank * size + v
                base = rank * m
                prefix, top = head, base + m
            index = base + int(field)
            if not last < index < top:  # out of order, repeated or out of range
                return None
            indices.append(index)
            last = index
    except ValueError:  # an empty token, or one over int()'s digit limit
        return None
    return RPartiteHypergraph(tuple(sizes), index_masks(indices, m))
