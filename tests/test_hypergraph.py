"""Graph model, the prefix mask table, text format round-tripping, pattern kernel."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    R2_EXAMPLES,
    apply_examples,
    bipartite_graphs,
    check_trusted_table,
    complete_graph,
    edge_graph,
    flat_blocks,
    graphs_with_sides,
    random_graph,
    reference_closing_patterns,
    reference_common_mask,
    reference_format_graph,
    reference_neighborhoods,
)
from zng import hypergraph
from zng.construct import build, derive_params
from zng.errors import BudgetError, GraphFormatError
from zng.hypergraph import (
    RPartiteHypergraph,
    closing_patterns,
    codegree_blocks,
    common_mask,
    format_graph,
    index_masks,
    prefix_ranks,
    read_graph,
    write_atomic,
    write_graph,
)
from zng.reader import _parse_canonical, _parse_lines, parse_graph

C6_EDGES = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]


def test_the_graph_is_a_plain_record():
    assert RPartiteHypergraph._fields == ("part_sizes", "masks")
    g = edge_graph((3, 3), C6_EDGES)
    assert g == RPartiteHypergraph((3, 3), dict(g.masks)) != RPartiteHypergraph((3, 4), g.masks)
    with pytest.raises(TypeError):
        hash(g)  # the mask table is a dict
    assert repr(g) == "RPartiteHypergraph(parts=(3, 3), edges=6)"


def test_edges_are_stored_sorted_and_counted():
    g = edge_graph((3, 3), reversed(C6_EDGES))
    assert g.r == 2
    assert g.edges == tuple(sorted(C6_EDGES))
    assert g.num_edges == 6


def mask_sizes(g):
    """Popcount of each prefix's mask, read through pattern_blocks.

    With every s_i = 1 each pattern is one prefix, so its size is the
    popcount of that prefix's neighbour mask.
    """
    ones = (1,) * (g.r - 1)
    return {
        tuple(side[0] for side in pattern): size for pattern, size in flat_blocks(g, ones)
    }


def prefix_degrees(g):
    """Edges through each prefix, counted from graph.edges."""
    counts = Counter(e[:-1] for e in g.edges)
    return {
        prefix: counts[prefix]
        for prefix in itertools.product(*(range(m) for m in g.part_sizes[:-1]))
    }


def test_degrees_and_neighbor_masks():
    g = edge_graph((3, 3), C6_EDGES)
    assert mask_sizes(g) == prefix_degrees(g) == {(0,): 2, (1,): 2, (2,): 2}
    # neighbours of 0 are {0, 1} and of 1 are {1, 2}: they share one vertex
    shared = dict(flat_blocks(g, (2,)))
    assert shared == {((0, 1),): 1, ((0, 2),): 1, ((1, 2),): 1}


def test_neighbor_mask_three_parts():
    assert mask_sizes(complete_graph((2, 2, 3)))[(1, 0)] == 3
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng, (3, 4, 3), 0.4)
        assert mask_sizes(g) == prefix_degrees(g)


def test_no_patterns_build_no_mask_table():
    # s_2 > m_2 leaves no pattern, so no table of one mask per prefix is
    # built: not for 4,000,000 prefixes, nor for 10^10 declared in a file
    cases = [
        (lambda: edge_graph((2000, 2000, 3), []), (1, 2001)),
        (lambda: parse_graph("zng 3 100000 100000 3\n0 0 0\n99999 99999 2\n"), (1, 100001)),
    ]
    for make, s_list in cases:
        tracemalloc.start()
        try:
            g = make()
            assert list(g.pattern_blocks(s_list)) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    assert g.edges == ((0, 0, 0), (99999, 99999, 2))


def test_complete_graph_has_all_transversals():
    g = complete_graph((2, 3, 2))
    assert g.num_edges == 12
    assert (1, 2, 1) in set(g.edges)


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------

def test_format_is_canonical_and_parses_back():
    g = edge_graph((3, 3), C6_EDGES)
    text = format_graph(g)
    assert text.startswith("zng 2 3 3\n")
    assert text.endswith("\n")
    lines = text.strip().splitlines()
    assert lines[1:] == sorted(lines[1:])
    assert parse_graph(text) == g


def test_parse_accepts_comments_and_blank_lines():
    text = "# a comment\nzng 2 2 2\n\n0 0\n# another\n1 1\n"
    g = parse_graph(text)
    assert g.edges == ((0, 0), (1, 1))


def test_empty_parts_are_legal_and_admit_no_edges():
    # the first and last are read in bulk, the commented one line by line
    for text in ("zng 2 2 0\n", "# c\nzng 2 2 0\n", "zng 3 0 2 2\n"):
        g = parse_graph(text)
        assert (g.num_edges, g.masks) == (0, {}), text


PARSE_ERRORS = [
    ("zng 2 2\n", "line 1: header must read 'zng r m_1 ... m_r'"),
    ("zng\n", "line 1: header must read 'zng r m_1 ... m_r'"),
    ("gnz 2 2 2\n", "line 1: expected 'zng' header, got 'gnz'"),
    ("# c\nzng 2 x 2\n", "line 2: header fields must be integers"),
    ("zng 2 -1 2\n", "line 1: bad part count or part sizes"),
    ("zng 0\n", "line 1: bad part count or part sizes"),
    ("zng 2 2 2\n0\n", "line 2: edge has 1 indices, expected 2"),
    ("zng 2 2 2\n0 0 0\n", "line 2: edge has 3 indices, expected 2"),
    ("zng 2 2 2\n0 0\n0 2\n", "line 3: index 2 out of range for part 2 (size 2)"),
    ("zng 2 2 2\n\n-1 0\n", "line 3: index -1 out of range for part 1 (size 2)"),
    ("zng 2 2 2\n0 x\n", "line 2: edge fields must be integers"),
    ("zng 2 2 2\n0 0\n1 1\n0 0\n", "line 4: duplicate edge 0 0 (first seen on line 2)"),
    ("zng 3 2 2 2\n1 0 1\n# c\n1 0 1 # again\n",
     "line 4: duplicate edge 1 0 1 (first seen on line 2)"),
    ("zng 2 2 2\n0 0\n0 0\n0 5\n", "line 3: duplicate edge 0 0 (first seen on line 2)"),
    ("zng 2 2 2\n1 0\n# c\n\n0 1\n\n1 0\n",
     "line 7: duplicate edge 1 0 (first seen on line 2)"),
    ("", "line 1: missing 'zng' header"),
    ("# only a comment\n\n", "line 1: missing 'zng' header"),
]


def test_parse_errors_carry_line_numbers():
    # the full text of each complaint is pinned, not just its line number
    for text, message in PARSE_ERRORS:
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert str(err.value) == message, text


def test_parse_reports_duplicate_edge_with_first_line():
    text = "zng 2 2 2\n0 0\n1 1\n0 0\n"
    with pytest.raises(GraphFormatError, match="line 4") as err:
        parse_graph(text)
    assert "line 2" in str(err.value)  # names where the edge first appeared


def parse_outcome(parse, text):
    """(part sizes, masks) of parse(text), or the text of its GraphFormatError or BudgetError."""
    try:
        g = parse(text)
    except (GraphFormatError, BudgetError) as err:
        return str(err)
    return g.part_sizes, g.masks


# texts near format_graph's shape: parse_graph must give the line-wise
# parser's graph or complaint on each, whether the bulk reader takes it or not
NEAR_CANONICAL = [
    "zng 2 2 3\n0\x0c 1\n",  # splitlines breaks at \x0c: "edge has 1 indices"
    "zng 2 2 3\n0 1\x0b\n",
    "zng 2 2 3\n0\x1c1\n",
    "zng 2 2 3\r\n0 1\r\n1 2\r\n",
    "zng 2 2 3\n0\t1\n",
    "zng 2 2 3\n0  1\n",
    "zng 2 2 3\n0 1 \n",
    "zng 2 2 3\n 0 1\n",
    "zng 2 2 3\n 01\n0 1\n",  # r - 1 spaces, but an empty token
    "zng 2 2 3\n0 1\n12 \n",
    "zng 1 3\n0\n\n2\n",
    "zng 2 2 3\n+1 2\n",
    "zng 2 2 3\n0_1 2\n",
    "zng 2 2 3\n01 02\n",
    "zng 2 2 3\n-0 2\n",
    "zng 2 2 3\n0 1\n\n1 2\n",
    "zng 3 2 2 2\n0 0 0 1\n0 0\n",  # r + 1 tokens next to r - 1
    "zng 3 2 2 2\n0 0\n0 0 0 1\n",
    "zng 2 2 3\n0 1\n1 2\n0 1\n",
    "zng 2 2 3\n2 0\n",
    "zng 2 2 3\n0 3\n",
    "zng 2 2 0\n0 0\n",
    "zng 2 0 3\n",
    "zng 1 3\n2\n0\n",
    "zng 1 3\n3\n",
    "zng 1 0\n",
    "zng 2 2 3\n",
    "zng 2 2 3",
    "zng 2 2 3\n0 1",
    "zng 2 2 3\n0 1 # c\n",
    "# c\nzng 2 2 3\n0 1\n",
    "zng 2 02 3\n0 1\n",
    "zng  2 2 3\n0 1\n",
    "zng 2 2 3 \n0 1\n",
    "zng 2 2 3 4\n0 1\n",
    "zng 2 -1 3\n",
    "zng 0\n",
    "zng\n",
    "zng 2 2 3\n" + "1" * 4301 + " 0\n",
    "zng 2 2 " + "1" * 4301 + "\n0 0\n",
    "zng 2 2 3\n0 \u0661\n",  # an Arabic-Indic one, which int() reads
    "",
]


def test_bulk_reading_gives_the_line_wise_graph_or_complaint():
    for text in NEAR_CANONICAL:
        expected = parse_outcome(_parse_lines, text)
        assert parse_outcome(parse_graph, text) == expected, text
        bulk = _parse_canonical(text)
        assert bulk is None or (bulk.part_sizes, bulk.masks) == expected, text
    assert parse_graph("zng 2 2 3\n01 02\n").edges == ((1, 2),)
    with pytest.raises(GraphFormatError, match="^line 2: edge has 1 indices, expected 2$"):
        parse_graph("zng 2 2 3\n0\x0c 1\n")


@settings(max_examples=200)
@given(graphs_with_sides(), st.data())
def test_bulk_reading_matches_the_line_wise_parser(case, data):
    g, _ = case
    text = format_graph(g)
    bulk = _parse_canonical(text)  # every valid canonical text is read in bulk
    assert bulk is not None
    check_trusted_table(bulk)
    check_trusted_table(_parse_lines(text))
    assert (bulk.part_sizes, bulk.masks) == parse_outcome(_parse_lines, text)
    assert list(bulk.masks) == sorted(bulk.masks)
    # a few edits: parse_graph still gives the line-wise graph or complaint
    alphabet = "0123456789  \n\n\t\r\x0b\x0c\x1c#+_-"
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        at = data.draw(st.integers(0, len(text)), label="at")
        cut = data.draw(st.integers(0, 2), label="cut")
        put = data.draw(st.text(alphabet, max_size=2), label="put")
        text = text[:at] + put + text[at + cut:]
    assert parse_outcome(parse_graph, text) == parse_outcome(_parse_lines, text)


def _perturb(text: str, kind: str, rng: random.Random) -> str:
    """format_graph text with one edit of the given kind, at places rng picks."""
    head, *body = text.split("\n")[:-1]
    if kind == "shuffled lines":
        rng.shuffle(body)
    elif kind == "repeated line" and body:
        body.insert(rng.randrange(len(body) + 1), rng.choice(body))
    elif kind == "run split in two":
        # a run's last line moves past the first line of the next run
        prefix = [line.rpartition(" ")[0] for line in body]
        ends = [
            i for i in range(1, len(body) - 1) if prefix[i - 1] == prefix[i] != prefix[i + 1]
        ]
        if ends:
            i = rng.choice(ends)
            body.insert(i + 1, body.pop(i))
    elif kind == "no final newline":
        return text[:-1]
    elif kind == "r + 1 fields beside r - 1" and len(body) > 1:
        i = rng.randrange(len(body) - 1)  # a field moves across the line break
        if rng.random() < 0.5:
            first, _, rest = body[i + 1].partition(" ")
            body[i : i + 2] = [f"{body[i]} {first}", rest]
        else:
            rest, _, last = body[i].rpartition(" ")
            body[i : i + 2] = [rest, f"{last} {body[i + 1]}"]
    elif kind in ("trailing space", "leading zero"):
        lines = [head, *body]
        at = rng.randrange(len(lines))
        if kind == "trailing space":
            lines[at] += " "
        else:
            fields = lines[at].split(" ")
            j = rng.randrange(at == 0, len(fields))  # not the header's "zng"
            fields[j] = "0" + fields[j]
            lines[at] = " ".join(fields)
        head, *body = lines
    return "\n".join([head, *body]) + "\n"


PERTURBATIONS = [
    "shuffled lines", "repeated line", "run split in two", "trailing space", "no final newline",
    "leading zero", "r + 1 fields beside r - 1",
]


@settings(max_examples=400)
@given(graphs_with_sides(), st.sampled_from(PERTURBATIONS), st.randoms(use_true_random=False))
@example((edge_graph((3, 0, 2), []), (1, 1, 1)), "trailing space", random.Random(0))
@example((edge_graph((0,), []), (1,)), "no final newline", random.Random(0))
@example((edge_graph((2, 3), [(0, 1), (0, 2), (1, 0)]), (1, 1)), "run split in two", random.Random(0))
@example((edge_graph((2, 2, 2), [(0, 0, 1), (1, 1, 0)]), (1, 1, 1)), "r + 1 fields beside r - 1",
         random.Random(0))
def test_the_run_reader_gives_the_line_wise_graph_or_none(case, kind, rng):
    # r = 1..4, parts of 0..4 vertices, edgeless graphs among them
    g, _ = case
    text = _perturb(format_graph(g), kind, rng)
    expected = parse_outcome(_parse_lines, text)
    bulk = _parse_canonical(text)
    assert bulk is None or (bulk.part_sizes, bulk.masks) == expected, text
    assert parse_outcome(parse_graph, text) == expected, text


def test_perturbations_reach_both_outcomes():
    # each kind of edit sends some text to the line-wise parser, and leading
    # zeros, which change no edge, can still be read by prefix runs
    g = edge_graph((2, 3, 4), [(0, 0, 1), (0, 0, 3), (0, 2, 0), (1, 0, 2), (1, 0, 3)])
    text = format_graph(g)
    for kind in PERTURBATIONS:
        outcomes = {_parse_canonical(_perturb(text, kind, random.Random(seed))) is None
                    for seed in range(40)}
        assert True in outcomes, kind
    assert _parse_canonical("zng 2 2 3\n0 01\n01 02\n").edges == ((0, 1), (1, 2))


def test_mask_widths_are_refused_before_any_allocation(monkeypatch):
    def no_buffer(size):
        raise AssertionError(f"a {size}-byte mask buffer was allocated")

    monkeypatch.setattr(hypergraph, "bytearray", no_buffer, raising=False)
    # three masks of 2^31 bits each: every one fits the cap, their sum does not
    half = 1 << 31
    text = f"zng 2 3 {half}\n" + "".join(f"{u} {half - 1}\n" for u in range(3))
    for parse in (_parse_canonical, _parse_lines):
        with pytest.raises(BudgetError) as err:
            parse(text)
        assert str(err.value) == (
            f"the mask table needs {3 * half} bits, above the cap {hypergraph.DEFAULT_MASK_BIT_CAP}"
        )
    # one edge whose prefix's mask would span 10^30 bits, read by prefix runs
    huge = 10**30
    with pytest.raises(BudgetError) as err:
        _parse_canonical(f"zng 2 1 {huge}\n0 {huge - 1}\n")
    assert str(err.value) == (
        f"the mask table needs {huge} bits, above the cap {hypergraph.DEFAULT_MASK_BIT_CAP}"
    )


def test_mask_width_cap_sums_each_mask_to_its_highest_bit(monkeypatch):
    monkeypatch.setattr(hypergraph, "DEFAULT_MASK_BIT_CAP", 16)
    # prefix 0 up to vertex 9 and prefix 2 up to vertex 5: 10 + 6 bits
    assert index_masks([1, 9, 2 * 100 + 5], 100) == {0: 0b1000000010, 2: 0b100000}
    with pytest.raises(BudgetError, match="^the mask table needs 17 bits, above the cap 16$"):
        index_masks([1, 9, 2 * 100 + 6], 100)


def test_file_round_trip(tmp_path):
    g = complete_graph((2, 2, 2))
    path = tmp_path / "g.zng"
    write_graph(g, path)
    assert read_graph(path) == g
    assert [p.name for p in tmp_path.iterdir()] == ["g.zng"]  # no temp file left


def test_failed_writes_leave_the_old_file_and_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "graph.zng"
    target.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):  # fails after the temp file is opened
        write_atomic(target, "zng 1 2\n0\n# \u00e9\n")
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.zng"]

    def fail_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(hypergraph.os, "replace", fail_replace)
    with pytest.raises(OSError, match="disk gone"):  # fails after the whole write
        write_graph(complete_graph((2, 2)), target)
    assert target.read_text() == "old\n"
    with pytest.raises(OSError, match="disk gone"):  # no partial new file either
        write_graph(complete_graph((2, 2)), tmp_path / "new.zng")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.zng"]


part_sizes_st = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


@settings(max_examples=150)
@given(part_sizes_st, st.data())
def test_random_graphs_round_trip_through_text(part_sizes, data):
    cells = list(itertools.product(*(range(m) for m in part_sizes)))
    edges = data.draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    g = edge_graph(part_sizes, edges)
    again = parse_graph(format_graph(g))
    assert again == g
    assert format_graph(again) == format_graph(g)


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple),
    st.floats(0, 1),
    st.randoms(use_true_random=False),
)
@example((0,), 1.0, random.Random(0))
@example((3, 0), 1.0, random.Random(0))
@example((2, 1, 3, 0), 1.0, random.Random(0))
@example((3, 3), 0.0, random.Random(0))
def test_format_graph_matches_the_edge_tuple_reference(part_sizes, density, rng):
    # random_graph's edges, in shuffled order
    edges = [
        cell
        for cell in itertools.product(*(range(m) for m in part_sizes))
        if rng.random() < density
    ]
    rng.shuffle(edges)
    g = edge_graph(part_sizes, edges)
    assert g.edges == tuple(sorted(set(edges)))
    assert g.num_edges == len(edges)
    assert format_graph(g) == reference_format_graph(g)
    assert parse_graph(format_graph(g)) == g


@settings(max_examples=100)
@given(part_sizes_st)
def test_complete_graph_masks_are_full(part_sizes):
    g = complete_graph(part_sizes)
    assert set(mask_sizes(g).values()) == {part_sizes[-1]}
    assert mask_sizes(g) == prefix_degrees(g)


@settings(max_examples=100)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple))
def test_complete_graph_keeps_the_trusted_table(part_sizes):
    g = complete_graph(part_sizes)
    check_trusted_table(g)
    assert g == edge_graph(part_sizes, itertools.product(*map(range, part_sizes)))


def test_parse_complete_three_part_graph_text():
    lines = ["zng 3 2 2 2"]
    lines += [f"{a} {b} {c}" for a in range(2) for b in range(2) for c in range(2)]
    assert parse_graph("\n".join(lines) + "\n") == complete_graph((2, 2, 2))


# ----------------------------------------------------------------------
# the pattern kernel
# ----------------------------------------------------------------------

@settings(max_examples=200)
@given(st.lists(st.integers(1, 5), min_size=0, max_size=3), st.data())
def test_closing_patterns_are_the_patterns_with_these_maxima(part_sizes, data):
    s_list = [data.draw(st.integers(1, m + 1), label=f"s{i}") for i, m in enumerate(part_sizes)]
    position = tuple(
        data.draw(st.integers(0, m - 1), label=f"p{i}") for i, m in enumerate(part_sizes)
    )
    closing = list(closing_patterns(position, part_sizes, s_list))
    assert [pattern for pattern, _ in closing] == reference_closing_patterns(
        position, s_list, part_sizes
    )
    cells = list(itertools.product(*(range(m) for m in part_sizes)))
    own = cells.index(position)
    for pattern, others in closing:
        assert others + [own] == prefix_ranks(pattern, part_sizes)


@settings(max_examples=200)
@given(st.lists(st.integers(1, 4), min_size=0, max_size=3), st.integers(1, 6), st.data())
def test_common_mask_is_the_plain_and(part_sizes, width, data):
    cells = list(itertools.product(*(range(m) for m in part_sizes)))
    masks = {
        cell: data.draw(st.integers(0, (1 << width) - 1), label=str(cell))
        for cell in cells
        if data.draw(st.booleans(), label=f"has {cell}")
    }
    pattern = tuple(
        tuple(sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1), label=f"S{i}")))
        for i, m in enumerate(part_sizes)
    )
    flat = [masks.get(cell, 0) for cell in cells]  # indexed by lex rank
    ranks = prefix_ranks(pattern, part_sizes)
    assert common_mask(flat, ranks) == reference_common_mask(masks, pattern)


@settings(max_examples=200)
@given(st.lists(st.integers(1, 4), min_size=0, max_size=3), st.data())
def test_prefix_ranks_are_lexicographic_indices(part_sizes, data):
    cells = list(itertools.product(*(range(m) for m in part_sizes)))
    pattern = tuple(
        tuple(sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1), label=f"S{i}")))
        for i, m in enumerate(part_sizes)
    )
    assert list(prefix_ranks(pattern, part_sizes)) == [
        cells.index(prefix) for prefix in itertools.product(*pattern)
    ]


@settings(max_examples=300)
@given(graphs_with_sides())
def test_pattern_blocks_match_the_per_pattern_reference(case):
    g, s_list = case
    s_list = s_list[:-1]
    assert flat_blocks(g, s_list) == reference_neighborhoods(g, s_list)
    for first, sizes in g.pattern_blocks(s_list):
        # a block is one head: its last element runs on to the end of its part
        assert sizes
        if first:
            assert first[-1][-1] + len(sizes) == g.part_sizes[-2]


def popcount_weight(g, s):
    """C(m_1, s) * (POPCOUNT_BASE + ceil(m_r / 64)): the block kernel's popcounts, in words."""
    m_1, m_r = g.part_sizes
    return math.comb(m_1, s) * (hypergraph.POPCOUNT_BASE + math.ceil(m_r / 64))


def codegree_is_cheaper(g, s):
    """The weighted route rule, with the degrees counted from g.edges."""
    degrees = Counter(v for _, v in g.edges)
    cost = g.num_edges + sum(math.comb(d, s) for d in degrees.values())
    return hypergraph.CODEGREE_WEIGHT * cost < popcount_weight(g, s)


def routes(g, s):
    """(whether pattern_sizes transposed the masks, whether it ran codegree_blocks)."""
    links = RPartiteHypergraph.links
    with (
        mock.patch.object(hypergraph, "codegree_blocks", wraps=codegree_blocks) as spy,
        mock.patch.object(RPartiteHypergraph, "links", autospec=True, side_effect=links) as moved,
    ):
        routed = list(g.pattern_sizes((s,)))
    codegree = spy.call_count == 1
    expected = codegree_blocks(g.links().values(), s) if codegree else g.pattern_blocks((s,))
    assert routed == list(expected)
    return moved.call_count == 1, codegree


def _wide(edges):
    return edge_graph((12, 16384), edges)


# (graph, s, transposed, co-degree) with m_r > 64, on both sides of the rule:
# a popcount of 16384 bits weighs 256 + 256 = 512 words, one co-degree step,
# so the rule compares the edges, and then the steps, with C(12, 2) = 66.
# Links of one make a step per edge; two links of two add 2, and four links of
# 12 add 4 * 66
WIDE_R2_ROUTES = [
    (_wide([(i % 12, 97 * i) for i in range(65)]), 2, True, True),
    (_wide([(i % 12, 97 * i) for i in range(66)]), 2, False, False),
    (
        _wide([(i % 12, 97 * i) for i in range(60)] + [(0, 8000), (1, 8000), (2, 8100), (3, 8100)]),
        2, True, False,
    ),
    (_wide([(i % 12, 100 * (i // 12)) for i in range(48)]), 2, True, False),
]


@settings(max_examples=300)
@given(bipartite_graphs())
@apply_examples([(case,) for case in R2_EXAMPLES] + [((g, s),) for g, s, *_ in WIDE_R2_ROUTES])
def test_codegree_sizes_are_the_block_kernels(case):
    g, s = case
    blocks = {pattern: size for pattern, size in flat_blocks(g, (s,)) if size}
    codegree = codegree_blocks(g.links().values(), s)
    assert {first: size for first, (size,) in codegree} == blocks
    assert [first for first, _ in codegree] == sorted(blocks)  # pattern order
    # pattern_sizes takes the co-degree route exactly when the weighted rule
    # says so, and transposes the masks only when CODEGREE_WEIGHT * edges is
    # below the popcounts' weight
    transposed, routed_codegree = routes(g, s)
    assert routed_codegree == codegree_is_cheaper(g, s)
    assert transposed == (hypergraph.CODEGREE_WEIGHT * g.num_edges < popcount_weight(g, s))


@pytest.mark.parametrize(
    "case", WIDE_R2_ROUTES, ids=["below", "at", "at-with-two-links-of-two", "above"]
)
def test_the_route_rule_weighs_popcounts_by_width(case):
    g, s, transposed, codegree = case
    assert routes(g, s) == (transposed, codegree)


def test_the_analyze_r2_graph_is_sized_by_codegree():
    # the benchmark's analyze r2 graph (s = (2,), t = 4, q = 61 at its default
    # seed) verified at s = 3: 35,990 popcounts of 59 words each, where the
    # co-degree route is 3.4x faster
    graph = build(derive_params((2,), 4, 61, (61,)), seed=20260819).graph
    assert routes(graph, 3) == (True, True)


def test_links_are_the_transposed_masks():
    g = edge_graph((3, 2, 4), [(0, 1, 3), (1, 0, 3), (2, 1, 0), (2, 1, 3)])
    assert g.links() == {0: [5], 3: [1, 2, 5]}
    assert edge_graph((3, 5), []).links() == {}


@settings(max_examples=200)
@given(graphs_with_sides(), st.randoms(use_true_random=False))
def test_parsed_graph_equals_the_constructed_one(case, rng):
    g, _ = case
    edges = list(g.edges)
    rng.shuffle(edges)
    lines = ["# shuffled", "zng " + " ".join(map(str, (g.r, *g.part_sizes)))]
    lines += [" ".join(map(str, e)) + rng.choice(["", "  # edge"]) for e in edges]
    parsed = parse_graph("\n".join(lines) + "\n")
    built = edge_graph(g.part_sizes, edges)
    assert parsed == built
    assert (parsed.r, parsed.part_sizes, parsed.edges) == (built.r, built.part_sizes, built.edges)
    ones = (1,) * (g.r - 1)
    assert flat_blocks(parsed, ones) == flat_blocks(built, ones)
