"""Acceptance checks: one test per criterion, one printed verdict line each.

Run with -s to see the verdict lines on passing runs:

    pytest tests/test_acceptance.py -s
"""

import contextlib
import io
import itertools
import json
import math
import random
import time

from helpers import (
    BALANCED_SPLIT,
    OVER_CAPACITY,
    advice_kind,
    agreement_set,
    check_field_axioms,
    check_trusted_table,
    logged_advice,
    naive_count,
    random_graph,
)
from zng.certify import verify_freeness
from zng.cli import run
from zng.config import ExperimentConfig
from zng.construct import build, derive_params
from zng.count import count_ordered, jensen_lower_bound
from zng.gf import make_field
from zng.hypergraph import complete_graph, parse_graph, read_graph
from zng.mpoly import monomial_basis, random_poly
from zng.oracle import ZQuery, exact_z, exhaustive_z
from zng.seeds import derive_seed

SWEEP_Q = (5, 7, 9, 11, 13)
MASTER_SEED = 20260819


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


def _sweep_builds():
    """One construction per sweep point, seeded exactly like the CLI sweep."""
    results = {}
    for q in SWEEP_Q:
        params = derive_params((2,), 4, q, (q,))
        assert advice_kind(params.advice) == BALANCED_SPLIT  # m = q, capacity q^3 / 2
        seed = derive_seed(MASTER_SEED, "sweep", "q", q)
        started = time.perf_counter()
        result = build(params, seed)
        elapsed = time.perf_counter() - started
        results[q] = (params, result, elapsed)
    return results


def test_acceptance_1_construction_identity():
    ok = False
    try:
        for q, (params, result, elapsed) in _sweep_builds().items():
            m = q
            assert m <= params.capacity, (q, params.capacity)
            assert params.n == q * q
            assert result.graph.part_sizes == (m, params.n)
            assert result.graph.num_edges == m * q, (q, result.graph.num_edges)
            check_trusted_table(result.graph)
            # m * q is m * n^(1 - 1/s_1) exactly since n is a perfect square
            assert (m * q) ** 2 == m * m * params.n
            assert elapsed <= 10.0, (q, elapsed)
        ok = True
    finally:
        _verdict(1, "construction identity", ok)


def test_acceptance_2_freeness_certificates(tmp_path):
    ok = False
    try:
        for q, (params, result, _) in _sweep_builds().items():
            cert = result.certificate
            assert cert.passed and cert.max_size <= params.t - 1, q
            # the emitted artifact re-parses and re-verifies identically
            path = tmp_path / f"q{q}.zng"
            path.write_text(
                "zng 2 {} {}\n".format(*result.graph.part_sizes)
                + "".join(f"{a} {b}\n" for a, b in result.graph.edges)
            )
            again = verify_freeness(parse_graph(path.read_text()), (2,), 4)
            assert again.passed and again.max_size == cert.max_size
        params3 = derive_params((2, 2), 4, 3, (2, 2))
        assert advice_kind(params3.advice) == OVER_CAPACITY  # 4 tuples, capacity 1
        assert params3.t > params3.bezout_bound  # t chosen above d^(s-1)
        result3 = build(params3, seed=derive_seed(MASTER_SEED, "r3"))
        assert result3.certificate.passed
        assert result3.certificate.pattern_count == 1  # exhaustive, no elision
        assert result3.certificate.max_size <= params3.t - 1
        ok = True
    finally:
        _verdict(2, "freeness certificates", ok)


def test_acceptance_3_bezout_consequence():
    ok = False
    try:
        for q, (params, result, _) in _sweep_builds().items():
            assert result.certificate.max_size <= params.bezout_bound, q
        # recompute one family's agreement sets straight from the polynomials
        params, result, _ = _sweep_builds()[5]
        field, basis, polys = result.family.field, result.family.basis, result.family.polys
        bound = params.bezout_bound
        for a, b in itertools.combinations(sorted(polys), 2):
            agree = agreement_set(field, basis, [polys[a], polys[b]])
            assert len(agree) <= bound, (a, b)
        params3 = derive_params((2, 2), 4, 3, (2, 2))
        assert advice_kind(params3.advice) == OVER_CAPACITY  # 4 tuples, capacity 1
        result3 = build(params3, seed=derive_seed(MASTER_SEED, "r3"))
        assert result3.certificate.max_size <= params3.bezout_bound == 1
        ok = True
    finally:
        _verdict(3, "agreement sets within the intersection bound", ok)


def test_acceptance_4_counting_chain_on_500_instances():
    ok = False
    try:
        rng = random.Random(derive_seed(MASTER_SEED, "chain"))
        complete_equalities = 0
        for trial in range(500):
            r = rng.choice((2, 3))
            parts = tuple(rng.randint(1, 6) for _ in range(r))
            s_list = tuple(rng.randint(1, 3) for _ in range(r))
            if trial % 25 == 0:
                g = complete_graph(parts)
            elif trial % 25 == 1:
                g = random_graph(rng, parts, 0.0)  # empty end of the range
            else:
                g = random_graph(rng, parts, rng.random())
            exact = count_ordered(g, s_list)
            bound = jensen_lower_bound(g, s_list)
            assert bound <= exact, (parts, s_list, g.num_edges)
            if trial % 25 == 0:
                assert bound == exact, (parts, s_list)  # complete instance
                complete_equalities += 1
        assert complete_equalities == 20
        ok = True
    finally:
        _verdict(4, "jensen chain below exact counts on 500 instances", ok)


def test_acceptance_5_oracle_ground_truth():
    ok = False
    try:
        started = time.perf_counter()
        for m_list, expected in [((2, 2), 3), ((3, 3), 6), ((4, 4), 9)]:
            query = ZQuery(m_list, (2, 2))
            raw = exhaustive_z(query)  # independent route first
            assert raw.z == expected, m_list
            searched = exact_z(query)
            assert searched.z == expected, m_list
            for witness in (raw.witness, searched.witness):
                assert witness.num_edges == expected
                assert count_ordered(witness, (2, 2)) == 0
        elapsed = time.perf_counter() - started
        assert elapsed <= 60.0, elapsed
        ok = True
    finally:
        _verdict(5, "oracle ground truth", ok)


def test_acceptance_6_counting_oracle_equivalence():
    ok = False
    try:
        rng = random.Random(derive_seed(MASTER_SEED, "naive"))
        for _ in range(200):
            r = rng.choice((2, 3))
            parts = tuple(rng.randint(1, 4) for _ in range(r))
            s_list = tuple(rng.randint(1, 2) for _ in range(r))
            g = random_graph(rng, parts, rng.random())
            assert count_ordered(g, s_list) == naive_count(g, s_list), (parts, s_list)
        ok = True
    finally:
        _verdict(6, "counting oracle equivalence on 200 samples", ok)


def test_acceptance_7_sweep_determinism(tmp_path):
    ok = False
    try:
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = ExperimentConfig(
                mode="sweep", s=(2,), t=4, q=SWEEP_Q, seed=MASTER_SEED, out=str(out)
            )
            err = io.StringIO()  # not capsys, which would take the verdict line too
            with contextlib.redirect_stderr(err):
                assert run(config) == 0
            assert logged_advice(err.getvalue()) == [BALANCED_SPLIT] * len(SWEEP_Q)  # m = q
            outs.append(out)
        a, b = outs
        rel_paths = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert rel_paths  # the sweep must have written artifacts
        for rel in rel_paths:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
        table = (a / "sweep.tsv").read_text().splitlines()
        assert len(table) == 1 + len(SWEEP_Q)
        assert all(line.split("\t")[4] == "1" for line in table[1:])
        graph = read_graph(a / "q13" / "graph.zng")
        assert graph.num_edges == 13 * 13
        cert = json.loads((a / "q13" / "certificate.json").read_text())
        assert cert["passed"] is True
        ok = True
    finally:
        _verdict(7, "byte-identical sweep reruns", ok)


def test_acceptance_8_field_and_polynomial_suites():
    ok = False
    try:
        for q in range(2, 65):
            try:
                field = make_field(q)
            except ValueError:
                continue
            check_field_axioms(field)
        for v in range(7):
            for d in range(7):
                assert len(monomial_basis(v, d).exponents) == math.comb(v + d, d)
        field = make_field(11)
        degree = 4
        basis = monomial_basis(1, degree)
        rng = random.Random(derive_seed(MASTER_SEED, "pairs"))
        pairs = 0
        while pairs < 1000:
            f = random_poly(basis, field, rng)
            g = random_poly(basis, field, rng)
            if f == g:
                continue
            pairs += 1
            assert len(agreement_set(field, basis, [f, g])) <= degree
        ok = True
    finally:
        _verdict(8, "field and polynomial suites", ok)
