"""Command-line front end tying construction, counting, and the oracle together.

Every run is a pure function of (config, seed): artifacts (graphs,
certificates, reports, tables) are byte-identical across reruns, and wall
times go only to the stderr log so they never perturb an artifact.

Exit codes: 0 pass, 1 verdict fail, 2 usage, 3 budget.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from zng.config import ExperimentConfig, read_config
from zng.construct import (
    ConstructionError,
    build,
    derive_params,
    verify_freeness,
    write_certificate,
)
from zng.count import count_report
from zng.errors import BudgetError
from zng.hypergraph import GraphFormatError, read_graph, write_graph
from zng.oracle import ZQuery, append_ledger, exact_z
from zng.seeds import derive_seed

log = logging.getLogger("zng")

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _status(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _outdir(config: ExperimentConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _kwargs(**values) -> dict:
    """The keyword arguments that are set; None leaves the library default."""
    return {key: value for key, value in values.items() if value is not None}


def _build_kwargs(config: ExperimentConfig) -> dict:
    """Translate the flat budget/retry knobs into build() keyword arguments."""
    return _kwargs(
        point_budget=config.budget,
        pattern_budget=config.budget,
        position_retry_cap=config.retries,
        restart_cap=config.restarts,
    )


# ----------------------------------------------------------------------
# per-mode runners
# ----------------------------------------------------------------------

def _run_construct(config: ExperimentConfig) -> int:
    out = _outdir(config)
    params = derive_params(config.s, config.t, config.q[0], config.m)
    result = build(params, config.seed, **_build_kwargs(config))
    write_graph(result.graph, out / "graph.zng")
    write_certificate(result.certificate, out / "certificate.json")
    cert = result.certificate
    _status(
        {
            "mode": "construct",
            "edges": result.graph.num_edges,
            "part_sizes": list(result.graph.part_sizes),
            "max_size": cert.max_size,
            "t": cert.t,
            "passed": cert.passed,
            "out": str(out),
        }
    )
    return EXIT_PASS if cert.passed else EXIT_VERDICT


def _run_verify(config: ExperimentConfig) -> int:
    out = _outdir(config)
    graph = read_graph(config.graph)
    cert = verify_freeness(graph, config.s, config.t, **_kwargs(pattern_budget=config.budget))
    write_certificate(cert, out / "certificate.json")
    _status(
        {
            "mode": "verify",
            "graph": config.graph,
            "max_size": cert.max_size,
            "argmax_pattern": [list(side) for side in cert.argmax_pattern]
            if cert.argmax_pattern is not None
            else None,
            "t": cert.t,
            "passed": cert.passed,
            "out": str(out),
        }
    )
    return EXIT_PASS if cert.passed else EXIT_VERDICT


def _run_count(config: ExperimentConfig) -> int:
    out = _outdir(config)
    graph = read_graph(config.graph)
    report = count_report(graph, config.s, **_kwargs(pattern_budget=config.budget))
    payload = report.to_dict()
    (out / "count.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    _status({"mode": "count", "graph": config.graph, "out": str(out), **payload})
    return EXIT_PASS if report.bound_holds else EXIT_VERDICT


def _run_oracle(config: ExperimentConfig) -> int:
    out = _outdir(config)
    query = ZQuery(config.m, config.s)
    result = exact_z(query, **_kwargs(edge_cap=config.budget))
    name = "witness_{}_{}.zng".format(
        "x".join(map(str, config.m)), "x".join(map(str, config.s))
    )
    write_graph(result.witness, out / name)
    append_ledger(out / "oracle.tsv", result, name)
    _status(
        {
            "mode": "oracle",
            "query": query.label(),
            "z": result.z,
            "nodes": result.nodes,
            "witness": name,
            "out": str(out),
        }
    )
    return EXIT_PASS


def _run_sweep(config: ExperimentConfig) -> int:
    """One construction per field order; partial failures stay per-row."""
    out = _outdir(config)
    s_total = math.prod(config.s)
    rows = []
    failures = 0
    for q in config.q:
        m_list = config.m if config.m else (q,) * len(config.s)
        sub_seed = derive_seed(config.seed, "sweep", "q", q)
        bound = math.prod(m_list) * q ** (s_total - 1)
        point_dir = out / f"q{q}"
        started = time.perf_counter()
        try:
            params = derive_params(config.s, config.t, q, m_list)
            result = build(params, sub_seed, **_build_kwargs(config))
        except (ValueError, ConstructionError, BudgetError) as err:
            failures += 1
            log.info("sweep q=%d failed in %.3fs: %s", q, time.perf_counter() - started, err)
            rows.append((q, m_list, "-", str(bound), "-", "failed"))
            continue
        point_dir.mkdir(parents=True, exist_ok=True)
        write_graph(result.graph, point_dir / "graph.zng")
        write_certificate(result.certificate, point_dir / "certificate.json")
        edges = result.graph.num_edges
        ratio = Fraction(edges, bound)
        verdict = "pass" if result.certificate.passed else "failed"
        failures += verdict == "failed"
        log.info("sweep q=%d done in %.3fs", q, time.perf_counter() - started)
        rows.append((q, m_list, str(edges), str(bound), str(ratio), verdict))
    lines = ["q\tm\tedges\tbound\tratio\tverdict"]
    for q, m_list, edges, bound, ratio, verdict in rows:
        m_text = ",".join(map(str, m_list))
        lines.append(f"{q}\t{m_text}\t{edges}\t{bound}\t{ratio}\t{verdict}")
    (out / "sweep.tsv").write_text("\n".join(lines) + "\n", encoding="ascii")
    _status(
        {
            "mode": "sweep",
            "points": len(config.q),
            "failed": failures,
            "out": str(out),
        }
    )
    return EXIT_PASS if failures == 0 else EXIT_VERDICT


_RUNNERS = {
    "construct": _run_construct,
    "verify": _run_verify,
    "count": _run_count,
    "oracle": _run_oracle,
    "sweep": _run_sweep,
}


def run(config: ExperimentConfig) -> int:
    """Validate and dispatch; returns the process exit code."""
    config.validate()
    started = time.perf_counter()
    code = _RUNNERS[config.mode](config)
    log.info("mode %s finished in %.3fs", config.mode, time.perf_counter() - started)
    return code


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--budget", type=int, default=None, help="enumeration cap")
    common.add_argument("--config", default=None, help="key=value config file")
    parser = argparse.ArgumentParser(
        prog="zng",
        description="pattern-free r-partite graph construction and verification",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("construct", parents=[common])
    p.add_argument("--s", type=int, action="append", help="side size, repeatable")
    p.add_argument("--t", type=int, help="forbidden last-part side size")
    p.add_argument("--q", type=int, help="field order")
    p.add_argument("--m", type=int, action="append", help="part size, repeatable")
    p.add_argument("--retries", type=int, help="per-position resample cap")
    p.add_argument("--restarts", type=int, help="restart cap")
    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--graph", help="zng graph file")
    p.add_argument("--s", type=int, action="append", help="side size, repeatable")
    p.add_argument("--t", type=int, help="forbidden last-part side size")
    p = sub.add_parser("count", parents=[common])
    p.add_argument("--graph", help="zng graph file")
    p.add_argument("--s", type=int, action="append", help="side size, repeatable")
    p = sub.add_parser("oracle", parents=[common])
    p.add_argument("--m", type=int, action="append", help="part size, repeatable")
    p.add_argument("--s", type=int, action="append", help="side size, repeatable")
    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--s", type=int, action="append", help="side size, repeatable")
    p.add_argument("--t", type=int, help="forbidden last-part side size")
    p.add_argument(
        "--q", type=int, action="append", default=None, help="field order, repeatable"
    )
    p.add_argument("--m", type=int, action="append", help="part size, repeatable")
    p.add_argument("--retries", type=int, help="per-position resample cap")
    p.add_argument("--restarts", type=int, help="restart cap")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Overlay explicit CLI flags on top of the config file, if any."""
    values: dict = {"mode": args.mode}
    if args.config is not None:
        base = read_config(args.config)
        if base.mode != args.mode:
            raise ValueError(
                f"config file mode {base.mode!r} does not match subcommand {args.mode!r}"
            )
        values.update((f.name, getattr(base, f.name)) for f in fields(base))
    list_keys = ("s", "m") if args.mode == "construct" else ("s", "m", "q")
    for key in list_keys:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = tuple(flag)
    if args.mode == "construct" and getattr(args, "q", None) is not None:
        values["q"] = (args.q,)
    for key in ("t", "seed", "out", "budget", "graph", "retries", "restarts"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return ExperimentConfig(**values)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (ValueError, OSError) as err:
        _status({"error": "usage", "reason": str(err)})
        return EXIT_USAGE
    try:
        return run(config)
    except BudgetError as err:
        _status({"error": "budget", "reason": str(err)})
        return EXIT_BUDGET
    except (ValueError, GraphFormatError, OSError) as err:
        _status({"error": "usage", "reason": str(err)})
        return EXIT_USAGE
    except ConstructionError as err:
        _status({"error": "construction", "reason": str(err)})
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
