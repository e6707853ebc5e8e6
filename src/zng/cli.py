"""Command-line front end tying construction, counting, and the oracle together.

Every run is a pure function of (config, seed): artifacts (graphs,
certificates, reports, tables) are byte-identical across reruns, and wall
times go only to stderr, one line each, so they never perturb an artifact.
A run ends with one JSON status line on stdout, which run prints from the
fields its mode's runner returns.

Exit codes: 0 pass, 1 verdict fail, 2 usage, 3 budget.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from pathlib import Path

from zng.config import COMMON_KEYS, LIST_KEYS, MODE_KEYS, STR_KEYS, ExperimentConfig, read_config
from zng.errors import BudgetError, ConstructionError, int_text
from zng.hypergraph import GraphFormatError, read_graph, write_atomic, write_graph

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _status(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _log(message: str) -> None:
    """Write `YYYY-mm-dd HH:MM:SS,mmm zng message` to stderr; drop what it cannot take."""
    now = time.time()
    stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(now))
    with contextlib.suppress(AttributeError, OSError, ValueError):  # None, broken or closed
        sys.stderr.write(f"{stamp},{int((now - int(now)) * 1000):03d} zng {message}\n")


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without loading fractions."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _kwargs(**values) -> dict:
    """The keyword arguments that are set; None leaves the library default."""
    return {key: value for key, value in values.items() if value is not None}


# ----------------------------------------------------------------------
# per-mode runners: each imports the modules it runs when it is called, so
# a start loads only those (and a traced or patched name is read at call
# time), and returns (passed, the mode's fields of the status line)
# ----------------------------------------------------------------------

def _build_point(
    config: ExperimentConfig, q: int, m_list: tuple[int, ...], seed: int, out: Path
):
    """derive_params -> build -> out/graph.zng and out/certificate.json."""
    from zng.certify import write_certificate
    from zng.construct import build, derive_params

    params = derive_params(config.s, config.t, q, m_list)
    if params.advice:
        _log(params.advice)
    budgets = _kwargs(
        point_budget=config.budget,
        pattern_budget=config.budget,
        position_retry_cap=config.retries,
        restart_cap=config.restarts,
    )
    result = build(params, seed, **budgets)
    write_graph(result.graph, out / "graph.zng")
    write_certificate(result.certificate, out / "certificate.json")
    return result


def _run_construct(config: ExperimentConfig, out: Path) -> tuple[bool, dict]:
    result = _build_point(config, config.q[0], config.m, config.seed, out)
    cert = result.certificate
    return cert.passed, {
        "edges": result.graph.num_edges,
        "part_sizes": result.graph.part_sizes,
        "max_size": cert.max_size,
        "t": cert.t,
        "passed": cert.passed,
    }


def _run_verify(config: ExperimentConfig, out: Path) -> tuple[bool, dict]:
    from zng.certify import verify_freeness, write_certificate

    graph = read_graph(config.graph)
    cert = verify_freeness(graph, config.s, config.t, **_kwargs(pattern_budget=config.budget))
    write_certificate(cert, out / "certificate.json")
    return cert.passed, {
        "graph": config.graph,
        "max_size": cert.max_size,
        "argmax_pattern": cert.argmax_pattern,
        "t": cert.t,
        "passed": cert.passed,
    }


def _run_count(config: ExperimentConfig, out: Path) -> tuple[bool, dict]:
    from zng.count import count_report

    graph = read_graph(config.graph)
    report = count_report(graph, config.s, **_kwargs(pattern_budget=config.budget))
    payload = report.to_dict()
    write_atomic(out / "count.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return report.bound_holds, {"graph": config.graph, **payload}


def _run_oracle(config: ExperimentConfig, out: Path) -> tuple[bool, dict]:
    from zng.oracle import ZQuery, append_ledger, exact_z

    query = ZQuery(config.m, config.s)
    started = time.perf_counter()
    result = exact_z(query, **_kwargs(edge_cap=config.budget))
    seconds = time.perf_counter() - started
    rate = result.nodes / seconds if seconds else 0.0
    _log(
        f"oracle {query.label()}: z={result.z}, {result.nodes} nodes in {seconds:.3f}s"
        f" ({rate:.0f} nodes/s)"
    )
    name = "witness_{}_{}.zng".format(
        "x".join(map(str, config.m)), "x".join(map(str, config.s))
    )
    write_graph(result.witness, out / name)
    append_ledger(out / "oracle.tsv", result, name)
    return True, {
        "query": query.label(),
        "z": result.z,
        "nodes": result.nodes,
        "witness": name,
    }


def _run_sweep(config: ExperimentConfig, out: Path) -> tuple[bool, dict]:
    """One construction per field order; partial failures stay per-row."""
    from zng.seeds import derive_seed

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
            _log(f"sweep q={q} failed in {time.perf_counter() - started:.3f}s: {err}")
            lines.append(f"{row}-\t{int_text(bound, '-')}\t-\tfailed")
            continue
        edges = result.graph.num_edges
        verdict = "pass" if result.certificate.passed else "failed"
        failures += verdict == "failed"
        _log(f"sweep q={q} done in {time.perf_counter() - started:.3f}s")
        lines.append(f"{row}{edges}\t{bound}\t{_ratio_text(edges, bound)}\t{verdict}")
    write_atomic(out / "sweep.tsv", "\n".join(lines) + "\n")
    return failures == 0, {
        "points": len(config.q),
        "failed": failures,
    }


_RUNNERS = {
    "construct": _run_construct,
    "verify": _run_verify,
    "count": _run_count,
    "oracle": _run_oracle,
    "sweep": _run_sweep,
}


def run(config: ExperimentConfig) -> int:
    """Validate, dispatch and print the status line; returns the process exit code."""
    config.validate()
    out = Path(config.out)
    started = time.perf_counter()
    passed, status = _RUNNERS[config.mode](config, out)
    _status({"mode": config.mode, **status, "out": str(out)})
    _log(f"mode {config.mode} finished in {time.perf_counter() - started:.3f}s")
    return EXIT_PASS if passed else EXIT_VERDICT


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

# one help line per config key; zng.config says which mode takes which key
_HELP = {
    "seed": "64-bit master seed",
    "out": "output directory",
    "budget": "enumeration cap",
    "graph": "zng graph file",
    "s": "side size, repeatable",
    "m": "part size, repeatable",
    "q": "field order (sweep takes several)",
    "t": "forbidden last-part side size",
    "retries": "per-position resample cap",
    "restarts": "restart cap",
}


def _add_flags(parser: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    for key in keys:
        parser.add_argument(
            f"--{key}",
            type=str if key in STR_KEYS else int,
            action="append" if key in LIST_KEYS else "store",
            help=_HELP[key],
        )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_flags(common, COMMON_KEYS)
    common.add_argument("--config", default=None, help="key=value config file")
    parser = argparse.ArgumentParser(
        prog="zng",
        description="pattern-free r-partite graph construction and verification",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (required, optional) in MODE_KEYS.items():
        _add_flags(sub.add_parser(mode, parents=[common]), required + optional)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Overlay explicit CLI flags on top of the config file, if any."""
    values: dict = {}
    if args.config is not None:
        base = read_config(args.config)
        if base.mode != args.mode:
            raise ValueError(
                f"config file mode {base.mode!r} does not match subcommand {args.mode!r}"
            )
        values.update(zip(base._fields, base))
    for key, flag in vars(args).items():
        if flag is not None and key in ExperimentConfig._fields:
            values[key] = tuple(flag) if key in LIST_KEYS else flag
    return ExperimentConfig(**values)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(_config_from_args(args))
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
