"""Command-line front end tying construction, counting, and the oracle together.

Every run is a pure function of (config, seed): artifacts (graphs,
certificates, reports, tables) are byte-identical across reruns, and wall
times go only to stderr, one line each, so they never perturb an artifact.
A run ends with one JSON status line on stdout, which run prints from the
fields its mode's runner returns.

Exit codes: 0 pass, 1 verdict fail, 2 usage, 3 budget.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
from pathlib import Path

from zng.config import COMMON_KEYS, MODE_KEYS, ExperimentConfig, parse_args
from zng.errors import BudgetError, ConstructionError, int_text
from zng.hypergraph import GraphFormatError, read_graph, write_atomic, write_graph

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _print(text: str) -> None:
    """Print text; if stdout's reader has gone, point stdout at os.devnull."""
    try:
        print(text, flush=True)
    except BrokenPipeError:  # else the interpreter's exit flush fails again: exit 120
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _status(payload: dict) -> None:
    _print(json.dumps(payload, sort_keys=True))


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
# command line: zng.config parses it; --help lists the key table's flags
# ----------------------------------------------------------------------

# one help line per flag; zng.config says which mode takes which key
_HELP = {
    "seed": "64-bit master seed",
    "out": "output directory",
    "budget": "enumeration cap",
    "config": "key=value config file",
    "graph": "zng graph file",
    "s": "side size, repeatable",
    "m": "part size, repeatable",
    "q": "field order (sweep takes several)",
    "t": "forbidden last-part side size",
    "retries": "per-position resample cap",
    "restarts": "restart cap",
}


def _help(mode: str) -> str:
    """The usage text: the modes, or one mode's flags in table order."""
    if mode not in MODE_KEYS:
        return f"usage: zng {{{','.join(MODE_KEYS)}}} [flags]; zng MODE --help lists them"
    keys = COMMON_KEYS + ("config",) + sum(MODE_KEYS[mode], ())
    flags = [f"  --{key:<9} {_HELP[key]}" for key in keys]
    return "\n".join([f"usage: zng {mode} [flags]", *flags, "  -h, --help  show this help"])


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
        if config is not None:
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
    _print(_help(argv[0]))  # parse_args found -h or --help where a flag can stand
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
