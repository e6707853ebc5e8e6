"""Command-line front end tying construction, counting, and the oracle together.

Every run is a pure function of (config, seed): artifacts (graphs,
certificates, reports, tables) are byte-identical across reruns, and wall
times go only to stderr, one line each, so they never perturb an artifact.
A run ends with one JSON status line on stdout, which run prints from the
fields its mode's runner returns; each runner lives in the module its mode
loads (certify, count, oracle, construct).

Exit codes: 0 pass, 1 verdict fail, 2 usage, 3 budget.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from zng.config import COMMON_KEYS, MODE_KEYS, ExperimentConfig, log, parse_args
from zng.errors import BudgetError, ConstructionError, GraphFormatError

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


# mode -> its runner, from the module that mode loads: a start imports only
# that module (by __import__, the import statement's hook, so -X importtime
# lists it), and the runner is read at call time, so a traced or patched one
# is the one called.  A runner takes (config, out) and returns (passed, the
# mode's fields of the status line).  No mode module imports zng.cli: under
# `python -m zng.cli` this file runs as __main__, and an import would compile
# and run it a second time.
_RUNNERS = {
    "construct": lambda: __import__("zng.construct").construct.run_construct,
    "verify": lambda: __import__("zng.certify").certify.run_verify,
    "count": lambda: __import__("zng.count").count.run_count,
    "oracle": lambda: __import__("zng.oracle").oracle.run_oracle,
    "sweep": lambda: __import__("zng.construct").construct.run_sweep,
}


def run(config: ExperimentConfig) -> int:
    """Validate, dispatch and print the status line; returns the process exit code."""
    config.validate()
    out = Path(config.out)
    started = time.perf_counter()
    passed, status = _RUNNERS[config.mode]()(config, out)
    _status({"mode": config.mode, **status, "out": str(out)})
    log(f"mode {config.mode} finished in {time.perf_counter() - started:.3f}s")
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
