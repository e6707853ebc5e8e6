"""Flat key=value experiment configuration, from a file or the command line.

One key per line, ``#`` starts a comment, repeated keys build up the list
fields (s, m, q) in order.  On the command line each key is a
``--key value`` flag after the mode, typed by the same rule.  The format is
deliberately minimal so configs stay hand-editable and diff cleanly;
everything a run needs is a scalar or a short integer list.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from zng.errors import parse_int

HELP_FLAGS = ("-h", "--help")
LIST_KEYS = frozenset({"s", "m", "q"})
INT_KEYS = frozenset({"t", "seed", "budget", "retries", "restarts"})
STR_KEYS = frozenset({"mode", "out", "graph"})

# The one place that says which keys each mode takes: every mode takes
# COMMON_KEYS, and MODE_KEYS maps a mode to its (required keys, optional
# keys).  The command line takes one flag per key from them, in this order.
COMMON_KEYS = ("seed", "out", "budget")
MODE_KEYS = {
    "construct": (("s", "t", "q", "m"), ("retries", "restarts")),
    "verify": (("graph", "s", "t"), ()),
    "count": (("graph", "s"), ()),
    "oracle": (("m", "s"), ()),
    "sweep": (("s", "t"), ("q", "m", "retries", "restarts")),
}


class ExperimentConfig(NamedTuple):
    """Everything that determines a run, besides the code itself."""

    mode: str
    s: tuple[int, ...] = ()
    m: tuple[int, ...] = ()
    q: tuple[int, ...] = ()
    t: int | None = None
    seed: int = 0
    out: str = "."
    budget: int | None = None
    graph: str | None = None
    retries: int | None = None
    restarts: int | None = None

    def validate(self) -> None:
        """Check mode-specific required fields; raises ValueError on gaps."""
        if self.mode not in MODE_KEYS:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {tuple(MODE_KEYS)}")
        for name in ("budget", "retries", "restarts"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in MODE_KEYS[self.mode][0]:
            value = getattr(self, name)
            if value is None or value == ():
                raise ValueError(f"mode {self.mode} requires {name}")
        if self.mode == "construct" and len(self.q) != 1:
            raise ValueError(f"mode construct takes exactly one q, got {list(self.q)}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value form.

    Raises:
        ValueError: malformed line, unknown key, or non-integer value where
            one is required; messages carry 1-based line numbers.
        BudgetError: an integer with more digits than int() reads.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, item = line.partition("=")
        _set_key(values, key.strip(), item.strip(), f"line {lineno}")
    if "mode" not in values:
        raise ValueError("config is missing the mode key")
    return ExperimentConfig(**values)


def parse_args(argv: list[str]) -> ExperimentConfig | None:
    """Parse `MODE --key value ...`, typed as in a file; flags replace --config's keys.

    Returns None for a help request: -h or --help where a flag can stand,
    first or at an odd index.  At an even index past the mode it is a value.

    Raises:
        ValueError: no or unknown mode, a flag the mode does not take, a
            flag without a value, or a bad value; messages name the flag.
        BudgetError: an integer with more digits than int() reads.
    """
    if any(token in HELP_FLAGS for token in argv[:1] + argv[1::2]):
        return None
    mode = argv[0] if argv else ""
    if mode not in MODE_KEYS:
        raise ValueError(f"unknown mode {mode!r}; expected one of {tuple(MODE_KEYS)}")
    flags = {f"--{key}" for key in COMMON_KEYS + ("config",) + sum(MODE_KEYS[mode], ())}
    values: dict[str, object] = {}
    path = None
    for k in range(1, len(argv), 2):
        flag = argv[k]
        if flag not in flags:
            raise ValueError(f"mode {mode} takes no flag {flag!r}")
        if k + 1 == len(argv):
            raise ValueError(f"{flag} needs a value")
        if flag == "--config":
            path = argv[k + 1]
        else:
            _set_key(values, flag[2:], argv[k + 1], flag)
    base = ExperimentConfig(mode) if path is None else read_config(path)
    if base.mode != mode:
        raise ValueError(f"config file mode {base.mode!r} does not match subcommand {mode!r}")
    return base._replace(**values)


def _set_key(values: dict[str, object], key: str, item: str, where: str) -> None:
    """Type one text item for key into values; a list key appends to its tuple."""
    if key in STR_KEYS:
        values[key] = item
        return
    if key not in LIST_KEYS and key not in INT_KEYS:
        raise ValueError(f"{where}: unknown key {key!r}")
    try:
        number = parse_int(item, f"{where}: {key}")
    except ValueError:
        raise ValueError(f"{where}: {key} needs an integer, got {item!r}") from None
    values[key] = values.get(key, ()) + (number,) if key in LIST_KEYS else number


def read_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="ascii"))
