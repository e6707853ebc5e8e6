"""Flat key=value experiment configuration.

One key per line, ``#`` starts a comment, repeated keys build up the list
fields (s, m, q) in order.  The format is deliberately minimal so configs
stay hand-editable and diff cleanly; everything a run needs is a scalar or
a short integer list.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

LIST_KEYS = frozenset({"s", "m", "q"})
INT_KEYS = frozenset({"t", "seed", "budget", "retries", "restarts"})
STR_KEYS = frozenset({"mode", "out", "graph"})

# The one place that says which keys each mode takes: every mode takes
# COMMON_KEYS, and MODE_KEYS maps a mode to its (required keys, optional
# keys).  The command line makes one flag per key from them, in this order.
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
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, item = line.partition("=")
        key = key.strip()
        item = item.strip()
        if key in LIST_KEYS:
            values.setdefault(key, []).append(_parse_int(key, item, lineno))
        elif key in INT_KEYS:
            values[key] = _parse_int(key, item, lineno)
        elif key in STR_KEYS:
            values[key] = item
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    if "mode" not in values:
        raise ValueError("config is missing the mode key")
    for key in LIST_KEYS:
        if key in values:
            values[key] = tuple(values[key])
    return ExperimentConfig(**values)


def _parse_int(key: str, item: str, lineno: int) -> int:
    try:
        return int(item)
    except ValueError:
        raise ValueError(f"line {lineno}: {key} needs an integer, got {item!r}") from None


def read_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="ascii"))

