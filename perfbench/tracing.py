"""In-process tracing of zng from the outside: wrappers, spans and counters.

Nothing under src/ is edited.  `Tracer.install` replaces each traced
function at its module attribute, both where it is defined and in every zng
module that imported it by name (``zng.construct.agreement_set``,
``zng.cli.build``), so calls through either name are seen.  Recursive
``jensen_lower_bound`` calls go through the module global and therefore
nest.  A target that no longer exists is skipped: its metrics read 0.

Spans stay in memory as [name, start, end, parent, pass] and are written out
only when the run ends.  The hottest functions (Field.mul, Field.add,
random_poly) get counters only: one span per call would cost more than the
work it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path


# -- hooks: turn a call's arguments and outcome into exact counts ----------

def _domain_points(counts, args, kwargs, result, error):
    fs = args[0] if args else kwargs.get("fs")
    if fs:
        counts["mpoly.domain_points"] += fs[0].field.q ** fs[0].basis.num_vars


def _select(counts, args, kwargs, result, error):
    if error is None:
        counts["construct.filled"] += len(result.polys)
    else:
        counts["construct.filled"] += sum(a[1] for a in getattr(error, "attempts", ()))


def _build(counts, args, kwargs, result, error):
    if error is None:
        counts["construct.resamples"] += result.family.resamples
        counts["construct.restarts"] += result.family.restarts


def _patterns(counts, args, kwargs, result, error):
    if error is None:
        counts["construct.patterns_checked"] += result.pattern_count


def _file_bytes(key):
    def hook(counts, args, kwargs, result, error):
        path = args[1] if len(args) > 1 else kwargs.get("path")
        if error is None and path is not None:
            counts[key] += os.path.getsize(path)
    return hook


def _prefix_patterns(counts, args, kwargs, result, error):
    if error is not None:
        return
    sizes, s_list = args[0].part_sizes, args[1]
    if all(s <= m for s, m in zip(s_list, sizes)):
        counts["count.prefix_patterns"] += math.prod(
            math.comb(m, s) for m, s in zip(sizes[:-1], s_list[:-1])
        )


def _edges_scanned(counts, args, kwargs, result, error):
    counts["hypergraph.edges_scanned"] += args[0].num_edges


def _nodes(counts, args, kwargs, result, error):
    if error is None:
        counts["oracle.nodes"] += result.nodes


# (module, attribute path, name, kind, hook); kind "span" records a span and
# counts calls, "count" only counts calls.
TARGETS = (
    ("zng.cli", "main", "cli.main", "span", None),
    ("zng.gf", "make_field", "gf.make_field", "span", None),
    ("zng.gf", "Field.mul", "gf.mul", "count", None),
    ("zng.gf", "Field.add", "gf.add", "count", None),
    ("zng.mpoly", "agreement_set", "mpoly.agreement_set", "span", _domain_points),
    ("zng.mpoly", "evaluate", "mpoly.evaluate", "span", None),
    ("zng.mpoly", "random_poly", "mpoly.random_poly", "count", None),
    ("zng.construct", "build", "construct.build", "span", _build),
    ("zng.construct", "sequential_select", "construct.select", "span", _select),
    ("zng.construct", "family_graph", "construct.family_graph", "span", None),
    ("zng.construct", "verify_freeness", "construct.verify_freeness", "span", _patterns),
    ("zng.construct", "write_certificate", "construct.write_certificate", "span",
     _file_bytes("construct.certificate_bytes")),
    ("zng.hypergraph", "read_graph", "hypergraph.read_graph", "span", None),
    ("zng.hypergraph", "write_graph", "hypergraph.write_graph", "span",
     _file_bytes("hypergraph.graph_bytes")),
    ("zng.hypergraph", "RPartiteHypergraph.link", "hypergraph.link", "span", _edges_scanned),
    ("zng.count", "count_ordered", "count.count_ordered", "span", _prefix_patterns),
    ("zng.count", "jensen_lower_bound", "count.jensen", "span", None),
    ("zng.count", "count_report", "count.count_report", "span", None),
    ("zng.oracle", "exact_z", "oracle.exact_z", "span", _nodes),
    ("zng.oracle", "append_ledger", "oracle.append_ledger", "span", None),
)


class Tracer:
    """Spans and counters for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.pass_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _span(self, name, fn, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            spans.append(record)
            stack.append(index)
            result = error = None
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                record[2] = clock()
                stack.pop()
                counts[calls] += 1
                if hook is not None:
                    hook(counts, args, kwargs, result, error)

        return wrapper

    def _counter(self, name, fn):
        counts, calls = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the names that were skipped."""
        importlib.import_module("zng.cli")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "zng"]
        skipped = []
        for module_name, attr, name, kind, hook in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                skipped.append(name)
                continue
            if kind == "span":
                wrapped = self._span(name, original, hook)
            else:
                wrapped = self._counter(name, original)
            if path:  # a method: patch the class only
                self._patch(owner, leaf, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)
        return skipped

    def _patch(self, owner, leaf, original, wrapped):
        setattr(owner, leaf, wrapped)
        self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    # -- reading -------------------------------------------------------------

    def span_times(self, pass_id: int) -> dict[str, float]:
        """Per-name totals of one pass: `<span>_s` and self time `<span>_self_s`.

        Self time is a span's duration minus the time its child spans cover.
        """
        out: dict[str, float] = Counter()
        child_time: Counter = Counter()
        for record in self.spans:
            name, start, end, parent, pid = record
            if pid != pass_id:
                continue
            out[name + "_s"] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        for index, record in enumerate(self.spans):
            if record[4] == pass_id:
                out[record[0] + "_self_s"] += record[2] - record[1] - child_time[index]
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for name, start, end, parent, pid in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "pass": pid}
                ) + "\n")


def layer_metrics(spans: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metric set of one traced pass, absent layers as 0."""
    candidates = counts.get("mpoly.random_poly.calls", 0)
    nodes = counts.get("oracle.nodes", 0)
    search_s = spans.get("oracle.exact_z_s", 0.0)
    metrics = {
        "gf.make_field_s": spans.get("gf.make_field_s", 0.0),
        "mpoly.agreement_set_s": spans.get("mpoly.agreement_set_self_s", 0.0),
        "mpoly.evaluate_s": spans.get("mpoly.evaluate_s", 0.0),
        "construct.select_s": spans.get("construct.select_s", 0.0),
        "construct.select_self_s": spans.get("construct.select_self_s", 0.0),
        "construct.candidates": candidates,
        "construct.accept_ratio": counts.get("construct.filled", 0) / candidates
        if candidates else 0.0,
        "construct.family_graph_s": spans.get("construct.family_graph_s", 0.0),
        "construct.verify_freeness_s": spans.get("construct.verify_freeness_s", 0.0),
        "construct.write_certificate_s": spans.get("construct.write_certificate_s", 0.0),
        "hypergraph.read_graph_s": spans.get("hypergraph.read_graph_s", 0.0),
        "hypergraph.write_graph_s": spans.get("hypergraph.write_graph_s", 0.0),
        "hypergraph.link_s": spans.get("hypergraph.link_s", 0.0),
        "count.count_ordered_s": spans.get("count.count_ordered_s", 0.0),
        "count.jensen_self_s": spans.get("count.jensen_self_s", 0.0),
        "count.count_report_s": spans.get("count.count_report_s", 0.0),
        "oracle.exact_z_s": search_s,
        "oracle.nodes_per_s": nodes / search_s if search_s else 0.0,
        "oracle.append_ledger_s": spans.get("oracle.append_ledger_s", 0.0),
    }
    for key in (
        "gf.make_field.calls", "gf.mul.calls", "gf.add.calls",
        "mpoly.agreement_set.calls", "mpoly.domain_points", "mpoly.evaluate.calls",
        "mpoly.random_poly.calls", "construct.resamples", "construct.restarts",
        "construct.patterns_checked", "construct.certificate_bytes",
        "hypergraph.graph_bytes", "hypergraph.link.calls", "hypergraph.edges_scanned",
        "count.prefix_patterns", "count.jensen.calls", "oracle.nodes",
    ):
        metrics[key] = counts.get(key, 0)
    return metrics
