#!/usr/bin/env python3
"""Benchmark of the zng command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

--trace 0 runs every operation the way users run it: one fresh
`python -m zng.cli` subprocess at a time (a closed loop with one client),
each with a fresh, empty --out directory that is removed afterwards.  It
reports wall_rel (a pass's wall time relative to a fixed reference child, see
below), peak_rss_mb (median over passes of the largest max-RSS of any child
in the pass, read per child with os.wait4) and setup_s (median of several
set-up rounds: building the workload's input graphs plus warm-up starts of
the CLI, scaled by the reference child as below), and prints wall_s (median
seconds of one pass) and error_rate.

The host this runs on changes speed by up to 2x for seconds to minutes at a
time, in steps no process can see (no steal time is reported), and each
virtual CPU changes on its own.  So the benchmark and its children are pinned
to one CPU, a fixed reference child (REFERENCE: Python starting and importing
a few standard-library modules) is timed there before and after every
operation, and each operation's wall time is divided by the mean of those two
reference times.  wall_rel is the sum over the pass's operations of the
median of that ratio over the run: it falls in proportion when the program
gets faster, while a change in the host's speed moves both sides alike.
setup_s is a set-up round's wall time divided the same way and multiplied by
REFERENCE_S: seconds on a host where the reference child takes REFERENCE_S.

--trace 1 runs the same argv in-process through zng.cli.main under
perfbench/tracing.py and reports per-module numbers plus the tracing
overhead; end-to-end metrics never come from it.

Every operation is checked: exit code 0, a JSON status line, passing
certificates and verdicts, and artifact digests.  At the default seed, and
for operations that take no seed, digests must equal perfbench/golden.json;
at other seeds every rerun of an operation must be byte-identical to the
first.  A failed check counts as a failed operation.

--workload all (the default) interleaves the workloads round-robin, so host
drift lands on each alike.  --pin rewrites golden.json from a run at the
default seed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from statistics import median, quantiles

from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
DESIGN = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
DEFAULT_SEED = DESIGN["default_seed"]

SETUP_ROUNDS = 3  # set-up is repeated and its median reported
MIN_PASSES = 2  # the rerun-identity check needs two executions of each operation
STARTUP_SAMPLES = 5
OP_TIMEOUT_S = 120
WARM_UP = ("-c", "import zng.cli")
WARM_UP_STARTS = 3  # per set-up round
# The reference child: Python starting and importing a few standard-library
# modules, isolated (-I) from this repository and its environment.
REFERENCE = ("-I", "-c", "import argparse, hashlib, json, logging, pathlib")
# setup_s is given in seconds of a host on which the reference child takes
# this long (about its median on a 2-vCPU Xeon VM), so host speed cancels.
REFERENCE_S = 0.1


# ----------------------------------------------------------------------
# checking artifacts
# ----------------------------------------------------------------------

def digests(out: Path) -> dict[str, str]:
    """sha256 of every file under out, keyed by its relative path."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def verdict_errors(out: Path) -> list[str]:
    """Verdicts inside the artifacts: certificates, sweep rows, count bounds."""
    errors = []
    for path in sorted(out.rglob("certificate.json")):
        if json.loads(path.read_text(encoding="ascii")).get("passed") is not True:
            errors.append(f"{path.relative_to(out)} did not pass")
    for path in sorted(out.rglob("sweep.tsv")):
        rows = path.read_text(encoding="ascii").splitlines()[1:]
        if not rows or any(row.split("\t")[-1] != "pass" for row in rows):
            errors.append("sweep.tsv has a row that did not pass")
    for path in sorted(out.rglob("count.json")):
        if json.loads(path.read_text(encoding="ascii")).get("bound_holds") is not True:
            errors.append("count.json: the lower bound does not hold")
    return errors


def status_errors(mode: str, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    lines = stdout.strip().splitlines()
    try:
        status = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        status = None
    if not isinstance(status, dict):
        return ["no JSON status line"]
    if "error" in status or status.get("mode") != mode:
        return [f"unexpected status line {lines[-1]!r}"]
    return []


class Checker:
    """Compares artifacts with pinned digests, or with the first rerun."""

    def __init__(self, seed: int, pinned: dict | None):
        self.seed = seed
        self.pinned = pinned
        self.seen: dict[str, dict[str, str]] = {}

    def artifact_errors(self, key: str, seeded: bool, out: Path) -> list[str]:
        found = digests(out)
        errors = verdict_errors(out)
        if self.pinned is not None and (self.seed == DEFAULT_SEED or not seeded):
            expected = self.pinned.get(key, {})
            source = "pinned"
        else:
            expected = self.seen.setdefault(key, found)
            source = "first run"
        differ = sorted(n for n in set(found) | set(expected) if found.get(n) != expected.get(n))
        if differ:
            errors.append(f"artifacts differ from the {source} digests: {differ}")
        return errors


# ----------------------------------------------------------------------
# one operation
# ----------------------------------------------------------------------

CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
}


def spawn(args: list[str], logs: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, its max RSS in MB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(logs / "stdout"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(logs / "stderr"), flags, 0o644),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], CHILD_ENV, file_actions=actions)
    timer = threading.Timer(OP_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - started
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def reference_s(logs: Path) -> float:
    """Wall seconds of the reference child: how fast the host runs Python now."""
    code, wall, _ = spawn(list(REFERENCE), logs)
    if code != 0:
        raise RuntimeError(f"the reference child failed with exit code {code}")
    return wall


def call_main(argv: list[str]) -> tuple[int, str]:
    """zng.cli.main in this process, looked up at call time so tracing applies."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = sys.modules["zng.cli"].main(argv)
    return code, stdout.getvalue()


class Workload:
    """One named workload: its inputs, its pass, and the checks on both."""

    def __init__(self, name: str, seed: int, checker: Checker, tracer=None):
        self.name = name
        self.spec = DESIGN["workloads"][name]
        self.seed = seed
        self.checker = checker
        self.tracer = tracer
        self.graphs: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.setup_wall_s: list[float] = []
        self.pass_s: list[float] = []
        self.op_rel: dict[str, list[float]] = {}
        self.references: list[float] = []
        self.peak_rss_mb: list[float] = []
        self.inprocess_s: list[float] = []
        self.traced_s: list[float] = []
        self.layers: list[dict[str, float]] = []

    def _expand(self, argv: list[str]) -> tuple[list[str], bool]:
        seeded = any("{" in arg for arg in argv)
        return [arg.format(seed=self.seed, **self.graphs) for arg in argv], seeded

    def _record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAILED {self.name}/{label}: {'; '.join(errors)}", file=sys.stderr)

    def _op(self, label: str, template: list[str], keep: bool = False) -> tuple[float, float]:
        """One subprocess operation in a fresh directory; (wall s, max RSS MB)."""
        argv, seeded = self._expand(template)
        scratch = Path(tempfile.mkdtemp(prefix=label + "-", dir=WORK))
        out = scratch / "out"
        code, wall, rss = spawn(["-m", "zng.cli", *argv, "--out", str(out)], scratch)
        stdout = (scratch / "stdout").read_text(encoding="utf-8", errors="replace")
        errors = status_errors(argv[0], code, stdout)
        errors += self.checker.artifact_errors(f"{self.name}/{label}", seeded, out)
        self._record(label, errors)
        if keep:
            self.graphs[label] = str(out / "graph.zng")
        else:
            shutil.rmtree(scratch)
        return wall, rss

    def setup_round(self) -> None:
        """Build the input graphs (kept from the first round) and warm up the CLI.

        The round's wall time is recorded as it is and scaled to REFERENCE_S
        by the reference child run just before and just after it.
        """
        with tempfile.TemporaryDirectory(dir=WORK) as logs:
            before = reference_s(Path(logs))
            started = time.perf_counter()
            first = not self.graphs
            for label, template in self.spec["inputs"].items():
                self._op(label, template, keep=first)
            for _ in range(WARM_UP_STARTS):
                code, _, _ = spawn(list(WARM_UP), Path(logs))
                self._record("warm-up", [] if code == 0 else [f"exit code {code}"])
            wall = time.perf_counter() - started
            after = reference_s(Path(logs))
        self.setup_wall_s.append(wall)
        self.setup_s.append(wall * REFERENCE_S * 2 / (before + after))

    def run_pass(self) -> None:
        """One pass; each operation is also timed relative to the reference child
        run just before and just after it on the same CPU."""
        walls, peaks = [], []
        with tempfile.TemporaryDirectory(dir=WORK) as logs:
            reference = [reference_s(Path(logs))]
            for op in self.spec["pass"]:
                wall, peak = self._op(op["label"], op["argv"])
                reference.append(reference_s(Path(logs)))
                self.op_rel.setdefault(op["label"], []).append(wall * 2 / sum(reference[-2:]))
                walls.append(wall)
                peaks.append(peak)
        self.references += reference
        self.pass_s.append(sum(walls))
        self.peak_rss_mb.append(max(peaks))

    # -- in-process -------------------------------------------------------

    def _inprocess_pass(self) -> float:
        elapsed = 0.0
        for op in self.spec["pass"]:
            argv, seeded = self._expand(op["argv"])
            with tempfile.TemporaryDirectory(dir=WORK) as scratch:
                out = Path(scratch) / "out"
                started = time.perf_counter()
                try:
                    code, stdout = call_main([*argv, "--out", str(out)])
                except Exception:  # a crash is a failed operation, not a dead benchmark
                    traceback.print_exc()
                    code, stdout = -1, ""
                elapsed += time.perf_counter() - started
                errors = status_errors(argv[0], code, stdout)
                errors += self.checker.artifact_errors(f"{self.name}/{op['label']}", seeded, out)
                self._record(op["label"], errors)
        return elapsed

    def traced_pass(self) -> None:
        """An untraced then a traced in-process pass of the same argv."""
        self.inprocess_s.append(self._inprocess_pass())
        tracer = self.tracer
        tracer.pass_id = len(self.traced_s)
        tracer.counts.clear()
        missing = tracer.install()
        if missing and not self.layers:
            print(f"{self.name}: not traced, no such function: {missing}", file=sys.stderr)
        try:
            self.traced_s.append(self._inprocess_pass())
        finally:
            tracer.uninstall()
        self.layers.append(layer_metrics(tracer.span_times(tracer.pass_id), tracer.counts))

    # -- results ------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_rel": sum(median(rel) for rel in self.op_rel.values()),
            "peak_rss_mb": median(self.peak_rss_mb),
            "setup_s": median(self.setup_s),
        }

    def per_layer(self, startup_s: float) -> dict[str, float]:
        """Medians of the per-pass times; counts must repeat exactly across passes."""
        first = self.layers[0]
        for layer in self.layers[1:]:
            moved = [k for k in first if not k.endswith("_s") and layer[k] != first[k]]
            errors = [f"counts differ between passes: {moved}"] if moved else []
            self._record("traced-counts", errors)
        metrics = {
            key: median(layer[key] for layer in self.layers) if key.endswith("_s") else value
            for key, value in first.items()
        }
        metrics["cli.startup_s"] = startup_s
        metrics["trace.inprocess_s"] = median(self.inprocess_s)
        metrics["trace.overhead_s"] = median(self.traced_s) - median(self.inprocess_s)
        return metrics


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def source_id() -> str:
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def round_robin(workloads: list[Workload], step, seconds: float, samples) -> None:
    """Repeat step on every workload in turn for about seconds per workload.

    Once each workload has MIN_PASSES samples, no round starts that the mean
    round time says would end more than half a round past the deadline.
    """
    budget = seconds * len(workloads)
    started = time.perf_counter()
    rounds = 0
    while True:
        for workload in workloads:
            step(workload)
        rounds += 1
        elapsed = time.perf_counter() - started
        if min(len(samples(w)) for w in workloads) >= MIN_PASSES and (
            elapsed + elapsed / rounds / 2 > budget
        ):
            return


def startup_s() -> float:
    times = []
    with tempfile.TemporaryDirectory(dir=WORK) as logs:
        for _ in range(STARTUP_SAMPLES):
            code, wall, _ = spawn(list(WARM_UP), Path(logs))
            if code != 0:
                raise RuntimeError(f"importing zng.cli failed with exit code {code}")
            times.append(wall)
    return median(times)


def describe(name: str, values: list[float], unit: str) -> str:
    q1, _, q3 = quantiles(values, n=4)
    return f"{name} {median(values):.4f} {unit} (median of {len(values)}, q1 {q1:.4f}, q3 {q3:.4f})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *DESIGN["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true", help="rewrite golden.json from a run at the default seed"
    )
    args = parser.parse_args(argv)
    if not (SRC / "zng" / "cli.py").is_file():
        print(f"no zng sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.pin and (args.seed != DEFAULT_SEED or args.workload != "all" or args.trace):
        parser.error("--pin needs the default seed, every workload and --trace 0")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = benchmark["per_layer" if args.trace else "end_to_end"]
    pinned = None if args.pin else json.loads(GOLDEN.read_text(encoding="utf-8"))
    checker = Checker(args.seed, pinned)
    names = list(DESIGN["workloads"]) if args.workload == "all" else [args.workload]

    # The benchmark and every child it starts share one CPU, so the reference
    # child runs where the operations it is compared with run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    if args.trace:
        sys.path.insert(0, str(SRC))
        import zng.cli  # noqa: F401  (the in-process passes call it)

        # Log records go nowhere, as the CLI's stderr log would; without a
        # handler here, zng.cli.main would bind one to a redirected stream.
        logging.basicConfig(handlers=[logging.NullHandler()], level=logging.INFO)

    workloads = [
        Workload(name, args.seed, checker, Tracer() if args.trace else None) for name in names
    ]
    environment = {
        "seed": args.seed, "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "commit": source_id(), "seconds": args.seconds, "trace": args.trace,
    }
    print("# " + " ".join(f"{k}={v}" for k, v in environment.items()), flush=True)
    try:
        for _ in range(1 if args.trace else SETUP_ROUNDS):
            for workload in workloads:
                workload.setup_round()
        if args.trace:
            startup = startup_s()
            round_robin(workloads, Workload.traced_pass, args.seconds, lambda w: w.traced_s)
        else:
            round_robin(workloads, Workload.run_pass, args.seconds, lambda w: w.pass_s)
    finally:
        for path in WORK.iterdir():
            if path.is_dir():
                shutil.rmtree(path)

    metrics: dict[str, dict] = {}
    for workload in workloads:
        prefix = "" if len(workloads) == 1 else workload.name + "."
        if args.trace:
            values = workload.per_layer(startup)
            workload.tracer.write_spans(WORK / f"spans-{workload.name}-{args.seed}.jsonl")
            print(f"{workload.name}: {len(workload.traced_s)} traced passes; "
                  f"tracing overhead {values['trace.overhead_s']:.4f} s per pass")
        else:
            values = workload.end_to_end()
            print(describe(f"{workload.name} wall_s", workload.pass_s, "s"))
            print(f"{workload.name} wall_rel {values['wall_rel']:.4f} ratio (by operation: "
                  + ", ".join(f"{k} {median(v):.3f}" for k, v in workload.op_rel.items())
                  + f"; reference child median {median(workload.references):.4f} s)")
            print(describe(f"{workload.name} peak_rss_mb", workload.peak_rss_mb, "MB"))
            print(describe(f"{workload.name} setup_s", workload.setup_s, "s")
                  + f"; unscaled wall median {median(workload.setup_wall_s):.4f} s")
            print(f"{workload.name} error_rate {workload.failed / workload.attempted:.4f} "
                  f"({workload.failed} of {workload.attempted} operations failed)")
        for spec in metric_specs:
            metrics[prefix + spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
            if args.trace:
                value = values[spec["name"]]
                print(f"{workload.name} {spec['name']} {value:.6g} {spec['unit']}")
    if args.pin:
        pinned = json.dumps(checker.seen, indent=1, sort_keys=True) + "\n"
        GOLDEN.write_text(pinned, encoding="ascii")
    attempted = sum(w.attempted for w in workloads)
    failed = sum(w.failed for w in workloads)
    with open(WORK / "results.jsonl", "a", encoding="ascii") as log:
        log.write(json.dumps({**environment, "workloads": names, "attempted": attempted,
                              "failed": failed, "metrics": metrics}) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
