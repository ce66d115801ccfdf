"""The repo benchmark: figure regeneration end to end, layers from outside.

Each workload is one ``repro.experiments`` invocation, run as a fresh
process through the runner's ``main`` (``child.py``). A run repeats the
invocation until ``--seconds`` have passed (never cutting one short, so
a workload longer than that runs once), checks every invocation's tables
and exported rows, and prints the end-to-end metrics. ``--trace 1``
adds one invocation with the layer tracer (``tracer.py``) and prints the
per-layer metrics instead. See ``README.md`` beside this file.

Usage::

    python3 perfbench/run.py --workload paper-serial --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 0       # every workload once
    python3 perfbench/run.py --record-golden 0 1 2            # re-record digests

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``BENCHMARK.json``
at the repository root owns the workload and metric names and the units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNNER = SRC / "repro" / "experiments" / "runner.py"
GOLDEN = BENCH_DIR / "golden.json"
#: scratch space for caches, stores, journals and exports (gitignored)
SCRATCH = ROOT / ".perfbench-tmp"

sys.path.insert(0, str(BENCH_DIR))
import tracer as layer_tracer  # noqa: E402

#: the benchmark's definition: workload and metric names, units, bounds
SPEC = ROOT / "BENCHMARK.json"

#: one trace key per workload category: web, OLTP, DSS, scientific
KEYS = ("apache", "db2", "qry2", "em3d")
#: set-up-only invocations per run, half before and half after the timed
#: ones, so that the set-up samples span the run like the timed ones do
SETUP_PROBES = 16
#: an invocation still running after this long is killed and failed
INVOCATION_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    jobs: int
    length: int
    #: ``recorded`` (replayed from a store recorded before timing) or
    #: ``empty`` (a fresh store per invocation)
    store: str

    def inputs(self, length: Optional[int] = None) -> List[str]:
        """The runner arguments that decide its output, bar the seed.
        ``--small`` keeps the fast preset's Sequitur bound (Fig. 7);
        ``--length`` overrides its trace length."""
        return [self.experiment, "--small", "--workloads", *KEYS,
                "--length", str(length or self.length)]

    def argv(self, seed: int, directory: Path, store: Path,
             length: Optional[int] = None) -> List[str]:
        """Runner arguments; results, journal and exports go under
        ``directory``, the trace store is ``store``."""
        return [*self.inputs(length), "--seed", str(seed),
                "--jobs", str(self.jobs),
                "--cache-dir", str(directory / "cache"),
                "--export", "json", "--export-dir", str(directory / "export"),
                "--trace-store", str(store)]

    def signature(self) -> str:
        """What golden digests are recorded for. ``--jobs`` and the trace
        store are left out: the output must not depend on them."""
        return " ".join(self.inputs())


#: Both run one job set, so they differ only in the engine's execution
#: path. A third workload (fig8 alone on 200k-access traces, generated
#: in-process) is left out: a run must measure tens of seconds to ride
#: out the host's speed swings, and three such workloads do not fit the
#: benchmark's time budget (README.md).
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("paper-serial", "all", 1, 50_000, "recorded"),
        Workload("paper-parallel", "all", min(2, os.cpu_count() or 1),
                 50_000, "empty"),
    )
}

_PREFETCHERS = ("stride", "sms", "tms", "stems", "hybrid", "composite", "agt")
_COUNTED = ("tms", "sms", "stems", "hybrid")
_ANALYSES = ("joint", "repetition", "correlation")


def metric_units() -> Dict[str, str]:
    """Metric name -> unit, end-to-end and per-layer alike."""
    spec = json.loads(SPEC.read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


# -- one invocation -----------------------------------------------------------


@dataclass
class Invocation:
    mode: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    report: dict
    tables: str = ""
    rows: str = ""
    exit_s: float = 0.0
    trace: List[dict] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.report["first_run"] - self.report["spawn"]

    @property
    def digest(self) -> Tuple[str, str]:
        return self.tables, self.rows


def child_env(directory: Path) -> Dict[str, str]:
    """The invocation's environment: no ``REPRO_*`` setting leaks in, and
    bytecode is cached as in any install, so that compiling the package
    is paid once per checkout, not in every invocation's ``setup_s``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    tmp = directory / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def kill_group(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_group(group: int, grace_s: float = 5.0) -> None:
    """Wait until every process of the invocation's session has ended
    (helpers such as multiprocessing's resource tracker outlive the
    runner briefly); kill what is left after ``grace_s``, then wait as
    long again for the kill to land."""
    for last_chance in (False, True):
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)
        if not last_chance:
            kill_group(group)


def spawn(mode: str, args: List[str], directory: Path,
          extra_env: Optional[Dict[str, str]] = None) -> Invocation:
    """Run ``child.py`` once; wall time from spawn to exit, CPU and peak
    RSS of the invocation and every process it waited for."""
    directory.mkdir(parents=True, exist_ok=True)
    env = child_env(directory)
    env.update(extra_env or {})
    report_path = directory / "report.json"
    command = [sys.executable, str(BENCH_DIR / "child.py"),
               str(report_path), mode, "--", *args]
    with open(directory / "stdout", "wb") as out, \
            open(directory / "stderr", "wb") as err:
        start = time.monotonic()
        env["PERFBENCH_SPAWN"] = repr(start)
        proc = subprocess.Popen(command, stdout=out, stderr=err, env=env,
                                cwd=directory, start_new_session=True)
        watchdog = threading.Timer(INVOCATION_LIMIT_S, kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wait_group(proc.pid)
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = {}
    invocation = Invocation(
        mode=mode,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        report=report,
    )
    if report.get("trace_end") is not None:
        invocation.exit_s = end - report["trace_end"]
    return invocation


def file_digest(paths: List[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    """The invocations of one benchmark run, all under one scratch dir."""

    def __init__(self, workload: Workload, seed: int,
                 length: Optional[int] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.length = length
        SCRATCH.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        self.count = 0
        self.store: Optional[Path] = None

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def prepare(self) -> None:
        """Record ``paper-serial``'s traces once per run, before timing."""
        if self.workload.store != "recorded":
            return
        self.store = self.scratch / "recorded-traces"
        length = self.length or self.workload.length
        recorded = spawn(
            "record",
            [str(self.store), str(length), str(self.seed), *KEYS],
            self.scratch / "record",
        )
        if recorded.exit_code != 0:
            raise RuntimeError(
                "recording the trace store failed:\n"
                + (self.scratch / "record" / "stderr").read_text()
            )

    def invoke(self, mode: str, cost: Tuple[float, ...] = ()) -> Invocation:
        self.count += 1
        directory = self.scratch / f"{self.count:03d}-{mode}"
        directory.mkdir()
        store = self.store or directory / "traces"
        extra = {}
        trace_dir = directory / "spans"
        if mode == "trace":
            trace_dir.mkdir()
            extra = {
                "PERFBENCH_TRACE_DIR": str(trace_dir),
                "PERFBENCH_TRACE_COST": ",".join(repr(c) for c in cost),
            }
        invocation = spawn(
            mode, self.workload.argv(self.seed, directory, store, self.length),
            directory, extra,
        )
        if mode != "probe":
            invocation.tables = file_digest([directory / "stdout"])
            invocation.rows = file_digest(
                sorted((directory / "export").glob("*.json"))
            )
        if mode == "trace":
            invocation.trace = [
                json.loads(path.read_text())
                for path in sorted(trace_dir.glob("*.json"))
            ]
        shutil.rmtree(directory / "cache", ignore_errors=True)
        return invocation


# -- output checks ------------------------------------------------------------


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def expected_digest(workload: Workload, seed: int,
                    length: Optional[int] = None) -> Optional[Tuple[str, str]]:
    """The committed digest of this run's output, or None when none was
    recorded for ``seed`` (or the traces are shortened, as in the
    self-tests)."""
    if length is not None:
        return None
    recorded = load_golden().get(workload.signature())
    if recorded is None:
        raise RuntimeError(
            f"golden.json has no digests for {workload.signature()!r}; "
            "record them with --record-golden"
        )
    entry = recorded.get(str(seed))
    return None if entry is None else (entry["tables"], entry["rows"])


def failed_invocations(invocations: List[Invocation],
                       expected: Optional[Tuple[str, str]]) -> List[int]:
    """Indices of invocations that exited non-zero or whose tables or
    rows differ from ``expected`` (or, without one, from each other; a
    lone invocation then goes unchecked)."""
    digests = {inv.digest for inv in invocations if inv.exit_code == 0}
    failed = []
    for index, inv in enumerate(invocations):
        if inv.exit_code != 0 or not inv.report.get("first_run"):
            failed.append(index)
        elif expected is not None and inv.digest != expected:
            failed.append(index)
        elif expected is None and len(digests) > 1:
            failed.append(index)
    return failed


# -- metrics --------------------------------------------------------------------


def end_to_end(invocations: List[Invocation],
               setups: List[float]) -> Dict[str, float]:
    def median(values) -> float:
        return statistics.median(list(values))

    return {
        "wall_s": median(inv.wall_s for inv in invocations),
        "setup_s": median(setups),
        "accesses_per_s": median(
            inv.report["accesses"] / inv.report["run_s"]
            for inv in invocations
        ),
        "cpu_s": median(inv.cpu_s for inv in invocations),
        "peak_rss_mb": median(inv.peak_rss_mb for inv in invocations),
    }


def layer_table(traced: Invocation) -> Tuple[Dict[str, List[float]],
                                             Dict[str, float]]:
    """Self seconds, calls and pulled items per layer over every process
    of the traced invocation, the runner's import and exit time
    included, plus the traced seconds per process role: the runner's
    layers and ``traced.wrapper`` sum to the traced wall time, worker
    processes add their own lifetimes."""
    merged = layer_tracer.merge(traced.trace)
    layers = {name: list(entry) for name, entry in merged["layers"].items()}
    report = traced.report
    outside = {
        "experiments.import": report["imported"] - report["spawn"],
        "experiments.collect": traced.exit_s,
        layer_tracer.OVERHEAD: report["installed"] - report["imported"],
    }
    for layer, seconds in outside.items():
        layers.setdefault(layer, [0.0, 0, 0])[0] += seconds
    layers[layer_tracer.OVERHEAD][0] += merged["overhead_s"]
    layers["engine.workers.idle"] = [
        merged["worker_idle_s"], merged["workers"], 0
    ]
    roles = dict(merged["traced_s"])
    roles["main"] += sum(outside.values())
    return layers, roles


def per_layer(traced: Invocation, layers: Dict[str, List[float]],
              untraced_wall: float) -> Dict[str, float]:
    report = traced.report
    stats = report["stats"]
    sim = report["sim"]

    def self_s(layer: str) -> float:
        return layers.get(layer, [0.0, 0, 0])[0]

    def calls(layer: str) -> int:
        return int(layers.get(layer, [0.0, 0, 0])[1])

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values = {
        "experiments.import_s": self_s("experiments.import"),
        "experiments.declare_s": self_s("experiments.declare"),
        "experiments.collect_s": self_s("experiments.collect"),
        "engine.run.self_s": self_s("engine.run"),
        "engine.cache.self_s": self_s("engine.cache"),
        "engine.cache.calls": calls("engine.cache"),
        "engine.journal.self_s": self_s("engine.journal"),
        "engine.journal.calls": calls("engine.journal"),
        "engine.worker.self_s": self_s(layer_tracer.WORKER),
        "engine.workers.idle_s": self_s("engine.workers.idle"),
        "engine.retries": stats["retries"],
        "engine.fallbacks": (
            stats["replay_fallbacks"] + stats["isolation_fallbacks"]
            + stats["serial_fallbacks"] + stats["broadcast_fallbacks"]
        ),
        "engine.failures": stats["failures"],
        "workloads.generate.self_s": self_s("workloads.generate"),
        "workloads.generate.accesses": int(
            layers.get("workloads.generate", [0, 0, 0])[2]
        ),
        "tracestore.record.self_s": self_s("tracestore.record"),
        "tracestore.replay.self_s": self_s("tracestore.replay"),
        "tracestore.bytes_replayed": stats["bytes_replayed"],
        "tracestore.hit_ratio": ratio(
            stats["store_hits"], stats["store_hits"] + stats["store_misses"]
        ),
        "kernels.decode.self_s": self_s("kernels.decode"),
        "kernels.decode.calls": calls("kernels.decode"),
        "kernels.prepass.self_s": self_s("kernels.prepass"),
        "memsys.hierarchy.self_s": self_s("memsys.hierarchy"),
        "memsys.hierarchy.calls": calls("memsys.hierarchy"),
        "memsys.hierarchy.calls_per_access": ratio(
            calls("memsys.hierarchy"), report["key_accesses"]
        ),
        "memsys.cache.self_s": self_s("memsys.cache"),
        "memsys.cache.calls": calls("memsys.cache"),
        "memsys.svb.self_s": self_s("memsys.svb"),
        "memsys.svb.calls": calls("memsys.svb"),
        "memsys.l1_hits": sim["l1_hits"],
        "memsys.offchip_misses": sim["offchip_misses"],
        "sim.driver.self_s": self_s("sim.driver"),
        "sim.timing.self_s": self_s("sim.timing"),
        "sim.timing.calls": calls("sim.timing"),
        "sim.timing.stall_cycles": sim["stall_cycles"],
        "telemetry.write_s": self_s("telemetry.write"),
        "traced.wall_s": traced.wall_s,
        "traced.run_s": report["run_s"],
        "traced.wrapper_s": self_s(layer_tracer.OVERHEAD),
        "traced.overhead": ratio(traced.wall_s, untraced_wall),
    }
    for name in _PREFETCHERS:
        values[f"prefetch.{name}.self_s"] = self_s(f"prefetch.{name}")
        values[f"prefetch.{name}.calls"] = calls(f"prefetch.{name}")
    for name in _COUNTED:
        issued = sim["issued"][name]
        values[f"prefetch.{name}.issued"] = issued
        values[f"prefetch.{name}.useful_ratio"] = ratio(
            sim["covered"][name], issued
        )
    for name in _ANALYSES:
        values[f"analysis.{name}.self_s"] = self_s(f"analysis.{name}")
        values[f"analysis.{name}.calls"] = calls(f"analysis.{name}")
    return values


# -- one run ------------------------------------------------------------------


@dataclass
class Result:
    workload: Workload
    correct: bool
    attempted: int
    failed: int
    #: whether the output was checked against a golden digest
    verified: bool
    digest: Optional[Tuple[str, str]]
    invocations: List[Invocation]
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, List[float]] = field(default_factory=dict)
    traced_s: Dict[str, float] = field(default_factory=dict)

    def as_json(self) -> dict:
        units = metric_units()
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in self.metrics.items()
            },
        }


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            length: Optional[int] = None) -> Result:
    """One benchmark run of ``workload``: timed invocations for
    ``seconds`` (at least one) between two halves of the set-up probes,
    and with ``trace`` one traced invocation whose tables must match the
    untraced ones."""
    expected = expected_digest(workload, seed, length)
    runner = Runner(workload, seed, length)
    setups: List[float] = []

    def probe(count: int) -> None:
        for _ in range(count):
            invocation = runner.invoke("probe")
            if invocation.exit_code == 0 and invocation.report.get("first_run"):
                setups.append(invocation.setup_s)

    try:
        runner.prepare()
        start = time.monotonic()
        probe(SETUP_PROBES // 2)
        invocations: List[Invocation] = []
        while True:
            invocations.append(runner.invoke("run"))
            typical = statistics.median(inv.wall_s for inv in invocations)
            if time.monotonic() - start + typical > seconds:
                break
        probe(SETUP_PROBES - SETUP_PROBES // 2)
        if trace:
            cost = layer_tracer.calibrate()
            invocations.append(runner.invoke("trace", cost))
    finally:
        runner.close()
    failed = failed_invocations(invocations, expected)
    attempted = sum(max(1, inv.report.get("ops", 0)) for inv in invocations)
    failed_ops = sum(
        max(1, invocations[i].report.get("ops", 0)) for i in failed
    ) + sum(
        inv.report.get("failed_ops", 0)
        for i, inv in enumerate(invocations) if i not in failed
    )
    correct = not failed and failed_ops == 0 and bool(setups)
    untraced = [inv for inv in invocations if inv.mode == "run"]
    digest = invocations[0].digest if not failed else None
    result = Result(workload, correct, attempted, failed_ops,
                    expected is not None, digest, invocations)
    if not correct:
        return result
    setups.extend(inv.setup_s for inv in untraced)
    if trace:
        traced = invocations[-1]
        wall = statistics.median(inv.wall_s for inv in untraced)
        result.layers, result.traced_s = layer_table(traced)
        result.metrics = per_layer(traced, result.layers, wall)
    else:
        result.metrics = end_to_end(untraced, setups)
    return result


# -- reporting ------------------------------------------------------------------


def describe(result: Result, seed: int) -> str:
    workload = result.workload
    lines = [
        f"== {workload.name} (seed {seed}): {workload.experiment} over "
        f"{' '.join(KEYS)}, --jobs {workload.jobs}, "
        f"{len(result.invocations)} invocation(s), "
        f"{'correct' if result.correct else 'INCORRECT'}, "
        f"{result.failed}/{result.attempted} ops failed",
    ]
    if result.digest is not None:
        check = ("matches the golden digest" if result.verified else
                 "UNVERIFIED: no golden digest for this seed")
        lines.append(f"   digest tables {result.digest[0][:16]} "
                     f"rows {result.digest[1][:16]} {check}")
    if result.layers:
        total = sum(result.traced_s.values())
        lines.append(f"   {'layer':<28} {'self_s':>9} {'share':>7} "
                     f"{'calls':>11}")
        for name, (self_s, calls, _) in sorted(
            result.layers.items(), key=lambda item: -item[1][0]
        ):
            lines.append(f"   {name:<28} {self_s:9.3f} "
                         f"{self_s / total:7.1%} {int(calls):11d}")
        lines.append(
            f"   runner process {result.traced_s['main']:.3f} s (traced "
            f"wall {result.metrics['traced.wall_s']:.3f} s), worker "
            f"processes {result.traced_s['worker']:.3f} s; idle rows "
            "are not part of the sums"
        )
    units = metric_units()
    for name, value in result.metrics.items():
        lines.append(f"   {name:<36} {value:16.6g} {units[name]}")
    return "\n".join(lines)


def record_golden(seeds: List[int]) -> int:
    """Record the output digest of every workload signature for each of
    ``seeds``, running the workload with the most jobs (the others are
    checked against it). Digests of signatures no workload uses go."""
    recorded = load_golden()
    golden = {
        workload.signature(): recorded.get(workload.signature(), {})
        for workload in WORKLOADS.values()
    }
    for seed in seeds:
        done = set()
        for workload in sorted(WORKLOADS.values(), key=lambda w: -w.jobs):
            if workload.signature() in done:
                continue
            runner = Runner(workload, seed)
            try:
                runner.prepare()
                invocation = runner.invoke("run")
            finally:
                runner.close()
            if invocation.exit_code != 0:
                print(f"{workload.name} seed {seed}: exit "
                      f"{invocation.exit_code}", file=sys.stderr)
                return 1
            golden[workload.signature()][str(seed)] = {
                "tables": invocation.tables, "rows": invocation.rows,
            }
            done.add(workload.signature())
            print(f"{workload.name} seed {seed}: {invocation.tables[:16]} "
                  f"{invocation.rows[:16]}", file=sys.stderr)
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=42,
                        help="trace seed, passed to the runner as --seed")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep invoking until this long has passed "
                        "(at least one invocation)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", type=int, nargs="+",
                        metavar="SEED",
                        help="record golden digests for these seeds")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not RUNNER.is_file():
        print(f"perfbench: no program to measure ({RUNNER} is missing)",
              file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(args.record_golden)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds,
                         bool(args.trace))
        print(describe(result, args.seed), flush=True)
        if result.digest is not None:
            print(f"digest {name} seed {args.seed}: tables "
                  f"{result.digest[0]} rows {result.digest[1]}"
                  + ("" if result.verified else " (no golden digest for "
                     "this seed: checked only that invocations agree)"),
                  file=sys.stderr)
        results.append(result)
    if len(results) == 1:
        summary = results[0].as_json()
    else:
        summary = {
            "correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": {
                f"{r.workload.name}.{name}": value
                for r in results
                for name, value in r.as_json()["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
