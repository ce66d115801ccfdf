"""Command-line entry point: regenerate any paper table/figure.

Built on the :mod:`repro.engine` job-graph engine: the selected
experiments *declare* their simulations into one shared graph, the
engine deduplicates and executes them (serially, or across processes
with ``--jobs N``), and each experiment assembles its table from the
shared results. An on-disk result cache (``--cache-dir``) makes repeat
and overlapping invocations skip finished simulations entirely.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments fig9 --length 150000 --seed 7
    python -m repro.experiments all --small --jobs 4
    python -m repro.experiments all --extended --cache-dir .repro-cache
    python -m repro.experiments all --jobs 4 --trace-store .repro-traces
    python -m repro.experiments fig9 --export json --export-dir results
    python -m repro.experiments --list

A ``--trace-store`` directory (or the ``REPRO_TRACE_STORE`` environment
variable) turns trace generation into a shared, cached resource: each
``(workload, length, seed)`` trace is recorded once in a compact binary
format and replayed by every job — and every ``--jobs`` worker — that
shares it, across invocations. Under ``--jobs N`` the replays collapse
further: ``--broadcast`` (default ``auto``) runs jobs sharing a trace
key as a broadcast wave — one reader process walks the key once and
tees every chunk to all consumers over shared memory, so an N-job sweep
over one key costs exactly one trace walk total.

Execution is fault-tolerant: every job runs under a retry policy
(``--retries``, ``--job-timeout``), dead workers are respawned with only
the lost jobs requeued, and corrupt trace/cache entries are quarantined
and regenerated.

Every cached invocation is also a **durable run**: a write-ahead journal
under ``<cache-dir>/runs/<run_id>/`` records the run header and every
job lifecycle event, fsync'd as it happens, so a SIGINT, OOM kill or
power cut costs only the jobs that had not yet completed. ``--resume
<run_id|last>`` rebuilds the job graph from the journal and re-executes
only the incomplete jobs (completed ones are served from the result
cache), producing output bit-identical to an uninterrupted run;
``--list-runs`` enumerates journaled runs and their status.

The **exit code is a contract**: ``0`` means a clean run, ``1`` means
the run completed but some recovery path fired (retries, quarantines,
fallbacks — including jobs that failed permanently and surfaced as
structured failures), ``2`` means a hard failure under ``--strict`` (the
first job to exhaust its retries aborts the run), and ``3`` means the
run was interrupted gracefully (SIGINT/SIGTERM) with a sealed,
resumable journal — a second SIGINT skips the drain and hard-aborts
(exit 130, the journal is left ``running`` and detected as ``crashed``,
which is equally resumable).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, NoReturn, Optional

from repro.engine import (
    Engine,
    GracefulShutdown,
    JobExecutionError,
    JobGraph,
    RetryPolicy,
    RunInterrupted,
    RunJournal,
    find_run,
    list_runs,
    runs_root,
)
from repro.engine.journal import JournalError, config_hash
from repro.telemetry import resolve_telemetry
from repro.tracestore import default_trace_store_dir
from repro.experiments import (
    baselines,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    hybrid,
    sensitivity,
    table1,
)
from repro.experiments.config import ExperimentConfig
from repro.sim.export import write_csv, write_json
from repro.workloads.registry import WORKLOAD_CATEGORIES, WORKLOAD_NAMES

EXPERIMENTS = {
    "table1": table1,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "hybrid": hybrid,
    "sensitivity": sensitivity,
    "baselines": baselines,
}

#: the figures/tables that appear in the paper itself; ``--extended``
#: adds the sensitivity and lineage extension studies
PAPER_SET = ["table1", "fig6", "fig7", "fig8", "fig9", "fig10", "hybrid"]
EXTENDED_SET = PAPER_SET + ["sensitivity", "baselines"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate tables/figures of 'Spatio-Temporal Memory "
        "Streaming' (ISCA 2009)",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate ('all' covers the paper's "
        "artifacts; add --extended for sensitivity and baselines)",
    )
    parser.add_argument("--length", type=int, default=None,
                        help="trace length per workload")
    parser.add_argument("--seed", type=int, default=None, help="trace seed")
    parser.add_argument(
        "--workloads", nargs="+", choices=WORKLOAD_NAMES, default=None,
        help="subset of workloads to evaluate",
    )
    parser.add_argument("--small", action="store_true",
                        help="use the fast preset (tests/benchmarks)")
    parser.add_argument(
        "--extended", action="store_true",
        help="make 'all' include the sensitivity and baselines extensions",
    )
    engine_group = parser.add_argument_group("engine")
    engine_group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for simulation jobs (default: 1, serial)",
    )
    engine_group.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="on-disk result cache keyed by job hash "
        "(default: .repro-cache; see --no-cache)",
    )
    engine_group.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the result cache",
    )
    engine_group.add_argument(
        "--trace-store", default=None, metavar="DIR",
        help="shared trace plane: record each (workload, length, seed) "
        "trace once and replay it for every job and worker that shares "
        "it (default: $REPRO_TRACE_STORE if set, else off)",
    )
    engine_group.add_argument(
        "--broadcast", choices=("auto", "on", "off"), default=None,
        help="shared-memory fan-out: under --jobs N with a trace store, "
        "jobs sharing a trace key consume ONE reader process's walk "
        "over a shared-memory ring instead of replaying the store "
        "independently — N jobs over one key cost exactly one trace "
        "walk; results are bit-identical either way (default: "
        "$REPRO_BROADCAST if set, else auto)",
    )
    engine_group.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="attempts each failing job gets before it is recorded as a "
        "structured failure (default: 3; 1 disables retrying)",
    )
    engine_group.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget; an overrunning job's worker is "
        "killed and the job charged a timeout attempt (default: none)",
    )
    engine_group.add_argument(
        "--strict", action="store_true",
        help="abort (exit 2) on the first job that exhausts its retries "
        "instead of degrading it to a structured failure (exit 1)",
    )
    durable_group = parser.add_argument_group("durable runs")
    durable_group.add_argument(
        "--resume", default=None, metavar="RUN",
        help="resume a journaled run by id (or 'last'): rebuild its job "
        "graph from the journal under <cache-dir>/runs/ and re-execute "
        "only the jobs without a durable result",
    )
    durable_group.add_argument(
        "--run-id", default=None, metavar="ID",
        help="explicit run id for the journal directory "
        "(default: generated timestamp-pid id)",
    )
    durable_group.add_argument(
        "--no-journal", action="store_true",
        help="do not write the run journal (journaling is on whenever "
        "the result cache is; --no-cache also disables it)",
    )
    durable_group.add_argument(
        "--list-runs", action="store_true",
        help="list journaled runs under <cache-dir>/runs/ with their "
        "status (clean / degraded / failed / interrupted / crashed) "
        "and progress, then exit",
    )
    export_group = parser.add_argument_group("export")
    export_group.add_argument(
        "--export", choices=("json", "csv"), default=None,
        help="also write each experiment's rows as json/csv",
    )
    export_group.add_argument(
        "--export-dir", default="results", metavar="DIR",
        help="directory for exported row files (default: results)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_available",
        help="list available experiments and workloads, then exit",
    )
    return parser


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.small() if args.small else ExperimentConfig()
    if args.length is not None:
        config.trace_length = args.length
    if args.seed is not None:
        config.seed = args.seed
    if args.workloads is not None:
        config.workloads = list(args.workloads)
    return config


def make_engine(args: argparse.Namespace, journal=None,
                interrupt=None) -> Engine:
    trace_store = args.trace_store
    if trace_store is None:
        trace_store = default_trace_store_dir()
    return Engine(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        trace_store=trace_store,
        broadcast=getattr(args, "broadcast", None),
        retry=RetryPolicy(
            attempts=max(1, args.retries), timeout=args.job_timeout
        ),
        strict=args.strict,
        journal=journal,
        interrupt=interrupt,
    )


def select_experiments(args: argparse.Namespace) -> List[str]:
    if args.experiment == "all":
        return list(EXTENDED_SET if args.extended else PAPER_SET)
    return [args.experiment]


def run_one(name: str, config: ExperimentConfig,
            engine: Optional[Engine] = None) -> str:
    """Run a single experiment end-to-end and format its table."""
    module = EXPERIMENTS[name]
    result = module.run(config, engine=engine)
    return module.format_table(result)


def list_available() -> str:
    lines = ["experiments:"]
    for name in PAPER_SET:
        lines.append(f"  {name:<12} (paper)")
    for name in EXTENDED_SET:
        if name not in PAPER_SET:
            lines.append(f"  {name:<12} (extension; in 'all' via --extended)")
    lines.append("workloads:")
    for name in WORKLOAD_NAMES:
        lines.append(f"  {name:<8} [{WORKLOAD_CATEGORIES[name]}]")
    return "\n".join(lines)


def _export(name: str, result, fmt: str, directory: Path) -> Optional[Path]:
    module = EXPERIMENTS[name]
    rows = module.export_rows(result)
    if not rows:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.{fmt}"
    writer = write_json if fmt == "json" else write_csv
    return writer(rows, path)


def format_runs(root: Path) -> str:
    """The ``--list-runs`` table: one line per journaled run."""
    records = list_runs(root)
    if not records:
        return f"no journaled runs under {root}"
    lines = []
    for record in records:
        status = record.status()
        if record.resumed_by:
            status += f" → resumed by {record.resumed_by}"
        elif record.resumable():
            status += " (resumable)"
        experiments = record.header.get("experiments") or []
        lines.append(
            f"{record.run_id:<28} {status:<24} "
            f"{len(record.completed)}/{len(record.scheduled)} jobs  "
            f"started {record.started or '?'}  "
            f"[{' '.join(experiments)}]"
        )
    return "\n".join(lines)


def _resolve_resume(args: argparse.Namespace) -> argparse.Namespace:
    """Turn ``--resume RUN`` into the original run's argument set.

    The journal header records the original invocation's argv; it is
    re-parsed so the resumed run declares the *identical* job graph.
    The current invocation's engine-shape flags (``--jobs``, explicit
    ``--cache-dir``) override the recorded ones — resuming a parallel
    run serially (or vice versa) is legal and bit-identical.

    Raises:
        JournalError: when no such run exists, or its argv holds
            arguments this version no longer accepts (a removed flag) —
            reported as such, not as a usage error about arguments the
            user did not type.
    """
    record = find_run(runs_root(args.cache_dir), args.resume)

    def reject(detail: str) -> NoReturn:
        raise JournalError(
            f"run {record.run_id} was recorded with arguments this version "
            f"does not accept: {detail}; rerun the command without them — "
            "finished jobs come from the result cache"
        )

    parser = build_parser()
    parser.error = reject  # instead of a usage dump and exit
    resumed, unknown = parser.parse_known_args(record.argv)
    if unknown:
        reject(" ".join(unknown))
    if resumed.resume:
        # a resume-of-a-resume recorded its own original argv; the
        # header argv is always the *effective* experiment invocation
        resumed.resume = None
    resumed.cache_dir = args.cache_dir
    if args.jobs != 1:
        resumed.jobs = args.jobs
    if args.export is not None:
        resumed.export = args.export
    if args.export_dir != build_parser().get_default("export_dir"):
        resumed.export_dir = args.export_dir
    resumed.run_id = args.run_id
    resumed.no_journal = args.no_journal
    incomplete = record.incomplete()
    print(
        f"[resume {record.run_id}: {len(record.completed)} of "
        f"{len(record.scheduled)} journaled jobs already durable, "
        f"{len(incomplete)} to re-execute]",
        file=sys.stderr,
    )
    resumed._resume_record = record
    return resumed


def _write_telemetry(engine: Engine, journal) -> None:
    """Serialize the run's telemetry next to its journal (best effort).

    Called on every terminal path — clean, degraded, strict abort,
    graceful interrupt — so ``repro-report`` has ``metrics.json`` even
    for runs that did not finish. A write failure is reported but never
    changes the run's outcome.
    """
    if journal is None or not engine.telemetry.enabled:
        return
    try:
        written = engine.telemetry.write(journal.directory, journal.run_id)
    except OSError as error:
        print(f"[telemetry: write failed: {error}]", file=sys.stderr)
        return
    if written:
        names = ", ".join(path.name for path in written)
        print(f"[telemetry: {names} written to {journal.directory}]",
              file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    original_argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        # validate the telemetry mode up front: the hot-path check
        # (phases_active) deliberately never raises, so a typo'd
        # REPRO_TELEMETRY must be caught before any work happens
        resolve_telemetry()
    except ValueError as error:
        print(f"[telemetry: {error}]", file=sys.stderr)
        return 2
    if args.list_available:
        print(list_available())
        return 0
    if args.list_runs:
        print(format_runs(runs_root(args.cache_dir)))
        return 0
    resume_record = None
    if args.resume is not None:
        try:
            args = _resolve_resume(args)
        except JournalError as error:
            print(f"[resume: {error}]", file=sys.stderr)
            return 2
        resume_record = args._resume_record
        original_argv = list(resume_record.argv)
    if args.experiment is None:
        build_parser().error("an experiment name (or --list) is required")
    config = make_config(args)
    names = select_experiments(args)

    # declare everything into one graph so the engine deduplicates the
    # jobs shared between figures, then execute the graph exactly once
    started = time.time()
    graph = JobGraph()
    plans = {name: EXPERIMENTS[name].declare(config, graph) for name in names}

    journal = None
    if not args.no_cache and not args.no_journal:
        header = {
            "argv": original_argv,
            "experiments": names,
            "config": config_hash(config),
        }
        if resume_record is not None:
            header["resumed_from"] = resume_record.run_id
        journal = RunJournal.create(
            runs_root(args.cache_dir), run_id=args.run_id, header=header
        )
        if resume_record is not None:
            _cross_check_resume(resume_record, graph)
    shutdown = GracefulShutdown().install()
    try:
        engine = make_engine(args, journal=journal,
                             interrupt=shutdown.event)
        try:
            results = engine.run(graph)
        except JobExecutionError as error:
            print(f"[engine: strict abort — {error.failure.summary()}]",
                  file=sys.stderr)
            print(f"[{engine.stats.format()}]", file=sys.stderr)
            _write_telemetry(engine, journal)
            if journal is not None:
                journal.finish("failed", stats=engine.stats.as_dict())
            return 2
        except RunInterrupted as stop:
            print(f"[engine: {stop}]", file=sys.stderr)
            _write_telemetry(engine, journal)
            if journal is not None:
                journal.finish(
                    "interrupted", stats=engine.stats.as_dict()
                )
                print(
                    f"[run {journal.run_id} interrupted — resume with "
                    f"--resume {journal.run_id} (or --resume last)]",
                    file=sys.stderr,
                )
            return 3
        failures = results.failures()
        for failure in failures:
            print(f"[engine: {failure.summary()}]", file=sys.stderr)
        # per-experiment stderr notes are buffered and flushed after
        # the tables: an --export run piping stdout must not get
        # stats lines interleaved mid-table (the notes land on
        # stderr in one block once stdout is complete)
        notes: List[str] = []
        for name in names:
            module = EXPERIMENTS[name]
            try:
                output = module.collect(config, plans[name], results)
                table = module.format_table(output)
                exported = (
                    _export(name, output, args.export,
                            Path(args.export_dir))
                    if args.export else None
                )
            except Exception:
                if not failures:
                    raise
                # a failed job leaves a hole this experiment needs;
                # the run still surfaces every other table
                # (degraded, exit 1)
                notes.append(
                    f"[{name}: table skipped — {len(failures)} job(s) "
                    "failed permanently]"
                )
                print()
                continue
            print(table)
            if exported is not None:
                notes.append(f"[{name}: rows exported to {exported}]")
            print()
        sys.stdout.flush()
        for note in notes:
            print(note, file=sys.stderr)
        # the legacy one-liner stays byte-compatible in every
        # telemetry mode (CI greps it); telemetry only adds lines
        print(f"[{engine.stats.format()}, {time.time() - started:.1f}s]",
              file=sys.stderr)
        _write_telemetry(engine, journal)
        degraded = engine.stats.degraded
        if journal is not None:
            journal.finish(
                "degraded" if degraded else "clean",
                stats=engine.stats.as_dict(),
            )
        return 1 if degraded else 0
    except KeyboardInterrupt:
        # second SIGINT: hard abort — the journal is deliberately left
        # unsealed (status 'running', dead pid → listed as 'crashed',
        # still resumable)
        print("[hard abort]", file=sys.stderr)
        return 130
    finally:
        shutdown.uninstall()
        if journal is not None:
            journal.close()


def _cross_check_resume(record, graph: JobGraph) -> None:
    """Warn when the resumed graph and the journal disagree.

    A code or config change between the runs shows up as hash drift;
    the resume still executes (whatever the cache can satisfy it will),
    but parity with the original run is no longer implied.
    """
    current = {job.job_hash for job in graph}
    journaled = set(record.scheduled)
    if current != journaled:
        missing = len(journaled - current)
        extra = len(current - journaled)
        print(
            f"[resume: job graph drifted since {record.run_id} "
            f"({missing} journaled job(s) no longer declared, {extra} "
            "new) — results may differ from the original run]",
            file=sys.stderr,
        )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
