"""``repro-report``: render a human summary of one journaled run.

The run journal is the one record of a run's jobs: status, job
outcomes, a per-kind throughput table (jobs, accesses, wall, acc/s),
the slowest jobs with the worker each ran on, each broadcast wave's
bundle loads and the fault counters all come from ``journal.jsonl``
alone — every executed job's
``job_completed`` event carries its worker and wall seconds, and the
sealing ``run_finished`` event the engine's stats. The telemetry
plane's ``metrics.json`` adds only the hot-path phase table.

A crashed run therefore reports everything its journal reached except
the phases (``metrics.json`` is written at run end). A resumed run
names the run that superseded it (and vice versa), linked through the
resuming run's journal header.

Usage::

    repro-report                      # the most recent run
    repro-report <run_id>
    repro-report last --cache-dir .ci-cache
    repro-report <run_id> --json      # the raw report dict
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.engine import FAULT_COUNTERS
from repro.engine.journal import (
    JOURNAL_NAME,
    JournalError,
    RunRecord,
    find_run,
    read_journal,
    runs_root,
)
from repro.telemetry import METRICS_NAME, PHASES

SLOWEST = 5
TRACE_KEY = ("workload", "length", "seed")


def load_metrics(directory: Path) -> Optional[Dict[str, Any]]:
    """The run's ``metrics.json``, or None (absent/unparseable — a
    crashed run never wrote one; fsck quarantines torn ones)."""
    path = directory / METRICS_NAME
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def build_report(record: RunRecord, events: List[Dict[str, Any]],
                 metrics: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Everything the renderer needs, as one JSON-able dict."""
    final_stats: Dict[str, Any] = {}
    ran: Dict[str, Tuple[str, float]] = {}  # job hash → (worker, wall_s)
    for event in events:
        if event.get("event") == "job_completed" and "worker" in event:
            ran[str(event.get("job"))] = (
                str(event["worker"]), float(event.get("wall_s") or 0.0)
            )
        elif event.get("event") == "run_finished":
            stats = event.get("stats")
            if isinstance(stats, dict):
                final_stats = stats

    kind_of = {
        job_hash: str(describe.get("kind", "?"))
        for job_hash, describe in record.scheduled.items()
    }
    kinds: Dict[str, Dict[str, Any]] = {}
    for job_hash, describe in record.scheduled.items():
        row = kinds.setdefault(kind_of[job_hash], {
            "jobs": 0, "completed": 0, "cached": 0, "failed": 0,
            "retries": 0, "accesses": 0, "wall_s": 0.0,
        })
        row["jobs"] += 1
        source = record.completed.get(job_hash)
        if source == "cache":
            row["cached"] += 1
        elif source is not None:
            row["completed"] += 1
            row["accesses"] += int(describe.get("length", 0))
            if job_hash in ran:
                row["wall_s"] += ran[job_hash][1]
        if job_hash in record.failed:
            row["failed"] += 1
        row["retries"] += max(0, record.attempts.get(job_hash, 1) - 1)
    for row in kinds.values():
        wall = row["wall_s"]
        row["wall_s"] = round(wall, 3)
        row["accesses_per_second"] = (
            round(row["accesses"] / wall, 1)
            if wall > 0 and row["accesses"] else None
        )

    slowest = [
        {
            "label": record.labels.get(job_hash, job_hash[:12]),
            "kind": kind_of.get(job_hash, "?"),
            "worker": worker,
            "attempt": record.attempts.get(job_hash, 1),
            "wall_s": round(wall, 3),
        }
        for job_hash, (worker, wall) in sorted(
            ran.items(), key=lambda item: -item[1][1]
        )[:SLOWEST]
    ]

    # trace key → bundle → its jobs' walls (bundle-<n> repeats per wave)
    waves: Dict[Tuple, Dict[str, List[float]]] = {}
    for job_hash, (worker, wall) in ran.items():
        describe = record.scheduled.get(job_hash)
        if describe is not None and worker.startswith("bundle-"):
            key = tuple(describe.get(field) for field in TRACE_KEY)
            waves.setdefault(key, {}).setdefault(worker, []).append(wall)

    counters: Dict[str, Any] = (metrics or {}).get("counters", {})
    phases = {}
    for phase in PHASES:
        seconds = counters.get(f"phase.{phase}.seconds")
        if seconds:
            phases[phase] = {
                "seconds": round(float(seconds), 3),
                "calls": int(counters.get(f"phase.{phase}.calls", 0)),
            }

    faults = {
        name: int(final_stats[name])
        for name in FAULT_COUNTERS
        if final_stats.get(name)
    }
    return {
        "run": record.run_id,
        "status": record.status(),
        "started": record.started or None,
        "experiments": record.header.get("experiments") or [],
        "argv": record.header.get("argv"),
        "resumed_by": record.resumed_by,
        "resumed_from": record.header.get("resumed_from"),
        "telemetry": metrics is not None,
        "jobs": {
            "scheduled": len(record.scheduled),
            "completed": sum(
                1 for source in record.completed.values()
                if source != "cache"
            ),
            "from_cache": sum(
                1 for source in record.completed.values()
                if source == "cache"
            ),
            "failed": len(record.failed),
            "incomplete": len(record.incomplete()),
            "retries": int(final_stats.get("retries", 0)),
        },
        "kinds": kinds,
        "faults": faults,
        "slowest": slowest,
        "waves": [dict(zip(TRACE_KEY, key), bundles=[
            {"worker": worker, "jobs": len(walls), "wall_s": round(sum(walls), 3)}
            for worker, walls in sorted(  # bundle-2 before bundle-10
                bundles.items(), key=lambda item: (len(item[0]), item[0]))
        ]) for key, bundles in sorted(waves.items(), key=str)],
        "phases": phases,
        "journal_damage": (
            {"line": record.damage.line, "reason": record.damage.reason,
             "torn_tail": record.damage.torn_tail}
            if record.damage else None
        ),
    }


def render(report: Dict[str, Any]) -> str:
    """The human-readable report text."""
    lines: List[str] = []
    title = f"run {report['run']} — {report['status']}"
    if report.get("resumed_by"):
        title += f" (resumed by {report['resumed_by']})"
    if report.get("resumed_from"):
        title += f" (resumed from {report['resumed_from']})"
    lines.append(title)
    lines.append("=" * len(title))
    if report.get("started"):
        lines.append(f"started      {report['started']}")
    if report.get("experiments"):
        lines.append(f"experiments  {' '.join(report['experiments'])}")
    if report.get("argv"):
        lines.append(f"argv         {' '.join(report['argv'])}")
    if not report["telemetry"]:
        lines.append(
            "telemetry    no metrics.json (run crashed before writing it, "
            "or REPRO_TELEMETRY=off) — no phase breakdown"
        )
    if report.get("journal_damage"):
        damage = report["journal_damage"]
        shape = "torn tail" if damage["torn_tail"] else "mid-file damage"
        lines.append(
            f"journal      {shape} at line {damage['line']} "
            f"({damage['reason']}); valid prefix used"
        )

    jobs = report["jobs"]
    lines.append("")
    lines.append(
        f"jobs         {jobs['scheduled']} scheduled, "
        f"{jobs['completed']} simulated, {jobs['from_cache']} from cache, "
        f"{jobs['failed']} failed, {jobs['incomplete']} incomplete, "
        f"{jobs['retries']} retries"
    )

    if report["kinds"]:
        lines.append("")
        header = (
            f"{'kind':<12} {'jobs':>5} {'done':>5} {'cache':>5} "
            f"{'fail':>5} {'accesses':>10} {'wall s':>8} {'acc/s':>12}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for kind in sorted(report["kinds"]):
            row = report["kinds"][kind]
            rate = row.get("accesses_per_second")
            lines.append(
                f"{kind:<12} {row['jobs']:>5} {row['completed']:>5} "
                f"{row['cached']:>5} {row['failed']:>5} "
                f"{row['accesses']:>10} {row['wall_s']:>8.2f} "
                f"{rate if rate is not None else '-':>12}"
            )
        lines.append(
            "(wall s: each executed job's own walk and finalize time; a "
            "shared baseline replay's time is split across its jobs)"
        )

    if report["faults"]:
        lines.append("")
        lines.append("faults: " + ", ".join(
            f"{value} {name.replace('_', ' ')}"
            for name, value in report["faults"].items()
        ))

    if report["slowest"]:
        lines.append("")
        lines.append("slowest jobs:")
        for entry in report["slowest"]:
            lines.append(
                f"  {entry['wall_s']:>8.2f}s  {entry['label']} "
                f"({entry['kind']}, attempt {entry['attempt']}) "
                f"[{entry['worker']}]"
            )

    if report["waves"]:
        lines.append("")
        lines.append("broadcast waves (per bundle: jobs, summed wall s):")
        for wave in report["waves"]:
            lines.append(f"  {wave['workload']} {wave['length']} "
                         f"{wave['seed']}: " + ", ".join(
                             f"{b['worker']} {b['jobs']} jobs "
                             f"{b['wall_s']:.2f}s" for b in wave["bundles"]))

    if report["phases"]:
        lines.append("")
        lines.append("phase breakdown (in-worker hot-path time):")
        total = sum(p["seconds"] for p in report["phases"].values())
        for phase, data in report["phases"].items():
            share = (100.0 * data["seconds"] / total) if total else 0.0
            lines.append(
                f"  {phase:<14} {data['seconds']:>8.2f}s "
                f"({share:>4.1f}%)  {data['calls']} calls"
            )
        lines.append(
            "  (phases overlap: the pre-pass runs inside a chunk's "
            "walk step)"
        )
    return "\n".join(lines)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "run", nargs="?", default="last",
        help="run id under <cache-dir>/runs/, or 'last' (default)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="result cache whose runs/ directory holds the journals "
        "(default: .repro-cache)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the raw report dict as JSON instead of the table",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    root = runs_root(args.cache_dir)
    try:
        record = find_run(root, args.run)
    except JournalError as error:
        print(f"repro-report: {error}", file=sys.stderr)
        return 2
    events, _, _ = read_journal(record.directory / JOURNAL_NAME)
    metrics = load_metrics(record.directory)
    report = build_report(record, events, metrics)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render(report))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
