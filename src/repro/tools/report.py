"""``repro-report``: render a human summary of one journaled run.

Reads the run directory's two artifacts — the write-ahead journal
(status, job lifecycle, timestamps) and the telemetry plane's
``metrics.json`` (counters, phase timers, per-job spans) — and prints a
run report: header, job outcomes, a per-kind throughput table, fault
counters, the slowest jobs, and the hot-path phase breakdown.

Degrades gracefully: a crashed run has no ``metrics.json`` (it is
written at run end), so the report falls back to the journal alone —
job counts and wall times come from the journal's per-event ``t``
timestamps and the summary says so. A resumed run names the run that
superseded it (and vice versa), linked through the resuming run's
journal header.

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
from typing import Any, Dict, List, Optional

from repro.engine.journal import (
    JOURNAL_NAME,
    JournalError,
    RunRecord,
    find_run,
    read_journal,
    runs_root,
)
from repro.telemetry import METRICS_NAME, PHASES

#: fault counters rendered in the faults section, display order (matches
#: the ``EngineStats.degraded`` contract)
FAULT_COUNTERS = (
    "retries", "requeued", "timeouts", "pool_respawns", "quarantined",
    "cache_corrupt", "replay_fallbacks", "isolation_fallbacks",
    "serial_fallbacks", "broadcast_fallbacks", "failures",
)

SLOWEST = 5


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


def _job_timings(events: List[Dict[str, Any]]) -> Dict[str, float]:
    """Journal-derived wall seconds per completed job (first dispatch →
    completion), for runs without telemetry spans. Journals from before
    per-event ``t`` timestamps yield nothing — callers must tolerate an
    empty dict."""
    first_dispatch: Dict[str, float] = {}
    walls: Dict[str, float] = {}
    for event in events:
        t = event.get("t")
        if not isinstance(t, (int, float)):
            continue
        job = str(event.get("job"))
        kind = event.get("event")
        if kind == "attempt_started":
            first_dispatch.setdefault(job, float(t))
        elif kind == "job_completed" and job in first_dispatch:
            walls[job] = float(t) - first_dispatch[job]
    return walls


def build_report(record: RunRecord, events: List[Dict[str, Any]],
                 metrics: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Everything the renderer needs, as one JSON-able dict."""
    counters: Dict[str, Any] = (metrics or {}).get("counters", {})
    spans: List[Dict[str, Any]] = (metrics or {}).get("spans", [])
    final_stats: Optional[Dict[str, Any]] = None
    for event in events:
        if event.get("event") == "run_finished":
            stats = event.get("stats")
            if isinstance(stats, dict):
                final_stats = stats

    def engine_counter(name: str) -> int:
        if counters:
            return int(counters.get("engine." + name, 0))
        if final_stats is not None:
            return int(final_stats.get(name, 0))
        return 0

    kind_of = {
        job_hash: str(describe.get("kind", "?"))
        for job_hash, describe in record.scheduled.items()
    }
    kinds: Dict[str, Dict[str, Any]] = {}

    def kind_row(kind: str) -> Dict[str, Any]:
        return kinds.setdefault(kind, {
            "jobs": 0, "completed": 0, "cached": 0, "failed": 0,
            "retries": 0, "accesses": 0, "wall_s": 0.0,
        })

    for job_hash in record.scheduled:
        row = kind_row(kind_of[job_hash])
        row["jobs"] += 1
        if record.completed.get(job_hash) == "cache":
            row["cached"] += 1
        elif job_hash in record.completed:
            row["completed"] += 1
        if job_hash in record.failed:
            row["failed"] += 1
        row["retries"] += max(0, record.attempts.get(job_hash, 1) - 1)
    for name, value in counters.items():
        if name.startswith("walk.accesses."):
            kind_row(name[len("walk.accesses."):])["accesses"] += int(value)

    # wall time per kind: telemetry spans when present, else the
    # journal's per-event timestamps
    timed_source = "spans" if spans else "journal"
    if spans:
        for span in spans:
            if span.get("status") == "ok" and span.get("wall_s"):
                kind_row(str(span.get("kind", "?")))["wall_s"] += float(
                    span["wall_s"]
                )
    else:
        for job_hash, wall in _job_timings(events).items():
            kind_row(kind_of.get(job_hash, "?"))["wall_s"] += wall
    for row in kinds.values():
        wall = row["wall_s"]
        row["wall_s"] = round(wall, 3)
        row["accesses_per_second"] = (
            round(row["accesses"] / wall, 1)
            if wall > 0 and row["accesses"] else None
        )

    # slowest jobs: spans when present, else journal timings
    slowest: List[Dict[str, Any]] = []
    if spans:
        closed = [s for s in spans if s.get("wall_s")]
        closed.sort(key=lambda s: -float(s["wall_s"]))
        slowest = [
            {
                "label": s.get("label"),
                "kind": s.get("kind"),
                "worker": s.get("worker"),
                "attempt": s.get("attempt"),
                "status": s.get("status"),
                "wall_s": round(float(s["wall_s"]), 3),
            }
            for s in closed[:SLOWEST]
        ]
    else:
        timings = sorted(
            _job_timings(events).items(), key=lambda item: -item[1]
        )
        slowest = [
            {
                "label": record.labels.get(job_hash, job_hash[:12]),
                "kind": kind_of.get(job_hash, "?"),
                "worker": None,
                "attempt": record.attempts.get(job_hash, 1),
                "status": "ok",
                "wall_s": round(wall, 3),
            }
            for job_hash, wall in timings[:SLOWEST]
        ]

    phases = {}
    for phase in PHASES:
        seconds = counters.get(f"phase.{phase}.seconds")
        if seconds:
            phases[phase] = {
                "seconds": round(float(seconds), 3),
                "calls": int(counters.get(f"phase.{phase}.calls", 0)),
            }

    status = record.status()
    resumed_from = record.header.get("resumed_from")
    faults = {
        name: engine_counter(name)
        for name in FAULT_COUNTERS
        if engine_counter(name)
    }
    return {
        "run": record.run_id,
        "status": status,
        "started": record.started or None,
        "experiments": record.header.get("experiments") or [],
        "argv": record.header.get("argv"),
        "resumed_by": record.resumed_by,
        "resumed_from": resumed_from,
        "telemetry": metrics is not None,
        "timings_from": timed_source,
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
            "retries": engine_counter("retries"),
        },
        "kinds": kinds,
        "faults": faults,
        "slowest": slowest,
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
            "or REPRO_TELEMETRY=off) — journal-only summary"
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
        lines.append(f"(wall times from {report['timings_from']})")

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
            worker = f" [{entry['worker']}]" if entry.get("worker") else ""
            lines.append(
                f"  {entry['wall_s']:>8.2f}s  {entry['label']} "
                f"({entry['kind']}, attempt {entry['attempt']}, "
                f"{entry['status']}){worker}"
            )

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
