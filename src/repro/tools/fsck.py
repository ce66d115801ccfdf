"""``repro-fsck``: offline integrity sweep over the durable planes.

Walks the result cache and/or trace store and verifies every piece of
durable state the engine relies on:

* **trace-store entries** — full structural + payload-CRC replay of
  every ``??/*.trace`` file (the same check a replaying run performs,
  but over the whole store at once);
* **result-cache shards** — JSON shape, filename/content-hash match,
  and result decodability of every shard
  (:func:`repro.engine.cache.inspect_shard`);
* **run journals** — every ``runs/<run_id>/journal.jsonl`` parses to a
  valid prefix (a torn final line is normal crash evidence; mid-file
  damage is not); a crashed run is noted as resumable;
* **telemetry files** — ``metrics.json`` in run directories parses as
  JSON. Telemetry is derived observability data, never load-bearing
  state, so a torn or orphaned ``metrics.json`` is always a *note*
  (exit code 0), though ``--repair`` still quarantines an unparseable
  one so ``repro-report`` sees a clean directory;
* **stray temp files** — ``*.tmp.<pid>`` leftovers from writers that
  died between write and atomic rename.

``--repair`` routes findings through the same quarantine paths the
runtime uses (:func:`repro.engine.faults.quarantine_file`): corrupt
entries/shards are moved into ``quarantine/`` with reason files (the
next run regenerates them), damaged journals are quarantined and the
original truncated to its valid prefix, and stray temp files are
removed.

Exit code: ``0`` when the sweep found no damage (stale-version cache
shards and crashed-but-resumable runs are *reported* but are not
damage), ``1`` when damage was found and remains unrepaired, ``0``
again when ``--repair`` fixed everything it found.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.engine.cache import inspect_shard
from repro.engine.faults import QUARANTINE_DIR, quarantine_file
from repro.engine.journal import JOURNAL_NAME, RUNS_DIR, load_run
from repro.telemetry import METRICS_NAME
from repro.tracestore.codec import read_accesses


@dataclass
class Finding:
    """One problem (or notable state) the sweep turned up."""

    path: Path
    plane: str           #: trace / cache / journal / telemetry
    problem: str
    damage: bool = True  #: counts toward the exit code (notes don't)
    repaired: bool = False
    action: str = ""     #: what --repair did (or would do)

    def format(self) -> str:
        tag = "repaired" if self.repaired else (
            "note" if not self.damage else "DAMAGE"
        )
        text = f"[{tag}] {self.plane}: {self.path}: {self.problem}"
        if self.repaired and self.action:
            text += f" — {self.action}"
        return text


@dataclass
class Report:
    """Accumulated sweep results."""

    findings: List[Finding] = field(default_factory=list)
    checked: int = 0

    def add(self, finding: Finding) -> Finding:
        self.findings.append(finding)
        return finding

    @property
    def unrepaired(self) -> List[Finding]:
        return [f for f in self.findings
                if f.damage and not f.repaired]

    @property
    def damage_found(self) -> int:
        return sum(1 for f in self.findings if f.damage)


def _is_stray_tmp(path: Path) -> bool:
    parts = path.name.split(".tmp.")
    return len(parts) == 2 and parts[1].isdigit()


def _sweep_strays(root: Path, plane: str, report: Report,
                  repair: bool) -> None:
    """Temp files orphaned by a writer that died pre-rename."""
    for pattern in ("*.tmp.*", "??/*.tmp.*", f"{RUNS_DIR}/*/*.tmp.*"):
        for stray in sorted(root.glob(pattern)):
            if not _is_stray_tmp(stray):
                continue
            finding = report.add(Finding(
                stray, plane, "stray temp file (writer died pre-rename)",
                action="removed",
            ))
            if repair:
                try:
                    stray.unlink()
                    finding.repaired = True
                except OSError as error:
                    finding.action = f"unlink failed: {error}"


def fsck_trace_store(directory: Path, report: Report,
                     repair: bool) -> None:
    """Verify every store entry end to end (structure + payload CRC)."""
    for entry in sorted(directory.glob("??/*.trace")):
        report.checked += 1
        try:
            for _ in read_accesses(entry):
                pass
        except Exception as error:
            finding = report.add(Finding(
                entry, "trace", f"{type(error).__name__}: {error}",
                action="quarantined (next run regenerates from seed)",
            ))
            if repair:
                moved = quarantine_file(
                    entry, directory, f"fsck: {finding.problem}"
                )
                finding.repaired = moved is not None
    _sweep_strays(directory, "trace", report, repair)


def fsck_cache(directory: Path, report: Report, repair: bool) -> None:
    """Verify cache shards and run journals."""
    for shard in sorted(directory.glob("??/*.json")):
        report.checked += 1
        status, detail = inspect_shard(shard)
        if status == "corrupt":
            finding = report.add(Finding(
                shard, "cache", detail,
                action="quarantined (job re-executes on next run)",
            ))
            if repair:
                moved = quarantine_file(shard, directory, f"fsck: {detail}")
                finding.repaired = moved is not None
        elif status == "stale":
            report.add(Finding(shard, "cache", detail, damage=False))
    _fsck_journals(directory / RUNS_DIR, report, repair)
    _sweep_strays(directory, "cache", report, repair)


def _fsck_journals(runs: Path, report: Report, repair: bool) -> None:
    if not runs.is_dir():
        return
    for run_dir in sorted(p for p in runs.iterdir() if p.is_dir()):
        report.checked += 1
        journal_path = run_dir / JOURNAL_NAME
        if not journal_path.is_file():
            report.add(Finding(
                run_dir, "journal", f"no {JOURNAL_NAME} "
                "(run directory is unusable)",
                action="",  # nothing to rebuild from
            ))
            metrics_path = run_dir / METRICS_NAME
            if metrics_path.is_file():
                report.add(Finding(
                    metrics_path, "telemetry",
                    "orphaned (its run has no journal)", damage=False,
                ))
            continue
        record = load_run(run_dir)
        if record.damage is not None:
            where = (
                "torn final line (normal crash evidence)"
                if record.damage.torn_tail
                else f"damage at line {record.damage.line} — events after "
                "it are lost"
            )
            finding = report.add(Finding(
                journal_path, "journal",
                f"{record.damage.reason}; {where}",
                action="quarantined the damaged file, truncated the "
                f"original to its {record.valid_bytes}-byte valid prefix",
            ))
            if repair:
                finding.repaired = _repair_journal(record, journal_path)
        if record.status() == "crashed":
            report.add(Finding(
                journal_path, "journal",
                f"run {record.run_id} crashed "
                f"({len(record.completed)}/{len(record.scheduled)} jobs "
                "durable) — resumable with --resume",
                damage=False,
            ))
        _check_telemetry(run_dir, report, repair)


def _repair_journal(record, journal_path: Path) -> bool:
    try:
        raw = journal_path.read_bytes()
        moved = quarantine_file(
            journal_path, record.directory,
            f"fsck: journal damage at line {record.damage.line}: "
            f"{record.damage.reason}",
        )
        if moved is None:
            return False
        journal_path.write_bytes(raw[:record.valid_bytes])
        return True
    except OSError:
        return False


def _check_telemetry(run_dir: Path, report: Report, repair: bool) -> None:
    """Telemetry is derived data: a torn ``metrics.json`` (writer died
    mid-rename, disk full) is never damage — the journal remains the
    source of truth — but ``--repair`` quarantines an unparseable one so
    ``repro-report`` doesn't trip over it."""
    path = run_dir / METRICS_NAME
    if not path.is_file():
        return
    report.checked += 1
    try:
        json.loads(path.read_text())
    except (OSError, ValueError) as error:
        finding = report.add(Finding(
            path, "telemetry",
            f"unparseable ({type(error).__name__}); telemetry is "
            "derived data — the journal is unaffected",
            damage=False,
            action="quarantined",
        ))
        if repair:
            moved = quarantine_file(
                path, run_dir, f"fsck: unparseable {METRICS_NAME}"
            )
            finding.repaired = moved is not None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fsck",
        description="Offline integrity sweep over trace-store entries, "
        "result-cache shards, and run journals.",
    )
    parser.add_argument(
        "--cache-dir", action="append", default=[], metavar="DIR",
        help="result-cache directory to sweep (shards and runs/ "
        "journals); repeatable",
    )
    parser.add_argument(
        "--trace-store", action="append", default=[], metavar="DIR",
        help="trace-store directory to sweep; repeatable",
    )
    parser.add_argument(
        "--repair", action="store_true",
        help="route damage through the quarantine paths (corrupt "
        "entries moved aside with reason files, journals truncated to "
        "their valid prefix, strays removed)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="print only the summary line (findings still set the "
        "exit code)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.cache_dir and not args.trace_store:
        build_parser().error(
            "nothing to check: pass --cache-dir and/or --trace-store"
        )
    report = Report()
    for directory in args.trace_store:
        path = Path(directory)
        if not path.is_dir():
            print(f"[fsck] trace store {path}: no such directory",
                  file=sys.stderr)
            return 2
        fsck_trace_store(path, report, args.repair)
    for directory in args.cache_dir:
        path = Path(directory)
        if not path.is_dir():
            print(f"[fsck] cache {path}: no such directory",
                  file=sys.stderr)
            return 2
        fsck_cache(path, report, args.repair)
    if not args.quiet:
        for finding in report.findings:
            print(finding.format())
    repaired = sum(1 for f in report.findings if f.repaired)
    print(
        f"[fsck] {report.checked} object(s) checked, "
        f"{report.damage_found} damaged, {repaired} repaired"
        + (f" (quarantine evidence under {QUARANTINE_DIR}/)"
           if repaired else "")
    )
    return 1 if report.unrepaired else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
