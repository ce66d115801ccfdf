#!/usr/bin/env python
"""Durability smoke check: crash → resume must be bit-identical.

The crash-at-any-point contract, asserted end to end with real process
death (the ``kill_at_job`` injector calls ``os._exit`` — no cleanup, no
journal sealing, a faithful SIGKILL stand-in):

1. a **clean** run of the reference fig9 sweep exports its rows;
2. the same sweep on a fresh cache is **killed** at a deterministic job
   dispatch (``REPRO_FAULT_INJECT=kill_at_job@index=N``) — the process
   dies with exit 86 and an unsealed journal;
3. ``--resume last`` finishes the run: the journal shows which jobs are
   already durable, only the remainder re-executes, and the exported
   rows must equal the clean run's **byte for byte**;
4. ``--list-runs`` shows the killed run as ``crashed → resumed by
   <new run id>`` — a link derived from the new run's journal header,
   with no file besides the journal recording it;
5. ``repro-fsck`` over the crashed-and-resumed cache and trace store
   must find no damage (the torn state a crash leaves behind is either
   valid or detected).

Both serial and ``--jobs 2`` engines are exercised. Used by CI; also
runnable by hand::

    python benchmarks/durability_smoke.py
    python benchmarks/durability_smoke.py --length 20000 --kill-index 7
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.engine.faultinject import ENV_VAR, KILL_EXIT_CODE  # noqa: E402
from repro.engine.journal import list_runs, load_run, runs_root  # noqa: E402


def runner_cmd(*extra: str) -> "list[str]":
    return [sys.executable, "-m", "repro.experiments", *extra]


def run(cmd: "list[str]", env_extra: "dict[str, str] | None" = None,
        check: "int | None" = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(ENV_VAR, None)
    env.update(env_extra or {})
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if check is not None and proc.returncode != check:
        raise AssertionError(
            f"{' '.join(cmd)} exited {proc.returncode} (wanted {check})\n"
            f"stderr:\n{proc.stderr}"
        )
    return proc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=8_000,
                        help="trace length per workload (default: 8k)")
    parser.add_argument("--workloads", nargs="+",
                        default=["apache", "em3d"],
                        help="workload subset — two trace keys, so the "
                        "kill lands after one fan-out group completed "
                        "(default: apache em3d)")
    parser.add_argument("--kill-index", type=int, default=5,
                        help="1-based job dispatch the injected kill "
                        "fires at (default: 5)")
    args = parser.parse_args(argv)

    failures: "list[str]" = []
    with tempfile.TemporaryDirectory(prefix="repro-durab-") as tmp:
        tmp_path = Path(tmp)
        traces = str(tmp_path / "traces")
        sweep = [
            "fig9", "--small", "--workloads", *args.workloads,
            "--length", str(args.length), "--trace-store", traces,
        ]

        clean_out = tmp_path / "clean-out"
        run(runner_cmd(
            *sweep, "--cache-dir", str(tmp_path / "clean-cache"),
            "--export", "json", "--export-dir", str(clean_out),
        ))
        baseline = (clean_out / "fig9.json").read_bytes()
        print(f"[clean    ] exported {len(baseline)} bytes")

        for jobs in (1, 2):
            mode = f"jobs={jobs}"
            cache = str(tmp_path / f"cache-{jobs}")
            if jobs > 1:
                # the parallel supervisor dispatches its whole batch up
                # front (a mid-batch kill finds nothing durable yet), so
                # pre-warm half the sweep: the crash then lands on a run
                # with prior durable state, which resume must honor
                run(runner_cmd(
                    "fig9", "--small", "--workloads", args.workloads[0],
                    "--length", str(args.length), "--trace-store", traces,
                    "--cache-dir", cache,
                ))
                kill_index = 2
            else:
                kill_index = args.kill_index
            killed = run(
                runner_cmd(*sweep, "--cache-dir", cache, "--jobs",
                           str(jobs)),
                env_extra={ENV_VAR: f"kill_at_job@index={kill_index}"},
                check=None,
            )
            if killed.returncode != KILL_EXIT_CODE:
                failures.append(
                    f"{mode}: injected kill exited {killed.returncode}, "
                    f"expected {KILL_EXIT_CODE}\n{killed.stderr}"
                )
                continue
            crashed = [r for r in
                       (load_run(p) for p in
                        sorted(runs_root(cache).iterdir()))
                       if r.status() == "crashed"]
            if len(crashed) != 1:
                failures.append(
                    f"{mode}: expected exactly one crashed run, found "
                    f"{len(crashed)}"
                )
                continue
            record = crashed[0]
            durable = len(record.completed)
            scheduled = len(record.scheduled)
            print(f"[{mode:<9}] killed at dispatch {kill_index}: "
                  f"{durable}/{scheduled} jobs journaled durable")
            if not 0 < durable < scheduled:
                failures.append(
                    f"{mode}: expected a partial journal, got "
                    f"{durable}/{scheduled}"
                )
            resume_out = tmp_path / f"resume-out-{jobs}"
            resumed = run(runner_cmd(
                *sweep, "--cache-dir", cache, "--jobs", str(jobs),
                "--resume", "last",
                "--export", "json", "--export-dir", str(resume_out),
            ))
            if "[resume" not in resumed.stderr:
                failures.append(f"{mode}: resume banner missing")
            recovered = (resume_out / "fig9.json").read_bytes()
            if recovered != baseline:
                failures.append(
                    f"{mode}: resumed export differs from the clean run"
                )
            else:
                print(f"[{mode:<9}] resumed export bit-identical "
                      f"({len(recovered)} bytes)")
            successor = next(
                (r.run_id for r in list_runs(runs_root(cache))
                 if r.header.get("resumed_from") == record.run_id),
                None,
            )
            listing = run(runner_cmd("--list-runs", "--cache-dir", cache))
            link = f"crashed → resumed by {successor}"
            if successor is None or not any(
                line.startswith(record.run_id) and link in line
                for line in listing.stdout.splitlines()
            ):
                failures.append(
                    f"{mode}: --list-runs lacks '{record.run_id} ... "
                    f"{link}'\n{listing.stdout}"
                )
            else:
                print(f"[{mode:<9}] --list-runs: {record.run_id} {link}")
            stale = sorted(runs_root(cache).glob("*/manifest.json"))
            if stale:
                failures.append(
                    f"{mode}: run directories hold a second record: "
                    f"{', '.join(map(str, stale))}"
                )
            fsck = run(
                [sys.executable, "-m", "repro.tools.fsck",
                 "--cache-dir", cache, "--trace-store", traces, "--quiet"],
                check=None,
            )
            if fsck.returncode != 0:
                failures.append(
                    f"{mode}: post-resume fsck found damage\n{fsck.stdout}"
                )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: crash → resume reproduced the clean run bit-for-bit "
          "(serial and jobs=2), fsck clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
