#!/usr/bin/env python
"""Peak-RSS smoke check: streaming keeps memory flat as traces grow.

Runs one driver + timing job (the paper's most demanding single-trace
pipeline: coverage classification feeding the incremental ROB/MLP
model) at a short and a long trace length, each in a fresh subprocess,
and compares peak RSS. Under streaming execution the long run must stay
within ``--ratio`` of the short one — peak memory independent of trace
length.

Used by CI; also runnable by hand::

    python benchmarks/memory_smoke.py
    python benchmarks/memory_smoke.py --length 4000000 --ratio 1.5
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_CHILD = """
import json, resource, sys
sys.path.insert(0, {src!r})
from repro.engine import execute_job
from repro.experiments.config import ExperimentConfig

cfg = ExperimentConfig()
cfg.trace_length = {length}
result = execute_job(cfg.timing_job({workload!r}, "stride"))
print(json.dumps({{
    "cycles": result.cycles,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}}))
"""


def measure(workload: str, length: int) -> dict:
    """Run one timing job in a fresh interpreter; return its report."""
    code = _CHILD.format(src=str(SRC), length=length, workload=workload)
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="db2")
    parser.add_argument("--length", type=int, default=1_000_000,
                        help="long-trace access count (default: 1M)")
    parser.add_argument("--baseline-length", type=int, default=125_000,
                        help="short-trace access count (default: 125k)")
    parser.add_argument("--ratio", type=float, default=1.5,
                        help="max allowed long/short peak-RSS ratio")
    args = parser.parse_args(argv)

    short = measure(args.workload, args.baseline_length)
    long_ = measure(args.workload, args.length)
    ratio = long_["peak_rss_kb"] / max(1, short["peak_rss_kb"])
    print(
        f"[streaming] {args.workload}: "
        f"{args.baseline_length} accesses -> {short['peak_rss_kb']} kB peak, "
        f"{args.length} accesses -> {long_['peak_rss_kb']} kB peak "
        f"(ratio {ratio:.2f}, limit {args.ratio:.2f})"
    )
    if ratio > args.ratio:
        print(
            f"FAIL: peak RSS grew {ratio:.2f}x over a "
            f"{args.length / args.baseline_length:.0f}x longer trace",
            file=sys.stderr,
        )
        return 1
    print("OK: peak memory is independent of trace length")
    return 0


if __name__ == "__main__":
    sys.exit(main())
