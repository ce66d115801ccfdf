#!/usr/bin/env python
"""Doc-sanity check: documentation code must actually run.

Guarantees, enforced in CI and by ``tests/test_docs.py``:

1. every fenced ``python`` code block in ``README.md`` and ``docs/*.md``
   executes cleanly (fresh interpreter per block, ``src/`` on the path);
2. every example and source module byte-compiles
   (``python -m compileall``);
3. every ``*.md`` file named in ``src/``, ``tests/``, ``benchmarks/`` or
   ``examples/`` exists (paths resolve against the repository root);
4. every module path in the "Paper mapping" table of
   ``docs/ARCHITECTURE.md`` exists under ``src/repro/``.

Console blocks (``$ ...``) are not executed — they document CLI usage —
but doc drift there is caught separately: every ``--flag`` mentioned in
a console block must exist in the experiments CLI parser.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)
MD_NAME = re.compile(r"[\w./-]*\w\.md\b")
CODE_DIRS = ("src", "tests", "benchmarks", "examples")


def doc_files() -> list:
    files = [ROOT / "README.md"]
    files.extend(sorted((ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def python_blocks(path: Path) -> list:
    return [
        body
        for language, body in FENCE.findall(path.read_text())
        if language == "python"
    ]


def console_flags(path: Path) -> set:
    """CLI long flags referenced by console/shell blocks in ``path``."""
    flags = set()
    for language, body in FENCE.findall(path.read_text()):
        if language not in ("console", "sh", "bash", "shell"):
            continue
        for line in body.splitlines():
            if "repro.experiments" not in line and "repro-experiments" not in line:
                continue
            flags.update(re.findall(r"(--[a-z][a-z-]*)", line))
    return flags


def run_block(source: str, label: str) -> bool:
    result = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        cwd=ROOT,
    )
    if result.returncode != 0:
        print(f"FAIL {label}:\n{result.stderr}", file=sys.stderr)
        return False
    print(f"ok   {label}")
    return True


def dangling_doc_references(root: Path = ROOT) -> list:
    """``(file, name)`` for every ``*.md`` named in code that is missing."""
    missing = []
    for top in CODE_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            for name in sorted(set(MD_NAME.findall(path.read_text()))):
                if not (root / name).exists():
                    missing.append((str(path.relative_to(root)), name))
    return missing


def paper_mapping_modules(doc: Path) -> list:
    """Module paths in the first column of ``doc``'s paper-mapping table."""
    section = doc.read_text().split("## Paper mapping", 1)[1]
    section = section.split("\n## ", 1)[0]
    modules = []
    for line in section.splitlines():
        if line.startswith("|"):
            modules.extend(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return modules


def known_cli_flags() -> set:
    sys.path.insert(0, str(SRC))
    from repro.experiments.runner import build_parser

    flags = set()
    for action in build_parser()._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
    return flags


def main() -> int:
    ok = True

    # 1. fenced python blocks execute
    for path in doc_files():
        for i, block in enumerate(python_blocks(path), 1):
            ok &= run_block(block, f"{path.relative_to(ROOT)} python block {i}")

    # 2. examples and sources byte-compile
    for target in ("examples", "src"):
        result = subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / target)],
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            print(f"FAIL compileall {target}:\n{result.stderr}", file=sys.stderr)
            ok = False
        else:
            print(f"ok   compileall {target}")

    # 3. markdown files named in code exist
    missing = dangling_doc_references()
    for path, name in missing:
        print(f"FAIL {path} names missing document {name}", file=sys.stderr)
    if missing:
        ok = False
    else:
        print("ok   documents named in code exist")

    # 4. every module in the paper-mapping table exists
    modules = paper_mapping_modules(ROOT / "docs" / "ARCHITECTURE.md")
    absent = [m for m in modules if not (SRC / "repro" / m).exists()]
    if absent or not modules:
        print(
            f"FAIL docs/ARCHITECTURE.md paper mapping names modules "
            f"missing under src/repro/: {absent or 'no table rows found'}",
            file=sys.stderr,
        )
        ok = False
    else:
        print(f"ok   {len(modules)} paper-mapping modules exist")

    # 5. documented CLI flags exist
    known = known_cli_flags()
    for path in doc_files():
        unknown = console_flags(path) - known
        if unknown:
            print(
                f"FAIL {path.relative_to(ROOT)}: console blocks reference "
                f"unknown experiment CLI flags: {sorted(unknown)}",
                file=sys.stderr,
            )
            ok = False
        else:
            print(f"ok   CLI flags in {path.relative_to(ROOT)}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
