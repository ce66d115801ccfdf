"""Doc sanity as a tier-1 test: docs code blocks and examples must run."""

import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_check_docs_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_missing_documents_and_modules_are_found(tmp_path):
    check_docs = runpy.run_path(str(ROOT / "tools" / "check_docs.py"))
    # built from parts so this file names no document itself
    missing = "NOTES." + "md"
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text(f'"""See {missing}."""\n')
    assert check_docs["dangling_doc_references"](tmp_path) == [
        ("src/m.py", missing)
    ]
    doc = tmp_path / "arch.txt"
    doc.write_text(
        "## Paper mapping\n\n| Module | Artifact |\n|---|---|\n"
        "| `sim/driver.py` + `sim/gone.py` | Fig. 9 |\n\n## Next\n"
        "| `sim/later.py` | not in the table |\n"
    )
    assert check_docs["paper_mapping_modules"](doc) == [
        "sim/driver.py", "sim/gone.py"
    ]
