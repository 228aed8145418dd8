"""Rewrite the golden corpus from the current code.

Run only for a declared change to fixed-seed outputs, and list the
regenerated files and the reason in CHANGES.md:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import GOLDEN, PRINTS, RUNS, run_case  # noqa: E402


def main() -> None:
    for name in [*RUNS, *PRINTS]:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(name, Path(tmp) / "out")
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        for path, data in files.items():
            (GOLDEN / name / path).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN / name / path).write_bytes(data)
        print(f"{name}: {len(files)} file(s)")


if __name__ == "__main__":
    main()
