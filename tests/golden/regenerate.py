"""Rewrite the golden corpus, or the named cases of it, from the current code.

Run only for a declared change to fixed-seed outputs, or to record a new
case, and list the regenerated files and the reason in CHANGES.md:

    PYTHONPATH=src python tests/golden/regenerate.py            # every case
    PYTHONPATH=src python tests/golden/regenerate.py NAME ...   # these cases only
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import GOLDEN, PRINTS, RUNS, run_case  # noqa: E402


def main(names: list[str]) -> None:
    cases = [*RUNS, *PRINTS]
    if unknown := [name for name in names if name not in cases]:
        sys.exit(f"unknown case(s): {', '.join(unknown)}; cases are {', '.join(cases)}")
    for name in names or cases:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(name, Path(tmp) / "out")
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        for path, data in files.items():
            (GOLDEN / name / path).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN / name / path).write_bytes(data)
        print(f"{name}: {len(files)} file(s)")


if __name__ == "__main__":
    main(sys.argv[1:])
