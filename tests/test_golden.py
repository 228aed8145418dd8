"""Golden corpus: fixed-seed CLI outputs must stay byte-identical.

Each case re-runs one CLI call in-process and compares every file it writes
(or, for the ``qubo`` calls, its stdout) with the copy under ``golden/``.
Only a declared change to fixed-seed outputs regenerates the corpus, with
``python tests/golden/regenerate.py``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from cimopt.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MODEL = GOLDEN / "model.json"  # the model CI's smoke test converts
# fjsp-scale's instance for bench seed 530, task 0, second ladder point:
# bench/gen.ladder_instance(default_rng([530, 0]), 10, 6, ...) after the 8x5 point
LADDER = GOLDEN / "ladder-530-0-10x6.json"

# name -> CLI arguments; run cases write --deterministic-output directories
RUNS = {
    "fjsp-i2-s300-seed3": ["fjsp", "-i", "2", "--sweeps", "300", "--seed", "3"],
    "fjsp-i1-s100-quantize-literal-seed5": [
        "fjsp", "-i", "1", "--sweeps", "100", "--quantize", "--h3", "paper-literal", "--seed", "5",
    ],
    "peptide-i2-s200-seed1": ["peptide", "-i", "2", "--sweeps", "200", "--seed", "1"],
    # ends violation-free, so a change to the one-hot anneal shows in its compositions
    "peptide-w1000-i3-s300-seed1": ["peptide", "--weights", "1000,1", "-i", "3", "--sweeps", "300", "--seed", "1"],
    # the int8 path at n = 260: the field resync widens its couplings in
    # chunks of rows, and 300 sweeps cross the resync after sweep 256
    "peptide-quantize-w1000-i3-s300-seed1": [
        "peptide", "--quantize", "--weights", "1000,1", "-i", "3", "--sweeps", "300", "--seed", "1",
    ],
    "peptide-count-i1-s100-seed2": ["peptide", "--encoding", "count", "-i", "1", "--sweeps", "100", "--seed", "2"],
    "fjsp-i2-s200-seed4-flip005": [
        "fjsp", "-i", "2", "--sweeps", "200", "--seed", "4", "--readout-flip-prob", "0.05",
    ],
    # the bench-scale int8 path: n = 2,726 in 171 blocks a sweep, couplings
    # widened in 86 chunks of rows; exits 2 with no feasible incumbent
    "fjsp-ladder530-quantize-i1-s50-seed9": [
        "fjsp", "--instance", str(LADDER), "--quantize", "-i", "1", "--sweeps", "50", "--seed", "9",
    ],
}
# name -> CLI arguments whose stdout is the output
PRINTS = {
    "qubo-to-ising-negated": ["qubo", "to-ising", str(MODEL), "--convention", "negated_sum"],
    "qubo-quantize": ["qubo", "quantize", str(MODEL)],
}


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def run_case(name: str, out: Path) -> dict[str, bytes]:
    """Run one case; return its output files by path relative to ``out``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        if name in RUNS:
            main([*RUNS[name], "--deterministic-output", "--out", str(out)])
            return read_tree(out)
        assert main(PRINTS[name]) == 0
    return {"stdout.txt": stdout.getvalue().encode()}


def first_difference(name: str, got: dict[str, bytes], want: dict[str, bytes]) -> str | None:
    """Where ``got`` first departs from ``want``: a file set, or a file and line."""
    if got.keys() != want.keys():
        return f"{name}: files {sorted(got)} != golden {sorted(want)}"
    for path in sorted(want):
        if got[path] == want[path]:
            continue
        got_lines, want_lines = got[path].splitlines(), want[path].splitlines()
        for line, (a, b) in enumerate(zip(got_lines, want_lines), 1):
            if a != b:
                return f"{name}/{path} line {line}:\n  got    {a[:200]!r}\n  golden {b[:200]!r}"
        return f"{name}/{path}: {len(got_lines)} lines, golden has {len(want_lines)}"
    return None


@pytest.mark.parametrize("name", [*RUNS, *PRINTS])
def test_output_matches_golden(name, tmp_path):
    got = run_case(name, tmp_path / "out")
    difference = first_difference(name, got, read_tree(GOLDEN / name))
    assert difference is None, difference
