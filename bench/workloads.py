"""The benchmark's workloads.

Each workload has four steps. ``prepare(i)`` makes the seeded inputs of
task i and their certified references, outside every timed region.
``setup`` reads and validates the fixed inputs and those of task 0 through
the library readers (it is what ``setup_s`` times, in a fresh interpreter
after ``prepare(0)`` has run). ``run`` is the timed task: calls to
``cimopt.cli.main`` or to the solver's public functions. ``check``
re-validates the outputs and scores their quality, again outside the
timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cimopt.cli
import cimopt.solver
import cimopt.tuner
import gen
from cimopt import fjsp, peptide, qubo
from cimopt.solver import SolverConfig

REL_TOL = 1e-9
BUNDLED = Path(__file__).resolve().parent.parent / "src" / "cimopt" / "fixtures"


def close(a: float, b: float, scale: float = 0.0) -> bool:
    """Equal within REL_TOL relative to the larger value, or to ``scale``: the
    magnitude of the terms summed, when the sum cancels most of them."""
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b), scale)


class Magnitudes:
    """Sum of the absolute terms an energy evaluation adds: its round-off scale.

    Penalty models cancel large terms (LACRP4's mass term has an offset near
    2e6 against energies near 1e2), so relative agreement is judged against
    this sum rather than against the energy itself.
    """

    def __init__(self, model):
        self.model = model
        if isinstance(model, qubo.QuboMatrix):
            pairs = np.array([(i, j, abs(v)) for (i, j), v in model.upper.items()]).reshape(-1, 3)
            self.rows, self.cols = pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)
            self.vals = pairs[:, 2]
            self.diag = np.abs(np.asarray(model.diag))

    def qubo(self, bits) -> float:
        x = np.asarray(bits, dtype=np.float64)
        upper = float(np.dot(self.vals, x[self.rows] * x[self.cols])) if self.vals.size else 0.0
        return abs(self.model.offset) + float(self.diag @ x) + upper

    @staticmethod
    def ising(model) -> float:
        return abs(model.offset) + sum(abs(v) for v in model.h) + sum(abs(v) for v in model.J.values())


def gap(best: float, reference: float) -> float:
    return (best - reference) / max(1.0, abs(reference))


def task_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class Capture:
    """Keeps the last solve the tuner made: the model it passed and the result.

    Installed for the whole run in both modes; it records references only,
    so the outputs that never reach a file can still be checked.
    """

    def __init__(self):
        self.last = None
        for name in ("solve_annealed", "solve_quantized"):
            setattr(cimopt.tuner, name, self._wrap(getattr(cimopt.tuner, name)))

    def _wrap(self, fn):
        def captured(model, config=None):
            result = fn(model, config)
            self.last = (model, result)
            return result

        return captured

    def take(self):
        last, self.last = self.last, None
        return last


@dataclass
class Unit:
    """Quality of one solved model inside a task; None where undefined."""

    success: bool | None = None
    feasible: bool | None = None
    makespan_excess: float | None = None
    deviation_da: float | None = None
    energy_gap: float | None = None


@dataclass
class Outcome:
    errors: list[str] = field(default_factory=list)
    units: list[Unit] = field(default_factory=list)
    bytes_written: int = 0


@dataclass
class Task:
    index: int
    seed: int
    data: dict


def energy_errors(model, result) -> list[str]:
    """Every reported energy must re-evaluate within 1e-9 relative to the
    magnitude of the terms summed.

    Energies are checked under the Ising model the solver ranked by and,
    through the bit picture, under the QUBO it was given; for a quantized
    solve the second check applies to ``original_energies``.
    """
    errors = []
    original = result.meta.get("original_energies")
    energies = [e for _, e in result.solutions]
    if energies != sorted(energies):
        errors.append("solutions are not sorted by energy")
    ising_scale = Magnitudes.ising(result.model)
    terms = Magnitudes(model) if isinstance(model, qubo.QuboMatrix) else None
    for rank, (spins, energy) in enumerate(result.solutions):
        value = qubo.ising_energy(result.model, spins)
        if not close(value, energy, ising_scale):
            errors.append(f"rank {rank} energy {energy} re-evaluates to {value}")
        if terms is not None:
            bits = qubo.spins_to_bits(spins)
            expected = energy if original is None else original[rank]
            value = qubo.qubo_energy(model, bits)
            if not close(value, expected, terms.qubo(bits)):
                errors.append(f"rank {rank} QUBO energy {value} != reported {expected}")
    return errors


def enumerated_ground(q: qubo.QuboMatrix) -> float:
    """Ground energy of a QUBO by enumerating all 2^n assignments in numpy,
    independently of the solver; the minimiser is re-evaluated by
    ``qubo_energy``."""
    upper = np.zeros((q.n, q.n))
    for (i, j), v in q.upper.items():
        upper[i, j] = v
    diag = np.asarray(q.diag)
    bit = np.arange(q.n)
    chunk = 1 << min(q.n, 12)
    best = None
    for first in range(0, 1 << q.n, chunk):
        x = ((np.arange(first, first + chunk)[:, None] >> bit) & 1).astype(np.float64)
        energies = x @ diag + ((x @ upper) * x).sum(axis=1)
        k = int(np.argmin(energies))
        if best is None or energies[k] < best[0]:
            best = (energies[k], x[k])
    return qubo.qubo_energy(q, [int(b) for b in best[1]])


def best_energy(result) -> float:
    original = result.meta.get("original_energies")
    return min(original) if original is not None else result.best[1]


def fjsp_incumbent(doc: dict, inst, bound: int, errors: list[str]) -> int | None:
    """Re-validate a claimed-feasible incumbent; return its makespan.

    ``bound`` is the certified optimum or a lower bound; no makespan may
    lie below it.
    """
    incumbent = doc["incumbent"]
    if not incumbent["feasible"]:
        return None
    schedule = fjsp.schedule_from_doc(inst, incumbent["schedule"])
    diag = fjsp.diagnose_schedule(inst, schedule)
    if not diag.feasible:
        errors.append("claimed-feasible incumbent has violations")
        return None
    if diag.makespan != incumbent["makespan"]:
        errors.append(f"incumbent makespan {incumbent['makespan']} != {diag.makespan}")
    if diag.makespan < bound:
        errors.append(f"makespan {diag.makespan} below certified bound {bound}")
    return diag.makespan


class CliWorkload:
    """Shared plumbing of the workloads that call ``cimopt.cli.main``."""

    has_success = True

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.toy = toy
        self.capture = Capture()

    def cli(self, argv: list[str], out: Path):
        """One timed CLI call; returns (exit code, last solve, stdout)."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cimopt.cli.main(argv + ["--deterministic-output", "--out", str(out)])
        return rc, self.capture.take(), sink.getvalue()

    def out(self, name: str) -> Path:
        return self.workdir / "out" / name

    def reset(self) -> None:
        """Remove the previous task's output files (outside the timed region)."""
        shutil.rmtree(self.workdir / "out", ignore_errors=True)

    @staticmethod
    def exit_errors(rc: int, text: str) -> list[str]:
        if rc in (0, 2):
            return []
        return [f"exit code {rc}: {text.strip()[-200:]}"]

    @staticmethod
    def written(out: Path) -> int:
        return sum(p.stat().st_size for p in out.iterdir())

    @staticmethod
    def fingerprint(out: Path) -> bytes:
        return (out / "result.json").read_bytes() + (out / "iterations.jsonl").read_bytes()


class FjspTune(CliWorkload):
    """``cimopt fjsp -i 6`` on the bundled 3x3 instance, one solver seed per task.

    Success: a feasible incumbent with makespan <= 14. References: the
    oracle's optimum (9) and the README's makespan-9 schedule.
    """

    name = "fjsp-tune"
    quota = 5
    SUCCESS_MAKESPAN = 14  # the closed-loop reproduction gate
    # README's makespan-9 schedule: each job serially on its own fastest machine
    REFERENCE_MACHINES = (1, 0, 2)

    def setup(self):
        doc = json.loads((BUNDLED / "fjsp_3x3.json").read_text())
        self.inst = fjsp.instance_from_doc(doc)
        self.index = fjsp.prune_variables(self.inst)
        self.optimum = fjsp.exact_min_makespan(self.inst)
        entries = []
        for j, machine in enumerate(self.REFERENCE_MACHINES):
            t = 0
            for h, op in enumerate(self.inst.jobs[j].operations):
                entries.append(fjsp.ScheduleEntry(j, h, machine, t, t + op.times[machine]))
                t += op.times[machine]
        reference = fjsp.Schedule(tuple(entries))
        diag = fjsp.diagnose_schedule(self.inst, reference)
        if diag.makespan != self.optimum:
            raise RuntimeError(f"reference schedule has makespan {diag.makespan}, oracle says {self.optimum}")
        self.reference_bits = fjsp.schedule_to_bits(self.inst, self.index, reference)

    def prepare(self, i: int) -> Task:
        return Task(i, task_seed(self.seed, i), {})

    def run(self, task: Task):
        out = self.out("fjsp")
        argv = ["fjsp", "-i", "2" if self.toy else "6", "--seed", str(task.seed)]
        if self.toy:
            argv += ["--sweeps", "100"]
        return out, self.cli(argv, out)

    def check(self, task: Task, result) -> Outcome:
        out, (rc, solve, text) = result
        outcome = Outcome(self.exit_errors(rc, text), bytes_written=self.written(out))
        doc = json.loads((out / "result.json").read_text())
        makespan = fjsp_incumbent(doc, self.inst, self.optimum, outcome.errors)
        if (rc == 0) != (makespan is not None):
            outcome.errors.append(f"exit code {rc} disagrees with the incumbent")
        model, solved = solve
        outcome.errors += energy_errors(model, solved)
        reference = qubo.qubo_energy(model, self.reference_bits)
        outcome.units.append(
            Unit(
                success=makespan is not None and makespan <= self.SUCCESS_MAKESPAN,
                feasible=makespan is not None,
                makespan_excess=None if makespan is None else makespan - self.optimum,
                energy_gap=gap(best_energy(solved), reference),
            )
        )
        return outcome

    def fingerprints(self, result):
        return self.fingerprint(result[0])


class PeptideTune(CliWorkload):
    """LACRP4: ``cimopt peptide --encoding onehot --weights 1000,1 -i 6`` plus one
    ``--encoding count`` shot per task.

    Success: a violation-free composition within 1 Da. Reference: the
    fixture's sequence KKSKAKEPPPKKT, encoded one-hot.
    """

    name = "peptide-tune"
    quota = 5
    SUCCESS_DA = 1.0
    # At the default 5,000 sweeps one task takes ~20 s, so a run would hold
    # a single task. At 1,000 the rule policy stops after 3 to 6 rounds
    # depending on the seed; at 500 it runs all 6 rounds on nearly every
    # seed, so each task does the tuner's full work in ~3 s.
    SWEEPS = 500

    def setup(self):
        doc = json.loads((BUNDLED / "lacrp4.json").read_text())
        self.problem = peptide.problem_from_doc(doc)
        masses = peptide.residue_masses(self.problem.table, half_water_per_acid=self.problem.half_water_per_acid)
        self.masses = dict(masses)
        codes = [code for code, _ in masses]
        sequence = doc["reference_sequence"]
        if len(sequence) != self.problem.positions:
            raise RuntimeError("reference sequence does not fill the positions")
        bits = [0] * (self.problem.positions * len(codes))
        for s, code in enumerate(sequence):
            bits[s * len(codes) + codes.index(code)] = 1
        self.reference_bits = tuple(bits)

    def prepare(self, i: int) -> Task:
        return Task(i, task_seed(self.seed, i), {})

    def run(self, task: Task):
        extra = ["--sweeps", "100" if self.toy else str(self.SWEEPS)]
        onehot = self.out("onehot")
        count = self.out("count")
        a = self.cli(["peptide", "--encoding", "onehot", "--weights", "1000,1",
                      "-i", "2" if self.toy else "6", "--seed", str(task.seed)] + extra, onehot)
        b = self.cli(["peptide", "--encoding", "count", "--seed", str(task.seed)] + extra, count)
        return (onehot, a), (count, b)

    def mass(self, counts: dict) -> float:
        return sum(self.masses[code] * c for code, c in counts.items())

    def check(self, task: Task, result) -> Outcome:
        (onehot, (rc, solve, text)), (count, (rc2, solve2, text2)) = result
        outcome = Outcome(self.exit_errors(rc, text) + self.exit_errors(rc2, text2))
        outcome.bytes_written = self.written(onehot) + self.written(count)
        target = self.problem.calibrated_mass

        best = json.loads((onehot / "result.json").read_text())["best"]
        deviation = None
        if best["feasible"]:
            selections = best["composition"]["selections"]
            if any(len(s) != 1 for s in selections):
                outcome.errors.append("claimed violation-free composition has violations")
            else:
                deviation = abs(self.mass(_tally(selections)) - target)
                if not close(deviation, best["deviation_da"], target):
                    outcome.errors.append(f"deviation {best['deviation_da']} != recomputed {deviation}")
        model, solved = solve
        outcome.errors += energy_errors(model, solved)
        outcome.units.append(
            Unit(
                success=deviation is not None and deviation <= self.SUCCESS_DA,
                feasible=deviation is not None,
                deviation_da=deviation,
                energy_gap=gap(best_energy(solved), qubo.qubo_energy(model, self.reference_bits)),
            )
        )

        shot = json.loads((count / "result.json").read_text())["best"]["composition"]
        recomputed = abs(self.mass(shot["counts"]) - target)
        if not close(recomputed, shot["deviation_da"], target):
            outcome.errors.append(f"count deviation {shot['deviation_da']} != recomputed {recomputed}")
        model, solved = solve2
        outcome.errors += energy_errors(model, solved)
        return outcome

    def fingerprints(self, result):
        return self.fingerprint(result[0][0]) + self.fingerprint(result[1][0])


def _tally(selections) -> dict:
    counts: dict[str, int] = {}
    for (code,) in selections:
        counts[code] = counts.get(code, 0) + 1
    return counts


class FjspScale(CliWorkload):
    """One task solves a ladder of generated instances with
    ``cimopt fjsp --instance <file> --quantize -i 1 --sweeps 50``.

    No success rule. References: the generator's constructive schedule and
    the makespan lower bound.
    """

    name = "fjsp-scale"
    quota = 3
    has_success = False
    # (jobs, machines, pruned-variable band); the band fixes each ladder
    # point's size so seeds differ in structure, not in amount of work
    LADDER = ((8, 5, (2000, 2200)), (10, 6, (2600, 2800)))
    TOY_LADDER = ((3, 3, (1, 400)), (4, 3, (1, 600)))

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        super().__init__(seed, workdir, toy)
        self.ladder = self.TOY_LADDER if toy else self.LADDER

    def path(self, i: int, k: int) -> Path:
        return self.workdir / f"instance{i}-{k}.json"

    def setup(self):
        for k in range(len(self.ladder)):
            fjsp.prune_variables(fjsp.instance_from_doc(json.loads(self.path(0, k).read_text())))

    def prepare(self, i: int) -> Task:
        rng = np.random.default_rng([self.seed, i])
        self.workdir.mkdir(parents=True, exist_ok=True)
        points = []
        for k, (jobs, machines, band) in enumerate(self.ladder):
            inst, schedule, index = gen.ladder_instance(rng, jobs, machines, band)
            path = self.path(i, k)
            path.write_text(json.dumps(fjsp.instance_to_doc(inst)))
            bits = fjsp.schedule_to_bits(inst, index, schedule)
            points.append((fjsp.instance_from_doc(json.loads(path.read_text())), path, bits))
        return Task(i, task_seed(self.seed, i), {"points": points})

    def run(self, task: Task):
        results = []
        for k, (_, path, _) in enumerate(task.data["points"]):
            out = self.out(f"scale{k}")
            argv = ["fjsp", "--instance", str(path), "--quantize", "-i", "1",
                    "--sweeps", "10" if self.toy else "50", "--seed", str(task.seed)]
            results.append((out, self.cli(argv, out)))
        return results

    def check(self, task: Task, result) -> Outcome:
        outcome = Outcome()
        for (inst, _, reference_bits), (out, (rc, solve, text)) in zip(task.data["points"], result):
            outcome.errors += self.exit_errors(rc, text)
            outcome.bytes_written += self.written(out)
            doc = json.loads((out / "result.json").read_text())
            bound = gen.makespan_lower_bound(inst)
            makespan = fjsp_incumbent(doc, inst, bound, outcome.errors)
            if (rc == 0) != (makespan is not None):
                outcome.errors.append(f"exit code {rc} disagrees with the incumbent")
            model, solved = solve
            outcome.errors += energy_errors(model, solved)
            last = json.loads((out / "iterations.jsonl").read_text().splitlines()[-1])
            if last["solve_meta"].get("original_energies") != solved.meta["original_energies"]:
                outcome.errors.append("iterations.jsonl energies differ from the solve")
            if json.loads((out / "quant_report.json").read_text()) != solved.meta["quant_report"]:
                outcome.errors.append("quant_report.json differs from the solve")
            outcome.units.append(
                Unit(
                    feasible=makespan is not None,
                    makespan_excess=None if makespan is None else makespan - bound,
                    energy_gap=gap(best_energy(solved), qubo.qubo_energy(model, reference_bits)),
                )
            )
        return outcome

    def fingerprints(self, result):
        return b"".join(self.fingerprint(out) for out, _ in result)


class MicroExact:
    """A micro FJSP model and a dense model per task, each solved by
    ``solve_exact`` and by ``solve_annealed`` at the defaults.

    Success: every annealed best equals the exact ground energy. References:
    ground energies from ``solve_exact`` and optima from the oracle.
    """

    name = "micro-exact"
    quota = 4
    has_success = True
    # penalties far above the objective, so ground states are schedules
    WEIGHTS = fjsp.FjspWeights(1e4, 1e4, 1e4, 1.0)

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        self.seed = seed
        self.toy = toy
        self.config = {"sweeps": 200} if toy else {}

    def reset(self) -> None:
        pass

    def setup(self):
        pass

    def prepare(self, i: int) -> Task:
        rng = np.random.default_rng([self.seed, i])
        # exactly 22 variables, the generator's largest, so every task
        # enumerates 2^22 states and seeds differ in structure, not in size
        inst, optimum = gen.micro_instance(rng, min_vars=1 if self.toy else 22)
        index = fjsp.prune_variables(inst)
        models = (fjsp.build_qubo(inst, self.WEIGHTS, index), gen.dense_model(rng, 8 if self.toy else 16))
        return Task(i, task_seed(self.seed, i), {
            "models": models, "grounds": [enumerated_ground(q) for q in models],
            "inst": inst, "index": index, "optimum": optimum,
        })

    def run(self, task: Task):
        config = SolverConfig(seed=task.seed, **self.config)
        return [
            (cimopt.solver.solve_exact(q), cimopt.solver.solve_annealed(q, config))
            for q in task.data["models"]
        ]

    def check(self, task: Task, result) -> Outcome:
        outcome = Outcome()
        data = task.data
        for k, (q, ground, (exact, annealed)) in enumerate(zip(data["models"], data["grounds"], result)):
            outcome.errors += energy_errors(q, exact) + energy_errors(q, annealed)
            scale = Magnitudes.ising(exact.model)
            if not close(exact.best[1], ground, scale):
                outcome.errors.append(f"exact ground {exact.best[1]} != certified {ground}")
            best = annealed.best[1]
            same = close(best, ground, scale)
            if best < ground and not same:
                outcome.errors.append(f"annealed energy {best} below the exact ground {ground}")
            unit = Unit(success=same, energy_gap=gap(best, ground))
            if k == 0:  # the scheduling model: decoded makespans never beat the oracle
                for solution in (exact, annealed):
                    _, diag = fjsp.decode_schedule(data["inst"], data["index"], solution.bits(0))
                    if diag.feasible and diag.makespan < data["optimum"]:
                        outcome.errors.append(f"makespan {diag.makespan} below optimum {data['optimum']}")
                unit.feasible = diag.feasible  # of the annealed best, decoded last
                if diag.feasible:
                    unit.makespan_excess = diag.makespan - data["optimum"]
            outcome.units.append(unit)
        return outcome

    def fingerprints(self, result):
        return repr([(e.solutions, a.solutions) for e, a in result]).encode()


WORKLOADS = {w.name: w for w in (FjspTune, PeptideTune, FjspScale, MicroExact)}
