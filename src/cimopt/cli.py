"""Command-line entry point.

Subcommands: ``fjsp`` runs the closed-loop weight tuner on a scheduling
instance and writes result.json, iterations.jsonl, and a Gantt chart in
text and SVG; ``peptide`` does the same for a composition problem;
``qubo`` exposes conversion, quantization, and energy evaluation on model
files; ``oracle`` prints the exact minimum makespan.

Exit codes: 0 feasible result, 1 input or protocol error, 2 finished with
no feasible incumbent, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from . import fjsp, gantt, peptide, qubo
from .errors import BudgetExceededError, PolicyError, require_finite
from .solver import SolverConfig
from .tuner import (
    FjspTask,
    PeptideTask,
    external_policy,
    record_to_doc,
    rule_policy_fjsp,
    rule_policy_peptide,
    run_tuning,
    single_shot_policy,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

_LATENCY_RANGE_MS = (61_000, 121_000)


def _fixture_path(name: str) -> Path:
    return Path(str(resources.files("cimopt").joinpath("fixtures", name)))


def _load_json(path: str | Path):
    path = Path(path)
    if not path.exists():
        raise ValueError(f"file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def _dump_json(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_input(path: str | None, fixture: str, key: str, value: int | None):
    """The document at ``path`` (default: a bundled fixture), with ``key`` set
    to ``value`` when a flag gave one; the reader rejects a non-object."""
    doc = _load_json(Path(path) if path else _fixture_path(fixture))
    if value is not None and isinstance(doc, dict):
        doc = {**doc, key: value}
    return doc


def _parse_weights(text: str | None, names: tuple[str, ...], default: tuple[float, ...]) -> dict:
    if text is None:
        return dict(zip(names, default))
    parts = text.split(",")
    if len(parts) != len(names):
        raise ValueError(
            f"--weights expects {len(names)} comma-separated values ({','.join(names)}), got {text!r}"
        )
    try:
        return {name: float(part) for name, part in zip(names, parts)}
    except ValueError as exc:
        raise ValueError(f"--weights: {exc}") from exc


def _make_policy(selector: str, task, timeout: float):
    require_finite(timeout, "--policy-timeout", positive=True)  # whatever the policy, so a bad flag never passes unseen
    if selector == "rule":
        if task.kind == "fjsp":
            return rule_policy_fjsp
        # the count encoding has no iterative rule policy; single build+solve
        return rule_policy_peptide if task.encoding == "onehot" else single_shot_policy
    if selector.startswith("external:"):
        return external_policy(selector[len("external:") :], timeout=timeout)
    raise ValueError(f"--policy must be 'rule' or 'external:<cmd-or-url>', got {selector!r}")


def _solver_config(args) -> SolverConfig:
    latency = args.emulate_latency_ms
    if args.cim_realism:
        rng = np.random.default_rng(args.seed)
        latency = int(rng.integers(_LATENCY_RANGE_MS[0], _LATENCY_RANGE_MS[1] + 1))
    return SolverConfig(
        sweeps=args.sweeps,
        restarts=args.restarts,
        seed=args.seed,
        readout_flip_prob=args.readout_flip_prob,
        emulate_latency_ms=latency,
    )


def _tune(args, started: float, task, default_weights: tuple[float, ...], describe) -> int:
    """Tune ``task``; write result.json, iterations.jsonl and any quant report
    under --out; print a summary; return the exit code.

    ``describe(report, outdir)`` returns the task's own result.json fields and
    the summary line, and writes the task's other files.
    """
    weights = _parse_weights(args.weights, task.weight_names, default_weights)
    policy = _make_policy(args.policy, task, args.policy_timeout)
    report = run_tuning(
        task,
        weights,
        policy,
        solver_config=_solver_config(args),
        max_iter=args.iterations,
    )

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fields, summary = describe(report, outdir)
    result_doc = {
        "v": 1,
        "kind": task.kind,
        "seed": args.seed,
        "weights_initial": weights,
        "iterations_run": report.iterations_run,
        "stop_reason": report.stop_reason,
        **fields,
    }
    if args.quantize and report.records:
        quant = report.records[-1].solve_meta.get("quant_report")
        if quant is not None:
            _dump_json(quant, outdir / "quant_report.json")
            result_doc["quant_report"] = quant
    if not args.deterministic_output:
        result_doc["timing"] = {"started_utc": started, "elapsed_ms": (time.time() - started) * 1000.0}
    _dump_json(result_doc, outdir / "result.json")
    with open(outdir / "iterations.jsonl", "w") as fh:
        for record in report.records:
            fh.write(
                json.dumps(
                    record_to_doc(record, include_timestamps=not args.deterministic_output),
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )

    print(summary)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_fjsp(args) -> int:
    started = time.time()
    instance = fjsp.instance_from_doc(_load_input(args.instance, "fjsp_3x3.json", "t_max", args.t_max))
    task = FjspTask(instance, h3_mode=args.h3, quantize=args.quantize)

    def describe(report, outdir):
        # chart the incumbent when there is one, otherwise an empty chart
        schedule_doc = (report.incumbent_payload or {}).get("schedule")
        if schedule_doc:
            schedule = fjsp.schedule_from_doc(instance, schedule_doc)
        else:
            schedule = fjsp.Schedule(())
        (outdir / "gantt.txt").write_text(gantt.gantt_text(instance, schedule))
        (outdir / "gantt.svg").write_text(gantt.gantt_svg(instance, schedule))
        fields = {
            "problem_label": args.problem_label,
            "instance": fjsp.instance_to_doc(instance),
            "h3_mode": args.h3,
            "incumbent": {
                "feasible": report.feasible,
                "makespan": report.incumbent_metric,
                "weights": report.incumbent_weights,
                "schedule": schedule_doc,
            },
            "final_diagnostics": report.final_diagnostics,
        }
        if report.feasible:
            return fields, f"makespan {int(report.incumbent_metric)} with weights {report.incumbent_weights}"
        return fields, "no feasible schedule found"

    return _tune(args, started, task, (150.0, 100.0, 100.0, 15.0), describe)


def cmd_peptide(args) -> int:
    started = time.time()
    problem = peptide.problem_from_doc(_load_input(args.problem, "lacrp4.json", "positions", args.positions))
    task = PeptideTask(problem, encoding=args.encoding, quantize=args.quantize)

    def describe(report, outdir):
        stats = qubo.coefficient_stats(task.build(report.records[0].weights), near_zero_threshold=1e-4)
        fields = {
            "problem_label": args.problem_label or problem.label,
            "encoding": args.encoding,
            "positions": problem.positions,
            "calibrated_mass": problem.calibrated_mass,
            "mass_table": problem.table,
            "population": report.final_diagnostics,
            "best": {
                "feasible": report.feasible,
                "deviation_da": report.incumbent_metric,
                "weights": report.incumbent_weights,
                "composition": (report.incumbent_payload or {}).get("composition"),
            },
            "coefficient_stats": asdict(stats),
        }
        if report.feasible:
            return fields, f"best deviation {report.incumbent_metric:.4f} Da over {report.iterations_run} iteration(s)"
        return fields, "no violation-free composition found"

    return _tune(args, started, task, (1.0, 1.0), describe)


def _load_model(path: str):
    doc = _load_json(path)
    if isinstance(doc, dict) and "convention" in doc:
        return qubo.ising_from_doc(doc)
    return qubo.qubo_from_doc(doc)


def cmd_qubo(args) -> int:
    if args.action == "energy":
        if args.bits is None:
            raise ValueError("energy needs --bits, e.g. --bits 0110")
        model = _load_model(args.model)
        values = [int(c) for c in args.bits]
        if isinstance(model, qubo.QuboMatrix):
            energy = qubo.qubo_energy(model, values)
        else:
            energy = qubo.ising_energy(model, [2 * v - 1 for v in values])
        print(energy)
        return EXIT_OK
    model = qubo.qubo_from_doc(_load_json(args.model))
    if args.action == "to-ising":
        doc = qubo.ising_to_doc(qubo.qubo_to_ising(model, qubo.IsingConvention(args.convention)))
    else:
        doc = qubo.quantized_to_doc(qubo.quantize_int8(model))
    print(json.dumps(doc, sort_keys=True))
    if args.out:
        _dump_json(doc, Path(args.out))
    return EXIT_OK


def cmd_oracle(args) -> int:
    instance = fjsp.instance_from_doc(_load_input(args.instance, "fjsp_3x3.json", "t_max", args.t_max))
    optimum = fjsp.exact_min_makespan(instance, node_budget=args.budget)
    print(optimum)
    return EXIT_OK


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-p", "--problem-label", default=None, help="free-text label echoed into the report")
    parser.add_argument("-i", "--iterations", type=int, default=3, help="maximum tuning iterations")
    parser.add_argument("--policy", default="rule", help="'rule' or 'external:<cmd-or-url>'")
    parser.add_argument("--policy-timeout", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0, help="seed for every random choice in the run")
    parser.add_argument("--sweeps", type=int, default=5000)
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--readout-flip-prob", type=float, default=0.0)
    parser.add_argument("--emulate-latency-ms", type=int, default=0)
    parser.add_argument(
        "--cim-realism",
        action="store_true",
        help="draw a 61-121 s per-solve latency; workflow testing only",
    )
    parser.add_argument("--quantize", action="store_true", help="solve through the int8 pipeline")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--deterministic-output",
        action="store_true",
        help="omit wall-clock timestamps so identical seeds give byte-identical files",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cimopt",
        description="QUBO/Ising modeling, annealing, and closed-loop weight tuning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fjsp = sub.add_parser("fjsp", help="tune and solve a scheduling instance")
    p_fjsp.add_argument("--instance", default=None, help="instance JSON (default: bundled 3x3)")
    p_fjsp.add_argument("-t", "--t-max", type=int, default=None, help="horizon override")
    p_fjsp.add_argument("--weights", default=None, help="alpha,beta,gamma,delta")
    p_fjsp.add_argument("--h3", choices=("strict", "paper-literal"), default="strict")
    _add_run_flags(p_fjsp)
    p_fjsp.set_defaults(func=cmd_fjsp)

    p_pep = sub.add_parser("peptide", help="tune and solve a composition problem")
    p_pep.add_argument("--problem", default=None, help="problem JSON (default: bundled LACRP4)")
    p_pep.add_argument("--positions", type=int, default=None, help="sequence length override")
    p_pep.add_argument("--encoding", choices=("onehot", "count"), default="onehot")
    p_pep.add_argument("--weights", default=None, help="pos,mass (onehot) or mass,length (count)")
    _add_run_flags(p_pep)
    p_pep.set_defaults(func=cmd_peptide)

    p_qubo = sub.add_parser("qubo", help="model-file tools")
    p_qubo.add_argument("action", choices=("to-ising", "quantize", "energy"))
    p_qubo.add_argument("model", help="QUBO or Ising JSON file")
    p_qubo.add_argument("--convention", choices=("positive_sum", "negated_sum"), default="positive_sum")
    p_qubo.add_argument("--bits", default=None, help="assignment like 0110 for the energy action")
    p_qubo.add_argument("--out", default=None, help="also write the output document here")
    p_qubo.set_defaults(func=cmd_qubo)

    p_oracle = sub.add_parser("oracle", help="exact minimum makespan")
    p_oracle.add_argument("--instance", default=None, help="instance JSON (default: bundled 3x3)")
    p_oracle.add_argument("-t", "--t-max", type=int, default=None)
    p_oracle.add_argument("--budget", type=int, default=5_000_000, help="node budget")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc} (incumbent={exc.incumbent}, bound={exc.bound})", file=sys.stderr)
        return EXIT_BUDGET
    except PolicyError as exc:
        print(f"policy error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
