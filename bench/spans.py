"""In-memory span recording around the package's public functions.

The benchmark never edits the package: it swaps module attributes for thin
wrappers at the call sites the package itself uses (for example
``cimopt.tuner.solve_annealed``, the name ``run_tuning`` looks up), records
one span per call and puts the original back afterwards. Everything stays
in memory until the run writes it out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import cimopt.cli
import cimopt.fjsp
import cimopt.solver
import cimopt.tuner

LAYERS = ("cli", "tuner", "fjsp", "peptide", "qubo", "solver")

# (module whose namespace the caller resolves the name in, attribute, span name)
TRACED = (
    (cimopt.cli, "main", "cli.main"),
    (cimopt.cli, "run_tuning", "tuner.run_tuning"),
    (cimopt.cli, "rule_policy_fjsp", "tuner.policy"),
    (cimopt.cli, "rule_policy_peptide", "tuner.policy"),
    (cimopt.cli, "single_shot_policy", "tuner.policy"),
    (cimopt.tuner, "prune_variables", "fjsp.prune"),
    (cimopt.fjsp, "prune_variables", "fjsp.prune"),
    (cimopt.tuner, "build_qubo", "fjsp.build"),
    (cimopt.tuner, "decode_schedule", "fjsp.decode"),
    (cimopt.fjsp, "exact_min_makespan", "fjsp.oracle"),
    (cimopt.tuner, "build_onehot_qubo", "peptide.build"),
    (cimopt.tuner, "build_count_qubo", "peptide.build"),
    (cimopt.tuner, "decode_onehot", "peptide.decode"),
    (cimopt.tuner, "decode_count", "peptide.decode"),
    (cimopt.tuner, "evaluate_population", "peptide.decode"),
    (cimopt.tuner, "solve_annealed", "solver.solve_annealed"),
    (cimopt.tuner, "solve_quantized", "solver.solve_quantized"),
    (cimopt.solver, "solve_annealed", "solver.solve_annealed"),
    (cimopt.solver, "solve_exact", "solver.solve_exact"),
    (cimopt.solver, "qubo_to_ising", "qubo.to_ising"),
    (cimopt.solver, "flip_convention", "qubo.to_ising"),
    (cimopt.solver, "quantize_int8", "qubo.quantize"),
    (cimopt.solver, "ising_energy", "qubo.energy"),
    (cimopt.solver, "qubo_energy", "qubo.energy"),
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    task: int | None
    info: dict


def _model_size(model) -> tuple[int, int]:
    pairs = model.upper if hasattr(model, "upper") else model.J
    return model.n, len(pairs)


def _info(name: str, args, result) -> dict:
    """Counts taken at the boundary, so ratios use the work actually done."""
    if name == "solver.solve_annealed":
        n, couplings = _model_size(result.model)
        meta = result.meta
        return {
            "n": n,
            "couplings": couplings,
            "spin_updates": meta["sweeps"] * meta["restarts"] * n,
        }
    if name == "solver.solve_exact":
        return {"states": result.meta["states_enumerated"]}
    if name == "qubo.energy":
        n, couplings = _model_size(args[0])
        return {"terms": n + couplings}
    if name == "tuner.run_tuning":
        return {
            "iterations": result.iterations_run,
            "stop": result.stop_reason,
            "weights": [dict(r.weights) for r in result.records],
        }
    return {}


class Tracer:
    """Records spans (name, start, end, parent, task id) while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.task: int | None = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.task, {})
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.info = _info(name, args, result)
            return result

        return traced

    def install(self) -> None:
        originals = {}
        for module, attr, name in TRACED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            if id(fn) not in originals:
                originals[id(fn)] = self._wrap(fn, name)
            setattr(module, attr, originals[id(fn)])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "task": s.task},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover (seconds)."""
    own = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _distinct(weight_maps: list[dict]) -> int:
    # weight maps equal up to 1e-9 relative count once
    kept: list[dict] = []
    for w in weight_maps:
        if not any(
            w.keys() == k.keys()
            and all(abs(w[x] - k[x]) <= 1e-9 * max(abs(w[x]), abs(k[x])) for x in w)
            for k in kept
        ):
            kept.append(w)
    return len(kept)


def layer_metrics(spans: list[Span], tasks: int, bytes_written: float, overhead_frac: float) -> dict:
    """Per-layer metrics of one traced run.

    ``*_ms`` values, call and work counts are per traced task: totals over
    the spans inside task spans, divided by the number of tasks. Pruning and
    the oracle also count the spans of the in-process set-up, since that is
    where set-up time goes. The ``tuner.stop.*`` counts are totals over the
    traced tasks. Model sizes describe the largest model annealed. Shares
    are self time over total task time.
    """
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    task_spans = [s for s in spans if s.name == "task"]
    task_time = sum(s.end - s.start for s in task_spans)

    def root(s: Span) -> str:
        while s.parent is not None:
            s = by_id[s.parent]
        return s.name

    inside = [s for s in spans if root(s) == "task"]
    per = 1.0 / max(tasks, 1)

    def total(name: str, key=None, pool=inside) -> float:
        return sum((own[s.sid] if key is None else s.info.get(key, 0)) for s in pool if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for s in inside if s.name == name)

    def ms(name: str, pool=inside) -> float:
        return 1e3 * total(name, pool=pool) * per

    anneal_s = total("solver.solve_annealed")
    updates = total("solver.solve_annealed", "spin_updates")
    solves = [s.info for s in inside if s.name == "solver.solve_annealed"]
    largest = max(solves, key=lambda i: i["n"], default={"n": 0, "couplings": 0})
    n = largest["n"]
    runs = [s.info for s in inside if s.name == "tuner.run_tuning"]
    iterations = sum(r["iterations"] for r in runs)

    m = {
        "solver.anneal_ms": 1e3 * anneal_s * per,
        "solver.solve_calls": calls("solver.solve_annealed") * per,
        "solver.spin_updates": updates * per,
        "solver.updates_per_us": updates / (1e6 * anneal_s) if anneal_s else 0.0,
        "solver.jmat_mb": 8.0 * n * n / 2**20,
        "solver.exact_ms": ms("solver.solve_exact"),
        "solver.states_enumerated": total("solver.solve_exact", "states") * per,
        "qubo.to_ising_ms": ms("qubo.to_ising"),
        "qubo.quantize_ms": ms("qubo.quantize"),
        "qubo.energy_ms": ms("qubo.energy"),
        "qubo.energy_calls": calls("qubo.energy") * per,
        "qubo.energy_terms": total("qubo.energy", "terms") * per,
        "qubo.n_vars": n,
        "qubo.couplings": largest["couplings"],
        "qubo.density": largest["couplings"] / (n * (n - 1) / 2) if n > 1 else 0.0,
        "fjsp.build_ms": ms("fjsp.build"),
        "fjsp.build_calls": calls("fjsp.build") * per,
        "fjsp.decode_ms": ms("fjsp.decode"),
        "fjsp.decode_calls": calls("fjsp.decode") * per,
        "fjsp.prune_ms": ms("fjsp.prune", pool=spans),
        "fjsp.oracle_ms": ms("fjsp.oracle", pool=spans),
        "peptide.build_ms": ms("peptide.build"),
        "peptide.decode_ms": ms("peptide.decode"),
        "tuner.iterations": iterations * per,
        "tuner.useful_ratio": (
            sum(_distinct(r["weights"]) for r in runs) / iterations if iterations else 0.0
        ),
        "tuner.policy_ms": ms("tuner.policy"),
        "tuner.self_ms": ms("tuner.run_tuning"),
        "tuner.stop.policy_stop": sum(r["stop"] == "policy_stop" for r in runs),
        "tuner.stop.max_iterations": sum(r["stop"] == "max_iterations" for r in runs),
        "tuner.stop.duplicate_weights": sum(r["stop"] == "duplicate_weights" for r in runs),
        "cli.self_ms": ms("cli.main"),
        "cli.bytes_written": bytes_written,
        "trace.overhead_frac": overhead_frac,
        "trace.uncovered_share": (
            sum(own[s.sid] for s in task_spans) / task_time if task_time else 0.0
        ),
    }
    for layer in LAYERS:
        layer_self = sum(own[s.sid] for s in inside if s.name.split(".", 1)[0] == layer)
        m[f"{layer}.share"] = layer_self / task_time if task_time else 0.0
    return m
