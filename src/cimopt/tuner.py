"""Closed-loop constraint-weight tuning with memory.

Each iteration builds the model under the current weights, solves it,
decodes and scores the solutions, logs a record, and asks a decision policy
whether to adjust or stop. A task builds one model (``build``), decodes one
solution (``decode``) and gives a record's ``diagnostics``; ``run_tuning``
does the rest. The incumbent is the best feasible result: the lowest metric
among feasible solutions, ties going to the lowest rank, then to the earliest
iteration. Memory keeps the tried weight combinations (to halt on repeated
proposals), the incumbent, and a bounded trial history. Policies are plain
callables from PolicyContext to PolicyDecision; rule policies live here, and
external processes or HTTP endpoints can be attached over a one-line JSON
protocol.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import PolicyError, require_finite, require_int, require_type, require_weights
from .fjsp import (
    FjspInstance,
    FjspWeights,
    VariableIndex,
    build_qubo,
    decode_schedule,
    prune_variables,
    schedule_to_doc,
)
from .peptide import (
    CountEncodingConfig,
    PeptideProblem,
    PeptideWeights,
    build_count_qubo,
    build_onehot_qubo,
    decode_count,
    decode_onehot,
    evaluate_population,
)
from .solver import SolverConfig, solve_annealed, solve_quantized

__all__ = [
    "PolicyContext",
    "PolicyDecision",
    "TunerMemory",
    "IterationRecord",
    "TuningReport",
    "FjspTask",
    "PeptideTask",
    "run_tuning",
    "rule_policy_fjsp",
    "rule_policy_peptide",
    "single_shot_policy",
    "external_policy",
    "parse_policy_decision",
    "record_to_doc",
    "record_from_doc",
]

WIRE_VERSION = 1
CONFIDENCE_LEVELS = ("high", "medium", "low")

GAMMA_CEILING = 500.0
GROWTH_FACTOR = 2.2
ADDITIVE_CAP = 300.0

RATIO_MIN = 0.1
RATIO_MAX = 8.5e4
VIOLATION_THRESHOLD = 0.2
_SQRT10 = math.sqrt(10.0)
_EPS = 1e-12


@dataclass(frozen=True)
class PolicyDecision:
    """Either stop, or adjust to new_weights; always carries a rationale.

    This is the one check of a decision, in-process or from the wire; the
    weights pass ``require_weights`` and are kept as floats.
    """

    action: str
    new_weights: dict[str, float] | None = None
    rationale: str = ""
    confidence: str = "medium"

    def __post_init__(self):
        if self.action not in ("adjust", "stop"):
            raise ValueError(f"decision action must be 'adjust' or 'stop', got {self.action!r}")
        if self.confidence not in CONFIDENCE_LEVELS:
            raise ValueError(f"decision confidence must be one of {CONFIDENCE_LEVELS}, got {self.confidence!r}")
        if not isinstance(self.rationale, str):
            raise ValueError(f"decision rationale must be a string, got {self.rationale!r}")
        if self.action == "adjust" and not self.new_weights:
            raise ValueError("adjust decision is missing its weights")
        if self.new_weights is not None:
            object.__setattr__(self, "new_weights", require_weights(self.new_weights))

    def to_doc(self) -> dict:
        doc = {
            "action": self.action,
            "rationale": self.rationale,
            "confidence": self.confidence,
        }
        if self.new_weights is not None:
            doc["weights"] = dict(self.new_weights)
        return doc


@dataclass(frozen=True)
class PolicyContext:
    """Everything a policy may look at for one decision.

    ``solve_summary`` carries per-solution energies and violation counts,
    never raw solution vectors: stale vectors from unconverged runs must
    not be replayable from memory.
    """

    iteration: int
    problem_kind: str
    current_weights: dict[str, float]
    solve_summary: list[dict]
    diagnostics: dict
    history: list[dict]
    incumbent: dict | None

    def to_doc(self) -> dict:
        return {"v": WIRE_VERSION, **asdict(self)}


@dataclass
class TunerMemory:
    """Tried weight maps, the incumbent best, and a bounded history.

    ``tried`` keeps every recorded map (as sorted item tuples), so ``seen``
    answers for the whole run; ``history`` keeps only the last
    ``max_history`` trials, as ``{"weights", "metric"}`` entries, and is what
    policies see as ``PolicyContext.history``.
    """

    max_history: int = 20
    history: list[dict] = field(default_factory=list)
    best_metric: float | None = None
    best_weights: dict[str, float] | None = None
    tried: set[tuple[tuple[str, float], ...]] = field(default_factory=set)

    @property
    def weight_history(self) -> list[dict[str, float]]:
        return [entry["weights"] for entry in self.history]

    def seen(self, weights: Mapping[str, float]) -> bool:
        return tuple(sorted(weights.items())) in self.tried

    def record_trial(self, weights: Mapping[str, float], metric: float | None = None) -> None:
        key = tuple(sorted(weights.items()))
        if key in self.tried:
            return
        self.tried.add(key)
        self.history.append({"weights": dict(weights), "metric": metric})
        if len(self.history) > self.max_history:
            del self.history[0 : len(self.history) - self.max_history]

    def update_best(self, metric: float, weights: Mapping[str, float]) -> bool:
        if self.best_metric is None or metric < self.best_metric:
            self.best_metric = metric
            self.best_weights = dict(weights)
            return True
        return False


@dataclass
class IterationRecord:
    iteration: int
    weights: dict[str, float]
    solve_meta: dict
    diagnostics: dict
    decision: PolicyDecision | None
    started_utc: float
    elapsed_ms: float


def record_to_doc(record: IterationRecord, include_timestamps: bool = True) -> dict:
    doc = {
        "v": WIRE_VERSION,
        "iteration": record.iteration,
        "weights": dict(record.weights),
        "solve_meta": dict(record.solve_meta),
        "diagnostics": dict(record.diagnostics),
        "decision": record.decision.to_doc() if record.decision else None,
    }
    if include_timestamps:
        doc["timestamps"] = {
            "started_utc": record.started_utc,
            "elapsed_ms": record.elapsed_ms,
        }
    return doc


def record_from_doc(doc: Mapping) -> IterationRecord:
    """Read an iteration record strictly, as ``record_to_doc`` writes it.

    The record is an object with every field; ``solve_meta``,
    ``diagnostics`` and the optional ``timestamps`` are objects, and each
    timestamp a finite number (both 0.0 when the record has none).
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"iteration record must be a JSON object, got {type(doc).__name__}")
    for name in ("iteration", "weights", "solve_meta", "diagnostics", "decision"):
        if name not in doc:
            raise ValueError(f"iteration record is missing field {name!r}")
    for name in ("solve_meta", "diagnostics", "timestamps"):
        if not isinstance(doc.get(name, {}), Mapping):
            raise ValueError(f"iteration record field {name!r} must be an object, got {type(doc[name]).__name__}")
    stamps = doc.get("timestamps", {"started_utc": 0.0, "elapsed_ms": 0.0})
    decision = None
    if doc["decision"] is not None:
        decision = parse_policy_decision(doc["decision"], required_names=())
    (iteration,) = require_type([doc["iteration"]], (int,), "iteration")
    return IterationRecord(
        iteration=iteration,
        weights=require_weights(doc["weights"]),
        solve_meta=dict(doc["solve_meta"]),
        diagnostics=dict(doc["diagnostics"]),
        decision=decision,
        started_utc=require_finite(stamps.get("started_utc"), "started_utc"),
        elapsed_ms=require_finite(stamps.get("elapsed_ms"), "elapsed_ms"),
    )


class Decoded(NamedTuple):
    """One solution as its task reads it.

    ``fields`` go into the solution's ``solve_summary`` row, ``metric`` is
    None when the solution is infeasible, ``payload`` is what the incumbent
    keeps, and ``raw`` is the decoder's result, for ``diagnostics``.
    """

    fields: dict
    metric: float | None
    payload: dict | None
    raw: object


class FjspTask:
    """Tuning adapter for a scheduling instance; ``quantize``, a bool, solves
    through the int8 pipeline."""

    kind = "fjsp"
    weight_names = ("alpha", "beta", "gamma", "delta")

    def __init__(self, instance: FjspInstance, h3_mode: str = "strict", quantize: bool = False):
        require_type([quantize], (bool,), "quantize")
        self.instance = instance
        self.h3_mode = h3_mode
        self.quantize = quantize
        self.index: VariableIndex = prune_variables(instance)

    def build(self, weights: Mapping[str, float]):
        return build_qubo(self.instance, FjspWeights.from_dict(weights), self.index, self.h3_mode)

    def decode(self, bits) -> Decoded:
        schedule, diag = decode_schedule(self.instance, self.index, bits)
        fields = {"feasible": diag.feasible, "makespan": diag.makespan, **diag.counts()}
        if not diag.feasible:
            return Decoded(fields, None, None, diag)
        payload = {"makespan": diag.makespan, "schedule": schedule_to_doc(schedule)}
        return Decoded(fields, float(diag.makespan), payload, diag)

    def diagnostics(self, decoded: Sequence[Decoded], best: Decoded | None) -> dict:
        return decoded[0].raw.to_doc()


class PeptideTask:
    """Tuning adapter for a composition problem (one-hot or count encoding);
    ``quantize``, a bool, solves through the int8 pipeline."""

    def __init__(
        self,
        problem: PeptideProblem,
        encoding: str = "onehot",
        count_cfg: CountEncodingConfig | None = None,
        acids=None,
        quantize: bool = False,
    ):
        if encoding not in ("onehot", "count"):
            raise ValueError(f"unknown encoding {encoding!r}")
        require_type([quantize], (bool,), "quantize")
        self.problem = problem
        self.encoding = encoding
        self.count_cfg = count_cfg or CountEncodingConfig(length_mid=problem.positions)
        self.acids = acids
        self.quantize = quantize

    kind = "peptide"

    @property
    def weight_names(self):
        if self.encoding == "onehot":
            return ("lambda_pos", "lambda_mass")
        return ("mass_weight", "length_weight")

    def build(self, weights: Mapping[str, float]):
        if self.encoding == "onehot":
            return build_onehot_qubo(self.problem, PeptideWeights.from_dict(weights), self.acids)
        cfg = replace(self.count_cfg, mass_weight=weights["mass_weight"], length_weight=weights["length_weight"])
        return build_count_qubo(self.problem, cfg, self.acids)

    def decode(self, bits) -> Decoded:
        """A one-hot solution is feasible when clean; a count solution always is."""
        if self.encoding == "onehot":
            sol = decode_onehot(self.problem, bits, self.acids)
            fields = {"clean": sol.clean, "deviation_da": sol.deviation_da, "violations": len(sol.onehot_violations)}
            if not sol.clean:
                return Decoded(fields, None, None, sol)
        else:
            sol = decode_count(self.problem, self.count_cfg, bits, self.acids)
            fields = {"deviation_da": sol.deviation_da, "length": sol.length}
        return Decoded(fields, sol.deviation_da, {"composition": sol.to_doc()}, sol)

    def diagnostics(self, decoded: Sequence[Decoded], best: Decoded | None) -> dict:
        if self.encoding == "onehot":
            return evaluate_population([d.raw for d in decoded]).to_doc()
        return {
            "violation_rate": None,
            "best_deviation_da": best.raw.deviation_da,
            "best_relative": best.raw.relative_deviation,
        }


@dataclass
class TuningReport:
    stop_reason: str
    iterations_run: int
    records: list[IterationRecord]
    memory: TunerMemory
    incumbent_metric: float | None
    incumbent_weights: dict[str, float] | None
    incumbent_payload: dict | None
    final_diagnostics: dict

    @property
    def feasible(self) -> bool:
        return self.incumbent_metric is not None


def run_tuning(
    task,
    initial_weights: Mapping[str, float],
    policy: Callable[[PolicyContext], PolicyDecision],
    solver_config: SolverConfig | None = None,
    max_iter: int = 3,
    max_history: int = 20,
) -> TuningReport:
    """Build -> solve -> decode -> score -> record -> decide, until a stop.

    Terminates on a stop decision, on max_iter, or when the policy proposes
    a weight map that was already tried (the duplicate is not recorded).
    Policy failures raise PolicyError with the last completed record
    attached; they are never swallowed. ``max_iter`` and ``max_history``
    must be ints >= 1 (ValueError).
    """
    require_int(max_iter, "max_iter", 1)
    require_int(max_history, "max_history", 1)
    solver_config = solver_config or SolverConfig()
    memory = TunerMemory(max_history=max_history)
    records: list[IterationRecord] = []
    incumbent_payload = None
    stop_reason = "max_iterations"
    diagnostics = {}
    weights = initial_weights

    for iteration in range(1, max_iter + 1):
        # the initial map or the policy's proposal; only the task's names are kept
        checked = require_weights(weights, task.weight_names)
        weights = {name: checked[name] for name in task.weight_names}
        if memory.seen(weights):
            stop_reason = "duplicate_weights"
            break
        started = time.time()
        q = task.build(weights)
        if task.quantize:
            result = solve_quantized(q, solver_config)
        else:
            result = solve_annealed(q, solver_config)
        decoded = [task.decode(result.bits(rank)) for rank in range(len(result.solutions))]
        summary = [
            {"rank": rank, "energy": energy, **d.fields}
            for rank, ((_, energy), d) in enumerate(zip(result.solutions, decoded))
        ]
        # the incumbent rule; min keeps the first of equal metrics, the lowest rank
        best = min((d for d in decoded if d.metric is not None), key=lambda d: d.metric, default=None)
        diagnostics = task.diagnostics(decoded, best)
        memory.record_trial(weights, None if best is None else best.metric)
        if best is not None and memory.update_best(best.metric, weights):
            incumbent_payload = best.payload

        context = PolicyContext(
            iteration=iteration,
            problem_kind=task.kind,
            current_weights=dict(weights),
            solve_summary=summary,
            diagnostics=diagnostics,
            history=[{"weights": dict(e["weights"]), "metric": e["metric"]} for e in memory.history],
            incumbent=(
                None
                if memory.best_metric is None
                else {"metric": memory.best_metric, "weights": dict(memory.best_weights)}
            ),
        )
        try:
            decision = policy(context)
        except PolicyError as exc:
            exc.last_record = records[-1] if records else None
            raise
        record = IterationRecord(
            iteration=iteration,
            weights=dict(weights),
            solve_meta=dict(result.meta),
            diagnostics=diagnostics,
            decision=decision,
            started_utc=started,
            elapsed_ms=(time.time() - started) * 1000.0,
        )
        records.append(record)

        if decision.action == "stop":
            stop_reason = "policy_stop"
            break
        weights = decision.new_weights

    return TuningReport(
        stop_reason=stop_reason,
        iterations_run=len(records),
        records=records,
        memory=memory,
        incumbent_metric=memory.best_metric,
        incumbent_weights=memory.best_weights,
        incumbent_payload=incumbent_payload,
        final_diagnostics=diagnostics,
    )


def _grow(value: float, ceiling: float | None) -> float:
    grown = min(value * GROWTH_FACTOR, value + ADDITIVE_CAP)
    if ceiling is not None and value < ceiling:
        grown = min(grown, ceiling)
    return float(round(grown))


def rule_policy_fjsp(ctx: PolicyContext) -> PolicyDecision:
    """Raise the weight of whichever constraint class is still violated.

    Machine conflicts dominate: gamma grows by x2.2 capped at +300 per step
    and clipped to a ceiling of 500 until it reaches it (the ceiling is
    released above that so persistent conflicts always raise gamma).
    Assignment and sequencing violations raise alpha and beta the same way.
    Clean diagnostics stop the loop with high confidence; delta is never
    touched, keeping the makespan objective's scale fixed.
    """
    if ctx.problem_kind != "fjsp":
        raise ValueError(f"fjsp policy got problem_kind {ctx.problem_kind!r}")
    diag = ctx.diagnostics
    weights = dict(ctx.current_weights)
    try:
        conflicts = len(diag["machine_conflicts"])
        assignment = len(diag["assignment_violations"])
        sequence = len(diag["sequence_violations"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed fjsp diagnostics: {exc}") from exc

    if conflicts > 0:
        old = weights["gamma"]
        new = _grow(old, GAMMA_CEILING)
        if new <= old:
            # rounding can stall below 1; fall back to the raw growth rule
            new = min(old * GROWTH_FACTOR, old + ADDITIVE_CAP)
        weights["gamma"] = new
        return PolicyDecision(
            "adjust",
            weights,
            rationale=(
                f"{conflicts} machine conflict(s) persist; raising gamma "
                f"{old:g} -> {new:g} with delta fixed at {weights['delta']:g}"
            ),
            confidence="medium",
        )
    if assignment > 0:
        old = weights["alpha"]
        weights["alpha"] = max(_grow(old, None), old + 1.0)
        return PolicyDecision(
            "adjust",
            weights,
            rationale=f"{assignment} operation(s) not assigned exactly once; raising alpha {old:g} -> {weights['alpha']:g}",
            confidence="medium",
        )
    if sequence > 0:
        old = weights["beta"]
        weights["beta"] = max(_grow(old, None), old + 1.0)
        return PolicyDecision(
            "adjust",
            weights,
            rationale=f"{sequence} sequence violation(s); raising beta {old:g} -> {weights['beta']:g}",
            confidence="medium",
        )
    makespan = diag.get("makespan")
    return PolicyDecision(
        "stop",
        rationale=f"schedule is violation-free with makespan {makespan}; weights are adequate",
        confidence="high",
    )


def _clamp_ratio(lambda_pos: float, lambda_mass: float) -> float:
    ratio = lambda_pos / lambda_mass
    ratio = min(max(ratio, RATIO_MIN), RATIO_MAX)
    return ratio * lambda_mass


def rule_policy_peptide(ctx: PolicyContext) -> PolicyDecision:
    """Steer the position-to-mass weight ratio by violation rate.

    Heavy one-hot violation multiplies lambda_pos by 10; mild violation by
    sqrt(10). Once violation-free, a strictly worsening deviation relaxes
    the ratio by sqrt(10), and two consecutive non-improving rounds stop
    the loop. The ratio is clamped to [0.1, 8.5e4].
    """
    if ctx.problem_kind != "peptide":
        raise ValueError(f"peptide policy got problem_kind {ctx.problem_kind!r}")
    weights = dict(ctx.current_weights)
    try:
        lambda_pos = weights["lambda_pos"]
        lambda_mass = weights["lambda_mass"]
    except KeyError as exc:
        raise ValueError(f"peptide weights are missing {exc}") from exc
    rate = ctx.diagnostics.get("violation_rate") or 0.0

    def adjust(new_pos: float, why: str, confidence: str = "medium") -> PolicyDecision:
        weights["lambda_pos"] = _clamp_ratio(new_pos, lambda_mass)
        return PolicyDecision("adjust", weights, rationale=why, confidence=confidence)

    metrics = [entry.get("metric") for entry in ctx.history]
    if rate > VIOLATION_THRESHOLD:
        return adjust(
            lambda_pos * 10.0,
            f"violation rate {rate:.0%} exceeds {VIOLATION_THRESHOLD:.0%}; boosting lambda_pos x10",
        )
    if rate == 0.0 and _stalled(metrics, rounds=2):
        return PolicyDecision(
            "stop",
            rationale="violation-free and deviation non-improving for 2 rounds",
            confidence="high",
        )
    if len(metrics) >= 2 and metrics[-1] is not None and metrics[-2] is not None:
        if metrics[-1] > metrics[-2] + _EPS:
            return adjust(
                lambda_pos / _SQRT10,
                f"mass deviation worsened {metrics[-2]:.3g} -> {metrics[-1]:.3g}; relaxing ratio by sqrt(10)",
            )
    if rate > 0.0:
        return adjust(
            lambda_pos * _SQRT10,
            f"residual violation rate {rate:.0%}; nudging lambda_pos up",
            confidence="low",
        )
    return adjust(
        lambda_pos / _SQRT10,
        "violation-free and improving; trading position weight for mass accuracy",
        confidence="low",
    )


def _stalled(metrics: Sequence[float | None], rounds: int) -> bool:
    # a round is non-improving when its metric fails to beat everything before it
    if len(metrics) < rounds + 1:
        return False
    tail = metrics[-rounds:]
    if any(m is None for m in tail):
        return False
    for k, value in enumerate(tail, start=len(metrics) - rounds):
        earlier = [m for m in metrics[:k] if m is not None]
        if not earlier or value < min(earlier) - _EPS:
            return False
    return True


def single_shot_policy(ctx: PolicyContext) -> PolicyDecision:
    """Stop after the first iteration; for single-build runs."""
    return PolicyDecision("stop", rationale="single-shot run", confidence="high")


def parse_policy_decision(doc, required_names: Sequence[str]) -> PolicyDecision:
    """Read a decision document from the wire; raise PolicyError.

    The wire steps are checked here: JSON, an object, the version, and the
    weight names the loop needs. The decision itself is checked by
    PolicyDecision. Weights sent with a stop are ignored.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise PolicyError(f"malformed policy JSON: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise PolicyError(f"policy response is not an object: {doc!r}")
    if "v" in doc and doc["v"] != WIRE_VERSION:
        raise PolicyError(f"unsupported policy wire version {doc['v']!r}")
    weights = doc.get("weights") if doc.get("action") == "adjust" else None
    try:
        decision = PolicyDecision(doc.get("action"), weights, doc.get("rationale", ""), doc.get("confidence", "medium"))
        if decision.new_weights is not None:
            require_weights(decision.new_weights, required_names)
    except ValueError as exc:
        raise PolicyError(str(exc)) from exc
    return decision


def external_policy(endpoint: str, timeout: float = 30.0) -> Callable[[PolicyContext], PolicyDecision]:
    """Attach an external decision process.

    ``endpoint`` is either an HTTP(S) URL (the context is POSTed as JSON)
    or a shell command (the context is written to stdin as one JSON line
    and the decision read from stdout). Timeouts, malformed JSON, schema
    violations, and non-positive weights all raise PolicyError; a
    ``timeout`` that is not an int or float, finite and > 0, raises
    ValueError.
    """
    require_type([timeout], (int, float), "policy timeout")
    if not 0 < timeout < math.inf:
        raise ValueError(f"policy timeout must be a finite number > 0, got {timeout!r}")
    require_finite(timeout, "policy timeout")  # an int beyond float range
    is_http = endpoint.startswith("http://") or endpoint.startswith("https://")
    argv = None if is_http else shlex.split(endpoint)
    if not is_http and not argv:
        raise ValueError("external policy endpoint is empty")

    def call(ctx: PolicyContext) -> PolicyDecision:
        payload = json.dumps(ctx.to_doc(), sort_keys=True)
        if is_http:
            import urllib.error  # only HTTP policies pay for this import
            import urllib.request

            request = urllib.request.Request(
                endpoint,
                data=payload.encode(),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=timeout) as response:
                    body = response.read().decode()
            except (urllib.error.URLError, TimeoutError, OSError) as exc:
                raise PolicyError(f"policy endpoint {endpoint} failed: {exc}") from exc
        else:
            try:
                proc = subprocess.run(
                    argv,
                    input=payload + "\n",
                    capture_output=True,
                    text=True,
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired as exc:
                raise PolicyError(f"policy command timed out after {timeout}s") from exc
            except OSError as exc:
                raise PolicyError(f"policy command failed to start: {exc}") from exc
            if proc.returncode != 0:
                raise PolicyError(
                    f"policy command exited with {proc.returncode}: {proc.stderr.strip()[:200]}"
                )
            body = proc.stdout
        line = body.strip().splitlines()
        if not line:
            raise PolicyError("policy returned no output")
        return parse_policy_decision(line[0], required_names=tuple(ctx.current_weights))

    return call
