"""Ground-state solvers returning a standardized ranked-solution result.

Two engines share one contract: an exact enumerator for small models and a
seeded multi-restart annealer that emulates an optical Ising machine,
including its bounded solution list, signed 8-bit input quantization, and
optional readout spin flips. Identical (model, config) always produces an
identical result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import BudgetExceededError
from .qubo import (  # qubo_energy, ising_energy: kept in this namespace, bench/spans.py wraps them
    IsingConvention,
    IsingModel,
    QuboMatrix,
    batch_energy,
    flip_convention,
    ising_energy,
    quantize_int8,
    qubo_energy,
    qubo_to_ising,
    spins_to_bits,
)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "solve_exact",
    "solve_annealed",
    "solve_quantized",
    "apply_readout_noise",
    "result_to_doc",
    "MAX_EXACT_VARIABLES",
    "MAX_SOLUTIONS",
]

MAX_EXACT_VARIABLES = 24
MAX_SOLUTIONS = 10  # hardware-style cap on returned solution vectors

_SEED_MASK = (1 << 64) - 1
_SCHEDULE_SALT = 0x9E3779B97F4A7C15
_READOUT_SALT = 0x6A09E667F3BCC909

Model = Union[IsingModel, QuboMatrix]


@dataclass(frozen=True)
class SolverConfig:
    """Annealer settings.

    ``temp_initial``/``temp_final`` default to 10x and 1e-3x the largest
    field or coupling magnitude of the model being solved. ``top_k`` is
    capped at 10 to match the fixed output structure of the emulated
    hardware. ``readout_flip_prob`` flips each output spin independently;
    ``emulate_latency_ms`` sleeps that long per solve and is reported as the
    (deterministic) wall time.
    """

    sweeps: int = 5000
    restarts: int = 8
    temp_initial: float | None = None
    temp_final: float | None = None
    seed: int = 0
    top_k: int = MAX_SOLUTIONS
    readout_flip_prob: float = 0.0
    emulate_latency_ms: int = 0

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not 1 <= self.top_k <= MAX_SOLUTIONS:
            raise ValueError(f"top_k must be in [1, {MAX_SOLUTIONS}], got {self.top_k}")
        if not 0.0 <= self.readout_flip_prob < 1.0:
            raise ValueError(f"readout_flip_prob must be in [0, 1), got {self.readout_flip_prob}")
        if self.emulate_latency_ms < 0:
            raise ValueError("emulate_latency_ms must be >= 0")
        if (self.temp_initial is None) != (self.temp_final is None):
            raise ValueError("give both temperatures or neither")
        if self.temp_initial is not None:
            if not (self.temp_initial >= self.temp_final > 0):
                raise ValueError("need temp_initial >= temp_final > 0")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative 64-bit integer")


@dataclass(frozen=True)
class SolveResult:
    """Distinct spin vectors with energies, ascending, at most top_k of them.

    Every energy re-evaluates exactly under ``model`` (the model the solver
    actually ranked by). For quantized runs ``original_model`` holds the
    matrix before quantization and ``meta["original_energies"]`` the
    re-evaluation of each solution under it.
    """

    solutions: tuple[tuple[tuple[int, ...], float], ...]
    meta: dict
    model: IsingModel
    original_model: QuboMatrix | None = None

    @property
    def best(self) -> tuple[tuple[int, ...], float]:
        return self.solutions[0]

    def bits(self, rank: int = 0) -> tuple[int, ...]:
        return spins_to_bits(self.solutions[rank][0])


def _as_positive_ising(model: Model) -> IsingModel:
    if isinstance(model, QuboMatrix):
        return qubo_to_ising(model, IsingConvention.POSITIVE_SUM)
    if model.convention is IsingConvention.NEGATED_SUM:
        return flip_convention(model)
    return model


def _rank(spins: np.ndarray, work: IsingModel, top_k: int) -> tuple[tuple[tuple[int, ...], float], ...]:
    # dedup by vector, then sort by (energy, lexicographic vector) so merge
    # order can never influence the output
    vecs = list(dict.fromkeys(map(tuple, spins.astype(np.int64).tolist())))
    ranked = sorted(zip(batch_energy(work, vecs).tolist(), vecs))
    return tuple((vec, e) for e, vec in ranked[:top_k])


def _enumerate_spin_energies(work: IsingModel) -> np.ndarray:
    """Energies of all 2^n spin states of a POSITIVE_SUM model.

    Index order is lexicographic over (s_0, ..., s_{n-1}) with -1 before +1:
    spin j occupies bit (n - 1 - j) of the state index.
    """
    n = work.n
    starts = np.searchsorted(work.rows, np.arange(n + 1))  # row k's couplings: starts[k]:starts[k + 1]
    energies = np.zeros(1)
    for k in range(n - 1, -1, -1):
        idx = np.arange(energies.size, dtype=np.int64)
        contrib = np.full(energies.size, work.lin[k])
        span = slice(starts[k], starts[k + 1])
        for j, v in zip(work.cols[span].tolist(), work.vals[span].tolist()):
            contrib += v * (((idx >> (n - 1 - j)) & 1) * 2 - 1).astype(np.float64)
        energies = np.concatenate([energies - contrib, energies + contrib])
    return energies + work.offset


def solve_exact(model: Model, top_k: int = MAX_SOLUTIONS) -> SolveResult:
    """Exhaustively enumerate all states; exact, deterministic, n <= 24."""
    if not 1 <= top_k <= MAX_SOLUTIONS:
        raise ValueError(f"top_k must be in [1, {MAX_SOLUTIONS}], got {top_k}")
    work = _as_positive_ising(model)
    if work.n > MAX_EXACT_VARIABLES:
        raise BudgetExceededError(
            f"exact enumeration is limited to {MAX_EXACT_VARIABLES} variables, got {work.n}"
        )
    energies = _enumerate_spin_energies(work)
    k = min(top_k, energies.size)
    kth = np.partition(energies, k - 1)[k - 1]
    below = np.flatnonzero(energies < kth)
    at = np.flatnonzero(energies == kth)[: k - below.size]
    chosen = np.concatenate([below, at])[:, None]
    solutions = _rank(((chosen >> (work.n - 1 - np.arange(work.n))) & 1) * 2 - 1, work, k)
    meta = {
        "method": "exact",
        "seed": 0,
        "sweeps": 0,
        "restarts": 0,
        "wall_time_ms": 0,
        "quantized": False,
        "states_enumerated": int(energies.size),
    }
    return SolveResult(solutions, meta, work)


def _dense_fields(work: IsingModel) -> tuple[np.ndarray, np.ndarray]:
    # float32 is exact when every coefficient is a multiple of 1/4 and
    # 8 (max|h| + n max|J|) < 2**24: each field, partial sum, +-2-spin flip
    # update and energy term is then a multiple of 1/4 that fits float32's
    # 24-bit significand, so the anneal matches float64 bit for bit
    quarters = np.concatenate([work.lin, work.vals]) * 4.0
    bound = 8.0 * (np.abs(work.lin).max() + work.n * np.abs(work.vals).max(initial=0.0))
    dtype = np.float32 if bound < 2**24 and np.array_equal(quarters, np.round(quarters)) else np.float64
    jmat = np.zeros((work.n, work.n), dtype)
    jmat[work.rows, work.cols] = jmat[work.cols, work.rows] = work.vals
    return work.lin.astype(dtype), jmat


def _resolve_temps(config: SolverConfig, work: IsingModel) -> tuple[float, float]:
    if config.temp_initial is not None:
        return float(config.temp_initial), float(config.temp_final)
    scale = float(np.max(np.abs(np.concatenate([work.lin, work.vals])))) or 1.0
    return 10.0 * scale, 1e-3 * scale


def _anneal_pool(
    h: np.ndarray, jmat: np.ndarray, config: SolverConfig, t0: float, t1: float
) -> dict[bytes, float]:
    """Run restart-batched annealing chains; return visited low-energy states.

    Spins are visited in a fresh random order every sweep; orders and blocks
    are drawn from a schedule stream so that chains stay independent given
    their own per-restart streams (seed XOR restart index). Within a block,
    acceptance tests use the fields from before the block (single-spin
    semantics hold exactly when blocks are singletons, which is forced for
    small models). Spins and fields take the dtype of ``h`` and ``jmat``,
    which ``_dense_fields`` makes float32 only where that is exact; the
    acceptance test, the energies and the pool keys (spin vectors as float64
    bytes) are float64 either way.

    Each sweep gathers the spins once in visiting order (``visit``) and
    derives two buffers from it: the flip deltas -2 * visit, and
    visit * 2beta in float64. As s = +-1, (s * 2beta) * f is bit for bit
    (s * f) * 2beta, so a block needs one product for -dE * beta. The test
    u < exp(-dE * beta) needs no clamp of the exponent at 0: a positive one
    gives exp >= 1 > u, as the clamp would, and one past exp's range gives
    inf, so overflow warnings are silenced. Every spin is visited once per
    sweep, so no block reads a spin that an earlier block of the sweep
    flipped: accepted flips are recorded in ``flips`` and written to
    ``spins`` once, after the sweep's last block. The pool's largest
    energy is kept incrementally; it is recomputed only when the entry
    holding it is lowered.
    """
    n = h.size
    restarts = config.restarts
    rngs = [np.random.default_rng((config.seed ^ r) & _SEED_MASK) for r in range(restarts)]
    schedule_rng = np.random.default_rng((config.seed ^ _SCHEDULE_SALT) & _SEED_MASK)

    spins = np.empty((restarts, n), jmat.dtype)
    for r, rng in enumerate(rngs):
        spins[r] = rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0
    fields = spins @ jmat + h

    sweeps = config.sweeps
    if sweeps > 1:
        temps = t0 * (t1 / t0) ** (np.arange(sweeps) / (sweeps - 1))
    else:
        temps = np.array([t0])

    # per-sweep buffers in visiting order, each block's views of them, and
    # scratch shared by all blocks (contiguous views of the widest block's)
    order = np.empty(n, np.intp)
    uniforms = np.empty((restarts, n))
    visit = np.empty_like(spins)
    minus2 = np.empty_like(spins)  # flip deltas
    visit2b = np.empty((restarts, n))  # visit * 2 beta
    flips = np.empty((restarts, n), bool)
    dfields = np.empty_like(spins)
    spans = np.array_split(np.arange(n), n if n <= 32 else (n + 15) // 16)
    widest = spans[0].size
    f_buf, p_buf = np.empty(restarts * widest, jmat.dtype), np.empty(restarts * widest)
    j_buf = np.empty((widest, n), jmat.dtype)
    blocks = []
    for span in spans:
        cols, w = slice(int(span[0]), int(span[-1]) + 1), span.size
        f_blk, p = f_buf[: restarts * w].reshape(restarts, w), p_buf[: restarts * w].reshape(restarts, w)
        blocks.append((order[cols], f_blk, visit2b[:, cols], p, uniforms[:, cols], flips[:, cols], minus2[:, cols], j_buf[:w]))

    pool: dict[bytes, float] = {}
    pool_cap = max(32, 4 * config.top_k)
    pool_worst = -np.inf  # largest energy in the pool

    for sweep in range(sweeps):
        order[:] = schedule_rng.permutation(n)
        for r, rng in enumerate(rngs):
            rng.random(out=uniforms[r])
        spins.take(order, 1, visit, "clip")
        np.multiply(visit, -2.0, out=minus2)
        np.multiply(visit, 2.0 / temps[sweep], out=visit2b, dtype=np.float64)
        with np.errstate(over="ignore"):
            for block, f_blk, v2b, p, u, accept, m2, j_blk in blocks:
                fields.take(block, 1, f_blk, "clip")
                np.multiply(v2b, f_blk, out=p)  # -dE of each flip, times beta
                np.exp(p, out=p)
                np.less(u, p, out=accept)
                if np.count_nonzero(accept):
                    jmat.take(block, 0, j_blk, "clip")
                    fields += np.matmul(np.where(accept, m2, 0.0), j_blk, out=dfields)
        np.negative(visit, out=visit, where=flips)
        spins[:, order] = visit
        if (sweep & 255) == 255:
            fields = spins @ jmat + h  # shed incremental-update drift
        energies = 0.5 * np.sum(spins * (fields + h), axis=1, dtype=np.float64)
        full = len(pool) >= pool_cap
        if full and energies.min() >= pool_worst:
            continue
        keys = spins.astype(np.float64, copy=False)
        for r, e in enumerate(energies.tolist()):
            if full and e >= pool_worst:
                continue
            key = keys[r].tobytes()
            prev = pool.get(key)
            if prev is None:
                pool[key] = e
                pool_worst = max(pool_worst, e)
                if len(pool) > pool_cap:
                    keep = sorted(pool.items(), key=lambda kv: (kv[1], kv[0]))[: pool_cap // 2]
                    pool = dict(keep)
                    pool_worst = keep[-1][1]
                full = len(pool) >= pool_cap
            elif e < prev:
                pool[key] = e
                if prev == pool_worst:
                    pool_worst = max(pool.values())
    return pool


def solve_annealed(model: Model, config: SolverConfig | None = None) -> SolveResult:
    """Multi-restart annealing under a geometric cooling schedule.

    Each sweep visits every spin once, in a fresh random order, with the
    Metropolis acceptance rule. For n <= 32 the updates are single-spin
    Metropolis. For larger n they are block-synchronous: blocks of about 16
    spins are tested together against the fields from before the block, so
    two coupled spins of one block may flip in the same step.

    Restart r runs an independent chain seeded with seed XOR r; the best
    distinct states across all chains are pooled, re-evaluated, and ranked.
    """
    config = config or SolverConfig()
    work = _as_positive_ising(model)
    h, jmat = _dense_fields(work)
    t0, t1 = _resolve_temps(config, work)
    if config.emulate_latency_ms:
        time.sleep(config.emulate_latency_ms / 1000.0)
    pool = _anneal_pool(h, jmat, config, t0, t1)
    spins = np.frombuffer(b"".join(pool), dtype=np.float64).reshape(len(pool), work.n)
    solutions = _rank(spins, work, config.top_k)
    meta = {
        "method": "annealed",
        "seed": config.seed,
        "sweeps": config.sweeps,
        "restarts": config.restarts,
        "temp_initial": t0,
        "temp_final": t1,
        "wall_time_ms": config.emulate_latency_ms,
        "quantized": False,
    }
    result = SolveResult(solutions, meta, work)
    if config.readout_flip_prob > 0.0:
        result = apply_readout_noise(
            result, config.readout_flip_prob, (config.seed ^ _READOUT_SALT) & _SEED_MASK
        )
    return result


def apply_readout_noise(result: SolveResult, p: float, seed: int) -> SolveResult:
    """Flip each spin of each solution independently with probability p.

    Energies are recomputed under the solved model and the list re-sorted
    (and re-deduplicated, since flips can collide vectors). p = 0 returns
    the result unchanged.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"flip probability must be in [0, 1), got {p}")
    if p == 0.0:
        return result
    spins = np.array([vec for vec, _ in result.solutions])
    flips = np.random.default_rng(seed & _SEED_MASK).random(spins.shape) < p
    solutions = _rank(np.where(flips, -spins, spins), result.model, len(spins))
    meta = dict(result.meta)
    meta["readout_flip_prob"] = p
    meta["readout_seed"] = seed
    if result.original_model is not None:
        bits = (np.array([vec for vec, _ in solutions]) + 1) // 2
        meta["original_energies"] = batch_energy(result.original_model, bits).tolist()
    return SolveResult(solutions, meta, result.model, result.original_model)


def solve_quantized(q: QuboMatrix, config: SolverConfig | None = None) -> SolveResult:
    """Anneal the signed 8-bit quantization of q.

    Reported energies are in quantized units (the model actually solved);
    ``meta["original_energies"]`` re-evaluates every solution under the
    unquantized matrix, and ``meta["quant_report"]`` carries the rounding
    diagnostics. Raises DegenerateMatrixError on an all-zero matrix.
    """
    config = config or SolverConfig()
    quantized = quantize_int8(q)
    result = solve_annealed(quantized.to_matrix(), config)
    meta = dict(result.meta)
    meta["quantized"] = True
    meta["scale"] = quantized.scale
    meta["quant_report"] = quantized.report.to_doc()
    bits = (np.array([vec for vec, _ in result.solutions]) + 1) // 2
    meta["original_energies"] = batch_energy(q, bits).tolist()
    return SolveResult(result.solutions, meta, result.model, original_model=q)


def result_to_doc(result: SolveResult, include_bits: bool = True) -> dict:
    doc = {
        "solutions": [
            {"spins": list(vec), "energy": e} for vec, e in result.solutions
        ],
        "meta": dict(result.meta),
    }
    if include_bits:
        for entry in doc["solutions"]:
            entry["bits"] = [(+1 + s) // 2 for s in entry["spins"]]
    return doc
