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

from .errors import BudgetExceededError, require_finite, require_int, require_type
from .qubo import (  # qubo_energy, ising_energy: kept in this namespace, bench/spans.py wraps them
    INT8_MAX,
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


def _require_seed(seed) -> None:
    """The one seed rule: an int in [0, 2**64), so no seed is masked into another."""
    require_type([seed], (int,), "seed")
    if not 0 <= seed <= _SEED_MASK:
        raise ValueError(f"seed must be a non-negative 64-bit integer, got {seed}")


def _require_probability(p, what: str) -> None:
    """The one flip-probability rule: an int or float in [0, 1)."""
    require_type([p], (int, float), what)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"{what} must be in [0, 1), got {p}")


@dataclass(frozen=True)
class SolverConfig:
    """Annealer settings.

    ``temp_initial``/``temp_final`` default to 10x and 1e-3x the largest
    field or coupling magnitude of the model being solved. ``top_k`` is
    capped at 10 to match the fixed output structure of the emulated
    hardware. ``readout_flip_prob`` flips each output spin independently;
    ``emulate_latency_ms`` sleeps that long per solve and is reported as the
    (deterministic) wall time. Counts and the seed must be ints, the
    probability and temperatures ints or floats, never bools, and the
    temperatures finite (ValueError).
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
        require_int(self.sweeps, "sweeps", 1)
        require_int(self.restarts, "restarts", 1)
        require_int(self.top_k, "top_k", 1, MAX_SOLUTIONS)
        require_int(self.emulate_latency_ms, "emulate_latency_ms", 0)
        _require_probability(self.readout_flip_prob, "readout_flip_prob")
        for name in ("temp_initial", "temp_final"):
            if getattr(self, name) is not None:
                require_finite(getattr(self, name), name)
        _require_seed(self.seed)
        if (self.temp_initial is None) != (self.temp_final is None):
            raise ValueError("give both temperatures or neither")
        if self.temp_initial is not None:
            if not (self.temp_initial >= self.temp_final > 0):
                raise ValueError("need temp_initial >= temp_final > 0")


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


def _rank(
    spins: np.ndarray, work: IsingModel, top_k: int, energies: np.ndarray | None = None
) -> tuple[tuple[tuple[int, ...], float], ...]:
    """The top_k rows by (energy, lexicographic vector), so merge order can
    never influence the output.

    Without ``energies`` the rows are deduplicated and evaluated by
    ``batch_energy``. Given, ``energies`` must be each row's exact energy
    under ``work``, as ``batch_energy`` would give it, and the rows distinct.
    """
    vecs = list(map(tuple, spins.astype(np.int64).tolist()))
    if energies is None:
        vecs = list(dict.fromkeys(vecs))
        energies = batch_energy(work, vecs)
    ranked = sorted(zip(energies.tolist(), vecs))
    return tuple((vec, e) for e, vec in ranked[:top_k])


def solve_exact(model: Model, top_k: int = MAX_SOLUTIONS) -> SolveResult:
    """Exhaustively enumerate all states; exact, deterministic, n <= 24.

    Split-half enumeration in bounded memory: with A the first ceil(n/2)
    spins and B the rest, E(a, b) = E_A(a) + E_B(b) + a^T J_AB b is summed
    in float64 for up to 2**20 states (8 MiB) at a time; the k lowest are ranked.
    """
    require_int(top_k, "top_k", 1, MAX_SOLUTIONS)
    work = _as_positive_ising(model)
    if work.n > MAX_EXACT_VARIABLES:
        raise BudgetExceededError(
            f"exact enumeration is limited to {MAX_EXACT_VARIABLES} variables, got {work.n}"
        )
    n, na, size_b = work.n, (work.n + 1) // 2, 2 ** (work.n // 2)
    upper = np.zeros((n, n))
    upper[work.rows, work.cols] = work.vals
    # index a * size_b + b, spin j of a in bit na - 1 - j: lexicographic, -1 first
    spins_a = ((np.arange(2**na)[:, None] >> np.arange(na - 1, -1, -1)) & 1) * 2.0 - 1.0
    spins_b = spins_a[:size_b, 2 * na - n :]  # for odd n, A's states that start with -1, less that spin
    energies_a = ((spins_a @ upper[:na, :na] + work.lin[:na]) * spins_a).sum(axis=1) + work.offset
    energies_b = ((spins_b @ upper[na:, na:] + work.lin[na:]) * spins_b).sum(axis=1)
    rows, k = 2**20 // size_b, min(top_k, 2**n)
    found = []  # each block's k lowest by (energy, index): ties to the lower index
    for start in range(0, 2**na, rows):
        block = spins_a[start : start + rows] @ upper[:na, na:] @ spins_b.T
        block += energies_a[start : start + rows, None]
        block += energies_b
        kth = np.partition(block, k - 1, axis=None)[k - 1]
        below = np.flatnonzero(block < kth)
        chosen = np.concatenate([below, np.flatnonzero(block == kth)[: k - below.size]])
        found.append((block.ravel()[chosen], start * size_b + chosen))
    energies, states = map(np.concatenate, zip(*found))
    states = states[np.lexsort((states, energies))[:k]]
    solutions = _rank(np.hstack([spins_a[states // size_b], spins_b[states % size_b]]), work, k)
    meta = {
        "method": "exact",
        "seed": 0,
        "sweeps": 0,
        "restarts": 0,
        "wall_time_ms": 0,
        "quantized": False,
        "states_enumerated": 2**n,
    }
    return SolveResult(solutions, meta, work)


def _max_abs(x: np.ndarray) -> float:
    """max |x|, 0 for an empty x, without an array of |x|."""
    return max(x.max(initial=0.0), -x.min(initial=0.0))


def _dense_fields(work: IsingModel) -> tuple[np.ndarray, np.ndarray]:
    """The fields ``h`` and the dense symmetric couplings of ``work``, in the
    dtypes the anneal runs in; ``h.dtype`` is the state dtype.

    float32 is exact when every coefficient is a multiple of 1/4 and
    8 (max|h| + n max|J|) < 2**24: each field, partial sum, +-2-spin flip
    update and energy term is then a multiple of 1/4 that fits float32's
    24-bit significand, so the anneal matches float64 bit for bit. In that
    regime, if every |4 J_ij| <= 127, the couplings are stored as int8
    holding 4J, which is every int8-quantized model (there 4 J_ij = Q_ij):
    n**2 bytes instead of 4 n**2. Every other model keeps float32 or
    float64 couplings, in the dtype of ``h``. The pair-sized temporaries
    of these checks are freed before the matrix is made.
    """
    quarters = work.vals * 4.0
    bound = 8.0 * (_max_abs(work.lin) + work.n * _max_abs(work.vals))
    exact = bound < 2**24 and all(np.array_equal(x, np.round(x)) for x in (work.lin * 4.0, quarters))
    dtype = np.float32 if exact else np.float64
    coupling_dtype, vals = dtype, work.vals
    if exact and _max_abs(quarters) <= INT8_MAX:
        coupling_dtype, vals = np.int8, quarters.astype(np.int8)  # 4J
    del quarters
    jmat = np.zeros((work.n, work.n), coupling_dtype)
    jmat[work.rows, work.cols] = jmat[work.cols, work.rows] = vals
    return work.lin.astype(dtype), jmat


_WIDEN_ROWS = 256  # int8 coupling rows widened to the state dtype at a time


def _fields(spins: np.ndarray, jmat: np.ndarray, h: np.ndarray) -> np.ndarray:
    """spins @ J + h, in the state dtype.

    An int8 ``jmat`` holds 4J. It is widened ``_WIDEN_ROWS`` rows at a time,
    since a single ``spins @ jmat`` would widen a copy of all n x n
    couplings. int8 couplings occur only in the exact regime, where every
    partial sum is exact, so the chunking does not change the result.
    Other dtypes keep ``spins @ jmat + h`` and its summation order.
    """
    if jmat.dtype != np.int8:
        return spins @ jmat + h
    fields = spins[:, :_WIDEN_ROWS] @ jmat[:_WIDEN_ROWS]
    for start in range(_WIDEN_ROWS, h.size, _WIDEN_ROWS):
        fields += spins[:, start : start + _WIDEN_ROWS] @ jmat[start : start + _WIDEN_ROWS]
    fields *= 0.25
    fields += h
    return fields


def _resolve_temps(config: SolverConfig, work: IsingModel) -> tuple[float, float]:
    if config.temp_initial is not None:
        return float(config.temp_initial), float(config.temp_final)
    scale = float(max(_max_abs(work.lin), _max_abs(work.vals))) or 1.0
    return 10.0 * scale, 1e-3 * scale


def _sweeps(h: np.ndarray, jmat: np.ndarray, config: SolverConfig, t0: float, t1: float):
    """Run restart-batched annealing chains, yielding ``(spins, energies)``
    after every sweep: the restarts' spins in the dtype of ``h`` and their
    float64 energies less the offset, in buffers the next sweep overwrites.

    Spins are visited in a fresh random order every sweep; orders and blocks
    are drawn from a schedule stream so that chains stay independent given
    their own per-restart streams (seed XOR restart index). Within a block,
    acceptance tests use the fields from before the block (single-spin
    semantics hold exactly when blocks are singletons, which is forced for
    small models). Spins and fields take the dtype of ``h``, which
    ``_dense_fields`` makes float32 only where that is exact; the
    acceptance test and the energies are float64 either way. ``jmat`` has
    that dtype too, or is int8 holding 4J (see ``_dense_fields``).

    Every buffer and block view the sweep uses is made once per solve;
    only the field resync every 256 sweeps allocates, and, with int8
    couplings, each block's matmul, which widens its rows itself.
    Each sweep, each restart draws its n acceptance uniforms into its row
    of ``uniforms``, which the block views see. The visiting order is
    shuffled in place, which is what ``Generator.permutation`` does to a
    fresh ``arange``.

    Each sweep gathers the spins once in visiting order (``visit``) and
    derives two buffers from it: the flip deltas -2 * visit, and
    visit * 2beta in float64. With int8 couplings the deltas are
    -0.5 * visit, so that delta @ 4J multiplies exactly the values that
    (-2 * visit) @ J would, and every field is bit for bit the same.
    As s = +-1, (s * 2beta) * f is bit for bit (s * f) * 2beta, so a block needs one product for -dE * beta. The test
    u < exp(-dE * beta) needs no clamp of the exponent at 0: a positive one
    gives exp >= 1 > u, as the clamp would, and one past exp's range gives
    inf, so overflow warnings are silenced. Each block writes its deltas
    times the accept mask into its view of ``delta`` and multiplies that
    strided view with its rows of ``jmat``. A rejected flip's entry is
    -2s * 0, which is -0.0 where s = +1 (a mask select would give +0.0).
    A signed zero adds nothing to a sum that has a nonzero term, so the
    only possible difference is the sign of a field or energy that is
    exactly zero: exp(+-0) = 1 and -0.0 == 0.0, so no accept decision or
    energy comparison changes, and in a float32 anneal a yielded
    energy plus the offset equals its re-evaluation, in sign too unless
    the offset is -0.0.
    Every spin is visited once per sweep, so no block reads a spin that an
    earlier block of the sweep flipped: after the last block (and
    ``delta *= 4`` with int8 couplings, which keeps the signs of zeros),
    ``visit += delta`` applies the flips (s - 2s = -s and
    s + 0 = s, both exact) and one gather through the inverse of the
    visiting order writes them back to ``spins``.
    """
    n = h.size
    restarts = config.restarts
    rngs = [np.random.default_rng((config.seed ^ r) & _SEED_MASK) for r in range(restarts)]
    schedule_rng = np.random.default_rng((config.seed ^ _SCHEDULE_SALT) & _SEED_MASK)

    spins = np.empty((restarts, n), h.dtype)
    for r, rng in enumerate(rngs):
        spins[r] = rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0
    fields = _fields(spins, jmat, h)
    holds_4j = jmat.dtype == np.int8
    step = -0.5 if holds_4j else -2.0  # flip delta per unit spin

    sweeps = config.sweeps
    temps = t0 * (t1 / t0) ** (np.arange(sweeps) / max(sweeps - 1, 1))

    # per-sweep buffers in visiting order, each block's views of them, and
    # scratch shared by all blocks (contiguous views of the widest block's)
    natural = np.arange(n)
    order, inverse = np.empty(n, np.intp), np.empty(n, np.intp)
    uniforms = np.empty((restarts, n))
    visit = np.empty_like(spins)
    flips = np.empty_like(spins)  # flip deltas, step * visit
    delta = np.empty_like(spins)  # flip deltas of accepted flips, +-0 elsewhere
    visit2b = np.empty((restarts, n))  # visit * 2 beta
    dfields = np.empty_like(spins)
    local = np.empty_like(spins)  # spins * (fields + h)
    energies = np.empty(restarts)
    spans = np.array_split(natural, n if n <= 32 else (n + 15) // 16)
    widest = spans[0].size
    f_buf, p_buf = np.empty(restarts * widest, h.dtype), np.empty(restarts * widest)
    a_buf = np.empty(restarts * widest, bool)
    j_buf = np.empty((widest, n), jmat.dtype)
    blocks = []
    for span in spans:
        cols, w = slice(int(span[0]), int(span[-1]) + 1), span.size
        f_blk, p, accept = (buf[: restarts * w].reshape(restarts, w) for buf in (f_buf, p_buf, a_buf))
        blocks.append((order[cols], f_blk, visit2b[:, cols], p, uniforms[:, cols], accept, flips[:, cols], delta[:, cols], j_buf[:w]))

    for sweep in range(sweeps):
        for r, rng in enumerate(rngs):
            rng.random(out=uniforms[r])
        order[:] = natural
        schedule_rng.shuffle(order)
        spins.take(order, 1, visit, "clip")
        np.multiply(visit, step, out=flips)
        np.multiply(visit, 2.0 / temps[sweep], out=visit2b, dtype=np.float64)
        with np.errstate(over="ignore"):
            for block, f_blk, v2b, p, u, accept, fl, d_blk, j_blk in blocks:
                fields.take(block, 1, f_blk, "clip")
                np.multiply(v2b, f_blk, out=p)  # -dE of each flip, times beta
                np.exp(p, out=p)
                np.less(u, p, out=accept)
                np.multiply(fl, accept, out=d_blk)
                if np.count_nonzero(accept):
                    jmat.take(block, 0, j_blk, "clip")
                    fields += np.matmul(d_blk, j_blk, out=dfields)
        if holds_4j:
            delta *= 4.0
        visit += delta
        inverse[order] = natural
        visit.take(inverse, 1, spins, "clip")
        if (sweep & 255) == 255:
            fields = _fields(spins, jmat, h)  # shed incremental-update drift
        np.add(fields, h, out=local)
        np.multiply(spins, local, out=local)
        np.add.reduce(local, axis=1, dtype=np.float64, out=energies)
        energies *= 0.5
        yield spins, energies  # outside errstate, which NumPy 1.x keeps per thread


def _anneal_pool(h: np.ndarray, jmat: np.ndarray, config: SolverConfig, t0: float, t1: float) -> dict[bytes, float]:
    """Pool the distinct states that ``_sweeps`` yields, keyed by their spins
    as float64 bytes, each with the lowest energy less the offset it had.
    Up to ``pool_cap`` states are kept. While the pool is full, a state
    enters only below the pool's largest energy, and a sweep whose energies
    all reach it is skipped whole. A new state that overfills the pool cuts
    it to the ``pool_cap // 2`` lowest by (energy, key).
    """
    pool: dict[bytes, float] = {}
    pool_cap = max(32, 4 * config.top_k)
    for spins, energies in _sweeps(h, jmat, config, t0, t1):
        if len(pool) >= pool_cap and energies.min() >= max(pool.values()):
            continue
        keys = spins.astype(np.float64, copy=False)
        for r, e in enumerate(energies.tolist()):
            if len(pool) >= pool_cap and e >= max(pool.values()):
                continue
            key = keys[r].tobytes()
            if e < pool.get(key, np.inf):
                pool[key] = e
                if len(pool) > pool_cap:
                    pool = {k: v for v, k in sorted(zip(pool.values(), pool))[: pool_cap // 2]}
    return pool


def solve_annealed(model: Model, config: SolverConfig | None = None) -> SolveResult:
    """Multi-restart annealing under a geometric cooling schedule.

    Each sweep visits every spin once, in a fresh random order, with the
    Metropolis acceptance rule. For n <= 32 the updates are single-spin
    Metropolis. For larger n they are block-synchronous: blocks of about 16
    spins are tested together against the fields from before the block, so
    two coupled spins of one block may flip in the same step. That biases
    the law the chain samples at a fixed temperature: for 5 coupled spins
    among 48, at T = 1, the total-variation distance of their histogram to
    the Boltzmann law measures about 0.16, against about 0.01 for the same
    5 spins alone, where the updates are single-spin.

    Restart r runs its own chain, whose initial spins and acceptance draws
    come from a stream seeded with seed XOR r; the best distinct states
    across all chains are pooled and ranked by (energy, vector). A float32
    anneal (see ``_dense_fields``) is exact, so its pooled energies plus
    the offset are already what ``batch_energy`` gives and are ranked as
    they are. An int8-quantized model's couplings are held as int8, n**2
    bytes instead of float32's 4 n**2, with the same results. A float64
    anneal's pooled energies carry the drift of the
    incremental field updates (up to about 1.5e-7 on LACRP4), so its
    states are re-evaluated by ``batch_energy`` first. Seeds therefore
    share chain streams: with the default 8 restarts, seeds 0-7 all run
    the streams seeded 0-7 (each in another order) and differ only in the
    visiting order, which comes from a stream of the seed itself; seeds
    8-15 share the next set, and so on for any aligned block of
    ``restarts`` seeds when ``restarts`` is a power of two. Runs over
    consecutive seeds are less independent than their count suggests.
    """
    config = config or SolverConfig()
    work = _as_positive_ising(model)
    h, jmat = _dense_fields(work)
    t0, t1 = _resolve_temps(config, work)
    if config.emulate_latency_ms:
        time.sleep(config.emulate_latency_ms / 1000.0)
    pool = _anneal_pool(h, jmat, config, t0, t1)
    spins = np.frombuffer(b"".join(pool), dtype=np.float64).reshape(len(pool), work.n)
    # a float32 anneal is exact, so its pool holds each state's energy less the offset
    exact = np.fromiter(pool.values(), np.float64, len(pool)) + work.offset if h.dtype == np.float32 else None
    solutions = _rank(spins, work, config.top_k, exact)
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
        result = apply_readout_noise(result, config.readout_flip_prob, config.seed ^ _READOUT_SALT)
    return result


def _original_energies(original: QuboMatrix, solutions) -> list[float]:
    """Each solution's energy under the unquantized matrix, in order."""
    bits = (np.array([vec for vec, _ in solutions]) + 1) // 2
    return batch_energy(original, bits).tolist()


def apply_readout_noise(result: SolveResult, p: float, seed: int) -> SolveResult:
    """Flip each spin of each solution independently with probability p.

    Energies are recomputed under the solved model and the list re-sorted
    (and re-deduplicated, since flips can collide vectors). p = 0 returns
    the result unchanged. The seed follows SolverConfig's rule: an int in
    [0, 2**64).
    """
    _require_probability(p, "flip probability")
    _require_seed(seed)
    if p == 0.0:
        return result
    spins = np.array([vec for vec, _ in result.solutions])
    flips = np.random.default_rng(seed).random(spins.shape) < p
    solutions = _rank(np.where(flips, -spins, spins), result.model, len(spins))
    meta = dict(result.meta)
    meta["readout_flip_prob"] = p
    meta["readout_seed"] = seed
    if result.original_model is not None:
        meta["original_energies"] = _original_energies(result.original_model, solutions)
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
    noted = {"quantized": True, "scale": quantized.scale, "quant_report": quantized.report.to_doc()}
    model = qubo_to_ising(quantized.to_matrix())
    del quantized  # only the Ising form of the int8 model stays alive through the anneal
    result = solve_annealed(model, config)
    meta = {**result.meta, **noted, "original_energies": _original_energies(q, result.solutions)}
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
