"""Ground-state solvers returning a standardized ranked-solution result.

Two engines share one contract: an exact enumerator for small models and a
seeded multi-restart annealer that emulates an optical Ising machine,
including its bounded solution list, signed 8-bit input quantization, and
optional readout spin flips. Identical (model, config) always produces an
identical result.
"""

from __future__ import annotations

import math
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
    _require_energy_range(work)
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
    return float(max(x.max(initial=0.0), -x.min(initial=0.0)))


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


# int8 coupling rows widened to the state dtype at a time. 32 rows of
# float32 stay in cache: at n = 2,726 (2-vCPU Xeon) the initial fields took
# 2.3 ms, against 4.6 ms in chunks of 256 rows.
_WIDEN_ROWS = 32


def _fields(spins: np.ndarray, jmat: np.ndarray, h: np.ndarray, wide: np.ndarray | None) -> np.ndarray:
    """spins @ jmat + h in the state dtype, with ``h`` in ``jmat``'s units.

    An int8 ``jmat`` is copied into ``wide``, the solve's buffer of up to
    ``_WIDEN_ROWS`` rows in the state dtype, one chunk of rows at a time,
    and each chunk's product is added: a single ``spins @ jmat`` would
    widen a copy of all n x n couplings, and a mixed product a fresh copy
    of its chunk. It occurs only in the exact regime, so the chunking does
    not change the result. Other dtypes take one product (``wide`` is None).
    """
    if wide is None:
        return spins @ jmat + h
    for start in range(0, h.size, len(wide)):
        chunk = wide[: min(len(wide), h.size - start)]
        chunk[...] = jmat[start : start + len(chunk)]
        product = spins[:, start : start + len(chunk)] @ chunk
        if start:
            fields += product
        else:
            fields = product
    fields += h
    return fields


def _resolve_temps(config: SolverConfig, work: IsingModel) -> tuple[float, float]:
    """The schedule's end temperatures, given or scaled to ``work``;
    ValueError unless t0 and 2 / t1 are finite and t1 / t0 > 0."""
    if config.temp_initial is not None:
        t0, t1 = float(config.temp_initial), float(config.temp_final)
    else:
        scale = float(max(_max_abs(work.lin), _max_abs(work.vals))) or 1.0
        t0, t1 = 10.0 * scale, 1e-3 * scale
    if not (math.isfinite(t0) and t1 / t0 > 0 and math.isfinite(2.0 / t1)):
        raise ValueError(
            f"temp_initial={t0!r} and temp_final={t1!r} leave float range: need a finite"
            " temp_initial, temp_final / temp_initial > 0 and a finite 2 / temp_final"
        )
    return t0, t1


def _require_energy_range(work: IsingModel) -> None:
    """ValueError unless every energy of ``work`` stays in float range, with
    room for the solvers' sums: 4 (|offset| + sum |h| + sum |J|) must be
    finite. That bounds every field, flip update and energy the anneal
    forms (the sum it halves into an energy is at most twice the bound),
    the 4J of int8 couplings, and every sum of the exact enumeration. The
    bound is summed without an overflow warning.
    """
    with np.errstate(over="ignore"):
        bound = abs(work.offset) + float(np.abs(work.lin).sum()) + float(np.abs(work.vals).sum())
    if not math.isfinite(4.0 * bound):
        raise ValueError(
            f"the model's energy bound |offset| + sum |h| + sum |J| = {bound:.3g} is too close to float"
            " range to solve: scale its coefficients or weights down"
        )


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
    acceptance test and the energies are float64 either way.

    Fields are held in ``jmat``'s units, 4J for int8 (see ``_dense_fields``):
    ``h`` is scaled by ``unit`` once, and the acceptance product and the
    energies divide by it. Scaling by 4 is exact, and so is (2/T)/4 unless
    2/T is subnormal, where exp gives 1.0 either way, so every decision and
    energy is bit for bit what fields in J give.

    Every buffer and block view the sweep uses is made once per solve;
    only the field resync every 256 sweeps allocates. int8 couplings are
    widened into one buffer of up to ``_WIDEN_ROWS`` rows in the state
    dtype: each block gathers its int8 rows into ``j_buf``, copies them
    into the buffer's first rows and multiplies float32 by float32 (a
    mixed float32 x int8 matmul would widen a fresh copy of its rows on
    every call), and ``_fields`` widens its chunks through the same
    buffer. Widening int8 to float32 is exact.
    Each sweep, each restart draws its n acceptance uniforms into its row
    of ``uniforms``. The visiting order is shuffled in place, which is what
    ``Generator.permutation`` does to a fresh ``arange``.

    Each sweep gathers the spins once in visiting order (``visit``). The
    values the blocks read and write are held block-major: block after
    block, each block's (restarts, w) values are contiguous, so its views
    are contiguous too, which makes its small elementwise steps cheaper
    than on strided columns. One gather each copies ``visit`` and
    ``uniforms`` into that order (``major`` maps an entry to its position,
    ``gather`` a position to its entry), and two buffers derive from the
    block-major spins: the flip deltas -2 * visit, and visit * 2beta in
    float64. As s = +-1, (s * 2beta) * f is bit for bit
    (s * f) * 2beta, so a block needs one product for -dE * beta. The test
    u < exp(-dE * beta) needs no clamp of the exponent at 0: a positive one
    gives exp >= 1 > u, as the clamp would, and one past exp's range gives
    inf, so overflow warnings are silenced. Each block writes its deltas
    times the accept mask into its view of ``delta`` and multiplies that
    view with its rows of ``jmat``. A rejected flip's entry is
    -2s * 0, which is -0.0 where s = +1 (a mask select would give +0.0).
    A signed zero adds nothing to a sum that has a nonzero term, so the
    only possible difference is the sign of a field or energy that is
    exactly zero: exp(+-0) = 1 and -0.0 == 0.0, so no accept decision or
    energy comparison changes, and in a float32 anneal a yielded
    energy plus the offset equals its re-evaluation, in sign too unless
    the offset is -0.0.
    Every spin is visited once per sweep, so no block reads a spin that an
    earlier block of the sweep flipped: after the last block, adding
    ``delta`` to the block-major spins applies the flips (s - 2s = -s and
    s + 0 = s, both exact), one gather puts them back in visiting order
    and one through the inverse of the visiting order writes them to
    ``spins``. Every value is computed by the same operations as in a
    layout by visiting order, only stored elsewhere.
    """
    n = h.size
    restarts = config.restarts
    rngs = [np.random.default_rng((config.seed ^ r) & _SEED_MASK) for r in range(restarts)]
    schedule_rng = np.random.default_rng((config.seed ^ _SCHEDULE_SALT) & _SEED_MASK)

    spins = np.empty((restarts, n), h.dtype)
    for r, rng in enumerate(rngs):
        spins[r] = rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0
    unit = 4.0 if jmat.dtype == np.int8 else 1.0  # int8 couplings hold 4J
    # int8 couplings are widened into this one buffer: by _fields a chunk
    # of rows at a time, by each block its gathered rows
    wide = np.empty((min(_WIDEN_ROWS, n), n), h.dtype) if jmat.dtype == np.int8 else None
    h = h * unit
    fields = _fields(spins, jmat, h, wide)

    sweeps = config.sweeps
    temps = t0 * (t1 / t0) ** (np.arange(sweeps) / max(sweeps - 1, 1))

    # per-sweep buffers in visiting order; block-major ones, which hold each
    # block's (restarts, w) values contiguously, and their views; scratch
    # shared by all blocks (contiguous views of the widest block's)
    natural = np.arange(n)
    order, inverse = np.empty(n, np.intp), np.empty(n, np.intp)
    uniforms = np.empty((restarts, n))
    visit = np.empty_like(spins)
    spans = np.array_split(natural, n if n <= 32 else (n + 15) // 16)
    major = np.empty((restarts, n), np.intp)  # block-major position of each visiting-order entry
    visit_bm, u_bm = np.empty(restarts * n, h.dtype), np.empty(restarts * n)  # visit, uniforms
    flips = np.empty_like(visit_bm)  # flip deltas, -2 * visit
    delta = np.empty_like(visit_bm)  # flip deltas of accepted flips, +-0 elsewhere
    visit2b = np.empty(restarts * n)  # visit * 2 beta
    dfields = np.empty_like(spins)
    local = np.empty_like(spins)  # spins * (fields + h)
    energies = np.empty(restarts)
    widest = spans[0].size
    f_buf, p_buf = np.empty(restarts * widest, h.dtype), np.empty(restarts * widest)
    a_buf = np.empty(restarts * widest, bool)
    j_buf = np.empty((widest, n), jmat.dtype)
    blocks = []
    for span in spans:
        c0, w = int(span[0]), span.size
        seg = slice(restarts * c0, restarts * (c0 + w))
        major[:, c0 : c0 + w] = np.arange(seg.start, seg.stop).reshape(restarts, w)
        f_blk, p, accept = (buf[: restarts * w].reshape(restarts, w) for buf in (f_buf, p_buf, a_buf))
        v2b, u, fl, d_blk = (buf[seg].reshape(restarts, w) for buf in (visit2b, u_bm, flips, delta))
        j_blk = j_buf[:w]
        w_blk = j_blk if wide is None else wide[:w]  # the rows the block multiplies
        blocks.append((order[c0 : c0 + w], f_blk, v2b, p, u, accept, fl, d_blk, j_blk, w_blk))
    gather = np.empty(restarts * n, np.intp)  # the visiting-order entry at each block-major position
    gather[major.ravel()] = np.arange(restarts * n)

    for sweep in range(sweeps):
        for r, rng in enumerate(rngs):
            rng.random(out=uniforms[r])
        uniforms.take(gather, None, u_bm, "clip")
        order[:] = natural
        schedule_rng.shuffle(order)
        spins.take(order, 1, visit, "clip")
        visit.take(gather, None, visit_bm, "clip")
        np.multiply(visit_bm, -2.0, out=flips)
        np.multiply(visit_bm, 2.0 / temps[sweep] / unit, out=visit2b, dtype=np.float64)
        with np.errstate(over="ignore"):
            for block, f_blk, v2b, p, u, accept, fl, d_blk, j_blk, w_blk in blocks:
                fields.take(block, 1, f_blk, "clip")
                np.multiply(v2b, f_blk, out=p)  # -dE of each flip, times beta
                np.exp(p, out=p)
                np.less(u, p, out=accept)
                np.multiply(fl, accept, out=d_blk)
                if np.count_nonzero(accept):
                    jmat.take(block, 0, j_blk, "clip")
                    if wide is not None:
                        w_blk[...] = j_blk
                    fields += np.matmul(d_blk, w_blk, out=dfields)
        visit_bm += delta
        visit_bm.take(major, None, visit, "clip")
        inverse[order] = natural
        visit.take(inverse, 1, spins, "clip")
        if (sweep & 255) == 255:
            fields = _fields(spins, jmat, h, wide)  # shed incremental-update drift
        np.add(fields, h, out=local)
        np.multiply(spins, local, out=local)
        np.add.reduce(local, axis=1, dtype=np.float64, out=energies)
        energies *= 0.5 / unit
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
    key_buf = None if h.dtype == np.float64 else np.empty((config.restarts, h.size))  # float32 spins as float64
    for spins, energies in _sweeps(h, jmat, config, t0, t1):
        if len(pool) >= pool_cap and energies.min() >= max(pool.values()):
            continue
        keys = spins
        if key_buf is not None:
            key_buf[...] = spins
            keys = key_buf
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
    they are. A float64 anneal's pooled energies carry the drift of the
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
    t0, t1 = _resolve_temps(config, work)
    _require_energy_range(work)
    h, jmat = _dense_fields(work)
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
