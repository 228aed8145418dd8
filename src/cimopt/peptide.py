"""Amino-acid composition inference as binary optimization.

Given a measured (and optionally water-calibrated) peptide mass, build
either a position-one-hot model (each sequence slot picks exactly one
residue, total mass matches the target) or the legacy binary count-encoding
model, decode solver output into compositions, and score violation and
mass-deviation metrics over solution populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DimensionError, require_type
from .qubo import QuboBuilder, QuboMatrix

__all__ = [
    "AminoAcid",
    "STANDARD_AMINO_ACIDS",
    "WATER_AVERAGE",
    "WATER_MONOISOTOPIC",
    "residue_masses",
    "sequence_mass",
    "calibrate_mass",
    "default_position_count",
    "PeptideProblem",
    "make_problem",
    "PeptideWeights",
    "CountEncodingConfig",
    "CompositionSolution",
    "PopulationMetrics",
    "build_onehot_qubo",
    "build_count_qubo",
    "decode_onehot",
    "decode_count",
    "evaluate_population",
    "problem_from_doc",
    "problem_to_doc",
]

WATER_AVERAGE = 18.0153
WATER_MONOISOTOPIC = 18.0106

# heuristic average residue mass for guessing sequence length from mass
_MEAN_RESIDUE = 110.0


@dataclass(frozen=True)
class AminoAcid:
    code: str
    average: float
    monoisotopic: float


# Residue (water-free) masses in Da.
STANDARD_AMINO_ACIDS: tuple[AminoAcid, ...] = (
    AminoAcid("G", 57.0519, 57.02146),
    AminoAcid("A", 71.0788, 71.03711),
    AminoAcid("S", 87.0782, 87.03203),
    AminoAcid("P", 97.1167, 97.05276),
    AminoAcid("V", 99.1326, 99.06841),
    AminoAcid("T", 101.1051, 101.04768),
    AminoAcid("C", 103.1388, 103.00919),
    AminoAcid("L", 113.1594, 113.08406),
    AminoAcid("I", 113.1594, 113.08406),
    AminoAcid("N", 114.1038, 114.04293),
    AminoAcid("D", 115.0886, 115.02694),
    AminoAcid("Q", 128.1307, 128.05858),
    AminoAcid("K", 128.1741, 128.09496),
    AminoAcid("E", 129.1155, 129.04259),
    AminoAcid("M", 131.1926, 131.04049),
    AminoAcid("H", 137.1411, 137.05891),
    AminoAcid("F", 147.1766, 147.06841),
    AminoAcid("R", 156.1875, 156.10111),
    AminoAcid("Y", 163.1760, 163.06333),
    AminoAcid("W", 186.2132, 186.07931),
)

_TABLES = ("average", "monoisotopic")


def _water(table: str) -> float:
    return WATER_AVERAGE if table == "average" else WATER_MONOISOTOPIC


def residue_masses(
    table: str = "average",
    acids: Sequence[AminoAcid] | None = None,
    half_water_per_acid: bool = False,
) -> tuple[tuple[str, float], ...]:
    """(code, mass) pairs for the chosen table.

    half_water_per_acid subtracts half a water mass from every residue; an
    opt-in correction mode, off by default because residue masses already
    account for peptide-bond condensation.
    """
    if table not in _TABLES:
        raise ValueError(f"unknown mass table {table!r}")
    acids = STANDARD_AMINO_ACIDS if acids is None else tuple(acids)
    shift = _water(table) / 2.0 if half_water_per_acid else 0.0
    return tuple(
        (a.code, (a.average if table == "average" else a.monoisotopic) - shift)
        for a in acids
    )


def sequence_mass(sequence: str, table: str = "average") -> float:
    """Sum of residue masses of a sequence (no terminal water)."""
    lookup = {code: mass for code, mass in residue_masses(table)}
    try:
        return sum(lookup[c] for c in sequence)
    except KeyError as exc:
        raise ValueError(f"unknown amino acid code {exc}") from exc


def calibrate_mass(raw: float, mode: str = "none", table: str = "average") -> float:
    """Target-mass calibration.

    mode "none" passes raw through; "subtract_water" removes one water mass
    (the condensation loss of the intact peptide), using the water mass
    matching the residue table.
    """
    if mode == "none":
        return raw
    if mode == "subtract_water":
        water = _water(table)
        if raw <= water:
            raise ValueError(f"raw mass {raw} Da is not above one water ({water} Da)")
        return raw - water
    raise ValueError(f"unknown calibration mode {mode!r}")


def default_position_count(calibrated_mass: float) -> int:
    """Guess sequence length as calibrated mass over a mean residue mass."""
    return max(1, round(calibrated_mass / _MEAN_RESIDUE))


@dataclass(frozen=True)
class PeptideProblem:
    """A composition-inference task: calibrated target mass and slot count."""

    target_mass_raw: float
    calibrated_mass: float
    positions: int
    table: str = "average"
    half_water_per_acid: bool = False
    label: str | None = None

    def __post_init__(self):
        if self.positions < 1:
            raise ValueError(f"positions must be >= 1, got {self.positions}")
        if not self.calibrated_mass > 0:
            raise ValueError(f"calibrated mass must be positive, got {self.calibrated_mass}")
        if self.table not in _TABLES:
            raise ValueError(f"unknown mass table {self.table!r}")

    def masses(self, acids: Sequence[AminoAcid] | None = None) -> tuple[tuple[str, float], ...]:
        return residue_masses(self.table, acids, self.half_water_per_acid)


def make_problem(
    target_mass: float,
    positions: int | None = None,
    table: str = "average",
    calibration: str = "none",
    half_water_per_acid: bool = False,
    label: str | None = None,
) -> PeptideProblem:
    calibrated = calibrate_mass(target_mass, calibration, table)
    if positions is None:
        positions = default_position_count(calibrated)
    return PeptideProblem(target_mass, calibrated, positions, table, half_water_per_acid, label)


@dataclass(frozen=True)
class PeptideWeights:
    """lambda_pos weights the one-hot constraint, lambda_mass the mass match.

    Zero weights are tolerated so single terms can be built and inspected;
    tuning runs require both strictly positive.
    """

    lambda_pos: float
    lambda_mass: float

    def __post_init__(self):
        if self.lambda_pos < 0 or self.lambda_mass < 0:
            raise ValueError("penalty weights must be >= 0")

    def as_dict(self) -> dict[str, float]:
        return {"lambda_pos": self.lambda_pos, "lambda_mass": self.lambda_mass}

    @classmethod
    def from_dict(cls, weights: Mapping[str, float]) -> "PeptideWeights":
        return cls(weights["lambda_pos"], weights["lambda_mass"])


@dataclass(frozen=True)
class CountEncodingConfig:
    """Legacy encoding: each acid's copy number as a little-endian bit field."""

    bits_per_acid: int = 5
    mass_weight: float = 1.0
    length_weight: float = 1.0
    length_mid: float = 0.0

    def __post_init__(self):
        if not 1 <= self.bits_per_acid <= 8:
            raise ValueError(f"bits_per_acid must be in [1, 8], got {self.bits_per_acid}")
        if self.mass_weight < 0 or self.length_weight < 0:
            raise ValueError("mass_weight and length_weight must be >= 0")


def build_onehot_qubo(
    problem: PeptideProblem,
    weights: PeptideWeights,
    acids: Sequence[AminoAcid] | None = None,
    diagonal_bias: Mapping[str, float] | None = None,
) -> QuboMatrix:
    """Position-one-hot model over positions x acids binary variables.

    Variable (s, a) sits at dense index s * len(acids) + a. The energy is

        lambda_pos * sum_s (1 - sum_a x_{s,a})^2
      + lambda_mass * (sum_{s,a} m_a x_{s,a} - M_cal)^2

    with constants retained, so a violation-free exact-mass assignment has
    energy zero. ``diagonal_bias`` optionally adds a per-acid diagonal term
    at every position (a masking knob for boosting or suppressing acids).
    """
    masses = problem.masses(acids)
    n_acids = len(masses)
    n = problem.positions * n_acids
    builder = QuboBuilder(n)
    if weights.lambda_pos > 0:
        for s in range(problem.positions):
            block = {s * n_acids + a: 1.0 for a in range(n_acids)}
            builder.add_squared(block, -1.0, weights.lambda_pos)
    if weights.lambda_mass > 0:
        mass_coeffs = {
            s * n_acids + a: masses[a][1]
            for s in range(problem.positions)
            for a in range(n_acids)
        }
        builder.add_squared(mass_coeffs, -problem.calibrated_mass, weights.lambda_mass)
    if diagonal_bias:
        by_code = {code: a for a, (code, _) in enumerate(masses)}
        for code, bias in diagonal_bias.items():
            if code not in by_code:
                raise ValueError(f"diagonal_bias names unknown acid {code!r}")
            for s in range(problem.positions):
                builder.add_diag(s * n_acids + by_code[code], bias)
    return builder.build()


def build_count_qubo(
    problem: PeptideProblem,
    cfg: CountEncodingConfig,
    acids: Sequence[AminoAcid] | None = None,
) -> QuboMatrix:
    """Binary count-encoding model.

    N_a = sum_k 2^k x_{a,k}; the energy is

        mass_weight * (sum_a m_a N_a - M_cal)^2
      + length_weight * (sum_a N_a - length_mid)^2

    expanded exactly, squares folded onto the diagonal. Variable (a, k)
    sits at index a * bits_per_acid + k.
    """
    masses = problem.masses(acids)
    bits = cfg.bits_per_acid
    n = len(masses) * bits
    builder = QuboBuilder(n)
    mass_coeffs = {}
    length_coeffs = {}
    for a, (_, mass) in enumerate(masses):
        for k in range(bits):
            v = a * bits + k
            mass_coeffs[v] = mass * (1 << k)
            length_coeffs[v] = float(1 << k)
    if cfg.mass_weight > 0:
        builder.add_squared(mass_coeffs, -problem.calibrated_mass, cfg.mass_weight)
    if cfg.length_weight > 0:
        builder.add_squared(length_coeffs, -cfg.length_mid, cfg.length_weight)
    return builder.build()


@dataclass(frozen=True)
class CompositionSolution:
    """Decoded per-position choices plus mass bookkeeping.

    ``total_mass`` sums the uniquely-selected positions and is None when no
    position is uniquely selected. Deviation fields are populated only for
    violation-free solutions.
    """

    selections: tuple[tuple[str, ...], ...]
    onehot_violations: tuple[int, ...]
    total_mass: float | None
    deviation_da: float | None
    relative_deviation: float | None

    @property
    def clean(self) -> bool:
        return not self.onehot_violations

    def to_doc(self) -> dict:
        return {
            "selections": [list(s) for s in self.selections],
            "onehot_violations": list(self.onehot_violations),
            "total_mass": self.total_mass,
            "deviation_da": self.deviation_da,
            "relative_deviation": self.relative_deviation,
        }


def decode_onehot(
    problem: PeptideProblem,
    bits: Sequence[int],
    acids: Sequence[AminoAcid] | None = None,
) -> CompositionSolution:
    """Read a bit vector of the one-hot model back into a composition."""
    masses = problem.masses(acids)
    n_acids = len(masses)
    expected = problem.positions * n_acids
    if len(bits) != expected:
        raise DimensionError(f"bit vector has {len(bits)} entries, expected {expected}")
    selections = []
    violations = []
    total = 0.0
    any_unique = False
    for s in range(problem.positions):
        picked = [a for a in range(n_acids) if bits[s * n_acids + a]]
        selections.append(tuple(masses[a][0] for a in picked))
        if len(picked) != 1:
            violations.append(s)
        else:
            total += masses[picked[0]][1]
            any_unique = True
    total_mass = total if any_unique else None
    deviation = relative = None
    if not violations:
        deviation = abs(total_mass - problem.calibrated_mass)
        relative = deviation / problem.calibrated_mass
    return CompositionSolution(
        tuple(selections), tuple(violations), total_mass, deviation, relative
    )


@dataclass(frozen=True)
class CountSolution:
    """Decoded copy numbers of the count-encoding model."""

    counts: tuple[tuple[str, int], ...]
    total_mass: float
    length: int
    deviation_da: float
    relative_deviation: float

    def to_doc(self) -> dict:
        return {
            "counts": {code: c for code, c in self.counts if c},
            "total_mass": self.total_mass,
            "length": self.length,
            "deviation_da": self.deviation_da,
            "relative_deviation": self.relative_deviation,
        }


def decode_count(
    problem: PeptideProblem,
    cfg: CountEncodingConfig,
    bits: Sequence[int],
    acids: Sequence[AminoAcid] | None = None,
) -> CountSolution:
    masses = problem.masses(acids)
    expected = len(masses) * cfg.bits_per_acid
    if len(bits) != expected:
        raise DimensionError(f"bit vector has {len(bits)} entries, expected {expected}")
    counts = []
    total = 0.0
    length = 0
    for a, (code, mass) in enumerate(masses):
        count = sum(
            (1 << k) for k in range(cfg.bits_per_acid) if bits[a * cfg.bits_per_acid + k]
        )
        counts.append((code, count))
        total += mass * count
        length += count
    deviation = abs(total - problem.calibrated_mass)
    return CountSolution(
        tuple(counts), total, length, deviation, deviation / problem.calibrated_mass
    )


@dataclass(frozen=True)
class PopulationMetrics:
    """Violation rate and best deviations over a returned solution set."""

    violation_rate: float
    best_deviation_da: float | None
    best_relative: float | None

    def to_doc(self) -> dict:
        return {
            "violation_rate": self.violation_rate,
            "best_deviation_da": self.best_deviation_da,
            "best_relative": self.best_relative,
        }


def evaluate_population(solutions: Sequence[CompositionSolution]) -> PopulationMetrics:
    """Rates over a solution population; best deviation among clean ones."""
    if not solutions:
        raise ValueError("population is empty")
    violating = sum(1 for sol in solutions if not sol.clean)
    clean = [sol for sol in solutions if sol.clean]
    best = min((sol.deviation_da for sol in clean), default=None)
    best_rel = min((sol.relative_deviation for sol in clean), default=None)
    return PopulationMetrics(violating / len(solutions), best, best_rel)


def problem_to_doc(problem: PeptideProblem) -> dict:
    return {
        "target_mass": problem.target_mass_raw,
        "positions": problem.positions,
        "mass_table": problem.table,
        "calibration": "none",  # calibrated_mass is already resolved
        "calibrated_mass": problem.calibrated_mass,
        "half_water_per_acid": problem.half_water_per_acid,
        "label": problem.label,
    }


def problem_from_doc(doc: Mapping) -> PeptideProblem:
    if not isinstance(doc, Mapping):
        raise ValueError(f"problem document must be a JSON object, got {type(doc).__name__}")
    if "target_mass" not in doc:
        raise ValueError("problem document is missing field 'target_mass'")
    (target_mass,) = require_type([doc["target_mass"]], (int, float), "target_mass")
    try:
        target_mass = float(target_mass)
    except OverflowError:  # a JSON integer too large for a float
        raise ValueError("target_mass is out of range") from None
    positions = doc.get("positions")
    if positions is not None:
        require_type([positions], (int,), "positions")
    (half_water,) = require_type([doc.get("half_water_per_acid", False)], (bool,), "half_water_per_acid")
    table, calibration = require_type(
        [doc.get("mass_table", "average"), doc.get("calibration", "none")], (str,), "mass_table and calibration"
    )
    label = doc.get("label")
    if label is not None:
        require_type([label], (str,), "label")
    return make_problem(
        target_mass=target_mass,
        positions=positions,
        table=table,
        calibration=calibration,
        half_water_per_acid=half_water,
        label=label,
    )
