"""Synthetic registrar cohorts with a planted, configurable dropout process.

The generator exists so the pipeline can be validated against known ground
truth. Each student draws demographics from registrar-like marginals, a
first-term transcript of 3-6 courses whose grades follow a latent ability,
and a dropout label sampled from

    risk = sigmoid(logit(dropout_base_rate) + sum_k weight_k * signal_k)

where every signal value lies in [0, 1]. Supported signal keys:

* ``gpa:<DEPT>``   first-term credit-weighted GPA in that department / 4.0
                   (a fixed neutral 0.7 when the student has no graded class
                   in the department)
* ``sat`` / ``act``  true score rescaled from its ``records.SCORE_BOUNDS``
                   to [0, 1]
* ``transfer2yr`` / ``transfer4yr``  previous-schooling indicators
* ``remedial``     indicator for a remedial first-term class

Keeping signals non-negative makes cohort dropout rates monotone in any
single weight when the seed is held fixed: every student's pre-label draws
come from an isolated substream, so only the label comparison moves. The
substreams also make a block of students a slice: `generate_cohort` given a
range of students returns exactly the whole cohort's records and truths for
that range, so the `generate` stage draws and writes blocks in parallel.

Dropouts enroll in ``clamp(round(a + b * risk + noise), 1, 24)`` distinct
quarters; graduates earn a degree inside their transfer-adjusted window. A
small fraction of non-completions earn a degree strictly outside the window
so the labeling boundary is exercised. FIG membership is drawn independently
of everything else and is the designated pure-noise feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .features import department_tuple
from .io import read_csv, write_csv, write_degrees, write_students, write_transcripts
from .labeling import DEFAULT_DEGREE_CREDITS, window_allowance
from .records import (
    GENDERS,
    PREVIOUS_SCHOOLING,
    QUARTERS,
    RACES,
    RESIDENCIES,
    SCORE_BOUNDS,
    Demographics,
    EntryInfo,
    StudentRecord,
    TranscriptEntry,
    make_student,
    term_index,
    year_quarter,
)

# First departments get recognizable codes so signal weights and gatekeeper
# groups can name them; the rest are numbered.
CANONICAL_DEPARTMENTS = ("MATH", "CHEM", "PHYS", "BIOL", "ENGL", "PSYCH")

GROUND_TRUTH_COLUMNS = ("student_id", "latent_risk", "true_label", "true_quarters_enrolled")

_ENTRY_AGES = (17, 18, 19, 20, 21, 22, 25)

# Each categorical draw's probabilities over its category indices (registrar-like marginals).
_P = {
    "race": (0.033, 0.016, 0.228, 0.568, 0.007, 0.148),
    "gender": (0.520, 0.479, 0.001),
    "previous_schooling": (0.497, 0.255, 0.248),
    "residency": (0.88, 0.06, 0.03, 0.01, 0.005, 0.005, 0.01),
    "quarter": (0.12, 0.08, 0.10, 0.70),  # winter, spring, summer, autumn
    "entry_age": (0.08, 0.52, 0.18, 0.08, 0.06, 0.04, 0.04),
    "n_declared": (0.35, 0.55, 0.10),
    "credits": (0.1, 0.2, 0.3, 0.4),
}


def _cdf(p) -> np.ndarray:
    """The CDF that `Generator.choice(p=p)` draws against: cumsum(p) over its last element."""
    cdf = np.cumsum(p, dtype=float)
    return cdf / cdf[-1]


def _draw(rng: np.random.Generator, cdf: np.ndarray, size=None):
    """`rng.choice(len(cdf), size, p=p)` for `cdf = _cdf(p)`: the same indices from the same uniforms."""
    return cdf.searchsorted(rng.random(size), side="right")


_CDF = {name: _cdf(p) for name, p in _P.items()}

_NEUTRAL_GPA_SIGNAL = 0.7


def default_signal_weights() -> dict[str, float]:
    """Protective first-term GPA weights; strongest on math."""
    return {"gpa:MATH": -3.0, "gpa:ENGL": -2.2, "gpa:CHEM": -1.8, "gpa:PSYCH": -1.5}


@dataclass(frozen=True)
class SynthConfig:
    n_students: int = 1000
    n_departments: int = 8
    n_majors: int = 12
    entry_year_range: tuple[int, int] = (1998, 2006)
    # Dropout probability for a student whose signal values are all zero.
    # With the protective default weights the realized rate is far lower;
    # the default lands near the 23.5% non-completion share seen in large
    # public-university cohorts.
    dropout_base_rate: float = 0.982
    signal_weights: dict[str, float] = field(default_factory=default_signal_weights)
    timing_noise_sd: float = 6.6
    grade_noise_sd: float = 0.55
    seed: int = 1998
    # Enrolled-quarter count for dropouts: clamp(round(a + b*risk + noise), 1, 24).
    # Defaults land the dropout cohort near mean 7.35 / SD 5.65 quarters.
    timing_intercept: float = 8.3
    timing_slope: float = -4.0
    late_degree_rate: float = 0.08
    sat_observed_rate: float = 0.40
    act_observed_rate: float = 0.12
    degree_credits: float = DEFAULT_DEGREE_CREDITS

    def __post_init__(self) -> None:
        if self.n_students < 2:
            raise ValueError("n_students must be >= 2")
        if self.n_departments < 1:
            raise ValueError("n_departments must be >= 1")
        if self.n_majors < 1:
            raise ValueError("n_majors must be >= 1")
        for name in ("dropout_base_rate", "late_degree_rate", "sat_observed_rate", "act_observed_rate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.timing_noise_sd < 0 or self.grade_noise_sd < 0:
            raise ValueError("noise standard deviations must be non-negative")
        if self.degree_credits <= 0:
            raise ValueError(f"degree_credits must be positive, got {self.degree_credits}")
        lo, hi = self.entry_year_range
        if lo > hi or lo < 1900:
            raise ValueError(f"bad entry_year_range {self.entry_year_range}")
        object.__setattr__(self, "entry_year_range", (int(lo), int(hi)))
        object.__setattr__(self, "signal_weights", dict(self.signal_weights))

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthConfig":
        return cls(**config_kwargs(cls, raw, "synth config", ("entry_year_range",)))


# JSON types a scalar field accepts, by the type of its default, and their name in errors.
_SCALAR_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def config_kwargs(
    cls, raw, what: str, tuple_fields: tuple[str, ...], own_type_checks: tuple[str, ...] = ()
) -> dict:
    """The JSON object `raw` as keyword arguments of the dataclass `cls`.

    `what` names `raw` in errors; each of `tuple_fields` must be a list and becomes a tuple.
    A value whose JSON type does not match its field's scalar default is rejected (a bool is
    not a number), except in `own_type_checks`, whose type `cls` checks with its range.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {raw!r}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    kwargs = dict(raw)
    for f in fields(cls):
        if f.name in kwargs and f.name not in own_type_checks and type(f.default) in _SCALAR_TYPES:
            accepted, noun = _SCALAR_TYPES[type(f.default)]
            if type(kwargs[f.name]) not in accepted:
                raise ValueError(f"{f.name} must be {noun}, got {kwargs[f.name]!r}")
    for name in tuple_fields:
        if name in kwargs:
            if not isinstance(kwargs[name], (list, tuple)):
                raise ValueError(f"{name} must be a list, got {kwargs[name]!r}")
            kwargs[name] = tuple(kwargs[name])
    return kwargs


@dataclass(frozen=True)
class GroundTruth:
    student_id: str
    latent_risk: float
    true_label: str  # "grad" | "nc"
    true_quarters_enrolled: int | None

    def __post_init__(self) -> None:
        if self.true_label not in ("grad", "nc"):
            raise ValueError(f"true_label must be 'grad' or 'nc', got {self.true_label!r}")
        if (self.true_quarters_enrolled is None) != (self.true_label == "grad"):
            raise ValueError("true_quarters_enrolled must be present exactly for non-completions")


def department_codes(n: int) -> tuple[str, ...]:
    codes = list(CANONICAL_DEPARTMENTS[:n])
    codes += [f"DEPT{i:02d}" for i in range(len(codes) + 1, n + 1)]
    return tuple(codes)


def major_codes(n: int) -> tuple[str, ...]:
    return tuple(f"MAJ{i:03d}" for i in range(1, n + 1))


def signal_kinds(cfg: SynthConfig) -> dict[str, str]:
    """The kind of each of `cfg`'s signal weights, by key; a ValueError for a key the generator lacks."""
    departments = department_codes(cfg.n_departments)
    kinds: dict[str, str] = {}
    dept_set = set(departments)
    for key in cfg.signal_weights:
        if key.startswith("gpa:"):
            dept = key.split(":", 1)[1]
            if dept not in dept_set:
                raise ValueError(
                    f"signal weight {key!r} names a department outside the vocabulary; "
                    f"n_departments={cfg.n_departments} yields {departments[:6]}..."
                )
            kinds[key] = "gpa"
        elif key in ("sat", "act", "transfer2yr", "transfer4yr", "remedial"):
            kinds[key] = key
        else:
            raise ValueError(f"unknown signal weight key {key!r}")
    return kinds


# Not models._sigmoid: np.exp and math.exp differ in the last bit, and latent_risk must not move.
def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _round_grade(g: float) -> float:
    return round(min(4.0, max(0.0, g)) * 10.0) / 10.0


def _enrolled_offsets(rng: np.random.Generator, first_term: int, count: int) -> list[int]:
    """Quarter offsets of enrolled terms: consecutive, usually skipping summer."""
    offsets = [0]
    off = 0
    while len(offsets) < count:
        off += 1
        if year_quarter(first_term + off)[1] == "summer" and rng.random() < 0.85:
            continue
        offsets.append(off)
    return offsets


_CREDIT_CHOICES = (2.0, 3.0, 4.0, 5.0)


def _draw_courses(
    rng: np.random.Generator,
    cfg: SynthConfig,
    departments: tuple[str, ...],
    dept_index: dict[str, int],
    signal_departments: tuple[str, ...],
    difficulties: np.ndarray,
    ability: float,
    term: int,
    first_term: bool,
    remedial_student: bool,
) -> list[TranscriptEntry]:
    n_courses = int(rng.integers(3, 7)) if first_term else int(rng.integers(2, 6))
    chosen: list[str] = []
    if first_term:
        for dept in signal_departments:
            if len(chosen) < n_courses and rng.random() < 0.85:
                chosen.append(dept)
    remaining = [d for d in departments if d not in chosen]
    fill = n_courses - len(chosen)
    if fill > 0:
        if len(remaining) >= fill:
            picks = rng.choice(len(remaining), size=fill, replace=False)
        else:
            picks = rng.integers(0, max(1, len(remaining)), size=fill) if remaining else []
        chosen.extend(remaining[int(i)] for i in picks)

    n = len(chosen)
    numbers = rng.integers(100, 300, size=n)
    credits = _draw(rng, _CDF["credits"], n)
    pass_fail = rng.random(n) < 0.05
    noise = rng.normal(0.0, cfg.grade_noise_sd, size=n)

    entries = []
    for j, dept in enumerate(chosen):
        remedial = first_term and remedial_student and j == 0
        number = int(80 + numbers[j] % 20) if remedial else int(numbers[j])
        raw = 2.9 + 0.55 * ability - difficulties[dept_index[dept]] + noise[j]
        if pass_fail[j]:
            grade = None
            mark = "P" if raw >= 1.5 else "NP"
        else:
            grade = _round_grade(raw)
            mark = None
        entries.append(
            TranscriptEntry(term, dept, number, float(_CREDIT_CHOICES[credits[j]]), grade, mark, remedial)
        )
    return entries


def generate_cohort(
    cfg: SynthConfig, students: range | None = None
) -> tuple[list[StudentRecord], list[GroundTruth]]:
    """Generate a cohort plus its dropout ground truth, deterministic in the seed.

    Each student consumes an independent substream of the seeded generator,
    so one student's draws never shift another's. That makes a block a slice:
    with `students`, a range inside ``range(cfg.n_students)``, the result is
    the whole cohort's records and truths sliced to that range.
    """
    departments = department_codes(cfg.n_departments)
    majors = major_codes(cfg.n_majors)
    kinds = signal_kinds(cfg)
    signal_departments = tuple(key.split(":", 1)[1] for key, kind in kinds.items() if kind == "gpa")
    base_logit = math.log(cfg.dropout_base_rate / (1.0 - cfg.dropout_base_rate)) if 0 < cfg.dropout_base_rate < 1 else (
        math.inf if cfg.dropout_base_rate >= 1 else -math.inf
    )

    root = np.random.SeedSequence(cfg.seed)
    cohort_rng = np.random.default_rng(root.spawn(1)[0])

    difficulties = cohort_rng.uniform(0.0, 0.7, size=cfg.n_departments)
    dept_index = {d: i for i, d in enumerate(departments)}
    major_p = np.array([1.0 / (i + 1.0) for i in range(cfg.n_majors)])
    major_p /= major_p.sum()
    (sat_lo, sat_hi), (act_lo, act_hi) = SCORE_BOUNDS["sat_score"], SCORE_BOUNDS["act_score"]

    records: list[StudentRecord] = []
    truths: list[GroundTruth] = []
    for i in range(cfg.n_students) if students is None else students:
        # root.spawn(n_students + 1)[1:][i], built alone: the child with spawn key (i + 2,)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i + 2,)))
        sid = f"S{i + 1:06d}"

        race = RACES[int(_draw(rng, _CDF["race"]))]
        gender = GENDERS[int(_draw(rng, _CDF["gender"]))]
        hispanic = bool(rng.random() < 0.045)
        residency = RESIDENCIES[int(_draw(rng, _CDF["residency"]))]
        prev = PREVIOUS_SCHOOLING[int(_draw(rng, _CDF["previous_schooling"]))]
        entry_year = int(rng.integers(cfg.entry_year_range[0], cfg.entry_year_range[1] + 1))
        entry_age = _ENTRY_AGES[int(_draw(rng, _CDF["entry_age"]))]
        first_quarter = QUARTERS[int(_draw(rng, _CDF["quarter"]))]

        ability = float(rng.normal(0.0, 1.0))
        if prev == "Freshman":
            transfer_credits = 0.0
        elif prev == "Transfer2Yr":
            transfer_credits = round(float(rng.uniform(30.0, 110.0)), 1)
        else:
            transfer_credits = round(float(rng.uniform(30.0, 135.0)), 1)

        sat_raw = round((1050 + 150 * ability + rng.normal(0, 60)) / 10) * 10
        sat_true = int(min(sat_hi, max(sat_lo, sat_raw)))
        act_true = int(min(act_hi, max(act_lo, round(21 + 5 * ability + rng.normal(0, 2)))))
        sat_observed = rng.random() < cfg.sat_observed_rate
        act_observed = rng.random() < cfg.act_observed_rate

        n_declared = min(int(_draw(rng, _CDF["n_declared"])), cfg.n_majors)
        declared = tuple(
            majors[int(j)] for j in rng.choice(cfg.n_majors, size=n_declared, replace=False, p=major_p)
        )
        fig = bool(rng.random() < 0.15)  # independent of outcome by design
        remedial_student = bool(rng.random() < (0.25 if ability < -1.0 else 0.05))

        first_term = term_index(entry_year, first_quarter)
        first_entries = _draw_courses(
            rng, cfg, departments, dept_index, signal_departments, difficulties,
            ability, first_term, True, remedial_student,
        )

        logit = base_logit
        for key, weight in cfg.signal_weights.items():
            kind = kinds[key]
            if kind == "gpa":
                dept = key.split(":", 1)[1]
                gpa = department_tuple(first_entries, dept)[3]
                value = _NEUTRAL_GPA_SIGNAL if gpa is None else gpa / 4.0
            elif kind == "sat":
                value = (sat_true - sat_lo) / (sat_hi - sat_lo)
            elif kind == "act":
                value = (act_true - act_lo) / (act_hi - act_lo)
            elif kind == "transfer2yr":
                value = 1.0 if prev == "Transfer2Yr" else 0.0
            elif kind == "transfer4yr":
                value = 1.0 if prev == "Transfer4Yr" else 0.0
            else:  # remedial
                value = 1.0 if any(e.remedial for e in first_entries) else 0.0
            logit += weight * value
        risk = _sigmoid(logit) if math.isfinite(logit) else (1.0 if logit > 0 else 0.0)

        is_dropout = bool(rng.random() < risk)
        timing_noise = float(rng.normal(0.0, cfg.timing_noise_sd))
        late_degree = rng.random() < cfg.late_degree_rate

        entry = EntryInfo(prev, sat_true if sat_observed else None, act_true if act_observed else None,
                          transfer_credits, declared, fig)
        demo = Demographics(race, gender, hispanic, residency, entry_year - entry_age)
        allowance = window_allowance(transfer_credits, cfg.degree_credits)

        if is_dropout:
            quarters = int(min(24, max(1, round(cfg.timing_intercept + cfg.timing_slope * risk + timing_noise))))
            offsets = _enrolled_offsets(rng, first_term, quarters)
            degree_terms: list[int] = []
            if late_degree:
                gap = int(rng.integers(1, 9))
                degree_terms = [first_term + allowance + gap]
            truths.append(GroundTruth(sid, risk, "nc", quarters))
        else:
            target = int(rng.normal(min(11.0, allowance * 0.8), 2.5))
            degree_offset = min(allowance, max(1, target))
            offsets = [o for o in _enrolled_offsets(rng, first_term, degree_offset + 1) if o <= degree_offset]
            degree_terms = [first_term + degree_offset]
            truths.append(GroundTruth(sid, risk, "grad", None))

        entries = list(first_entries)
        for off in offsets[1:]:
            entries.extend(
                _draw_courses(rng, cfg, departments, dept_index, signal_departments, difficulties,
                              ability, first_term + off, False, False)
            )
        records.append(make_student(sid, demo, entry, entries, degree_terms))
    return records, truths


def cohort_paths(directory: str | Path) -> dict[str, Path]:
    """The cohort's CSV files inside `directory`, keyed by role, in write order."""
    names = ("students", "transcripts", "degrees", "ground_truth")
    return {name: Path(directory) / f"{name}.csv" for name in names}


def write_cohort(
    records: list[StudentRecord],
    truths: list[GroundTruth],
    directory: str | Path,
) -> dict[str, Path]:
    """Write students/transcripts/degrees/ground_truth CSVs into `directory`."""
    if not records:
        raise ValueError("cannot write an empty cohort")
    Path(directory).mkdir(parents=True, exist_ok=True)
    paths = cohort_paths(directory)
    write_students(records, paths["students"])
    write_transcripts(records, paths["transcripts"])
    write_degrees(records, paths["degrees"])
    rows = ([t.student_id, t.latent_risk, t.true_label, t.true_quarters_enrolled] for t in truths)
    write_csv(paths["ground_truth"], GROUND_TRUTH_COLUMNS, rows)
    return paths


def read_ground_truth(path: str | Path) -> list[GroundTruth]:
    return [
        GroundTruth(
            student_id=row["student_id"],
            latent_risk=float(row["latent_risk"]),
            true_label=row["true_label"],
            true_quarters_enrolled=int(q) if (q := row["true_quarters_enrolled"].strip()) else None,
        )
        for row in read_csv(path)
    ]
