"""First-term feature space: schema fitting, encoding, and score imputation.

The feature vector covers demographic one-hots, entry info, declared-major
dummies (top-150 vocabulary), a four-component tuple per department seen in
training first terms (took / credits / classes / GPA), the same tuple for
four entry-level STEM gatekeeper groups, and remedial/FIG indicators.

`FeatureSchema._layout` alone states the column layout: each block's
descriptors sit next to the function computing its values. Department and
gatekeeper tuples share one path, `department_tuple` over a course-number
range. Vocabularies, standardization statistics, imputation models, and
tuple GPA fallbacks are all fit on training data only; encoding never
mutates the schema. A tuple without a graded class falls back to the tuple's
GPA over all training first terms (zero would read as failing). Numeric
columns are z-scored with training statistics; dummy columns are left as
0/1 so tree learners can consume the raw matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .io import write_json
from .labeling import LabeledDataset
from .records import (
    GENDERS,
    PREVIOUS_SCHOOLING,
    QUARTERS,
    RACES,
    RESIDENCIES,
    SCORE_BOUNDS,
    StudentRecord,
    TranscriptEntry,
    year_quarter,
)

DEFAULT_GATEKEEPER_DEPARTMENTS = {
    "math": "MATH",
    "chemistry": "CHEM",
    "physics": "PHYS",
    "biology": "BIOL",
}

# The course-number range of a department tuple: every class of the department.
ALL_COURSES = (0, math.inf)


@dataclass(frozen=True)
class FeatureConfig:
    major_vocab_size: int = 150
    gatekeeper_range: tuple[int, int] = (100, 199)
    gatekeeper_departments: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_GATEKEEPER_DEPARTMENTS)
    )
    imputation_mode: str = "regression"  # "regression" | "mean"

    def __post_init__(self) -> None:
        if self.imputation_mode not in ("regression", "mean"):
            raise ValueError(f"imputation_mode must be 'regression' or 'mean', got {self.imputation_mode!r}")
        if not (type(self.major_vocab_size) is int and self.major_vocab_size >= 0):
            raise ValueError(f"major_vocab_size must be an integer >= 0, got {self.major_vocab_size!r}")
        lo_hi = self.gatekeeper_range
        if not (len(lo_hi) == 2 and all(type(v) is int for v in lo_hi) and lo_hi[0] <= lo_hi[1]):
            raise ValueError(f"gatekeeper_range must be two integers lo <= hi, got {list(lo_hi)}")
        object.__setattr__(self, "gatekeeper_departments", dict(self.gatekeeper_departments))


@dataclass(frozen=True)
class FeatureDescriptor:
    name: str
    kind: str  # "dummy" | "numeric" | "department"
    standardize: bool


def _block(kind: str, names: Sequence[str], values):
    """Columns `names`, and `values(student, first_term_entries)`: one float per column."""
    return tuple(FeatureDescriptor(n, kind, kind == "numeric") for n in names), values


def _one_hot(prefix: str, categories: Sequence[str], value):
    """One dummy column per category; `value(student)`, read once, picks the one that reads 1."""
    return _block("dummy", [f"{prefix}={c}" for c in categories],
                  lambda s, first: [1.0 if c == v else 0.0 for v in [value(s)] for c in categories])


def _flag(name: str, value):
    """One dummy column that reads 1 where `value(student, first_term_entries)` holds."""
    return _block("dummy", [name], lambda s, first: [1.0 if value(s, first) else 0.0])


def _tuple_block(kind: str, key: str, dept: str, course_range: tuple[float, float], fallback: float):
    """The took/credits/classes/gpa columns of one tuple; a missing GPA reads `fallback`."""
    def values(s, first):
        took, credits, classes, gpa = department_tuple(first, dept, course_range)
        return [float(took), credits, float(classes), fallback if gpa is None else gpa]

    columns = tuple(
        FeatureDescriptor(f"{kind}={key}:{c}", "department", c != "took")
        for c in ("took", "credits", "classes", "gpa")
    )
    return columns, values


def department_tuple(
    entries: Sequence[TranscriptEntry], dept: str, course_range: tuple[float, float] = ALL_COURSES
) -> tuple[int, float, int, float | None]:
    """(took, credits, classes, gpa) over the entries of `dept` numbered within `course_range`.

    Credits and class counts include pass/fail entries; the GPA is
    :func:`credit_weighted_gpa` of the selected entries.
    """
    lo, hi = course_range
    mine = [e for e in entries if e.department == dept and lo <= e.course_number <= hi]
    credits = 0.0
    for e in mine:
        credits += e.credits
    return (1 if mine else 0), credits, len(mine), credit_weighted_gpa(mine)


def credit_weighted_gpa(entries: Sequence[TranscriptEntry]) -> float | None:
    """Credit-weighted mean grade over graded entries with credits; None when there are none."""
    credits = 0.0
    points = 0.0
    for e in entries:
        if e.grade is not None and e.credits > 0:
            credits += e.credits
            points += e.credits * e.grade
    return points / credits if credits > 0 else None


def _tuple_groups(config: FeatureConfig, department_vocab: Sequence[str]):
    """(kind "dept" | "gatekeeper", department or group name, department, course range) in column order."""
    groups = [("dept", d, d, ALL_COURSES) for d in department_vocab]
    gates = config.gatekeeper_departments
    return groups + [("gatekeeper", g, gates[g], config.gatekeeper_range) for g in sorted(gates)]


# Demographic and schooling one-hots: the first columns, and the imputer's regressors.
_DEMOGRAPHIC_BLOCKS = (
    _one_hot("race", RACES, lambda s: s.demographics.race),
    _one_hot("gender", GENDERS, lambda s: s.demographics.gender),
    _one_hot("residency", RESIDENCIES, lambda s: s.demographics.residency),
    _one_hot("prev_schooling", PREVIOUS_SCHOOLING, lambda s: s.entry.previous_schooling),
    _flag("hispanic", lambda s, first: s.demographics.hispanic),
)


def _base_row(s: StudentRecord) -> list[float]:
    """The imputer's regressors: intercept, demographic one-hots, birth year."""
    onehots = [v for _, values in _DEMOGRAPHIC_BLOCKS for v in values(s, ())]
    return [1.0] + onehots + [float(s.demographics.birth_year - 1980)]


def standardize(
    x: np.ndarray, means: Sequence[float], sds: Sequence[float], mask: Sequence[bool]
) -> np.ndarray:
    """Z-score the masked columns (last axis) with the given stats; zero-spread columns become 0."""
    means, sds = np.asarray(means, dtype=float), np.asarray(sds, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    out = np.array(x, dtype=float, copy=True)
    safe_sd = np.where(sds > 0, sds, 1.0)
    out[..., mask] = np.where(sds[mask] > 0, (out[..., mask] - means[mask]) / safe_sd[mask], 0.0)
    return out


def _lstsq(students: Sequence[StudentRecord], score: str, extra: tuple[str, ...]) -> np.ndarray | None:
    """Least squares of `score` on the base row plus `extra`, over students observing all; None below 2."""
    rows = [s for s in students if all(getattr(s.entry, f) is not None for f in (score, *extra))]
    if len(rows) < 2:
        return None
    a = np.array([_base_row(s) + [float(getattr(s.entry, e)) for e in extra] for s in rows])
    b = np.array([float(getattr(s.entry, score)) for s in rows])
    return np.linalg.lstsq(a, b, rcond=None)[0]


class Imputer:
    """Linear-regression (or mean) imputation of missing SAT/ACT scores.

    Regression mode fits least squares of each observed score on demographic
    and entry dummies plus birth year, with a second-stage model that also
    uses the other score for rows where it is observed. Fit on training rows
    only. Mean mode, and a score observed on fewer than 2 training rows,
    fall back to training means. Imputed scores are clamped to
    `records.SCORE_BOUNDS`.
    """

    def __init__(self, mode: str, students: Sequence[StudentRecord]):
        FeatureConfig(imputation_mode=mode)  # raises on an unknown mode; FeatureConfig owns the rule
        self.mode = mode
        # score field -> (the other score, training mean, base weights, weights that also use the other)
        self._fits: dict[str, tuple[str, float, np.ndarray | None, np.ndarray | None]] = {}
        for score, other in zip(SCORE_BOUNDS, reversed(SCORE_BOUNDS)):
            observed = [s for s in students if getattr(s.entry, score) is not None]
            if not observed:
                raise ValueError(f"cannot fit imputer: no observed {score[:3].upper()} scores in training data")
            mean = float(np.mean([getattr(s.entry, score) for s in observed]))
            if mode == "mean":
                self._fits[score] = (other, mean, None, None)
            else:
                self._fits[score] = (other, mean, _lstsq(observed, score, ()), _lstsq(observed, score, (other,)))

    def impute(self, s: StudentRecord, score: str) -> float:
        """The student's `score` (an `EntryInfo` field): observed, else predicted and clamped."""
        value = getattr(s.entry, score)
        if value is not None:
            return float(value)
        other_score, mean, base, cross = self._fits[score]
        other = getattr(s.entry, other_score)
        if other is not None and cross is not None:
            value = float(np.array(_base_row(s) + [float(other)]) @ cross)
        elif base is not None:
            value = float(np.array(_base_row(s)) @ base)
        else:
            value = mean
        lo, hi = SCORE_BOUNDS[score]
        return float(min(hi, max(lo, value)))


def fit_imputer(train: LabeledDataset, mode: str) -> Imputer:
    return Imputer(mode, [s for s, _ in train.records])


class FeatureSchema:
    """Ordered feature descriptors plus everything needed to encode a student.

    `gpa_means[kind][key]` is the GPA fallback of each tuple (see `_tuple_groups`).
    """

    def __init__(
        self,
        config: FeatureConfig,
        major_vocab: tuple[str, ...],
        department_vocab: tuple[str, ...],
        imputer: Imputer,
        gpa_means: dict[str, dict[str, float]],
        global_gpa_mean: float,
    ):
        self.config = config
        self.major_vocab = major_vocab
        self.department_vocab = department_vocab
        self.imputer = imputer
        self.gpa_means = gpa_means
        self.global_gpa_mean = global_gpa_mean
        self.blocks = self._layout()
        self.descriptors = tuple(d for columns, _ in self.blocks for d in columns)
        self.means: np.ndarray | None = None  # z-score statistics, set by `fit_scaling`
        self.sds: np.ndarray | None = None

    def _layout(self) -> list:
        """The column layout: (descriptors, values) blocks in column order (see `_block`)."""
        imputer, majors = self.imputer, self.major_vocab
        return [
            *_DEMOGRAPHIC_BLOCKS,
            _block("numeric", ["birth_year"], lambda s, first: [float(s.demographics.birth_year)]),
            _block("numeric", ["entry_year"], lambda s, first: [float(year_quarter(s.first_term)[0])]),
            _one_hot("first_quarter", QUARTERS, lambda s: year_quarter(s.first_term)[1]),
            _block("numeric", list(SCORE_BOUNDS),
                   lambda s, first: [imputer.impute(s, score) for score in SCORE_BOUNDS]),
            _block("dummy", [f"major={m}" for m in majors],
                   lambda s, first: [1.0 if m in s.entry.first_term_majors else 0.0 for m in majors]),
            *(_tuple_block(kind, key, dept, course_range, self.gpa_means[kind][key])
              for kind, key, dept, course_range in _tuple_groups(self.config, self.department_vocab)),
            _flag("remedial", lambda s, first: any(e.remedial for e in first)),
            _flag("fig_member", lambda s, first: s.entry.fig_member),
        ]

    @property
    def feature_names(self) -> list[str]:
        return [d.name for d in self.descriptors]

    def __len__(self) -> int:
        return len(self.descriptors)

    def index_of(self, name: str) -> int:
        return self.feature_names.index(name)

    def fit_scaling(self, x_train_raw: np.ndarray) -> None:
        """Take the z-score statistics from the raw training rows, which callers encode anyway: once per student."""
        self.means = x_train_raw.mean(axis=0)
        self.sds = x_train_raw.std(axis=0)

    def standardize(self, x: np.ndarray) -> np.ndarray:
        """Z-score numeric columns with training stats; dummies pass through."""
        if self.means is None:
            raise ValueError("the schema has no z-score statistics yet; call fit_scaling first")
        return standardize(x, self.means, self.sds, [d.standardize for d in self.descriptors])

    def to_json(self, path: str | Path) -> None:
        payload = {
            "feature_names": self.feature_names,
            "kinds": [d.kind for d in self.descriptors],
            "standardized": [d.standardize for d in self.descriptors],
            "major_vocab": list(self.major_vocab),
            "department_vocab": list(self.department_vocab),
            "means": [float(v) for v in self.means],
            "sds": [float(v) for v in self.sds],
            **{f"{kind}_gpa_means": {k: float(v) for k, v in sorted(means.items())}
               for kind, means in self.gpa_means.items()},
            "global_gpa_mean": float(self.global_gpa_mean),
            "imputation_mode": self.imputer.mode,
        }
        write_json(path, payload)


def fit_schema(train: LabeledDataset, config: FeatureConfig | None = None) -> FeatureSchema:
    """Fit vocabularies, imputer and GPA fallbacks on training data; `FeatureSchema.fit_scaling` adds z-score stats."""
    cfg = config or FeatureConfig()
    if len(train.records) == 0:
        raise ValueError("cannot fit a feature schema on an empty training set")

    major_counts = Counter(m for s, _ in train.records for m in s.entry.first_term_majors)
    all_first = [e for s, _ in train.records for e in s.first_term_entries()]
    by_dept: dict[str, list[TranscriptEntry]] = {}
    for e in all_first:
        by_dept.setdefault(e.department, []).append(e)

    ranked = sorted(major_counts, key=lambda m: (-major_counts[m], m))
    major_vocab = tuple(ranked[: cfg.major_vocab_size])
    department_vocab = tuple(sorted(by_dept))

    global_gpa = credit_weighted_gpa(all_first) or 0.0
    # each tuple's fallback is its own GPA over the pooled training first terms
    gpa_means: dict[str, dict[str, float]] = {"dept": {}, "gatekeeper": {}}
    for kind, key, dept, course_range in _tuple_groups(cfg, department_vocab):
        gpa = department_tuple(by_dept.get(dept, ()), dept, course_range)[3]
        gpa_means[kind][key] = global_gpa if gpa is None else gpa

    return FeatureSchema(
        cfg, major_vocab, department_vocab, fit_imputer(train, cfg.imputation_mode), gpa_means, global_gpa
    )


def encode(student: StudentRecord, schema: FeatureSchema) -> np.ndarray:
    """Raw (unstandardized) feature row of one student; pure given its inputs."""
    first = student.first_term_entries()
    return np.array([v for _, values in schema.blocks for v in values(student, first)], dtype=float)


def encode_dataset(ds: LabeledDataset, schema: FeatureSchema) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(student_ids, raw X, y) where y = 1 marks non-completion (the positive class)."""
    ids = [s.student_id for s, _ in ds.records]
    x = np.array([encode(s, schema) for s, _ in ds.records])
    y = np.array([0.0 if lab.graduated else 1.0 for _, lab in ds.records])
    return ids, x, y
