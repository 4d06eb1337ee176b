"""First-term feature space: schema fitting, encoding, and score imputation.

The feature vector covers demographic one-hots, entry info, declared-major
dummies (top-150 vocabulary), a four-component tuple per department seen in
training first terms (took / credits / classes / GPA), the same tuple for
four entry-level STEM gatekeeper groups, and remedial/FIG indicators.

Vocabularies, standardization statistics, imputation models, and department
GPA fallbacks are all fit on training data only; encoding never mutates the
schema. When a student has no graded class in a department, the GPA slot
falls back to that department's training-set mean (zero would read as
failing). Numeric columns are z-scored with training statistics; dummy
columns are left as 0/1 so tree learners can consume the raw matrix.
"""

from __future__ import annotations

import hashlib
import json
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
    StudentRecord,
    TranscriptEntry,
)

DEFAULT_GATEKEEPER_DEPARTMENTS = {
    "math": "MATH",
    "chemistry": "CHEM",
    "physics": "PHYS",
    "biology": "BIOL",
}

TUPLE_COMPONENTS = ("took", "credits", "classes", "gpa")


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
        lo, hi = self.gatekeeper_range
        if lo > hi:
            raise ValueError(f"bad gatekeeper course-number range {self.gatekeeper_range}")
        object.__setattr__(self, "gatekeeper_departments", dict(self.gatekeeper_departments))


@dataclass(frozen=True)
class FeatureDescriptor:
    name: str
    kind: str  # "dummy" | "numeric" | "department"
    source: str
    standardize: bool


def department_tuple(
    entries: Sequence[TranscriptEntry], dept: str
) -> tuple[int, float, int, float | None]:
    """(took, credits, classes, gpa) for one department over first-term entries.

    Credits and class counts include pass/fail entries; the GPA is
    :func:`credit_weighted_gpa` of the department's entries.
    """
    mine = [e for e in entries if e.department == dept]
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


def _demographic_onehots(s: StudentRecord) -> list[float]:
    """Race, gender, residency and previous-schooling one-hots, then the hispanic flag."""
    d = s.demographics
    row = [1.0 if d.race == r else 0.0 for r in RACES]
    row += [1.0 if d.gender == g else 0.0 for g in GENDERS]
    row += [1.0 if d.residency == r else 0.0 for r in RESIDENCIES]
    row += [1.0 if s.entry.previous_schooling == p else 0.0 for p in PREVIOUS_SCHOOLING]
    row.append(1.0 if d.hispanic else 0.0)
    return row


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


def gatekeeper_entries(
    entries: Sequence[TranscriptEntry], dept: str, course_range: tuple[int, int]
) -> list[TranscriptEntry]:
    lo, hi = course_range
    return [e for e in entries if e.department == dept and lo <= e.course_number <= hi]


class Imputer:
    """Linear-regression (or mean) imputation of missing SAT/ACT scores.

    Regression mode fits least squares of each observed score on demographic
    and entry dummies plus birth year, with a second-stage model that also
    uses the other score for rows where it is observed. Fit on training rows
    only. Mean mode, and a score observed on fewer than 2 training rows,
    fall back to training means.
    """

    SAT_RANGE = (400.0, 1600.0)
    ACT_RANGE = (1.0, 36.0)

    def __init__(self, mode: str):
        if mode not in ("regression", "mean"):
            raise ValueError(f"unknown imputation mode {mode!r}")
        self.mode = mode
        self.sat_mean = 0.0
        self.act_mean = 0.0
        self._weights: dict[str, np.ndarray | None] = {
            "sat_base": None,
            "sat_cross": None,
            "act_base": None,
            "act_cross": None,
        }

    def _base_row(self, s: StudentRecord) -> list[float]:
        return [1.0] + _demographic_onehots(s) + [float(s.demographics.birth_year - 1980)]

    def fit(self, students: Sequence[StudentRecord]) -> "Imputer":
        sat_rows = [s for s in students if s.entry.sat_score is not None]
        act_rows = [s for s in students if s.entry.act_score is not None]
        if not sat_rows:
            raise ValueError("cannot fit imputer: no observed SAT scores in training data")
        if not act_rows:
            raise ValueError("cannot fit imputer: no observed ACT scores in training data")
        self.sat_mean = float(np.mean([s.entry.sat_score for s in sat_rows]))
        self.act_mean = float(np.mean([s.entry.act_score for s in act_rows]))
        if self.mode == "mean":
            return self

        def lstsq(rows, target, extra):
            a = np.array([self._base_row(s) + ([float(extra(s))] if extra else []) for s in rows])
            b = np.array([float(target(s)) for s in rows])
            w, *_ = np.linalg.lstsq(a, b, rcond=None)
            return w

        if len(sat_rows) >= 2:
            self._weights["sat_base"] = lstsq(sat_rows, lambda s: s.entry.sat_score, None)
        if len(act_rows) >= 2:
            self._weights["act_base"] = lstsq(act_rows, lambda s: s.entry.act_score, None)
        sat_with_act = [s for s in sat_rows if s.entry.act_score is not None]
        act_with_sat = [s for s in act_rows if s.entry.sat_score is not None]
        if len(sat_with_act) >= 2:
            self._weights["sat_cross"] = lstsq(sat_with_act, lambda s: s.entry.sat_score, lambda s: s.entry.act_score)
        if len(act_with_sat) >= 2:
            self._weights["act_cross"] = lstsq(act_with_sat, lambda s: s.entry.act_score, lambda s: s.entry.sat_score)
        return self

    def _predict(self, s: StudentRecord, which: str) -> float:
        other = s.entry.act_score if which == "sat" else s.entry.sat_score
        mean = self.sat_mean if which == "sat" else self.act_mean
        lo, hi = self.SAT_RANGE if which == "sat" else self.ACT_RANGE
        if self.mode == "mean":
            return min(hi, max(lo, mean))
        cross = self._weights[f"{which}_cross"]
        base = self._weights[f"{which}_base"]
        if other is not None and cross is not None:
            row = np.array(self._base_row(s) + [float(other)])
            value = float(row @ cross)
        elif base is not None:
            value = float(np.array(self._base_row(s)) @ base)
        else:
            value = mean
        return min(hi, max(lo, value))

    def sat(self, s: StudentRecord) -> float:
        return float(s.entry.sat_score) if s.entry.sat_score is not None else self._predict(s, "sat")

    def act(self, s: StudentRecord) -> float:
        return float(s.entry.act_score) if s.entry.act_score is not None else self._predict(s, "act")


def fit_imputer(train: LabeledDataset, mode: str) -> Imputer:
    return Imputer(mode).fit([s for s, _ in train.records])


class FeatureSchema:
    """Ordered feature descriptors plus everything needed to encode a student."""

    def __init__(
        self,
        config: FeatureConfig,
        major_vocab: tuple[str, ...],
        department_vocab: tuple[str, ...],
        imputer: Imputer,
        dept_gpa_means: dict[str, float],
        gatekeeper_gpa_means: dict[str, float],
        global_gpa_mean: float,
    ):
        self.config = config
        self.major_vocab = major_vocab
        self.department_vocab = department_vocab
        self.imputer = imputer
        self.dept_gpa_means = dept_gpa_means
        self.gatekeeper_gpa_means = gatekeeper_gpa_means
        self.global_gpa_mean = global_gpa_mean
        self.descriptors = self._build_descriptors()
        self.means = np.zeros(len(self.descriptors))
        self.sds = np.ones(len(self.descriptors))

    def _build_descriptors(self) -> tuple[FeatureDescriptor, ...]:
        desc: list[FeatureDescriptor] = []

        def dummy(name, source):
            desc.append(FeatureDescriptor(name, "dummy", source, False))

        def numeric(name, source):
            desc.append(FeatureDescriptor(name, "numeric", source, True))

        for r in RACES:
            dummy(f"race={r}", "demographics")
        for g in GENDERS:
            dummy(f"gender={g}", "demographics")
        for r in RESIDENCIES:
            dummy(f"residency={r}", "demographics")
        for p in PREVIOUS_SCHOOLING:
            dummy(f"prev_schooling={p}", "entry")
        dummy("hispanic", "demographics")
        numeric("birth_year", "demographics")
        numeric("entry_year", "transcript")
        for q in QUARTERS:
            dummy(f"first_quarter={q}", "transcript")
        numeric("sat_score", "entry")
        numeric("act_score", "entry")
        for m in self.major_vocab:
            dummy(f"major={m}", "entry")
        for d in self.department_vocab:
            desc.append(FeatureDescriptor(f"dept={d}:took", "department", "transcript", False))
            desc.append(FeatureDescriptor(f"dept={d}:credits", "department", "transcript", True))
            desc.append(FeatureDescriptor(f"dept={d}:classes", "department", "transcript", True))
            desc.append(FeatureDescriptor(f"dept={d}:gpa", "department", "transcript", True))
        for group in sorted(self.config.gatekeeper_departments):
            desc.append(FeatureDescriptor(f"gatekeeper={group}:took", "department", "transcript", False))
            desc.append(FeatureDescriptor(f"gatekeeper={group}:credits", "department", "transcript", True))
            desc.append(FeatureDescriptor(f"gatekeeper={group}:classes", "department", "transcript", True))
            desc.append(FeatureDescriptor(f"gatekeeper={group}:gpa", "department", "transcript", True))
        dummy("remedial", "transcript")
        dummy("fig_member", "entry")
        return tuple(desc)

    @property
    def feature_names(self) -> list[str]:
        return [d.name for d in self.descriptors]

    def __len__(self) -> int:
        return len(self.descriptors)

    def index_of(self, name: str) -> int:
        return self.feature_names.index(name)

    def standardize(self, x: np.ndarray) -> np.ndarray:
        """Z-score numeric columns with training stats; dummies pass through."""
        return standardize(x, self.means, self.sds, [d.standardize for d in self.descriptors])

    def content_hash(self) -> str:
        payload = {
            "features": [(d.name, d.kind, d.source, d.standardize) for d in self.descriptors],
            "majors": list(self.major_vocab),
            "departments": list(self.department_vocab),
            "means": [repr(v) for v in self.means],
            "sds": [repr(v) for v in self.sds],
            "dept_gpa_means": {k: repr(v) for k, v in sorted(self.dept_gpa_means.items())},
            "gatekeeper_gpa_means": {k: repr(v) for k, v in sorted(self.gatekeeper_gpa_means.items())},
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def to_json(self, path: str | Path) -> None:
        payload = {
            "feature_names": self.feature_names,
            "kinds": [d.kind for d in self.descriptors],
            "standardized": [d.standardize for d in self.descriptors],
            "major_vocab": list(self.major_vocab),
            "department_vocab": list(self.department_vocab),
            "means": [float(v) for v in self.means],
            "sds": [float(v) for v in self.sds],
            "dept_gpa_means": {k: float(v) for k, v in sorted(self.dept_gpa_means.items())},
            "gatekeeper_gpa_means": {k: float(v) for k, v in sorted(self.gatekeeper_gpa_means.items())},
            "global_gpa_mean": float(self.global_gpa_mean),
            "imputation_mode": self.imputer.mode,
            "hash": self.content_hash(),
        }
        write_json(path, payload)


def fit_schema(train: LabeledDataset, config: FeatureConfig | None = None) -> FeatureSchema:
    """Fit vocabularies, imputer, GPA fallbacks, and z-score stats on training data."""
    cfg = config or FeatureConfig()
    if len(train.records) == 0:
        raise ValueError("cannot fit a feature schema on an empty training set")

    major_counts: dict[str, int] = {}
    dept_entries: dict[str, list[TranscriptEntry]] = {}
    gate_entries: dict[str, list[TranscriptEntry]] = {g: [] for g in cfg.gatekeeper_departments}
    all_first: list[TranscriptEntry] = []
    for student, _ in train.records:
        for m in student.entry.first_term_majors:
            major_counts[m] = major_counts.get(m, 0) + 1
        first = student.first_term_entries()
        all_first.extend(first)
        for e in first:
            dept_entries.setdefault(e.department, []).append(e)
        for group, dept in cfg.gatekeeper_departments.items():
            gate_entries[group].extend(gatekeeper_entries(first, dept, cfg.gatekeeper_range))

    ranked = sorted(major_counts, key=lambda m: (-major_counts[m], m))
    major_vocab = tuple(ranked[: cfg.major_vocab_size])
    department_vocab = tuple(sorted(dept_entries))

    global_gpa = credit_weighted_gpa(all_first)
    global_gpa = 0.0 if global_gpa is None else global_gpa

    def pooled(entries: list[TranscriptEntry]) -> float:
        gpa = credit_weighted_gpa(entries)
        return global_gpa if gpa is None else gpa

    dept_gpa_means = {d: pooled(entries) for d, entries in dept_entries.items()}
    gatekeeper_gpa_means = {g: pooled(entries) for g, entries in gate_entries.items()}

    schema = FeatureSchema(
        cfg, major_vocab, department_vocab, fit_imputer(train, cfg.imputation_mode),
        dept_gpa_means, gatekeeper_gpa_means, global_gpa,
    )
    raw = np.array([encode(s, schema) for s, _ in train.records])
    schema.means = raw.mean(axis=0)
    schema.sds = raw.std(axis=0)
    return schema


def encode(student: StudentRecord, schema: FeatureSchema) -> np.ndarray:
    """Raw (unstandardized) feature row of one student; pure given its inputs."""
    cfg = schema.config
    first = student.first_term_entries()

    values = _demographic_onehots(student)
    values.append(float(student.demographics.birth_year))
    values.append(float(student.first_term.year))
    values += [1.0 if student.first_term.quarter == q else 0.0 for q in QUARTERS]
    values.append(schema.imputer.sat(student))
    values.append(schema.imputer.act(student))
    declared = set(student.entry.first_term_majors)
    values += [1.0 if m in declared else 0.0 for m in schema.major_vocab]
    for dept in schema.department_vocab:
        took, credits, classes, gpa = department_tuple(first, dept)
        if gpa is None:
            gpa = schema.dept_gpa_means.get(dept, schema.global_gpa_mean)
        values += [float(took), credits, float(classes), gpa]
    for group in sorted(cfg.gatekeeper_departments):
        dept = cfg.gatekeeper_departments[group]
        took, credits, classes, gpa = department_tuple(
            gatekeeper_entries(first, dept, cfg.gatekeeper_range), dept
        )
        if gpa is None:
            gpa = schema.gatekeeper_gpa_means.get(group, schema.global_gpa_mean)
        values += [float(took), credits, float(classes), gpa]
    values.append(1.0 if any(e.remedial for e in first) else 0.0)
    values.append(1.0 if student.entry.fig_member else 0.0)

    return np.array(values, dtype=float)


def encode_dataset(
    ds: LabeledDataset, schema: FeatureSchema, standardize: bool = True
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(student_ids, X, y) where y = 1 marks non-completion (the positive class)."""
    ids = [s.student_id for s, _ in ds.records]
    x = np.array([encode(s, schema) for s, _ in ds.records])
    if standardize:
        x = schema.standardize(x)
    y = np.array([0.0 if lab.graduated else 1.0 for _, lab in ds.records])
    return ids, x, y
