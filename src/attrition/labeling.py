"""Non-completion labeling and class balancing.

A student counts as enrolled in a term when the transcript shows at least
one grade or mark there, numeric or pass/fail. Graduation means earning a
degree within 24 calendar quarters of first enrollment, shrunk for transfer
students by the quarters their transferred credits already cover (credits
divided by the per-quarter pace of a 12-quarter degree). The window
comparison is inclusive and the quotient rounds half-up; the allowance never
drops below one quarter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generic, TypeVar

import numpy as np

from .records import StudentRecord

BASE_WINDOW_QUARTERS = 24
QUARTERS_TO_DEGREE = 12
DEFAULT_DEGREE_CREDITS = 180.0
Student = TypeVar("Student")  # what a label is paired with: the student's record, or its id alone


@dataclass(frozen=True)
class OutcomeLabel:
    graduated: bool
    quarters_enrolled: int
    window_allowance: int


@dataclass(frozen=True)
class LabeledDataset(Generic[Student]):
    records: tuple[tuple[Student, OutcomeLabel], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

    def class_counts(self) -> tuple[int, int]:
        """(graduated, non-completion) counts."""
        grads = sum(1 for _, lab in self.records if lab.graduated)
        return grads, len(self.records) - grads


def enrollment_terms(student: StudentRecord) -> list[int]:
    """Distinct transcript terms, ascending: every entry bears a grade or mark, so each counts."""
    return sorted({e.term for e in student.transcript})


def window_allowance(transfer_credits: float, degree_credits: float = DEFAULT_DEGREE_CREDITS) -> int:
    """Quarters allowed for completion after transfer-credit adjustment.

    Transferred credits are converted to quarters at degree_credits / 12
    credits per quarter (rounded half-up) and subtracted from the 24-quarter
    window, floored at one quarter.
    """
    if degree_credits <= 0:
        raise ValueError(f"degree_credits must be positive, got {degree_credits}")
    per_quarter = degree_credits / QUARTERS_TO_DEGREE
    transferred_quarters = math.floor(transfer_credits / per_quarter + 0.5)
    return max(1, BASE_WINDOW_QUARTERS - transferred_quarters)


def label_outcome(student: StudentRecord, degree_credits: float = DEFAULT_DEGREE_CREDITS) -> OutcomeLabel:
    """Binary completion outcome plus enrolled-quarter count for one student."""
    allowance = window_allowance(student.entry.transfer_credits, degree_credits)
    graduated = any(d - student.first_term <= allowance for d in student.degree_terms)
    return OutcomeLabel(
        graduated=graduated,
        quarters_enrolled=len(enrollment_terms(student)),
        window_allowance=allowance,
    )


def label_all(
    records: list[StudentRecord] | tuple[StudentRecord, ...],
    degree_credits: float = DEFAULT_DEGREE_CREDITS,
) -> LabeledDataset:
    return LabeledDataset(tuple((s, label_outcome(s, degree_credits)) for s in records))


def balance(ds: LabeledDataset[Student], seed: int) -> LabeledDataset[Student]:
    """Downsample the majority class to the minority size, without replacement.

    The minority class is kept whole; membership is deterministic given the
    seed and the labels alone, and record order is preserved.
    """
    grad_idx = [i for i, (_, lab) in enumerate(ds.records) if lab.graduated]
    nc_idx = [i for i, (_, lab) in enumerate(ds.records) if not lab.graduated]
    if not grad_idx or not nc_idx:
        raise ValueError("balance requires at least one record in each class")
    minority, majority = (grad_idx, nc_idx) if len(grad_idx) <= len(nc_idx) else (nc_idx, grad_idx)
    rng = np.random.default_rng(seed)
    kept_majority = rng.choice(np.asarray(majority), size=len(minority), replace=False)
    keep = sorted(set(minority) | set(int(i) for i in kept_majority))
    return LabeledDataset(tuple(ds.records[i] for i in keep))
