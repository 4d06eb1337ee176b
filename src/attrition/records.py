"""Domain records for registrar-style enrollment data.

Everything here is immutable after construction and safe to share across
threads. Calendar terms follow a four-quarter year in calendar order
(winter < spring < summer < autumn), which keeps quarter arithmetic a plain
integer subtraction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

QUARTERS = ("winter", "spring", "summer", "autumn")

RACES = (
    "AfricanAmerican",
    "AmericanIndian",
    "Asian",
    "Caucasian",
    "HawaiianPacificIslander",
    "OtherUnknown",
)
GENDERS = ("Female", "Male", "OtherUnknown")
PREVIOUS_SCHOOLING = ("Freshman", "Transfer2Yr", "Transfer4Yr")
RESIDENCIES = (
    "Resident",
    "NonResident",
    "International",
    "Veteran",
    "ActiveDuty",
    "Refugee",
    "OtherUnknown",
)

MIN_YEAR = 1900


@functools.total_ordering
@dataclass(frozen=True)
class Term:
    """One calendar quarter, totally ordered by (year, quarter)."""

    year: int
    quarter: str

    def __post_init__(self) -> None:
        if not isinstance(self.year, int) or self.year < MIN_YEAR:
            raise ValueError(f"term year must be an integer >= {MIN_YEAR}, got {self.year!r}")
        if self.quarter not in QUARTERS:
            raise ValueError(f"quarter must be one of {QUARTERS}, got {self.quarter!r}")

    def __lt__(self, other: "Term") -> bool:
        return term_index(self) < term_index(other)


def term_index(t: Term) -> int:
    """Integer position of a term: 4 * year + quarter ordinal.

    Strictly monotone with the term order, so elapsed quarters between two
    terms is just the difference of their indices.
    """
    return 4 * t.year + QUARTERS.index(t.quarter)


def term_from_index(index: int) -> Term:
    """Inverse of :func:`term_index`."""
    return Term(index // 4, QUARTERS[index % 4])


@dataclass(frozen=True)
class Demographics:
    race: str
    gender: str
    hispanic: bool
    residency: str
    birth_year: int

    def __post_init__(self) -> None:
        if self.race not in RACES:
            raise ValueError(f"unknown race category {self.race!r}")
        if self.gender not in GENDERS:
            raise ValueError(f"unknown gender category {self.gender!r}")
        if not isinstance(self.birth_year, int) or self.birth_year < MIN_YEAR:
            raise ValueError(f"birth_year must be an integer >= {MIN_YEAR}, got {self.birth_year!r}")


@dataclass(frozen=True)
class EntryInfo:
    """Pre-college entry information known at matriculation."""

    previous_schooling: str
    sat_score: int | None = None
    act_score: int | None = None
    transfer_credits: float = 0.0
    first_term_majors: tuple[str, ...] = ()
    fig_member: bool = False

    def __post_init__(self) -> None:
        if self.previous_schooling not in PREVIOUS_SCHOOLING:
            raise ValueError(f"unknown previous_schooling {self.previous_schooling!r}")
        if self.sat_score is not None and not 400 <= self.sat_score <= 1600:
            raise ValueError(f"sat_score out of range [400, 1600]: {self.sat_score}")
        if self.act_score is not None and not 1 <= self.act_score <= 36:
            raise ValueError(f"act_score out of range [1, 36]: {self.act_score}")
        if self.transfer_credits < 0:
            raise ValueError(f"transfer_credits must be non-negative, got {self.transfer_credits}")
        if self.previous_schooling == "Freshman" and self.transfer_credits != 0:
            raise ValueError("freshman entrants must have zero transfer credits")
        object.__setattr__(self, "first_term_majors", tuple(self.first_term_majors))


@dataclass(frozen=True)
class TranscriptEntry:
    """One class on a student's transcript.

    ``grade`` is the numeric grade on a 4.0 scale; pass/fail and other
    non-numeric outcomes leave ``grade`` empty and carry the registrar mark
    instead. Either way the entry counts as enrollment for its term.
    """

    student_id: str
    term: Term
    department: str
    course_number: int
    credits: float
    grade: float | None = None
    mark: str | None = None
    remedial: bool = False

    def __post_init__(self) -> None:
        if self.grade is not None and not 0.0 <= self.grade <= 4.0:
            raise ValueError(f"grade out of range [0.0, 4.0]: {self.grade}")
        if self.credits < 0:
            raise ValueError(f"credits must be non-negative, got {self.credits}")
        if self.grade is None and not self.mark:
            raise ValueError("entry needs a numeric grade or a non-numeric mark")


def transcript_sort_key(entry: TranscriptEntry) -> tuple[int, int, str]:
    """Canonical transcript order: term, then course number, then department."""
    return (term_index(entry.term), entry.course_number, entry.department)


@dataclass(frozen=True)
class StudentRecord:
    """A student's demographics, entry info, transcript, and degree terms.

    ``first_term`` is always derived from the transcript (earliest term with
    any grade or mark), never trusted from input.
    """

    student_id: str
    demographics: Demographics
    entry: EntryInfo
    first_term: Term
    transcript: tuple[TranscriptEntry, ...] = ()
    degree_terms: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "transcript", tuple(self.transcript))
        object.__setattr__(self, "degree_terms", tuple(self.degree_terms))
        if not self.transcript:
            raise ValueError(f"student {self.student_id} has no transcript entries")
        for entry in self.transcript:
            if entry.student_id != self.student_id:
                raise ValueError(
                    f"transcript entry for {entry.student_id!r} attached to student {self.student_id!r}"
                )
        derived = min(e.term for e in self.transcript)
        if self.first_term != derived:
            raise ValueError(
                f"first_term {self.first_term} does not match earliest transcript term {derived}"
            )

    def first_term_entries(self) -> tuple[TranscriptEntry, ...]:
        return tuple(e for e in self.transcript if e.term == self.first_term)


def make_student(
    student_id: str,
    demographics: Demographics,
    entry: EntryInfo,
    transcript: list[TranscriptEntry] | tuple[TranscriptEntry, ...],
    degree_terms: list[Term] | tuple[Term, ...] = (),
) -> StudentRecord:
    """Build a StudentRecord with canonical transcript order and derived first term."""
    ordered = tuple(sorted(transcript, key=transcript_sort_key))
    if not ordered:
        raise ValueError(f"student {student_id} has no transcript entries")
    first = min(e.term for e in ordered)
    return StudentRecord(
        student_id=student_id,
        demographics=demographics,
        entry=entry,
        first_term=first,
        transcript=ordered,
        degree_terms=tuple(sorted(degree_terms)),
    )
