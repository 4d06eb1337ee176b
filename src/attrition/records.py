"""Domain records for registrar-style enrollment data.

Every record is a frozen, slotted dataclass (no ``__dict__``): immutable
after construction and safe to share across threads. A calendar term is
one integer, its index ``4 * year + quarter ordinal`` over a four-quarter
year in calendar order (winter < spring < summer < autumn): terms compare
and sort as integers, and the quarters elapsed between two terms are the
difference of their indices.
`term_index` checks the term rules and builds the index; `year_quarter`
gives back its calendar parts.

The record constructors are the only place a domain rule is checked: every
bound, every category, grade-or-mark, positive credits and a non-empty
transcript. A broken rule raises `FieldError`, which names the field; field
names equal the CSV column names, so `io.load_students`, which only parses
cells, reports it at ``file:line: column``. A transcript entry stores no
student id: its student is the `StudentRecord` whose transcript holds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

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

# Inclusive bounds of each entry test score, keyed by its field (and CSV column) name.
SCORE_BOUNDS = {"sat_score": (400, 1600), "act_score": (1, 36)}


class FieldError(ValueError):
    """A value that breaks a rule of the record field (and CSV column) `field`."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


def _check_year(name: str, value) -> None:
    if not isinstance(value, int):
        raise FieldError(name, f"expected an integer, got {value!r}")
    _check_bounds(name, value, MIN_YEAR)


def _check_bounds(name: str, value, minimum, maximum=None) -> None:
    """Raise FieldError unless `minimum` <= `value` (<= `maximum` when given)."""
    if value < minimum:
        raise FieldError(name, f"value {value} below minimum {minimum}")
    if maximum is not None and value > maximum:
        raise FieldError(name, f"value {value} above maximum {maximum}")


def _check_category(name: str, value, allowed: tuple[str, ...]) -> None:
    if value not in allowed:
        raise FieldError(name, f"unknown category {value!r}, expected one of {sorted(allowed)}")


def term_index(year: int, quarter: str) -> int:
    """The term `quarter` of `year` as one integer: 4 * year + quarter ordinal.

    A year below MIN_YEAR or an unknown quarter raises FieldError naming
    "year" or "quarter".
    """
    _check_year("year", year)
    _check_category("quarter", quarter, QUARTERS)
    return 4 * year + QUARTERS.index(quarter)


def year_quarter(term: int) -> tuple[int, str]:
    """Inverse of :func:`term_index`: the calendar year and quarter of `term`."""
    return term // 4, QUARTERS[term % 4]


@dataclass(frozen=True, slots=True)
class Demographics:
    race: str
    gender: str
    hispanic: bool
    residency: str
    birth_year: int

    def __post_init__(self) -> None:
        _check_category("race", self.race, RACES)
        _check_category("gender", self.gender, GENDERS)
        _check_category("residency", self.residency, RESIDENCIES)
        _check_year("birth_year", self.birth_year)


@dataclass(frozen=True, slots=True)
class EntryInfo:
    """Pre-college entry information known at matriculation."""

    previous_schooling: str
    sat_score: int | None = None
    act_score: int | None = None
    transfer_credits: float = 0.0
    first_term_majors: tuple[str, ...] = ()
    fig_member: bool = False

    def __post_init__(self) -> None:
        _check_category("previous_schooling", self.previous_schooling, PREVIOUS_SCHOOLING)
        for name, (lo, hi) in SCORE_BOUNDS.items():
            if getattr(self, name) is not None:
                _check_bounds(name, getattr(self, name), lo, hi)
        _check_bounds("transfer_credits", self.transfer_credits, 0.0)
        if self.previous_schooling == "Freshman" and self.transfer_credits != 0:
            raise FieldError("transfer_credits", "freshman entrants must have zero transfer credits")
        object.__setattr__(self, "first_term_majors", tuple(self.first_term_majors))


@dataclass(frozen=True, slots=True)
class TranscriptEntry:
    """One class on a student's transcript.

    ``grade`` is the numeric grade on a 4.0 scale; pass/fail and other
    non-numeric outcomes leave ``grade`` empty and carry the registrar mark
    instead. Either way the entry counts as enrollment for its term.
    """

    term: int  # term_index of the quarter
    department: str
    course_number: int
    credits: float
    grade: float | None = None
    mark: str | None = None
    remedial: bool = False

    def __post_init__(self) -> None:
        if not self.department:
            raise FieldError("department", "empty department code")
        _check_bounds("course_number", self.course_number, 0)
        _check_bounds("credits", self.credits, 0.0)
        if self.credits == 0.0:
            # every valid entry bears a grade or mark, so it counts as enrollment
            # and needs positive credits
            raise FieldError("credits", "enrollment-counting entry must have credits > 0")
        if self.grade is not None:
            _check_bounds("grade", self.grade, 0.0, 4.0)
        elif not self.mark:
            raise FieldError("grade", "entry has neither a numeric grade nor a mark")


# Canonical transcript order: term, then course number, then department.
transcript_sort_key = attrgetter("term", "course_number", "department")


@dataclass(frozen=True, slots=True)
class StudentRecord:
    """A student's demographics, entry info, transcript, and degree terms.

    ``first_term`` is always derived from the transcript (earliest term with
    any grade or mark), never trusted from input.
    """

    student_id: str
    demographics: Demographics
    entry: EntryInfo
    first_term: int = field(init=False)
    transcript: tuple[TranscriptEntry, ...] = ()
    degree_terms: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "transcript", tuple(self.transcript))
        object.__setattr__(self, "degree_terms", tuple(self.degree_terms))
        if not self.transcript:
            raise FieldError("student_id", f"student {self.student_id} has no transcript entries")
        object.__setattr__(self, "first_term", min(e.term for e in self.transcript))

    def first_term_entries(self) -> tuple[TranscriptEntry, ...]:
        return tuple(e for e in self.transcript if e.term == self.first_term)


def make_student(
    student_id: str,
    demographics: Demographics,
    entry: EntryInfo,
    transcript: list[TranscriptEntry] | tuple[TranscriptEntry, ...],
    degree_terms: list[int] | tuple[int, ...] = (),
) -> StudentRecord:
    """Build a StudentRecord with its transcript and degree terms in canonical order."""
    return StudentRecord(
        student_id=student_id,
        demographics=demographics,
        entry=entry,
        transcript=tuple(sorted(transcript, key=transcript_sort_key)),
        degree_terms=tuple(sorted(degree_terms)),
    )
