"""Every on-disk format of the pipeline: registrar CSVs and the artifacts.

All CSV files are UTF-8 with a header row, LF line ends and "." decimal
point; floats are written as ``repr`` so they read back exactly. JSON files
have sorted keys and end in a newline. `write_csv`/`read_csv` and
`write_json`/`read_json` are the only code that writes or reads them; the
validating `load_students` checks the registrar inputs row by row.

Registrar input files:

* ``students.csv``: student_id, race, gender, hispanic (0/1), residency,
  birth_year, previous_schooling, sat_score (blank = missing), act_score
  (blank = missing), transfer_credits, first_term_majors (semicolon-separated),
  fig_member (0/1)
* ``transcripts.csv``: student_id, year, quarter, department, course_number,
  credits, grade (blank = non-numeric mark), mark (letter or P/NP when grade
  blank), remedial (0/1)
* ``degrees.csv``: student_id, year, quarter
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .records import (
    GENDERS,
    PREVIOUS_SCHOOLING,
    QUARTERS,
    RACES,
    RESIDENCIES,
    Demographics,
    EntryInfo,
    StudentRecord,
    Term,
    TranscriptEntry,
    make_student,
)

STUDENT_COLUMNS = (
    "student_id",
    "race",
    "gender",
    "hispanic",
    "residency",
    "birth_year",
    "previous_schooling",
    "sat_score",
    "act_score",
    "transfer_credits",
    "first_term_majors",
    "fig_member",
)
TRANSCRIPT_COLUMNS = (
    "student_id",
    "year",
    "quarter",
    "department",
    "course_number",
    "credits",
    "grade",
    "mark",
    "remedial",
)
DEGREE_COLUMNS = ("student_id", "year", "quarter")


class DataFormatError(ValueError):
    """A malformed input row, pinpointed by file, line, and column."""

    def __init__(self, file: str | Path, line: int, column: str, message: str):
        self.file = str(file)
        self.line = line
        self.column = column
        super().__init__(f"{self.file}:{line}: column {column!r}: {message}")


class _RowReader:
    """DictReader wrapper that raises DataFormatError with file/line context."""

    def __init__(self, path: str | Path, required: Sequence[str]):
        self.path = Path(path)
        self.required = tuple(required)

    def rows(self):
        with open(self.path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in self.required if c not in header]
            if missing:
                raise DataFormatError(self.path, 1, missing[0], "missing required column")
            for row in reader:
                yield reader.line_num, row

    def fail(self, line: int, column: str, message: str):
        raise DataFormatError(self.path, line, column, message)

    def parse_number(self, row, line, column, kind, minimum=None, maximum=None):
        """The cell as `kind` (int or float), checked against the inclusive bounds."""
        raw = (row.get(column) or "").strip()
        try:
            value = kind(raw)
        except ValueError:
            expected = "an integer" if kind is int else "a decimal number"
            self.fail(line, column, f"expected {expected}, got {raw!r}")
        if minimum is not None and value < minimum:
            self.fail(line, column, f"value {value} below minimum {minimum}")
        if maximum is not None and value > maximum:
            self.fail(line, column, f"value {value} above maximum {maximum}")
        return value

    def parse_flag(self, row, line, column) -> bool:
        raw = (row.get(column) or "").strip()
        if raw not in ("0", "1"):
            self.fail(line, column, f"expected 0 or 1, got {raw!r}")
        return raw == "1"

    def parse_category(self, row, line, column, allowed) -> str:
        raw = (row.get(column) or "").strip()
        if raw not in allowed:
            self.fail(line, column, f"unknown category {raw!r}, expected one of {sorted(allowed)}")
        return raw


def load_students(
    students_file: str | Path,
    transcripts_file: str | Path,
    degrees_file: str | Path | None = None,
) -> list[StudentRecord]:
    """Load and validate student records from CSV files.

    Every transcript row must attach to exactly one student, every student
    needs at least one transcript entry, and ``first_term`` is derived from
    the transcript rather than read. Degree terms are optional; omitting the
    degrees file yields records with empty ``degree_terms``.
    """
    s_reader = _RowReader(students_file, STUDENT_COLUMNS)
    demo_by_id: dict[str, Demographics] = {}
    entry_by_id: dict[str, EntryInfo] = {}
    order: list[str] = []

    for line, row in s_reader.rows():
        sid = (row.get("student_id") or "").strip()
        if not sid:
            s_reader.fail(line, "student_id", "empty student_id")
        if sid in demo_by_id:
            s_reader.fail(line, "student_id", f"duplicate student_id {sid!r}")
        race = s_reader.parse_category(row, line, "race", RACES)
        gender = s_reader.parse_category(row, line, "gender", GENDERS)
        hispanic = s_reader.parse_flag(row, line, "hispanic")
        residency = s_reader.parse_category(row, line, "residency", RESIDENCIES)
        birth_year = s_reader.parse_number(row, line, "birth_year", int, minimum=1900)
        prev = s_reader.parse_category(row, line, "previous_schooling", PREVIOUS_SCHOOLING)
        sat_raw = (row.get("sat_score") or "").strip()
        sat = s_reader.parse_number(row, line, "sat_score", int, 400, 1600) if sat_raw else None
        act_raw = (row.get("act_score") or "").strip()
        act = s_reader.parse_number(row, line, "act_score", int, 1, 36) if act_raw else None
        credits = s_reader.parse_number(row, line, "transfer_credits", float, minimum=0.0)
        majors_raw = (row.get("first_term_majors") or "").strip()
        majors = tuple(m for m in majors_raw.split(";") if m) if majors_raw else ()
        fig = s_reader.parse_flag(row, line, "fig_member")
        try:
            demo_by_id[sid] = Demographics(race, gender, hispanic, residency, birth_year)
            entry_by_id[sid] = EntryInfo(prev, sat, act, credits, majors, fig)
        except ValueError as exc:
            s_reader.fail(line, "student_id", str(exc))
        order.append(sid)

    t_reader = _RowReader(transcripts_file, TRANSCRIPT_COLUMNS)
    transcripts: dict[str, list[TranscriptEntry]] = {sid: [] for sid in order}
    for line, row in t_reader.rows():
        sid = (row.get("student_id") or "").strip()
        if sid not in transcripts:
            t_reader.fail(line, "student_id", f"transcript row for unknown student_id {sid!r}")
        year = t_reader.parse_number(row, line, "year", int, minimum=1900)
        quarter = t_reader.parse_category(row, line, "quarter", QUARTERS)
        department = (row.get("department") or "").strip()
        if not department:
            t_reader.fail(line, "department", "empty department code")
        course_number = t_reader.parse_number(row, line, "course_number", int, minimum=0)
        credits = t_reader.parse_number(row, line, "credits", float, minimum=0.0)
        if credits == 0.0:
            # every valid row bears a grade or mark, so it counts as
            # enrollment and needs positive credits
            t_reader.fail(line, "credits", "enrollment-counting entry must have credits > 0")
        grade_raw = (row.get("grade") or "").strip()
        grade = t_reader.parse_number(row, line, "grade", float, 0.0, 4.0) if grade_raw else None
        mark = (row.get("mark") or "").strip() or None
        if grade is None and mark is None:
            t_reader.fail(line, "grade", "row has neither a numeric grade nor a mark")
        remedial = t_reader.parse_flag(row, line, "remedial")
        transcripts[sid].append(
            TranscriptEntry(sid, Term(year, quarter), department, course_number, credits, grade, mark, remedial)
        )

    degrees: dict[str, list[Term]] = {sid: [] for sid in order}
    if degrees_file is not None:
        d_reader = _RowReader(degrees_file, DEGREE_COLUMNS)
        for line, row in d_reader.rows():
            sid = (row.get("student_id") or "").strip()
            if sid not in degrees:
                d_reader.fail(line, "student_id", f"degree row for unknown student_id {sid!r}")
            year = d_reader.parse_number(row, line, "year", int, minimum=1900)
            quarter = d_reader.parse_category(row, line, "quarter", QUARTERS)
            degrees[sid].append(Term(year, quarter))

    records = []
    for sid in order:
        if not transcripts[sid]:
            raise ValueError(f"student {sid} has no transcript entries")
        records.append(
            make_student(sid, demo_by_id[sid], entry_by_id[sid], transcripts[sid], degrees[sid])
        )
    return records


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row, then `rows` as they come, with LF line ends.

    None is written as an empty cell and a float as its ``repr``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: str | Path) -> Iterator[dict[str, str]]:
    """Yield the rows of a CSV file with a header as dicts, one at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        yield from csv.DictReader(fh)


def write_json(path: str | Path, payload, indent: int | None = 2) -> None:
    """Write `payload` as sorted-key JSON followed by a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_students(records: Iterable[StudentRecord], path: str | Path) -> None:
    write_csv(
        path,
        STUDENT_COLUMNS,
        (
            [
                r.student_id,
                r.demographics.race,
                r.demographics.gender,
                int(r.demographics.hispanic),
                r.demographics.residency,
                r.demographics.birth_year,
                r.entry.previous_schooling,
                r.entry.sat_score,
                r.entry.act_score,
                r.entry.transfer_credits,
                ";".join(r.entry.first_term_majors),
                int(r.entry.fig_member),
            ]
            for r in records
        ),
    )


def write_transcripts(records: Iterable[StudentRecord], path: str | Path) -> None:
    write_csv(
        path,
        TRANSCRIPT_COLUMNS,
        (
            [
                t.student_id,
                t.term.year,
                t.term.quarter,
                t.department,
                t.course_number,
                t.credits,
                t.grade,
                t.mark,
                int(t.remedial),
            ]
            for r in records
            for t in r.transcript
        ),
    )


def write_degrees(records: Iterable[StudentRecord], path: str | Path) -> None:
    write_csv(
        path,
        DEGREE_COLUMNS,
        ([r.student_id, term.year, term.quarter] for r in records for term in r.degree_terms),
    )
