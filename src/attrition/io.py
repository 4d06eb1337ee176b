"""Every on-disk format of the pipeline: registrar CSVs and the artifacts.

All CSV files are UTF-8 with a header row, LF line ends and "." decimal
point; floats are written as ``repr`` so they read back exactly. JSON files
have sorted keys and end in a newline. `write_csv`/`read_csv` and
`write_json`/`read_json` are the only code that writes or reads them.

`load_students` reads the registrar inputs. It owns only the file-level
rules: required columns, cell syntax (integer, decimal, 0/1 flag, blank as
missing) and empty, duplicate or unknown student ids. Every domain rule (bounds,
categories, grade-or-mark, positive credits, a non-empty transcript) is checked
once, by the record constructors in `records`. Either kind of error is raised
as a `DataFormatError` that names ``file:line: column``.

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
    Demographics,
    EntryInfo,
    FieldError,
    StudentRecord,
    TranscriptEntry,
    make_student,
    term_index,
    year_quarter,
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


_EXPECTED = {int: "an integer", float: "a decimal number", bool: "0 or 1"}


def _cell(row: dict[str, str], column: str, kind: type = str, optional: bool = False):
    """The stripped cell as `kind`: str, int, float, or bool for a 0/1 flag.

    A blank cell is None when `optional`; a cell that does not parse raises
    FieldError.
    """
    raw = (row.get(column) or "").strip()
    if optional and not raw:
        return None
    if kind is str:
        return raw
    if kind is bool:
        if raw in ("0", "1"):
            return raw == "1"
    else:
        try:
            return kind(raw)
        except ValueError:
            pass
    raise FieldError(column, f"expected {_EXPECTED[kind]}, got {raw!r}")


def _known_id(row: dict[str, str], rows_by_id: dict, what: str) -> str:
    sid = _cell(row, "student_id")
    if sid not in rows_by_id:
        raise FieldError("student_id", f"{what} row for unknown student_id {sid!r}")
    return sid


def _at(path: str | Path, line: int, build, *args):
    """`build(*args)`, with a FieldError reported as a DataFormatError at `path`:`line`."""
    try:
        return build(*args)
    except FieldError as exc:
        raise DataFormatError(path, line, exc.field, str(exc)) from exc


def _each_row(path: str | Path, columns: Sequence[str], handle) -> None:
    """Call `handle(line, row)` on every data row of the CSV file at `path`.

    The header must name every one of `columns`.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or [])]
        if missing:
            raise DataFormatError(path, 1, missing[0], "missing required column")
        for row in reader:
            _at(path, reader.line_num, handle, reader.line_num, row)


def load_students(
    students_file: str | Path,
    transcripts_file: str | Path,
    degrees_file: str | Path | None = None,
) -> list[StudentRecord]:
    """Load student records from the registrar CSV files.

    Here only the files are checked: required columns, cell syntax, and
    empty, duplicate or unknown student ids. The record constructors check
    every domain rule, and their errors are reported here at the file, line
    and column of the row. Omitting the degrees file yields records with
    empty ``degree_terms``.
    """
    students: dict[str, tuple[int, Demographics, EntryInfo]] = {}

    def student(line, row):
        sid = _cell(row, "student_id")
        if not sid:
            raise FieldError("student_id", "empty student_id")
        if sid in students:
            raise FieldError("student_id", f"duplicate student_id {sid!r}")
        demographics = Demographics(_cell(row, "race"), _cell(row, "gender"), _cell(row, "hispanic", bool),
                                    _cell(row, "residency"), _cell(row, "birth_year", int))
        majors = tuple(m for m in _cell(row, "first_term_majors").split(";") if m)
        entry = EntryInfo(_cell(row, "previous_schooling"), _cell(row, "sat_score", int, optional=True),
                          _cell(row, "act_score", int, optional=True), _cell(row, "transfer_credits", float),
                          majors, _cell(row, "fig_member", bool))
        students[sid] = (line, demographics, entry)

    _each_row(students_file, STUDENT_COLUMNS, student)
    transcripts: dict[str, list[TranscriptEntry]] = {sid: [] for sid in students}
    degrees: dict[str, list[int]] = {sid: [] for sid in students}

    def term(row):
        return term_index(_cell(row, "year", int), _cell(row, "quarter"))

    def transcript(line, row):
        sid = _known_id(row, transcripts, "transcript")
        transcripts[sid].append(TranscriptEntry(
            sid, term(row), _cell(row, "department"), _cell(row, "course_number", int), _cell(row, "credits", float),
            _cell(row, "grade", float, optional=True), _cell(row, "mark", optional=True), _cell(row, "remedial", bool),
        ))

    def degree(line, row):
        degrees[_known_id(row, degrees, "degree")].append(term(row))

    _each_row(transcripts_file, TRANSCRIPT_COLUMNS, transcript)
    if degrees_file is not None:
        _each_row(degrees_file, DEGREE_COLUMNS, degree)
    return [
        _at(students_file, line, make_student, sid, demographics, entry, transcripts[sid], degrees[sid])
        for sid, (line, demographics, entry) in students.items()
    ]


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
                *year_quarter(t.term),
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
        ([r.student_id, *year_quarter(term)] for r in records for term in r.degree_terms),
    )
