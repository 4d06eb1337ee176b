"""Every on-disk format of the pipeline: registrar CSVs and the artifacts.

All CSV files are UTF-8 with a header row, LF line ends and "." decimal
point; floats are written as ``repr`` so they read back exactly. JSON files
have sorted keys and end in a newline. `write_csv`/`read_csv` and
`write_json`/`read_json` are the only code that writes or reads them.

`load_students` reads the registrar inputs, each file in one `csv.reader`
pass. It owns only the file-level rules: required columns, cell syntax
(integer, decimal, 0/1 flag, blank as missing) and empty, duplicate or
unknown student ids. Every domain rule (bounds, categories, grade-or-mark,
positive credits, a non-empty transcript) is checked once, by the record
constructors in `records`; every record is built by its constructor, and
the records are frozen and slotted. Each distinct text of a transcript or
degree cell is parsed once per load (a (year, quarter) pair by
`term_index`), and equal cells share one value object. Either kind of error
is raised as a `DataFormatError` that names ``file:line: column``, at the
first bad row. A load given `only` builds just those students; the rows of
the rest get only the id rules, so it is for files a full load accepted.

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
from contextlib import contextmanager
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Container, Iterable, Iterator, Sequence

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
_FLAGS = {"0": False, "1": True}


def _parse(kind: type, column: str, text: str):
    """`text` as int or float (by the builtin), or as a 0/1 flag for `bool`; FieldError naming `column` if not."""
    try:
        return _FLAGS[text] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise FieldError(column, f"expected {_EXPECTED[kind]}, got {text!r}") from None


class _Parsed(dict):
    """One kind of cell's values by text, each made by `parse` when its text is first looked up.

    Equal cells thus share one value object. A parse that raises stores nothing.
    """

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, text):
        self[text] = value = self.parse(text)
        return value


@contextmanager
def _table(path: str | Path, columns: Sequence[str]):
    """The data rows of the CSV file at `path`, each as its id (the cell of `columns[0]`, stripped)
    and its raw cells, with a function that reads a row's other `columns`, stripped.

    So a row whose student is not wanted costs only its id. The header must
    name every one of `columns`; where it names one twice, the last
    occurrence wins. Blank lines are skipped, a short row reads blank in its
    missing cells, and the extra cells of a long row are ignored, as
    `csv.DictReader` does. A FieldError raised in the block is reported as a
    DataFormatError at the line of the row being read.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise DataFormatError(path, 1, missing[0], "missing required column")
        position = {name: i for i, name in enumerate(header)}
        at, others, pad = position[columns[0]], itemgetter(*(position[c] for c in columns[1:])), [""] * len(header)
        try:
            yield (reader, ((row[at].strip() if at < len(row) else "", row) for row in reader if row),
                   lambda row: map(str.strip, others(row + pad)))
        except FieldError as exc:
            raise DataFormatError(path, reader.line_num, exc.field, str(exc)) from exc


def load_students(
    students_file: str | Path,
    transcripts_file: str | Path,
    degrees_file: str | Path | None = None,
    only: Container[str] | None = None,
) -> list[StudentRecord]:
    """Load student records from the registrar CSV files.

    Here only the files are checked: required columns, cell syntax, and
    empty, duplicate or unknown student ids. The record constructors check
    every domain rule, and their errors are reported here at the file, line
    and column of the row. Omitting the degrees file yields records with
    empty ``degree_terms``. With `only`, just its students are built, in file
    order; a row of any other student gets only the id checks, its other cells
    unread. So pass `only` only for files that a full load has accepted.
    """
    students: dict[str, tuple[int, Demographics, EntryInfo] | None] = {}  # None: a student outside `only`
    with _table(students_file, STUDENT_COLUMNS) as (reader, rows, cells):
        for sid, row in rows:
            if not sid:
                raise FieldError("student_id", "empty student_id")
            if sid in students:
                raise FieldError("student_id", f"duplicate student_id {sid!r}")
            students[sid] = None
            if only is None or sid in only:
                race, gender, hispanic, residency, birth_year, schooling, sat, act, transfer, majors, fig = cells(row)
                demographics = Demographics(race, gender, _parse(bool, "hispanic", hispanic), residency,
                                            _parse(int, "birth_year", birth_year))
                entry = EntryInfo(schooling, _parse(int, "sat_score", sat) if sat else None,
                                  _parse(int, "act_score", act) if act else None,
                                  _parse(float, "transfer_credits", transfer),
                                  tuple(m for m in majors.split(";") if m), _parse(bool, "fig_member", fig))
                students[sid] = (reader.line_num, demographics, entry)
    transcripts: dict[str, list[TranscriptEntry]] = {sid: [] for sid, kept in students.items() if kept}
    degrees: dict[str, list[int]] = {sid: [] for sid in transcripts}
    terms = _Parsed(lambda pair: term_index(_parse(int, "year", pair[0]), pair[1]))
    departments = _Parsed(str)  # str(text) is text, so each code keeps its first text
    course_numbers = _Parsed(partial(_parse, int, "course_number"))
    credit_values = _Parsed(partial(_parse, float, "credits"))
    grades = _Parsed(lambda text: _parse(float, "grade", text) if text else None)
    marks = _Parsed(lambda text: text or None)
    remedials = _Parsed(partial(_parse, bool, "remedial"))
    with _table(transcripts_file, TRANSCRIPT_COLUMNS) as (reader, rows, cells):
        for sid, row in rows:
            if sid not in students:
                raise FieldError("student_id", f"transcript row for unknown student_id {sid!r}")
            if sid in transcripts:
                year, quarter, department, course, credits, grade, mark, remedial = cells(row)
                transcripts[sid].append(TranscriptEntry(
                    terms[year, quarter], departments[department], course_numbers[course], credit_values[credits],
                    grades[grade], marks[mark], remedials[remedial],
                ))
    if degrees_file is not None:
        with _table(degrees_file, DEGREE_COLUMNS) as (reader, rows, cells):
            for sid, row in rows:
                if sid not in students:
                    raise FieldError("student_id", f"degree row for unknown student_id {sid!r}")
                if sid in degrees:
                    year, quarter = cells(row)
                    degrees[sid].append(terms[year, quarter])
    records = []
    try:
        for sid, entries in transcripts.items():
            line, demographics, entry = students[sid]
            records.append(make_student(sid, demographics, entry, entries, degrees[sid]))
    except FieldError as exc:
        raise DataFormatError(students_file, line, exc.field, str(exc)) from exc
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
                r.student_id,
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
