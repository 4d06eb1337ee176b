import csv
import hashlib
import inspect
import re
import tempfile
from functools import partial
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from attrition.io import (
    DEGREE_COLUMNS,
    STUDENT_COLUMNS,
    TRANSCRIPT_COLUMNS,
    DataFormatError,
    load_students,
    read_csv,
    read_json,
    write_csv,
    write_degrees,
    write_json,
    write_students,
    write_transcripts,
)
from attrition.records import (
    GENDERS,
    PREVIOUS_SCHOOLING,
    QUARTERS,
    RACES,
    RESIDENCIES,
    Demographics,
    EntryInfo,
    FieldError,
    StudentRecord,
    TranscriptEntry,
    make_student,
    term_index,
    year_quarter,
)
from attrition.synthetic import SynthConfig, generate_cohort, write_cohort

STUDENT_HEADER = (
    "student_id,race,gender,hispanic,residency,birth_year,previous_schooling,"
    "sat_score,act_score,transfer_credits,first_term_majors,fig_member"
)
TRANSCRIPT_HEADER = "student_id,year,quarter,department,course_number,credits,grade,mark,remedial"


def write(path: Path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def two_student_files(tmp_path):
    students = tmp_path / "students.csv"
    transcripts = tmp_path / "transcripts.csv"
    write(
        students,
        [
            STUDENT_HEADER,
            "S1,Asian,Female,0,Resident,1980,Freshman,1200,,0,MAJ001;MAJ002,1",
            "S2,Caucasian,Male,1,NonResident,1979,Transfer2Yr,,28,45.0,,0",
        ],
    )
    write(
        transcripts,
        [
            TRANSCRIPT_HEADER,
            "S1,1998,autumn,MATH,124,5.0,3.1,,0",
            "S1,1998,autumn,ENGL,111,5.0,3.5,,0",
            "S1,1999,winter,CHEM,142,4.0,,P,0",
            "S2,1998,autumn,MATH,098,5.0,2.0,,1",
            "S2,1998,autumn,PSYCH,101,5.0,3.0,,0",
            "S2,1998,winter,ENGL,131,5.0,3.7,,0",
            "S2,1999,spring,BIOL,118,3.0,2.9,,0",
            "S2,1999,spring,MATH,124,5.0,3.3,,0",
        ],
    )
    return students, transcripts


def test_two_student_fixture_loads(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    records = load_students(students, transcripts)
    assert len(records) == 2
    by_id = {r.student_id: r for r in records}
    assert len(by_id["S1"].transcript) == 3
    assert len(by_id["S2"].transcript) == 5
    assert by_id["S1"].entry.sat_score == 1200
    assert by_id["S1"].entry.act_score is None
    assert by_id["S1"].entry.first_term_majors == ("MAJ001", "MAJ002")
    assert by_id["S2"].entry.transfer_credits == 45.0


def test_empty_transcripts_is_an_error(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    write(transcripts, [TRANSCRIPT_HEADER])
    with pytest.raises(ValueError, match="no transcript entries"):
        load_students(students, transcripts)


def test_pass_fail_only_student_gets_first_term(tmp_path):
    students = tmp_path / "students.csv"
    transcripts = tmp_path / "transcripts.csv"
    write(students, [STUDENT_HEADER, "S1,Asian,Female,0,Resident,1980,Freshman,,,0,,0"])
    write(transcripts, [TRANSCRIPT_HEADER, "S1,2001,spring,ART,101,2.0,,P,0"])
    (record,) = load_students(students, transcripts)
    assert year_quarter(record.first_term) == (2001, "spring")


def test_duplicate_student_id_rejected(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    text = students.read_text().splitlines()
    write(students, text + [text[1]])
    with pytest.raises(DataFormatError, match="duplicate student_id"):
        load_students(students, transcripts)


def test_unknown_transcript_student_rejected(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    with open(transcripts, "a", encoding="utf-8") as fh:
        fh.write("GHOST,1998,autumn,MATH,124,5.0,3.1,,0\n")
    with pytest.raises(DataFormatError, match="unknown student_id"):
        load_students(students, transcripts)


def test_malformed_row_names_file_line_and_column(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    lines = transcripts.read_text().splitlines()
    lines[2] = "S1,1998,autumn,ENGL,111,5.0,9.9,,0"  # grade out of range
    write(transcripts, lines)
    with pytest.raises(DataFormatError) as err:
        load_students(students, transcripts)
    assert err.value.line == 3
    assert err.value.column == "grade"
    assert "transcripts.csv" in err.value.file


@pytest.mark.parametrize("file,index,row,context", [
    ("students", 1, "S1,Asian,Female,0,Resident,19x0,Freshman,1200,,0,MAJ001,1",
     "students.csv:2: column 'birth_year': expected an integer, got '19x0'"),
    ("students", 2, "S2,Caucasian,Male,1,NonResident,1979,Transfer2Yr,,28,lots,,0",
     "students.csv:3: column 'transfer_credits': expected a decimal number, got 'lots'"),
    ("students", 1, "S1,Asian,Female,0,Resident,1850,Freshman,1200,,0,MAJ001,1",
     "students.csv:2: column 'birth_year': value 1850 below minimum 1900"),
    ("students", 1, "S1,Asian,Female,0,Resident,1980,Freshman,1700,,0,MAJ001,1",
     "students.csv:2: column 'sat_score': value 1700 above maximum 1600"),
    ("transcripts", 4, "S2,1998,autumn,MATH,098,-5,2.0,,1",
     "transcripts.csv:5: column 'credits': value -5.0 below minimum 0.0"),
    ("transcripts", 2, "S1,1998,autumn,ENGL,111,5.0,9.9,,0",
     "transcripts.csv:3: column 'grade': value 9.9 above maximum 4.0"),
    ("students", 1, "S1,Asian,Female,0,Resident,1980,Freshman,1200,,15,MAJ001,1",
     "students.csv:2: column 'transfer_credits': freshman entrants must have zero transfer credits"),
    ("transcripts", 1, "S1,1998,autumn,MATH,-124,5.0,3.1,,0",
     "transcripts.csv:2: column 'course_number': value -124 below minimum 0"),
    ("transcripts", 3, "S1,1999,winter,,142,4.0,,P,0",
     "transcripts.csv:4: column 'department': empty department code"),
    ("transcripts", 3, "S1,1999,fall,CHEM,142,4.0,,P,0",
     "transcripts.csv:4: column 'quarter': unknown category 'fall', "
     "expected one of ['autumn', 'spring', 'summer', 'winter']"),
    ("transcripts", 1, "S1,1850,autumn,MATH,124,5.0,3.1,,0",
     "transcripts.csv:2: column 'year': value 1850 below minimum 1900"),
    ("degrees", 1, "S1,2002,fall",
     "degrees.csv:2: column 'quarter': unknown category 'fall', "
     "expected one of ['autumn', 'spring', 'summer', 'winter']"),
])
def test_numeric_cell_errors_name_file_line_and_column(tmp_path, file, index, row, context):
    paths = dict(zip(("students", "transcripts"), two_student_files(tmp_path)))
    paths["degrees"] = tmp_path / "degrees.csv"
    write(paths["degrees"], ["student_id,year,quarter", "S1,2002,spring"])
    lines = paths[file].read_text().splitlines()
    lines[index] = row
    write(paths[file], lines)
    with pytest.raises(DataFormatError) as err:
        load_students(paths["students"], paths["transcripts"], paths["degrees"])
    assert str(err.value) == f"{tmp_path}/{context}"


def test_student_without_transcript_rows_is_named_at_its_line(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    lines = transcripts.read_text().splitlines()
    write(transcripts, [lines[0]] + [line for line in lines[1:] if not line.startswith("S1,")])
    with pytest.raises(DataFormatError) as err:
        load_students(students, transcripts)
    assert str(err.value) == f"{students}:2: column 'student_id': student S1 has no transcript entries"


def test_zero_credit_enrollment_row_rejected(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    lines = transcripts.read_text().splitlines()
    lines[1] = "S1,1998,autumn,MATH,124,0,3.1,,0"
    write(transcripts, lines)
    with pytest.raises(DataFormatError, match="credits > 0"):
        load_students(students, transcripts)


def test_row_without_grade_or_mark_rejected(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    lines = transcripts.read_text().splitlines()
    lines[1] = "S1,1998,autumn,MATH,124,5.0,,,0"
    write(transcripts, lines)
    with pytest.raises(DataFormatError, match="neither a numeric grade nor a mark"):
        load_students(students, transcripts)


def test_degrees_are_attached(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    degrees = tmp_path / "degrees.csv"
    write(degrees, ["student_id,year,quarter", "S1,2002,spring"])
    records = load_students(students, transcripts, degrees)
    by_id = {r.student_id: r for r in records}
    assert len(by_id["S1"].degree_terms) == 1
    assert by_id["S2"].degree_terms == ()


def test_round_trip_preserves_records(tmp_path, cohort_small):
    _, records, _ = cohort_small
    subset = records[:50]
    write_students(subset, tmp_path / "students.csv")
    write_transcripts(subset, tmp_path / "transcripts.csv")
    write_degrees(subset, tmp_path / "degrees.csv")
    loaded = load_students(
        tmp_path / "students.csv", tmp_path / "transcripts.csv", tmp_path / "degrees.csv"
    )
    assert loaded == list(subset)


def test_cohort_round_trip_via_write_cohort(tmp_path):
    cfg = SynthConfig(n_students=30, seed=5)
    records, truths = generate_cohort(cfg)
    paths = write_cohort(records, truths, tmp_path)
    loaded = load_students(paths["students"], paths["transcripts"], paths["degrees"])
    assert loaded == records


def test_write_cohort_bytes(tmp_path):
    paths = write_cohort(*generate_cohort(SynthConfig(n_students=30, seed=5)), tmp_path)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == {
        "students": "0678183f58cc09e04870ab458ba31bcd5e0daf1ddcc16cb4fec118b2bd5f9ff7",
        "transcripts": "50209cb2e9fe75102418a803b038e9de82ee2777100d00da8dcda84243e80433",
        "degrees": "ccfc0570d04d3277d3be8ba2cd597fc1aae385fe60d24838f7bfac1c139fc7a0",
        "ground_truth": "b2de0f95831dc41bbebc3178a105717a531f28f404b83cc9a3a2e34ce60b9299",
    }


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["id", "text", "x", "missing"], [["S1", 'a,"b"', 0.1, None], ["S2", "", 3, 1e-05]])
    assert path.read_bytes() == b'id,text,x,missing\nS1,"a,""b""",0.1,\nS2,,3,1e-05\n'


def test_read_csv_yields_dict_rows_lazily(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["id", "x"], [["S1", 0.5], ["S2", None]])
    rows = read_csv(path)
    assert inspect.isgenerator(rows)
    assert next(rows) == {"id": "S1", "x": "0.5"}
    assert list(rows) == [{"id": "S2", "x": ""}]


def test_write_json_bytes(tmp_path):
    path = tmp_path / "payload.json"
    payload = {"b": [1, 2.5], "a": {"z": None, "y": (0.1, "s")}}
    write_json(path, payload)
    assert path.read_text(encoding="utf-8") == (
        '{\n  "a": {\n    "y": [\n      0.1,\n      "s"\n    ],\n    "z": null\n  },\n'
        '  "b": [\n    1,\n    2.5\n  ]\n}\n'
    )
    write_json(path, payload, indent=None)
    assert path.read_text(encoding="utf-8") == '{"a": {"y": [0.1, "s"], "z": null}, "b": [1, 2.5]}\n'
    assert read_json(path) == {"a": {"y": [0.1, "s"], "z": None}, "b": [1, 2.5]}


def load_error(*paths) -> str:
    with pytest.raises(DataFormatError) as err:
        load_students(*paths)
    return str(err.value)


def test_of_two_bad_rows_the_earlier_is_reported(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    lines = transcripts.read_text().splitlines()
    lines[2] = "S1,1998,autumn,ENGL,111,5.0,9.9,,0"
    lines[5] = "S2,1998,autumn,PSYCH,x,5.0,3.0,,0"
    write(transcripts, lines)
    assert load_error(students, transcripts) == (
        f"{transcripts}:3: column 'grade': value 9.9 above maximum 4.0"
    )


def test_within_a_row_a_bad_year_is_reported_before_bad_credits(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    lines = transcripts.read_text().splitlines()
    lines[1] = "S1,19x8,autumn,MATH,124,lots,3.1,,0"
    write(transcripts, lines)
    assert load_error(students, transcripts) == (
        f"{transcripts}:2: column 'year': expected an integer, got '19x8'"
    )


def test_cells_are_read_as_csv_dict_reader_reads_them(tmp_path):
    """Padded cells, a blank line, short and long rows, a quoted comma, a repeated column."""
    students = tmp_path / "students.csv"
    transcripts = tmp_path / "transcripts.csv"
    write(students, [
        # act_score last, so that a short row leaves it blank; grade is repeated, the last wins
        "student_id,race,gender,hispanic,residency,birth_year,previous_schooling,"
        "transfer_credits,first_term_majors,fig_member,sat_score,act_score",
        " S1 , Asian ,Female, 0 ,Resident, 1980 ,Freshman, 0 ,\"MAJ001;MAJ,002\", 1 , 1200 , 28 ",
        "",
        "S2,Caucasian,Male,1,NonResident,1979,Transfer2Yr,45.0,,0,1100",
    ])
    write(transcripts, [
        "student_id,year,quarter,department,course_number,credits,grade,mark,remedial,grade",
        "S1,1998,autumn,MATH,124,5.0,9.9,,0,3.1,an,extra,cell",
        "",
        "",
        "S2 ,\t1999, spring ,BIOL,118,3.0,,,0, 2.9 ",
        "S2,1999,spring,ART,101,2.0,,P,1,",
    ])
    by_id = {r.student_id: r for r in load_students(students, transcripts)}
    assert sorted(by_id) == ["S1", "S2"]
    s1, s2 = by_id["S1"], by_id["S2"]
    assert s1.demographics == Demographics("Asian", "Female", False, "Resident", 1980)
    assert s1.entry == EntryInfo("Freshman", 1200, 28, 0.0, ("MAJ001", "MAJ,002"), True)
    assert s2.entry == EntryInfo("Transfer2Yr", 1100, None, 45.0, (), False)
    assert s1.transcript == (TranscriptEntry(term_index(1998, "autumn"), "MATH", 124, 5.0, 3.1),)
    spring = term_index(1999, "spring")
    assert s2.transcript == (
        TranscriptEntry(spring, "ART", 101, 2.0, None, "P", True),
        TranscriptEntry(spring, "BIOL", 118, 3.0, 2.9),
    )


def test_a_short_row_reads_blank_in_its_missing_cells(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    lines = transcripts.read_text().splitlines()
    lines[4] = "S2,1998,autumn,MATH,098,5.0,2.0"
    write(transcripts, lines)
    assert load_error(students, transcripts) == (
        f"{transcripts}:5: column 'remedial': expected 0 or 1, got ''"
    )


def test_a_bad_row_after_blank_lines_is_named_at_its_own_line(tmp_path):
    # csv.DictReader.__next__ reads `fieldnames` after skipping blank rows, and that
    # property sets `line_num` again, so the row-by-row loader named the row's own line too.
    students, transcripts = two_student_files(tmp_path)
    lines = transcripts.read_text().splitlines()
    lines[2:2] = ["", ""]
    lines[4] = "S1,1998,autumn,ENGL,111,5.0,9.9,,0"
    write(transcripts, lines)
    assert load_error(students, transcripts) == (
        f"{transcripts}:5: column 'grade': value 9.9 above maximum 4.0"
    )


def test_a_student_after_blank_lines_is_named_at_its_own_line(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    lines = students.read_text().splitlines()
    write(students, lines[:2] + ["", ""] + lines[2:])
    write(transcripts, [line for line in transcripts.read_text().splitlines() if not line.startswith("S2,")])
    expected = f"{students}:5: column 'student_id': student S2 has no transcript entries"
    assert load_error(students, transcripts) == expected
    with pytest.raises(DataFormatError, match="^" + re.escape(expected) + "$"):
        reference_load_students(students, transcripts)


# The row-by-row loader that load_students replaced, kept verbatim as its oracle.


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


def reference_load_students(
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
            term(row), _cell(row, "department"), _cell(row, "course_number", int), _cell(row, "credits", float),
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


# A registrar file set as cells: file -> (columns, rows); each row maps column to text.
COLUMNS = {"students": STUDENT_COLUMNS, "transcripts": TRANSCRIPT_COLUMNS, "degrees": DEGREE_COLUMNS}
# Texts that break a rule of each column: its syntax, a bound or category, or a rule across columns.
BAD_TEXTS = {
    **dict.fromkeys(("race", "gender", "residency", "previous_schooling", "quarter"), ("", "Martian", "fall")),
    **dict.fromkeys(("hispanic", "fig_member", "remedial"), ("", "2", "yes")),
    **dict.fromkeys(("birth_year", "year"), ("", "19x0", "1850", "1.5")),
    "student_id": ("", " ", "GHOST", "S0"),
    "sat_score": ("x", "399", "1700", "1e3"),
    "act_score": ("0", "37", "2.5"),
    "transfer_credits": ("-1", "lots", "15"),
    "first_term_majors": (";;", "MAJ,009"),
    "department": ("", " "),
    "course_number": ("-5", "1.5", "x"),
    "credits": ("0", "-2", "five"),
    "grade": ("4.5", "-0.1", "A", ""),
    "mark": ("",),
}


@st.composite
def registrar_files(draw, max_faults=3):
    """Small registrar files, valid or with 1 to `max_faults` faults, written in varied but equivalent layouts."""
    pick = lambda values: draw(st.sampled_from(values))  # noqa: E731
    tables: dict[str, list[dict[str, str]]] = {name: [] for name in COLUMNS}
    for i in range(draw(st.integers(1, 4))):
        sid = f"S{i}"
        schooling = pick(PREVIOUS_SCHOOLING)
        tables["students"].append({
            "student_id": sid, "race": pick(RACES), "gender": pick(GENDERS), "hispanic": pick("01"),
            "residency": pick(RESIDENCIES), "birth_year": pick(["1900", "1975", "2001"]),
            "previous_schooling": schooling, "sat_score": pick(["", "400", "1210", "1600"]),
            "act_score": pick(["", "1", "28", "36"]),
            "transfer_credits": "0" if schooling == "Freshman" else pick(["0", "12.5", "90"]),
            "first_term_majors": pick(["", "MAJ001", "MAJ001;MAJ,002", ";MAJ003;"]), "fig_member": pick("01"),
        })
        for _ in range(draw(st.integers(1, 3))):
            graded = draw(st.booleans())
            tables["transcripts"].append({
                "student_id": sid, "year": pick(["1900", "1998", "2001"]), "quarter": pick(QUARTERS),
                "department": pick(["MATH", "CHEM", "ENGL"]), "course_number": pick(["098", "101", "0"]),
                "credits": pick(["5.0", "3", "0.5"]), "grade": pick(["0.0", "3.1", "4"]) if graded else "",
                "mark": "" if graded else pick(["P", "NP"]), "remedial": pick("01"),
            })
        if draw(st.booleans()):
            tables["degrees"].append({"student_id": sid, "year": pick(["2001", "2004"]), "quarter": pick(QUARTERS)})
    columns = {name: list(draw(st.permutations(cols))) for name, cols in COLUMNS.items()}
    short: dict[tuple[str, int], int] = {}
    faults = draw(st.integers(0, max_faults))
    for _ in range(faults):
        name = pick(["students", "transcripts", "transcripts", "degrees"][: 4 if tables["degrees"] else 3])
        rows = tables[name]
        kind = pick(["cell"] * 5 + ["missing column", "short row", "no transcript"])
        if kind == "missing column":
            columns[name].remove(pick(columns[name]))
        elif kind == "no transcript":
            gone = pick([row["student_id"] for row in tables["students"]])
            tables["transcripts"] = [row for row in tables["transcripts"] if row["student_id"] != gone]
        elif rows:
            at = draw(st.integers(0, len(rows) - 1))
            if kind == "short row":
                short[name, at] = draw(st.integers(0, len(COLUMNS[name]) - 1))
            else:
                column = pick(COLUMNS[name])
                rows[at][column] = pick(BAD_TEXTS[column])
    layouts = {}
    for name in COLUMNS:
        layouts[name] = {
            "pad": pick(["", " ", "\t "]),
            "repeat": pick([None, *columns[name]]) if columns[name] else None,
            "extra": draw(st.booleans()),
            "blank lines": draw(st.booleans()),
        }
    return tables, columns, short, layouts


def write_registrar_file(path: Path, columns: Sequence[str], rows, short, layout) -> None:
    """Write `rows` under the header `columns` in `layout`.

    A repeated column first appears, as junk, at the front; an extra column,
    and past it extra cells, come last; blank lines go before every other row.
    """
    repeat, pad = layout["repeat"], layout["pad"]
    header = ([repeat] if repeat else []) + list(columns) + (["note"] if layout["extra"] else [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, row in enumerate(rows):
            cells = ["junk"] * bool(repeat) + [pad + row[c] + pad for c in columns]
            cells += ["a, note", "past", "the header"] if layout["extra"] else []
            if i in short:
                cells = cells[: short[i]]
            if layout["blank lines"] and i % 2:
                fh.write("\n")
            writer.writerow(cells)


def outcome(load, paths):
    """The records `load` returns, or the type and text of what it raises."""
    try:
        return load(*paths)
    except (ValueError, csv.Error) as exc:
        return type(exc).__name__, str(exc)


def write_registrar_files(tmp: str, files, with_degrees: bool) -> list[Path]:
    tables, columns, short, layouts = files
    paths = []
    for name in COLUMNS:
        path = Path(tmp) / f"{name}.csv"
        file_short = {row: n for (file, row), n in short.items() if file == name}
        write_registrar_file(path, columns[name], tables[name], file_short, layouts[name])
        paths.append(path)
    return paths if with_degrees else paths[:-1]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(registrar_files(), st.booleans())
def test_loader_equals_the_row_by_row_oracle(files, with_degrees):
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_registrar_files(tmp, files, with_degrees)
        assert outcome(load_students, paths) == outcome(reference_load_students, paths)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(registrar_files(max_faults=0), st.booleans(), st.data())
def test_a_load_of_only_some_students_equals_the_oracle_filtered(files, with_degrees, data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_registrar_files(tmp, files, with_degrees)
        full = outcome(reference_load_students, paths)
        assume(isinstance(full, list))  # `only` is for files that a full load accepts
        ids = [r.student_id for r in full]
        for only in (set(), set(ids), data.draw(st.sets(st.sampled_from([*ids, "GHOST"])))):
            assert load_students(*paths, only=only) == [r for r in full if r.student_id in only]


@pytest.mark.parametrize("file, row", [
    ("students", ",Asian,Female,0,Resident,1980,Freshman,,,0,,0"),
    ("students", "S2,Caucasian,Male,1,NonResident,1979,Transfer2Yr,,28,45.0,,0"),
    ("transcripts", "GHOST,1998,autumn,MATH,124,5.0,3.1,,0"),
    ("degrees", "GHOST,2002,spring"),
], ids=["empty-id", "duplicate-id", "unknown-transcript-id", "unknown-degree-id"])
def test_a_skipped_student_row_still_gets_the_id_rules(tmp_path, file, row):
    students, transcripts = two_student_files(tmp_path)
    degrees = tmp_path / "degrees.csv"
    write(degrees, ["student_id,year,quarter", "S1,2002,spring"])
    path = {"students": students, "transcripts": transcripts, "degrees": degrees}[file]
    write(path, path.read_text().splitlines() + [row])
    expected = outcome(reference_load_students, (students, transcripts, degrees))
    assert expected[0] == "DataFormatError"
    assert outcome(partial(load_students, only={"S1"}), (students, transcripts, degrees)) == expected


def test_the_other_cells_of_a_skipped_student_are_not_read(tmp_path):
    students, transcripts = two_student_files(tmp_path)
    lines = transcripts.read_text().splitlines()
    lines[4] = "S2,1998,autumn,MATH,098,5.0,9.9,,1"  # a grade a full load refuses
    write(transcripts, lines)
    assert "above maximum" in load_error(students, transcripts)
    assert [r.student_id for r in load_students(students, transcripts, only={"S1"})] == ["S1"]


def test_loader_equals_the_oracle_on_the_5k_cohort(tmp_path, cohort_5k):
    _, records, truths = cohort_5k
    paths = write_cohort(records, truths, tmp_path)
    files = (paths["students"], paths["transcripts"], paths["degrees"])
    loaded = load_students(*files)
    assert loaded == reference_load_students(*files)
    assert loaded == records
