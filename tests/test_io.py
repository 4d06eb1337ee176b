import hashlib
import inspect
from pathlib import Path

import pytest

from attrition.io import (
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
from attrition.records import year_quarter
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
