import pytest
from hypothesis import given
from hypothesis import strategies as st

from attrition.records import (
    QUARTERS,
    Demographics,
    FieldError,
    TranscriptEntry,
    term_index,
    transcript_sort_key,
    year_quarter,
)

from conftest import entry, simple_student


def test_term_index_values():
    assert term_index(1998, "autumn") == 7995
    assert term_index(1999, "winter") == 7996
    assert term_index(2004, "autumn") - term_index(1998, "autumn") == 24


def test_term_ordering_matches_calendar():
    terms = [(1999, "winter"), (1998, "autumn"), (1998, "winter"), (1998, "summer")]
    assert [year_quarter(t) for t in sorted(term_index(*t) for t in terms)] == [
        (1998, "winter"),
        (1998, "summer"),
        (1998, "autumn"),
        (1999, "winter"),
    ]


@given(st.integers(min_value=1900, max_value=3000), st.sampled_from(QUARTERS))
def test_term_index_round_trips(year, quarter):
    assert year_quarter(term_index(year, quarter)) == (year, quarter)


@given(st.integers(min_value=4 * 1900, max_value=4 * 3000 + 3))
def test_index_round_trips_from_integer(index):
    assert term_index(*year_quarter(index)) == index


def test_term_validation():
    with pytest.raises(FieldError) as err:
        term_index(1800, "autumn")
    assert err.value.field == "year"
    with pytest.raises(FieldError) as err:
        term_index(2000, "fall")
    assert err.value.field == "quarter"


def test_entry_requires_grade_or_mark():
    with pytest.raises(ValueError):
        TranscriptEntry(term_index(1998, "autumn"), "MATH", 124, 5.0, None, None)


def test_grade_range_enforced():
    with pytest.raises(ValueError):
        entry(1998, "autumn", "MATH", grade=4.5)


@pytest.mark.parametrize("field,changes", [
    ("credits", {"credits": 0.0}),
    ("course_number", {"number": -1}),
    ("department", {"dept": ""}),
])
def test_entry_needs_positive_credits_course_number_and_department(field, changes):
    args = {"dept": "MATH", "number": 124, "credits": 5.0, **changes}
    with pytest.raises(FieldError) as err:
        entry(1998, "autumn", **args)
    assert err.value.field == field


def test_unknown_residency_rejected():
    with pytest.raises(FieldError) as err:
        Demographics("Asian", "Female", False, "Martian", 1980)
    assert err.value.field == "residency"


def test_freshman_transfer_credits_must_be_zero():
    with pytest.raises(ValueError):
        simple_student(prev="Freshman", transfer_credits=15.0)


def test_first_term_is_derived_minimum():
    s = simple_student(
        entries=[
            entry(1999, "spring", "ENGL"),
            entry(1998, "autumn", "MATH"),
        ]
    )
    assert s.first_term == term_index(1998, "autumn")


def test_first_term_counts_pass_fail_marks():
    s = simple_student(entries=[entry(2001, "winter", "ART", grade=None, mark="P")])
    assert s.first_term == term_index(2001, "winter")


@given(st.permutations(list(range(6))))
def test_canonical_sort_is_permutation_invariant(perm):
    base = [
        entry(1998, "autumn", "MATH", number=124),
        entry(1998, "autumn", "CHEM", number=124),
        entry(1998, "autumn", "MATH", number=101),
        entry(1999, "winter", "BIOL", number=200),
        entry(1998, "winter", "ENGL", number=111),
        entry(1998, "autumn", "ART", number=300),
    ]
    shuffled = [base[i] for i in perm]
    assert sorted(shuffled, key=transcript_sort_key) == sorted(base, key=transcript_sort_key)


def test_canonical_sort_breaks_ties_by_department():
    e1 = entry(1998, "autumn", "CHEM", number=124)
    e2 = entry(1998, "autumn", "MATH", number=124)
    assert sorted([e2, e1], key=transcript_sort_key) == [e1, e2]
