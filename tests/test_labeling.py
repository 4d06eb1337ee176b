import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrition.labeling import (
    LabeledDataset,
    OutcomeLabel,
    balance,
    enrollment_terms,
    label_all,
    label_outcome,
    window_allowance,
)
from attrition.records import StudentRecord, term_index

from conftest import entry, simple_student


def test_enrollment_terms_dedups_and_sorts():
    s = simple_student(
        entries=[
            entry(1999, "autumn", "MATH"),
            entry(1999, "autumn", "ENGL"),
            entry(2000, "winter", "CHEM"),
        ]
    )
    assert enrollment_terms(s) == [term_index(1999, "autumn"), term_index(2000, "winter")]


def test_single_pass_fail_entry_counts_as_enrollment():
    s = simple_student(entries=[entry(1999, "autumn", "ART", grade=None, mark="P")])
    assert len(enrollment_terms(s)) == 1


def test_enrollment_terms_match_ground_truth(cohort_small):
    cfg, records, truths = cohort_small
    by_id = {t.student_id: t for t in truths}
    for s in records:
        t = by_id[s.student_id]
        if t.true_label == "nc":
            assert len(enrollment_terms(s)) == t.true_quarters_enrolled


def test_window_allowance_freshman():
    assert window_allowance(simple_student().entry.transfer_credits, 180.0) == 24


def test_window_allowance_transfer_arithmetic():
    s = simple_student(prev="Transfer2Yr", transfer_credits=45.0)
    assert window_allowance(s.entry.transfer_credits, 180.0) == 21  # 24 - 45 / (180/12)


def test_window_allowance_floors_at_one():
    s = simple_student(prev="Transfer4Yr", transfer_credits=400.0)
    assert window_allowance(s.entry.transfer_credits, 180.0) == 1


@given(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    st.floats(min_value=1.0, max_value=400.0, allow_nan=False),
)
def test_window_allowance_always_in_range(credits, degree_credits):
    s = simple_student(prev="Transfer4Yr", transfer_credits=credits)
    assert 1 <= window_allowance(s.entry.transfer_credits, degree_credits) <= 24


def grad_student(degree_year, degree_quarter):
    return simple_student(
        entries=[entry(1998, "autumn", "MATH")],
        degree_terms=[term_index(degree_year, degree_quarter)],
    )


def test_degree_within_window_graduates():
    lab = label_outcome(grad_student(2003, "spring"))  # index delta 18
    assert lab.graduated


def test_degree_one_quarter_past_window_does_not():
    lab = label_outcome(grad_student(2005, "winter"))  # index delta 25
    assert not lab.graduated
    assert lab.quarters_enrolled == 1


def test_degree_exactly_at_window_boundary_graduates():
    lab = label_outcome(grad_student(2004, "autumn"))  # index delta 24, inclusive
    assert lab.graduated


def test_labels_match_ground_truth(cohort_small):
    cfg, records, truths = cohort_small
    ds = label_all(records, cfg.degree_credits)
    by_id = {t.student_id: t for t in truths}
    for s, lab in ds.records:
        assert lab.graduated == (by_id[s.student_id].true_label == "grad")


@given(st.permutations(list(range(5))))
def test_label_outcome_invariant_to_transcript_order(perm):
    base = [
        entry(1998, "autumn", "MATH", number=124),
        entry(1999, "winter", "ENGL", number=111),
        entry(1999, "spring", "CHEM", number=142),
        entry(2000, "autumn", "BIOL", number=200),
        entry(2001, "spring", "PSYCH", number=210),
    ]
    shuffled = tuple(base[i] for i in perm)
    s = StudentRecord(
        student_id="S1",
        demographics=simple_student().demographics,
        entry=simple_student().entry,
        transcript=shuffled,
        degree_terms=(term_index(2002, "spring"),),
    )
    lab = label_outcome(s)
    assert lab.graduated
    assert lab.quarters_enrolled == 5


def shared_dataset(n_grads, n_ncs):
    """Label tuples can share one record: balance never inspects the student."""
    record = simple_student()
    grad = OutcomeLabel(True, 12, 24)
    nc = OutcomeLabel(False, 5, 24)
    recs = [(record, grad)] * n_grads + [(record, nc)] * n_ncs
    return LabeledDataset(tuple(recs))


def test_balance_downsamples_majority():
    out = balance(shared_dataset(100, 40), seed=1)
    assert out.class_counts() == (40, 40)


def test_balance_at_registrar_scale():
    out = balance(shared_dataset(52847, 16269), seed=2)
    assert out.class_counts() == (16269, 16269)


def test_balance_of_balanced_input_keeps_membership():
    ds = LabeledDataset(
        tuple(
            (simple_student(sid=f"S{i}"), OutcomeLabel(i % 2 == 0, 4, 24))
            for i in range(10)
        )
    )
    out = balance(ds, seed=3)
    assert sorted(s.student_id for s, _ in out.records) == sorted(
        s.student_id for s, _ in ds.records
    )


def test_balance_requires_both_classes():
    with pytest.raises(ValueError):
        balance(shared_dataset(10, 0), seed=1)


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40)
def test_balance_idempotent_and_without_replacement(n_grads, n_ncs, seed):
    ds = LabeledDataset(
        tuple(
            (simple_student(sid=f"S{i}"), OutcomeLabel(i < n_grads, 4, 24))
            for i in range(n_grads + n_ncs)
        )
    )
    once = balance(ds, seed=seed)
    grads, ncs = once.class_counts()
    assert grads == ncs == min(n_grads, n_ncs)
    ids = [s.student_id for s, _ in once.records]
    assert len(ids) == len(set(ids))
    twice = balance(once, seed=seed + 1)
    assert twice.class_counts() == once.class_counts()
    assert sorted(s.student_id for s, _ in twice.records) == sorted(ids)


def test_balance_deterministic_given_seed():
    ds = shared_dataset(50, 20)
    a = balance(ds, seed=9)
    b = balance(ds, seed=9)
    assert [id(r) for r, _ in a.records] == [id(r) for r, _ in b.records]
    assert [lab for _, lab in a.records] == [lab for _, lab in b.records]
