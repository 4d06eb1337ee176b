import math

import numpy as np
import pytest

from attrition.labeling import window_allowance
from attrition.records import GENDERS, RACES
from attrition.synthetic import (
    _CDF,
    _P,
    GroundTruth,
    SynthConfig,
    _cdf,
    _draw,
    department_codes,
    generate_cohort,
    read_ground_truth,
    write_cohort,
)


def test_config_defaults_load_from_empty_dict():
    cfg = SynthConfig.from_dict({})
    assert cfg.n_students == 1000


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown synth config fields"):
        SynthConfig.from_dict({"n_studnets": 10})


def test_config_validates_probabilities():
    with pytest.raises(ValueError):
        SynthConfig(dropout_base_rate=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n_students=1)


def test_config_rejects_non_positive_degree_credits():
    for credits in (0.0, -180.0):
        with pytest.raises(ValueError, match="degree_credits must be positive"):
            SynthConfig.from_dict({"degree_credits": credits})


def test_department_codes_start_canonical():
    assert department_codes(8)[:6] == ("MATH", "CHEM", "PHYS", "BIOL", "ENGL", "PSYCH")
    assert department_codes(8)[6:] == ("DEPT07", "DEPT08")


def test_signal_weight_outside_vocabulary_is_an_error():
    cfg = SynthConfig(n_departments=2, signal_weights={"gpa:ENGL": -1.0})
    with pytest.raises(ValueError, match="outside the vocabulary"):
        generate_cohort(cfg)


def test_unknown_signal_key_is_an_error():
    cfg = SynthConfig(signal_weights={"shoe_size": 1.0})
    with pytest.raises(ValueError, match="unknown signal weight key"):
        generate_cohort(cfg)


def test_zero_weights_give_base_rate_coin_flip():
    n = 2000
    cfg = SynthConfig(n_students=n, signal_weights={}, dropout_base_rate=0.5, seed=17)
    _, truths = generate_cohort(cfg)
    rate = sum(1 for t in truths if t.true_label == "nc") / n
    three_sigma = 3 * math.sqrt(0.25 / n)
    assert abs(rate - 0.5) <= three_sigma


def test_determinism_byte_identical_output(tmp_path):
    cfg = SynthConfig(n_students=60, seed=7)
    a, b = tmp_path / "a", tmp_path / "b"
    write_cohort(*generate_cohort(cfg), a)
    write_cohort(*generate_cohort(cfg), b)
    for name in ("students.csv", "transcripts.csv", "degrees.csv", "ground_truth.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("students", [range(0, 1), range(29, 30), range(11, 23), range(0, 30)])
def test_a_block_is_the_slice_of_the_whole_cohort(students):
    cfg = SynthConfig(n_students=30, seed=7)
    records, truths = generate_cohort(cfg)
    cut = slice(students.start, students.stop)
    assert generate_cohort(cfg, students) == (records[cut], truths[cut])


def test_each_student_draws_from_its_spawned_substream():
    # generate_cohort builds student i's stream from its spawn key alone; it must be the child
    # that spawn(n_students + 1)[1:] gives after the cohort's spawn(1), or cohorts change bytes
    cfg = SynthConfig(n_students=40, seed=1998)
    records, _ = generate_cohort(cfg, range(10, 40))
    root = np.random.SeedSequence(cfg.seed)
    root.spawn(1)
    for record, seed in zip(records, root.spawn(cfg.n_students + 1)[1:][10:], strict=True):
        rng = np.random.default_rng(seed)
        race, gender = RACES[int(_draw(rng, _CDF["race"]))], GENDERS[int(_draw(rng, _CDF["gender"]))]
        assert (record.demographics.race, record.demographics.gender) == (race, gender)


@pytest.mark.parametrize("name", sorted(_P))
def test_a_categorical_draw_equals_generator_choice(name):
    # _draw runs what Generator.choice(p=) runs after its argument checks, so
    # the indices and the generator's next state are the same
    p, cdf = _P[name], _cdf(_P[name])
    for seed in range(300):
        for size in (None, 0, 1, 2, 5, 40):
            by_choice, by_draw = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = by_choice.choice(len(p), size=size, p=p)
            drawn = _draw(by_draw, cdf, size)
            assert np.shape(drawn) == np.shape(expected)
            assert np.array_equal(drawn, expected), (seed, size)
            assert by_draw.random() == by_choice.random()


def first_term_math_gpa(student):
    graded = [
        e for e in student.first_term_entries() if e.department == "MATH" and e.grade is not None
    ]
    if not graded:
        return None
    return sum(e.credits * e.grade for e in graded) / sum(e.credits for e in graded)


def test_negative_math_weight_gives_negative_correlation():
    cfg = SynthConfig(
        n_students=2000,
        signal_weights={"gpa:MATH": -4.0},
        dropout_base_rate=0.9,
        seed=23,
    )
    records, truths = generate_cohort(cfg)
    pairs = [
        (first_term_math_gpa(s), 1.0 if t.true_label == "nc" else 0.0)
        for s, t in zip(records, truths)
    ]
    pairs = [(g, y) for g, y in pairs if g is not None]
    gpas = np.array([g for g, _ in pairs])
    labels = np.array([y for _, y in pairs])
    corr = np.corrcoef(gpas, labels)[0, 1]
    assert corr < 0


def test_dropout_rate_monotone_in_positive_weight():
    rates = []
    for w in (0.5, 2.0, 4.0):
        cfg = SynthConfig(
            n_students=1500,
            signal_weights={"gpa:MATH": w},
            dropout_base_rate=0.05,
            seed=31,
        )
        _, truths = generate_cohort(cfg)
        rates.append(sum(1 for t in truths if t.true_label == "nc"))
    assert rates[0] <= rates[1] <= rates[2]


def test_graduates_have_degree_inside_window():
    cfg = SynthConfig(n_students=500, seed=41)
    records, truths = generate_cohort(cfg)
    for s, t in zip(records, truths):
        if t.true_label == "grad":
            allowance = window_allowance(s.entry.transfer_credits, cfg.degree_credits)
            assert s.degree_terms
            delta = min(s.degree_terms) - s.first_term
            assert delta <= allowance


def test_nc_quarters_in_valid_range(cohort_small):
    _, _, truths = cohort_small
    for t in truths:
        if t.true_label == "nc":
            assert 1 <= t.true_quarters_enrolled <= 24


def test_some_ncs_carry_late_degrees(cohort_small):
    cfg, records, truths = cohort_small
    nc_ids = {t.student_id for t in truths if t.true_label == "nc"}
    late = [s for s in records if s.student_id in nc_ids and s.degree_terms]
    assert late, "late-degree non-completions should exist to exercise the window boundary"
    for s in late:
        allowance = window_allowance(s.entry.transfer_credits, cfg.degree_credits)
        delta = min(s.degree_terms) - s.first_term
        assert delta > allowance


def test_write_cohort_file_shapes(tmp_path):
    cfg = SynthConfig(n_students=2, seed=3)
    records, truths = generate_cohort(cfg)
    paths = write_cohort(records, truths, tmp_path)
    assert set(paths) == {"students", "transcripts", "degrees", "ground_truth"}
    students_rows = paths["students"].read_text().strip().splitlines()
    assert len(students_rows) - 1 == 2
    transcript_rows = paths["transcripts"].read_text().strip().splitlines()
    assert len(transcript_rows) - 1 == sum(len(r.transcript) for r in records)
    degree_rows = paths["degrees"].read_text().strip().splitlines()
    assert len(degree_rows) - 1 == sum(len(r.degree_terms) for r in records)
    truth_rows = paths["ground_truth"].read_text().strip().splitlines()
    assert len(truth_rows) - 1 == 2


def test_write_cohort_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="empty cohort"):
        write_cohort([], [], tmp_path)


def test_ground_truth_round_trip(tmp_path):
    cfg = SynthConfig(n_students=25, seed=13)
    records, truths = generate_cohort(cfg)
    paths = write_cohort(records, truths, tmp_path)
    loaded = read_ground_truth(paths["ground_truth"])
    assert loaded == truths


def test_ground_truth_quarters_present_only_for_ncs():
    with pytest.raises(ValueError):
        GroundTruth("S1", 0.5, "grad", 5)
    with pytest.raises(ValueError):
        GroundTruth("S1", 0.5, "nc", None)


def test_fig_membership_is_independent_noise(cohort_5k):
    _, records, truths = cohort_5k
    fig = np.array([1.0 if s.entry.fig_member else 0.0 for s in records])
    nc = np.array([1.0 if t.true_label == "nc" else 0.0 for t in truths])
    corr = np.corrcoef(fig, nc)[0, 1]
    assert abs(corr) < 0.05
