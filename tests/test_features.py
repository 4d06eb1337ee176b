import hashlib
import json

import numpy as np
import pytest

from attrition.cli import main
from attrition.features import (
    FeatureConfig,
    department_tuple,
    encode,
    encode_dataset,
    fit_imputer,
    fit_schema,
)
from attrition.labeling import LabeledDataset, OutcomeLabel, label_all

from conftest import entry, simple_student


def as_dataset(records):
    lab = OutcomeLabel(True, 4, 24)
    return LabeledDataset(tuple((r, lab) for r in records))


def expected_feature_count(n_majors, n_departments):
    # 16 one-hots + 3 prev + 1 hispanic + 1 birth + 1 entry year + 4 quarter
    # + 2 scores + 16 gatekeeper + 1 remedial + 1 fig = 46 fixed
    return 46 + n_majors + 4 * n_departments


def test_department_tuple_weighted_gpa():
    entries = [
        entry(1998, "autumn", "MATH", number=124, credits=5.0, grade=3.5),
        entry(1998, "autumn", "MATH", number=125, credits=5.0, grade=2.5),
    ]
    assert department_tuple(entries, "MATH") == (1, 10.0, 2, 3.0)


def test_department_tuple_absent_department():
    entries = [entry(1998, "autumn", "MATH")]
    took, credits, classes, gpa = department_tuple(entries, "CHEM")
    assert (took, credits, classes) == (0, 0.0, 0)
    assert gpa is None


def test_department_tuple_excludes_pass_fail_from_gpa():
    entries = [
        entry(1998, "autumn", "ENGL", number=111, credits=3.0, grade=4.0),
        entry(1998, "autumn", "ENGL", number=112, credits=2.0, grade=None, mark="P"),
    ]
    assert department_tuple(entries, "ENGL") == (1, 5.0, 2, 4.0)


def test_major_vocabulary_tie_break_is_lexicographic():
    majors = [f"M{i:03d}" for i in range(151)]
    records = [
        simple_student(sid=f"S{i}", majors=(m,), sat=1000, act=20,
                       entries=[entry(1998, "autumn", "MATH")])
        for i, m in enumerate(majors)
    ]
    schema = fit_schema(as_dataset(records), FeatureConfig())
    assert len(schema.major_vocab) == 150
    assert list(schema.major_vocab) == sorted(majors)[:150]


def test_department_block_is_784_with_196_departments():
    records = [
        simple_student(sid=f"S{i}", sat=1000, act=20,
                       entries=[entry(1998, "autumn", f"D{i:03d}")])
        for i in range(196)
    ]
    schema = fit_schema(as_dataset(records), FeatureConfig())
    dept_features = [d for d in schema.descriptors if d.name.startswith("dept=")]
    assert len(dept_features) == 784
    assert len(schema) == expected_feature_count(0, 196)


def test_feature_count_formula(cohort_small):
    cfg, records, _ = cohort_small
    ds = label_all(records)
    schema = fit_schema(ds, FeatureConfig())
    assert len(schema) == expected_feature_count(
        len(schema.major_vocab), len(schema.department_vocab)
    )
    assert schema.feature_names == [d.name for d in schema.descriptors]


def test_fit_schema_rejects_empty_training_set():
    with pytest.raises(ValueError, match="empty training set"):
        fit_schema(LabeledDataset(()), FeatureConfig())


def test_standardizing_before_fit_scaling_is_refused(cohort_small):
    _, records, _ = cohort_small
    ds = label_all(records[:50])
    schema = fit_schema(ds, FeatureConfig())
    with pytest.raises(ValueError, match="call fit_scaling first"):
        schema.standardize(encode_dataset(ds, schema)[1])


def test_constant_sat_imputes_constant():
    records = [
        simple_student(sid=f"S{i}", sat=1200, act=20 + i, entries=[entry(1998, "autumn", "MATH")])
        for i in range(10)
    ]
    imp = fit_imputer(as_dataset(records), "regression")
    target = simple_student(sid="T", sat=None, act=25)
    assert imp.impute(target, "sat_score") == pytest.approx(1200, abs=1e-6)


def test_mean_mode_imputes_mean():
    records = [
        simple_student(sid="S1", sat=1000, act=20, entries=[entry(1998, "autumn", "MATH")]),
        simple_student(sid="S2", sat=1100, act=30, entries=[entry(1998, "autumn", "MATH")]),
    ]
    imp = fit_imputer(as_dataset(records), "mean")
    assert imp.impute(simple_student(sid="T"), "act_score") == pytest.approx(25.0)


def test_imputer_requires_observed_scores():
    records = [simple_student(sid=f"S{i}", entries=[entry(1998, "autumn", "MATH")]) for i in range(3)]
    for mode in ("regression", "mean"):
        with pytest.raises(ValueError, match="no observed SAT"):
            fit_imputer(as_dataset(records), mode)


def test_imputer_rejects_an_unknown_mode():
    records = [simple_student(sid="S1", sat=1000, act=20, entries=[entry(1998, "autumn", "MATH")])]
    with pytest.raises(ValueError, match="'median'"):
        fit_imputer(as_dataset(records), "median")


def test_regression_imputation_with_one_observed_sat_uses_its_value():
    records = [simple_student(sid="S0", sat=1310, act=22, entries=[entry(1998, "autumn", "MATH")])]
    records += [
        simple_student(sid=f"S{i}", sat=None, act=18 + i, entries=[entry(1998, "autumn", "MATH")])
        for i in range(1, 8)
    ]
    imp = fit_imputer(as_dataset(records), "regression")
    assert imp.impute(simple_student(sid="T", sat=None, act=30), "sat_score") == pytest.approx(1310.0)
    assert imp.impute(simple_student(sid="U", sat=None, act=None), "sat_score") == pytest.approx(1310.0)


def test_regression_imputation_tracks_linear_relation():
    # SAT is an exact linear function of ACT; half the rows hide SAT.
    rng = np.random.default_rng(1)
    records = []
    sats = []
    for i in range(200):
        act = int(rng.integers(10, 35))
        sat = 400 + 30 * act
        observed = i % 2 == 0
        records.append(
            simple_student(
                sid=f"S{i}",
                sat=sat if observed else None,
                act=act,
                entries=[entry(1998, "autumn", "MATH")],
            )
        )
        sats.append(sat)
    imp = fit_imputer(as_dataset(records), "regression")
    hidden = [(r, true) for r, true in zip(records, sats) if r.entry.sat_score is None]
    errors = np.array([imp.impute(r, "sat_score") - true for r, true in hidden])
    sd_truth = np.std([true for _, true in hidden])
    assert np.sqrt(np.mean(errors**2)) < sd_truth
    assert np.abs(errors).max() < 2.0  # essentially exact on a noiseless relation


def test_imputation_close_on_generated_cohort(cohort_small):
    cfg, records, _ = cohort_small
    ds = label_all(records)
    imp = fit_imputer(ds, "regression")
    # the generator draws a true SAT for everyone; hidden ones should impute
    # well within one SD of the observed-score distribution
    observed = np.array([s.entry.sat_score for s in records if s.entry.sat_score is not None])
    assert observed.size > 20
    missing = [s for s in records if s.entry.sat_score is None]
    preds = np.array([imp.impute(s, "sat_score") for s in missing])
    assert preds.min() >= 400 and preds.max() <= 1600
    assert abs(preds.mean() - observed.mean()) < observed.std()


def one_hot_blocks(config, schema):
    blocks = {
        "race=": 6,
        "gender=": 3,
        "residency=": 7,
        "prev_schooling=": 3,
        "first_quarter=": 4,
    }
    names = schema.feature_names
    out = {}
    for prefix, size in blocks.items():
        idx = [i for i, n in enumerate(names) if n.startswith(prefix)]
        assert len(idx) == size
        out[prefix] = idx
    return out


def test_encode_one_hot_blocks_sum_to_one(cohort_small):
    _, records, _ = cohort_small
    ds = label_all(records)
    schema = fit_schema(ds, FeatureConfig())
    blocks = one_hot_blocks(schema.config, schema)
    for s in records[:100]:
        vec = encode(s, schema)
        for prefix, idx in blocks.items():
            assert vec[idx].sum() == 1.0, prefix


def test_unknown_major_encodes_to_zeros():
    train = [
        simple_student(sid=f"S{i}", majors=("MAJX",), sat=1000, act=20,
                       entries=[entry(1998, "autumn", "MATH")])
        for i in range(4)
    ]
    schema = fit_schema(as_dataset(train), FeatureConfig())
    stranger = simple_student(sid="T", majors=("NOPE",))
    vec = encode(stranger, schema)
    idx = [i for i, n in enumerate(schema.feature_names) if n.startswith("major=")]
    assert vec[idx].sum() == 0.0


def test_encoding_matrix_standardized_and_finite(cohort_small):
    _, records, _ = cohort_small
    ds = label_all(records)
    schema = fit_schema(ds, FeatureConfig())
    _, x_raw, _ = encode_dataset(ds, schema)
    schema.fit_scaling(x_raw)
    x = schema.standardize(x_raw)
    assert np.isfinite(x).all()
    mask = np.array([d.standardize for d in schema.descriptors])
    sds = x[:, mask].std(axis=0)
    means = x[:, mask].mean(axis=0)
    nonconstant = sds > 1e-12
    assert np.allclose(means[nonconstant], 0.0, atol=1e-9)
    assert np.allclose(sds[nonconstant], 1.0, atol=1e-9)


def test_encode_is_pure(cohort_small):
    _, records, _ = cohort_small
    ds = label_all(records)
    schema = fit_schema(ds, FeatureConfig())
    a = encode(records[0], schema)
    b = encode(records[0], schema)
    assert np.array_equal(a, b)


def test_schema_hash_stable_under_test_encoding(cohort_small, tmp_path):
    _, records, _ = cohort_small
    ds = label_all(records)
    train = LabeledDataset(ds.records[:300])
    test = LabeledDataset(ds.records[300:])
    schema = fit_schema(train, FeatureConfig())
    schema.fit_scaling(encode_dataset(train, schema)[1])
    schema.to_json(tmp_path / "before.json")
    encode_dataset(test, schema)
    schema.to_json(tmp_path / "after.json")
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()


def test_gatekeeper_tuple_is_department_tuple_on_restricted_entries():
    entries = [
        entry(1998, "autumn", "MATH", number=124, credits=5.0, grade=3.5),
        entry(1998, "autumn", "MATH", number=324, credits=5.0, grade=1.5),
        entry(1998, "autumn", "CHEM", number=142, credits=4.0, grade=3.0),
    ]
    restricted = [e for e in entries if 100 <= e.course_number <= 199]
    assert department_tuple(entries, "MATH", (100, 199)) == department_tuple(restricted, "MATH") == (1, 5.0, 1, 3.5)


def test_gatekeeper_features_match_restricted_department_tuple(cohort_small):
    _, records, _ = cohort_small
    ds = label_all(records)
    cfg = FeatureConfig()
    schema = fit_schema(ds, cfg)
    names = schema.feature_names
    for s in records[:50]:
        vec = encode(s, schema)
        first = s.first_term_entries()
        for group, dept in cfg.gatekeeper_departments.items():
            took, credits, classes, gpa = department_tuple(first, dept, cfg.gatekeeper_range)
            if gpa is None:
                gpa = schema.gpa_means["gatekeeper"][group]
            base = names.index(f"gatekeeper={group}:took")
            assert vec[base] == took
            assert vec[base + 1] == credits
            assert vec[base + 2] == classes
            assert vec[base + 3] == pytest.approx(gpa)


def test_remedial_flag_from_first_term(cohort_small):
    _, records, _ = cohort_small
    ds = label_all(records)
    schema = fit_schema(ds, FeatureConfig())
    idx = schema.index_of("remedial")
    flagged = [s for s in records if any(e.remedial for e in s.first_term_entries())]
    assert flagged
    vec = encode(flagged[0], schema)
    assert vec[idx] == 1.0


def test_missing_dept_gpa_uses_training_mean():
    train = [
        simple_student(
            sid=f"S{i}",
            sat=1000,
            act=20,
            entries=[
                entry(1998, "autumn", "MATH", grade=3.0),
                entry(1998, "autumn", "ENGL", grade=2.0),
            ],
        )
        for i in range(5)
    ]
    schema = fit_schema(as_dataset(train), FeatureConfig())
    loner = simple_student(sid="T", entries=[entry(1998, "autumn", "ENGL", grade=2.0)])
    vec = encode(loner, schema)
    assert vec[schema.index_of("dept=MATH:gpa")] == pytest.approx(3.0)
    assert vec[schema.index_of("dept=MATH:took")] == 0.0



@pytest.mark.parametrize("overrides, expected", [
    ({}, {
        "labels.csv": "5b1a1c129d1c1b2bdc3aa54bb9cb7f3bfeb8a4944280fe97bf3d8fc7862f2b9d",
        "features.csv": "6f6e6c4e715346551254d7eefd393a557a38ae881bea5f2e88d58c2f3cc0e97f",
        "schema.json": "0844174bcc3900b3985579b0bf21328ead2aa5bc842796fb53b460284082433b",
    }),
    ({"imputation_mode": "mean", "gatekeeper_range": [100, 149]}, {
        "labels.csv": "5b1a1c129d1c1b2bdc3aa54bb9cb7f3bfeb8a4944280fe97bf3d8fc7862f2b9d",
        "features.csv": "2b29cff6dc31893a27a4a1589009294cee2bd9d9ec1f0327957df85b66117df1",
        "schema.json": "a5a386f9fa32906bfc50244e83914f08794f9c5779cc4be52b346c148014d51d",
    }),
])
def test_featurize_bytes(tmp_path, overrides, expected):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"n_students": 200, "seed": 5}, **overrides}), encoding="utf-8")
    args = ["--config", str(config), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
    for stage in ("generate", "label", "featurize"):
        assert main([stage, *args]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in expected}
    assert digests == expected
