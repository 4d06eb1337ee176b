import attrition  # first: it sets one BLAS thread, which holds only if numpy has not loaded OpenBLAS yet
import numpy as np
import pytest

from attrition.features import FeatureConfig, encode_dataset, fit_schema
from attrition.labeling import balance, label_all
from attrition.records import Demographics, EntryInfo, TranscriptEntry, make_student, term_index
from attrition.synthetic import SynthConfig, generate_cohort


def simple_student(
    sid="S1",
    prev="Freshman",
    transfer_credits=0.0,
    entries=None,
    degree_terms=(),
    sat=None,
    act=None,
    majors=(),
    fig=False,
    race="Caucasian",
    gender="Female",
    residency="Resident",
    birth_year=1980,
):
    demo = Demographics(race, gender, False, residency, birth_year)
    entry = EntryInfo(prev, sat, act, transfer_credits, majors, fig)
    if entries is None:
        entries = [TranscriptEntry(term_index(1998, "autumn"), "MATH", 124, 5.0, 3.1)]
    return make_student(sid, demo, entry, entries, degree_terms)


def entry(year, quarter, dept, number=101, credits=5.0, grade=3.0, mark=None, remedial=False):
    return TranscriptEntry(term_index(year, quarter), dept, number, credits, grade, mark, remedial)


@pytest.fixture(scope="session")
def cohort_small():
    cfg = SynthConfig(n_students=400, seed=101)
    records, truths = generate_cohort(cfg)
    return cfg, records, truths


@pytest.fixture(scope="session")
def cohort_5k():
    cfg = SynthConfig(n_students=5000, seed=202)
    records, truths = generate_cohort(cfg)
    return cfg, records, truths


@pytest.fixture(scope="session")
def encoded_5k(cohort_5k):
    """Balanced, split, and encoded matrices for the 5k planted-signal cohort."""
    from attrition.evaluation import split

    cfg, records, truths = cohort_5k
    ds = label_all(records, cfg.degree_credits)
    bal = balance(ds, seed=303)
    train, test = split(bal, 0.30, seed=404)
    schema = fit_schema(train, FeatureConfig())
    _, x_train_raw, y_train = encode_dataset(train, schema)
    schema.fit_scaling(x_train_raw)
    _, x_test_raw, y_test = encode_dataset(test, schema)
    x_train_std, x_test_std = schema.standardize(x_train_raw), schema.standardize(x_test_raw)
    return {
        "schema": schema,
        "train": train,
        "test": test,
        "x_train_std": x_train_std,
        "x_test_std": x_test_std,
        "x_train_raw": x_train_raw,
        "x_test_raw": x_test_raw,
        "y_train": y_train,
        "y_test": y_test,
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
