"""Student non-completion prediction on registrar-style transcript data."""

__version__ = "0.1.0"

import os

# One BLAS thread per process, set before numpy loads OpenBLAS: a threaded sum adds in an
# order that depends on the CPU count, and the CV workers already use every CPU. A count
# the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import RunConfig
from .labeling import LabeledDataset, OutcomeLabel, balance, enrollment_terms, label_all, label_outcome, window_allowance
from .records import Demographics, EntryInfo, StudentRecord, TranscriptEntry, term_index, year_quarter
from .synthetic import GroundTruth, SynthConfig, generate_cohort, write_cohort

__all__ = [
    "Demographics",
    "EntryInfo",
    "GroundTruth",
    "LabeledDataset",
    "OutcomeLabel",
    "RunConfig",
    "StudentRecord",
    "SynthConfig",
    "TranscriptEntry",
    "balance",
    "enrollment_terms",
    "generate_cohort",
    "label_all",
    "label_outcome",
    "term_index",
    "window_allowance",
    "write_cohort",
    "year_quarter",
]
