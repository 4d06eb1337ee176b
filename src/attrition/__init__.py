"""Student non-completion prediction on registrar-style transcript data."""

__version__ = "0.1.0"

import os

# One BLAS thread per process, set before numpy loads OpenBLAS: a threaded sum adds in an
# order that depends on the CPU count, and the CV workers already use every CPU. A count
# the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
