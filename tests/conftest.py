import os

# one BLAS thread, as bench/run.py runs the program: OpenBLAS spins its
# threads on small GEMMs, and a second process on the same cores then
# slows the suite many times over; must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
