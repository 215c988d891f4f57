"""The benchmark's independent checks pass on the program and fail on
corrupted outputs (``bench/selftest.py``), so a change that breaks what
the benchmark verifies fails here too."""

import os
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_selftest_passes():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, str(SELFTEST)], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
