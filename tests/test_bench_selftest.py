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


def test_tracing_bindings_resolve():
    # Tracer.install wraps each binding by name; one a refactor removed
    # would crash `bench/run.py --trace 1` instead of failing here.
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_tracing", SELFTEST.parent / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # stdlib-only at import
    missing = [f"{module}.{attr}" for module, attr, _ in tracing._BINDINGS
               if not hasattr(importlib.import_module("dpplearn." + module), attr)]
    commands = importlib.import_module("dpplearn.cli")._COMMANDS
    missing += [f"cli._COMMANDS[{cmd!r}]" for cmd in tracing._CLI_COMMANDS
                if cmd not in commands]
    assert not missing
