"""dpplearn benchmark: the fit -> predict -> score path on three workloads.

    python3 bench/run.py --workload mkl-fit --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  For ``--seconds`` seconds it
repeats one workload, each repetition a fresh ``bench/job.py`` process
with ``src`` on PYTHONPATH and one BLAS thread, and checks every
repetition's outputs.  With ``--trace 0`` it reports the end-to-end
metrics (medians over repetitions); with ``--trace 1`` it alternates
untraced and traced repetitions and reports the per-layer metrics
(medians over the traced ones) and the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.  Provenance and per-repetition figures go to the line before it
and to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import job  # noqa: E402  (stdlib-only at import time)
import tracing  # noqa: E402

MIN_REPS = {0: 3, 1: 2}
JOB_TIMEOUT_S = 150


def _fail(message):
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(workload, seed, trace, index, out_dir, env):
    """One repetition in a fresh process; returns (result or None, stderr)."""
    tag = f"{workload}-seed{seed}-trace{trace}-rep{index}"
    work = out_dir / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    result_file = out_dir / f"{tag}.json"
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "job.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--work", str(work),
           "--out", str(result_file)]
    if trace:
        cmd += ["--spans", str(out_dir / f"{tag}.spans.json")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
        err = proc.stderr
        ok = proc.returncode == 0
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
        err, ok = f"timed out after {JOB_TIMEOUT_S} s: {exc.stderr or ''}", False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not ok or not result_file.is_file():
        return None, err
    with open(result_file) as fh:
        return json.load(fh), err


def provenance(results):
    """Machine, library and source identity for the result."""
    blas = next((r["blas"] for r in results if r), {})
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(str(path.relative_to(ROOT)).encode())
        src_hash.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": blas.get("numpy"),
        "blas": blas.get("blas"),
        "blas_threads": blas.get("threads"),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(reps):
    return {
        "setup_s": _median([r["setup_s"] for r in reps]),
        "fit_s": _median([r["fit_s"] for r in reps]),
        "predict_per_s": _median([r["n_test"] / r["predict_s"] for r in reps]),
        "wall_s": _median([r["wall_s"] for r in reps]),
        "test_fscore": _median([r["test_fscore"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(untraced, traced, names):
    layers = [tracing.layer_metrics(r["totals"], r["counts"], names) for r in traced]
    out = {name: _median([m[name] for m in layers]) for name in layers[0]}
    out["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                               - _median([r["wall_s"] for r in untraced]))
    return out


def _spec():
    """(unit by metric name, per-layer metric names) from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return units, [m["name"] for m in spec["per_layer"]]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(job.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not (ROOT / "src" / "dpplearn" / "__init__.py").is_file():
        _fail(f"no dpplearn source under {ROOT / 'src'}; run from a source checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        _fail(f"no BENCHMARK.json in {ROOT}")
    units, layer_names = _spec()

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    # Compile once, so that no repetition pays for writing bytecode.
    compileall.compile_dir(ROOT / "src" / "dpplearn", quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    env = _env()

    start = time.perf_counter()
    reps, durations = [], []
    attempted = failed = 0
    correct = True
    while True:
        trace = args.trace and len(reps) % 2 == 1
        t = time.perf_counter()
        result, err = run_rep(args.workload, args.seed, int(trace), len(reps),
                              out_dir, env)
        durations.append(time.perf_counter() - t)
        attempted += job.operations(args.workload)
        if result is None:
            failed += job.operations(args.workload)
            correct = False
            print(f"repetition {len(reps)} failed:\n{err}", file=sys.stderr)
        else:
            bad = [name for name, (ok, _) in result["checks"].items() if not ok]
            failed += len(bad)
            correct = correct and not bad
            for name in bad:
                print(f"check {name} failed: {result['checks'][name][1]}",
                      file=sys.stderr)
        reps.append(result)
        elapsed = time.perf_counter() - start
        # stop at the repetition count whose end lies nearest --seconds
        if (len(reps) >= MIN_REPS[args.trace]
                and elapsed + _median(durations) / 2 > args.seconds):
            break

    good = [r for r in reps if r is not None]
    untraced = [r for r in good if not r["trace"]]
    traced = [r for r in good if r["trace"]]
    if args.trace:
        values = per_layer(untraced, traced, layer_names) if traced and untraced else {}
    else:
        values = end_to_end(untraced) if untraced else {}
    metrics = {name: {"value": value, "unit": units.get(name, "")}
               for name, value in values.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": time.perf_counter() - start,
        "provenance": provenance(good),
        "repetitions": [
            None if r is None else {k: v for k, v in r.items() if k != "totals"}
            for r in reps
        ],
    }
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(dict(record, metrics=values), fh, indent=1)
    print(json.dumps({"provenance": record["provenance"],
                      "repetitions": len(reps), "elapsed_s": record["elapsed_s"]}))
    print(json.dumps({"correct": correct and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
