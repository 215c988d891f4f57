"""One repetition of one benchmark workload, in a process of its own.

    python3 bench/job.py --workload cli-map --seed 0 --trace 0 \\
        --work bench/out/work/x --out bench/out/x.json [--spans FILE]

Runs gen -> fit -> predict -> score, times each step, then checks the
outputs with :mod:`checks` and writes one JSON result to ``--out``.
``dpplearn`` must be importable (``run.py`` puts ``src`` on PYTHONPATH).
Nothing is imported from numpy or dpplearn before the clock starts, so
``setup_s`` includes importing them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracing  # stdlib-only at import time

# The make-up of each workload's inputs; README.md explains the choice.
WORKLOADS = {
    # One fig1c cell: joint theta + 9-weight training on the RBF bank.
    "mkl-fit": {"n_train": 800, "n_test": 400},
    # The CLI path with per-instance exhaustive MAP.
    "cli-map": {"n_train": 200, "n_test": 200, "mode": "exhaustive"},
    # The CLI path with MBR decoding, 1000 samples per instance.
    "cli-mbr": {"n_train": 200, "n_test": 24, "mode": "mbr"},
}
N_ITEMS, FEATURE_DIM, NOISE_PROB = 10, 5, 0.1
LAM = 1.0
# The experiment default (harness and `dpplearn experiment`).  The trainer's
# own default, 1e-7, stops after a seed-dependent number of iterations.
REL_TOLERANCE = 1e-9
# Test instances checked by brute force (the first ones of the split).
CHECK_SAMPLE = 100

STEPS = ("setup", "fit", "predict", "score")
CHECKS = {
    "mkl-fit": ("map", "fscore", "fit"),
    "cli-map": ("map", "fscore", "fit", "label_noise"),
    "cli-mbr": ("fscore", "fit", "label_noise", "sampler", "consensus"),
}


def operations(workload):
    """Operations one repetition attempts: its steps and its checks."""
    return len(STEPS) + len(CHECKS[workload])


def _capture(owner, attr, sink, pick):
    """Wrap owner.attr so that pick(args, result) is appended to sink."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(pick(args, result))
        return result

    setattr(owner, attr, wrapper)


class Phases:
    """Wall-clock boundaries of the job's steps, as spans when traced."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds = {}

    @contextlib.contextmanager
    def step(self, name):
        block = self.tracer.span("job." + name) if self.tracer else contextlib.nullcontext()
        t = time.perf_counter()
        with block:
            yield
        self.seconds[name] = time.perf_counter() - t


def run_mkl_fit(seed, tracer, sizes):
    phases = Phases(tracer)
    with phases.step("setup"):
        from dpplearn import harness, kernel, learning, synth

        preds = []
        _capture(harness, "map_exhaustive_stack", preds, lambda a, r: list(r))
        if tracer:
            tracer.install()
        ds = synth.generate_dataset(
            synth.SynthConfig(n_items=N_ITEMS, feature_dim=FEATURE_DIM,
                              noise_prob=NOISE_PROB, n_train=sizes["n_train"],
                              n_holdout=1, n_test=sizes["n_test"], seed=seed),
            harness.FIG1C_SIMILARITY,
        )
    with phases.step("fit"):
        spec = harness.ExperimentSpec(kind="fig1c")
        bank = kernel.SimilarityConfig(bandwidths=tuple(spec.sigma_grid),
                                       include_linear=False)
        config = dataclasses.replace(spec.train, similarity=bank, lam=LAM)
        result = learning.train(list(ds.train), config)
    with phases.step("predict"):
        prf = harness.evaluate_params(ds.test, result.params, bank, spec.inference)
    with phases.step("score"):
        test_fscore = float(prf[2])
    # evaluate_params stacks the test split as one batch (all N = 10), so
    # the captured subsets are in instance order.
    return {
        "phases": phases.seconds, "test_fscore": test_fscore,
        "n_test": len(ds.test),
        "test": _arrays(ds.test),
        "preds": [tuple(int(i) for i in p) for batch in preds for p in batch],
        "reported_f": test_fscore, "reported_rows": None,
        "fitted": (result.params.theta.tolist(),
                   result.params.kernel_weights.tolist(), bank.bandwidths, False),
        "true": (ds.true_theta.tolist(), [1.0],
                 harness.FIG1C_SIMILARITY.bandwidths, False),
    }


def _arrays(instances):
    import numpy as np

    return {
        "X": np.stack([inst.quality_features for inst in instances]),
        "Phi": np.stack([inst.similarity_features for inst in instances]),
        "labels": [tuple(int(i) for i in inst.label) for inst in instances],
    }


def _configs(d, sizes):
    """Flat key = value config lines for the four CLI commands."""
    return {
        "gen": [f"synth.n_items = {N_ITEMS}", f"synth.feature_dim = {FEATURE_DIM}",
                f"synth.noise_prob = {NOISE_PROB}", f"synth.n_train = {sizes['n_train']}",
                "synth.n_holdout = 1", f"synth.n_test = {sizes['n_test']}"],
        "train": [f'dataset = "{d / "data" / "train.jsonl"}"', f"train.lam = {LAM}",
                  f"train.rel_tolerance = {REL_TOLERANCE}"],
        "infer": [f'dataset = "{d / "data" / "test.jsonl"}"',
                  f'model = "{d / "fit" / "train_result.json"}"',
                  f'inference.mode = "{sizes["mode"]}"'],
        "eval": [f'dataset = "{d / "data" / "test.jsonl"}"',
                 f'predictions = "{d / "pred" / "predictions.jsonl"}"'],
    }


def run_cli(seed, work, tracer, sizes):
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    configs = {}
    for name, lines in _configs(work, sizes).items():
        path = work / f"{name}.cfg"
        path.write_text("\n".join(lines) + "\n")
        configs[name] = str(path)
    argv = {
        "gen": ["gen", "--config", configs["gen"], "--out-dir", str(work / "data"),
                "--seed", str(seed)],
        "train": ["train", "--config", configs["train"], "--out-dir", str(work / "fit")],
        "infer": ["infer", "--config", configs["infer"], "--out-dir", str(work / "pred"),
                  "--seed", str(seed)],
        "eval": ["eval", "--config", configs["eval"], "--out-dir", str(work / "scores")],
    }
    phases = Phases(tracer)
    samples = []

    def command(name):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cli_main(argv[name])
        if code != 0:
            raise RuntimeError(f"dpplearn {name} exited with {code}")

    with phases.step("setup"):
        from dpplearn import cli, inference

        _capture(inference, "consensus_scores", samples, lambda a, r: list(a[0]))
        if tracer:
            tracer.install()
        command("gen")
    with phases.step("fit"):
        command("train")
    with phases.step("predict"):
        command("infer")
    with phases.step("score"):
        command("eval")
        with open(work / "scores" / "scores_summary.json") as fh:
            test_fscore = float(json.load(fh)["fscore"])
    return {"phases": phases.seconds, "test_fscore": test_fscore,
            "n_test": sizes["n_test"], "samples": samples}


def _read_jsonl(path):
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return rows[0], rows[1:]


def _cli_outputs(work, out):
    """Read what the CLI wrote with plain json, for the checks."""
    import numpy as np

    work = Path(work)
    header, recs = _read_jsonl(work / "data" / "test.jsonl")
    _, train_recs = _read_jsonl(work / "data" / "train.jsonl")
    with open(work / "fit" / "train_result.json") as fh:
        params = json.load(fh)["params"]
    with open(work / "pred" / "predictions.jsonl") as fh:
        preds = [tuple(json.loads(line)["subset"]) for line in fh if line.strip()]
    with open(work / "scores" / "scores.csv") as fh:
        rows = [float(line.split(",")[3]) for line in fh.readlines()[1:]]

    def arrays(records):
        return {
            "X": np.array([r["quality_features"] for r in records], dtype=float),
            "Phi": np.array([r["similarity_features"] for r in records], dtype=float),
            "labels": [tuple(r["label"]) for r in records],
        }

    out.update({
        "test": arrays(recs), "train": arrays(train_recs), "preds": preds,
        "reported_f": out["test_fscore"], "reported_rows": rows,
        "fitted": (params["theta"], params["kernel_weights"], (), True),
        "true": (header["true_theta"], [1.0], (), True),
        "noise_prob": header["config"]["noise_prob"],
    })
    return out


def run_checks(workload, out):
    """Run this workload's checks; returns {name: (ok, detail)}."""
    import numpy as np

    import checks

    test = out["test"]
    k = min(CHECK_SAMPLE, len(test["labels"]))
    X, Phi, labels = test["X"][:k], test["Phi"][:k], test["labels"][:k]

    def kernels(params, X, Phi):
        return checks.quality_similarity(X, Phi, *params)

    theta, weights, bandwidths, linear = out["fitted"]
    uniform = (np.zeros(len(theta)), np.full(len(weights), 1.0 / len(weights)),
               bandwidths, linear)
    L_fit = kernels(out["fitted"], X, Phi)
    f = {name: checks.mean_f(checks.brute_force_map(kernels(p, X, Phi)), labels)
         for name, p in (("uniform", uniform), ("true", out["true"]))}
    f["fit"] = checks.mean_f(checks.brute_force_map(L_fit), labels)

    results = {}
    for name in CHECKS[workload]:
        if name == "map":
            results[name] = checks.check_map(L_fit, out["preds"][:k])
        elif name == "fscore":
            results[name] = checks.check_fscores(out["preds"], test["labels"],
                                                 out["reported_f"], out["reported_rows"])
        elif name == "fit":
            results[name] = checks.check_fit(f["fit"], f["uniform"], f["true"])
        elif name == "label_noise":
            train = out["train"]
            clean = checks.brute_force_map(kernels(out["true"], train["X"], train["Phi"]))
            results[name] = checks.check_label_noise(train["labels"], clean, N_ITEMS,
                                                     out["noise_prob"])
        elif name == "sampler":
            results[name] = checks.check_sampler(
                kernels(out["fitted"], test["X"], test["Phi"]), out["samples"])
        elif name == "consensus":
            results[name] = checks.check_consensus(out["samples"], out["preds"])
    return results


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(workload, seed, work, trace, sizes=None):
    """The timed job, then its checks.  Returns the result dict."""
    sizes = dict(WORKLOADS[workload], **(sizes or {}))
    tracer = tracing.Tracer() if trace else None
    t0 = time.perf_counter()
    if workload == "mkl-fit":
        out = run_mkl_fit(seed, tracer, sizes)
    else:
        out = run_cli(seed, work, tracer, sizes)
    wall = time.perf_counter() - t0
    result = {"workload": workload, "seed": seed, "trace": bool(trace),
              "wall_s": wall, "peak_rss_mb": peak_rss_mb(),
              "n_test": out["n_test"], "test_fscore": out["test_fscore"]}
    result.update({f"{k}_s": v for k, v in out["phases"].items()})
    if tracer:
        tracer.uninstall()
        result["totals"] = tracing.span_totals(tracer.spans)
        result["counts"] = tracer.counts
        result["spans"] = tracer.spans
    t = time.perf_counter()
    if workload != "mkl-fit":
        _cli_outputs(work, out)
    result["checks"] = {name: list(r) for name, r in run_checks(workload, out).items()}
    result["check_s"] = time.perf_counter() - t
    return result, out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="working directory for the CLI files")
    p.add_argument("--out", required=True, help="result JSON file")
    p.add_argument("--spans", help="write the traced spans here")
    args = p.parse_args(argv)
    result, _ = run_job(args.workload, args.seed, args.work, args.trace)
    spans = result.pop("spans", None)
    if args.spans and spans is not None:
        with open(args.spans, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": spans, "counts": result["counts"]}, fh)
    result["blas"] = blas_info()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def blas_info():
    """OpenBLAS version from numpy's build record; its thread count as
    the loaded library reports it."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                info["threads"] = int(getattr(handle, sym)())
                break
    return info


if __name__ == "__main__":
    sys.exit(main())
