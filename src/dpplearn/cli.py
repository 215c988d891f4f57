"""Command-line interface.

Subcommands::

    dpplearn gen        --config synth.cfg --out-dir runs/data
    dpplearn train      --config train.cfg --out-dir runs/fit
    dpplearn infer      --config infer.cfg --out-dir runs/pred
    dpplearn eval       --config eval.cfg  --out-dir runs/scores
    dpplearn experiment --config fig1a.cfg --out-dir runs/fig1a
    dpplearn gradcheck  --n 6 --trials 20

``python -m dpplearn`` runs the same commands without an installed script.

Config files are flat ``key = value`` text (JSON values, dotted keys for
nesting); an unknown or mistyped key is a data error.  ``gen``, ``infer``
and ``experiment`` take ``--seed``, which overrides the config's seed;
``gradcheck --seed`` seeds its random instances.  Exit codes: 0 success,
1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, batch, serialize
from .errors import DataFormatError, NumericalError, ParameterError
from .harness import ExperimentSpec, predict_subsets, run_and_write, write_csv
from .inference import InferenceConfig
# unused here since infer calls predict_subsets; bench/tracing.py wraps cli.predict_subset
from .inference import predict_subset  # noqa: F401
from .kernel import (
    GroundSetInstance,
    ModelParams,
    SimilarityConfig,
    build_kernel,
    marginal_kernel_from_L,
)
from .learning import (
    TrainConfig,
    chain_L_to_params,
    finite_difference_check,
    grad_loglik_wrt_L,
    grad_margin_wrt_L,
    instance_objective,
    train,
)
from .losses import precision_recall_fscore
from .synth import SynthConfig, generate_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}")
    return value


def _build_parser():
    parser = _Parser(prog="dpplearn", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded):
        p.add_argument("--config", required=True,
                       help="flat key = value config file")
        p.add_argument("--out-dir", default="runs/out", help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")

    common(sub.add_parser("gen", help="generate a synthetic dataset"), True)
    common(sub.add_parser("train", help="fit parameters to a dataset file"), False)
    common(sub.add_parser("infer", help="predict subsets for a dataset file"), True)
    common(sub.add_parser("eval", help="score predictions against labels"), False)
    common(sub.add_parser("experiment", help="run a canned experiment"), True)
    g = sub.add_parser("gradcheck", help="finite-difference gradient check")
    g.add_argument("--n", type=_positive_int, default=6,
                   help="items per random instance")
    g.add_argument("--trials", type=_positive_int, default=20,
                   help="random instances")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--step", type=_positive_float, default=1e-5,
                   help="central-difference step")
    g.add_argument("--tolerance", type=_positive_float, default=1e-5,
                   help="largest accepted relative error")
    return parser


def _read_config(args, defaults, seed_section=None):
    """``defaults`` updated by the config file, which must set every path
    that defaults to ""; ``--seed`` overrides the seed of ``seed_section``."""
    p = Path(args.config)
    if not p.exists():
        raise DataFormatError(f"config file not found: {p}")
    cfg = serialize.config_from_dict(defaults, serialize.parse_config(p))
    if seed_section and args.seed is not None:
        cfg = serialize.config_from_dict(cfg, {seed_section: {"seed": args.seed}})
    if isinstance(cfg, dict):
        missing = [repr(k) for k, v in cfg.items() if v == ""]
        if missing:
            raise DataFormatError(f"{p}: needs a path for {' and '.join(missing)}")
    return cfg


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen(args):
    synth = _read_config(args, {"synth": SynthConfig()}, "synth")["synth"]
    ds = generate_dataset(synth)
    out = _out_dir(args)
    for name, split in ds.splits.items():
        header = {
            "split": name,
            "seed": synth.seed,
            "true_theta": ds.true_theta.tolist(),
            "config": asdict(synth),
        }
        serialize.write_instances(out / f"{name}.jsonl", split, header)
    print(f"wrote {out}/train.jsonl, holdout.jsonl, test.jsonl")
    return EXIT_OK


def _cmd_train(args):
    cfg = _read_config(args, {"dataset": "", "train": TrainConfig()})
    _, instances = serialize.read_instances(cfg["dataset"])
    result = train(instances, cfg["train"])
    out = _out_dir(args)
    serialize.write_train_result(out / "train_result.json", result, cfg["train"])
    print(f"trained on {len(instances)} instances, "
          f"{result.iterations_used} iterations, "
          f"final objective {result.objective_trace[-1]!r}, "
          f"stopped on {result.stop_reason}")
    return EXIT_OK


def _cmd_infer(args):
    cfg = _read_config(
        args, {"dataset": "", "model": "", "inference": InferenceConfig()},
        "inference",
    )
    _, instances = serialize.read_instances(cfg["dataset"])
    params, config, _ = serialize.read_train_result(cfg["model"])
    preds = predict_subsets(instances, params, config.similarity, cfg["inference"])
    out = _out_dir(args)
    serialize.write_predictions(out / "predictions.jsonl", preds)
    print(f"wrote {len(preds)} predictions to {out}/predictions.jsonl")
    return EXIT_OK


def _cmd_eval(args):
    cfg = _read_config(args, {"dataset": "", "predictions": ""})
    _, instances = serialize.read_instances(cfg["dataset"])
    if not instances:
        raise DataFormatError(f"{cfg['dataset']}: no instance records to score")
    preds = serialize.read_predictions(cfg["predictions"])
    if len(preds) != len(instances):
        raise DataFormatError(
            f"{len(preds)} predictions for {len(instances)} instances"
        )
    rows = []
    for inst, pred in zip(instances, preds):
        if inst.label is None:
            raise DataFormatError("eval requires labeled instances")
        rows.append(precision_recall_fscore(pred, inst.label))
    out = _out_dir(args)
    write_csv(out / "scores.csv", ("index", "precision", "recall", "fscore"),
              ((i, *s) for i, s in enumerate(rows)))
    arr = np.array(rows)
    means = arr.mean(axis=0)
    with open(out / "scores_summary.json", "w") as fh:
        json.dump({"n": len(rows), "precision": means[0], "recall": means[1],
                   "fscore": means[2]}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"mean P={means[0]:.4f} R={means[1]:.4f} F={means[2]:.4f} "
          f"over {len(rows)} instances")
    return EXIT_OK


def _cmd_experiment(args):
    spec = _read_config(args, ExperimentSpec(), "synth")
    rows = run_and_write(spec, args.out_dir)
    print(f"{spec.kind}: wrote {len(rows)} result rows to {args.out_dir}")
    return EXIT_OK


def _cmd_gradcheck(args):
    """Central differences of the objective against two gradients on each
    random instance: the per-instance chain (``grad_loglik_wrt_L``,
    ``grad_margin_wrt_L``, ``chain_L_to_params``) and the trainer's pass,
    ``batch.dataset_value_and_grad``."""
    rng = np.random.default_rng(args.seed)
    sim = SimilarityConfig(bandwidths=(0.8, 2.0), include_linear=True)
    config = TrainConfig(similarity=sim, lam=1.0, omega=2.0)
    worst_chain = worst_pass = 0.0
    done = 0
    while done < args.trials:
        x = 0.5 * rng.standard_normal((args.n, 3))
        phi = rng.standard_normal((args.n, 3))
        label = tuple(sorted(rng.choice(args.n, size=max(1, args.n // 2),
                                        replace=False).tolist()))
        inst = GroundSetInstance(x, phi, label)
        theta = 0.5 * rng.standard_normal(3)
        weights = np.full(3, 1.0 / 3.0)
        v0 = np.concatenate([theta, weights])
        d = theta.size

        def f(v):
            return instance_objective(ModelParams(v[:d], v[d:]), inst, config)

        if f(v0) <= 0.05:  # keep clear of the hinge kink
            continue

        def grad(v):
            params = ModelParams(v[:d], v[d:])
            L = build_kernel(inst, params, sim)
            K = marginal_kernel_from_L(L)
            U = -grad_loglik_wrt_L(L, label) + config.lam * grad_margin_wrt_L(
                L, K, label, config.omega
            )
            gt, gw = chain_L_to_params(inst, params, sim, U)
            return np.concatenate([gt, gw])

        batches = batch.stack_instances([inst], sim)

        def grad_pass(v):
            # one trainer pass gives both blocks; f is this pass's value,
            # since instance_objective is the pass on a stack of one
            _, gt, gw, _ = batch.dataset_value_and_grad(
                batches, v[:d], v[d:], config.lam, config.omega)
            return np.concatenate([gt, gw])

        report = finite_difference_check(f, grad, v0, step=args.step)
        worst_chain = max(worst_chain, report.max_rel_error)
        report = finite_difference_check(f, grad_pass, v0, step=args.step)
        worst_pass = max(worst_pass, report.max_rel_error)
        done += 1
    print(f"gradcheck: {done} instances, max relative error "
          f"{worst_chain:.3e} (per-instance chain), {worst_pass:.3e} "
          f"(trainer pass), tolerance {args.tolerance:g}")
    ok = max(worst_chain, worst_pass) < args.tolerance
    return EXIT_OK if ok else EXIT_NUMERICAL


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
    "gradcheck": _cmd_gradcheck,
}


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"dpplearn: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (DataFormatError, FileNotFoundError) as exc:
        print(f"dpplearn: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ParameterError as exc:
        print(f"dpplearn: bad parameter: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"dpplearn: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
