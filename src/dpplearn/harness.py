"""Experiment harness: synthetic benchmarks, sweeps, and CSV emission.

Four canned experiments mirror the synthetic study:

* ``fig1a`` - learning theta only with the true (linear) similarity, over a
  grid of training-set sizes, against maximum likelihood and the oracle
  parameters.
* ``fig1b`` - learning theta only under a deliberately mis-specified RBF
  similarity whose bandwidth sweeps a grid (200 training instances).
* ``fig1c`` - learning theta and the kernel weights jointly with the
  multiple-kernel similarity (RBF bank over ``sigma_grid``), alongside
  reference runs that keep the true similarity.  Its labels come from the
  single RBF at bandwidth ``FIG1C_SIGMA``, a member of the bank, so the
  experiment measures whether training recovers a similarity the bank can
  express.
* ``omega_sweep`` - large-margin training at a grid of loss weights omega,
  tracing the precision/recall tradeoff, with lam at ``train.lam`` and the
  RBF bank over ``sigma_grid``, under which omega visibly steers subset
  sizes.

Methods are tagged ``mle`` (lam = 0), ``lme`` (hinge objective at the
configured ``train.omega``; lam selected on the holdout split by F-score),
``oracle`` (generating parameters), and ``mle_true_s``/``lme_true_s`` for
the fixed-true-similarity reference rows of fig1c (theta learned with the
dataset's generating similarity).

Every experiment writes into its output directory:

* ``results.csv`` - one row per (cell, replicate):
  experiment,replicate,method,cell,precision,recall,fscore
* ``summary.csv`` - per cell: mean and standard error (sample std over
  replicates / sqrt(replicates)) of each metric
* ``manifest.json`` - config echo, the similarity that generated the
  labels, seed, package and library versions
* ``timings.csv`` - wall-clock seconds per row; the one file excluded from
  the byte-identical determinism guarantee
* ``pr_curve.csv`` (omega sweep only) - interpolated precision/recall
  polyline

:func:`run_experiment` runs every kind through one loop over replicates.
Replicate r's rows depend on the spec and r alone: its dataset has seed
``synth.seed + r``, labels from the kind's generating similarity, and
``max(train_sizes)`` training instances for fig1a and fig1c
(``synth.n_train`` otherwise).  Reruns of the same experiment are
byte-identical except for ``timings.csv``.

Dataset files consumed and produced around these experiments follow the
line-delimited instance-record schema documented in
:mod:`dpplearn.serialize`.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .batch import build_L_stack, map_exhaustive_stack, stack_instances
from .errors import ParameterError
from .inference import InferenceConfig, predict_subset, require_enumerable
from .kernel import EnsembleKernel, ModelParams, SimilarityConfig
from .learning import TrainConfig, train
from .losses import precision_recall_fscore
from .synth import TRUE_SIMILARITY, SynthConfig, generate_dataset, true_params

EXPERIMENT_KINDS = ("fig1a", "fig1b", "fig1c", "omega_sweep")
METHODS = ("mle", "lme")

DEFAULT_TRAIN_SIZES = (100, 200, 400, 800)
# Bandwidths from well below to well above the unit feature scale.  2^6 and
# beyond is excluded: there the mis-specified similarity saturates toward the
# all-ones matrix and every estimator collapses to the same degenerate model.
DEFAULT_SIGMA_GRID = tuple(2.0**q for q in range(-3, 6))
DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0)
DEFAULT_OMEGA_GRID = tuple(2.0**q for q in range(-6, 9, 2))

# fig1c draws its labels from the single RBF at this bandwidth (a member of
# DEFAULT_SIGMA_GRID).  The linear kernel is no target there: its Gram has
# rank <= feature_dim and the item norms on its diagonal, which no simplex
# mix of RBFs (strictly positive definite, unit diagonal) can express.
FIG1C_SIGMA = 2.0
FIG1C_SIMILARITY = SimilarityConfig(bandwidths=(FIG1C_SIGMA,),
                                    include_linear=False)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: kind, data/train/inference settings, and grids.

    ``lambda_grid`` drives holdout selection for the lme method (0 is the
    mle baseline and is excluded here), which trains at ``train.omega``;
    ``omega_grid`` is the sweep grid for omega_sweep; ``sigma_grid``
    doubles as the fig1b mis-specification grid and the fig1c RBF bank,
    which must contain ``FIG1C_SIGMA``.
    """

    kind: str = "fig1a"
    synth: SynthConfig = field(default_factory=SynthConfig)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        similarity=TRUE_SIMILARITY))
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    replicates: int = 10
    methods: tuple = ("mle", "lme")
    train_sizes: tuple = DEFAULT_TRAIN_SIZES
    sigma_grid: tuple = DEFAULT_SIGMA_GRID
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    omega_grid: tuple = DEFAULT_OMEGA_GRID

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ParameterError(f"unknown experiment kind {self.kind!r}")
        if self.replicates < 1:
            raise ParameterError("replicates must be at least 1")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ParameterError(
                f"unknown methods {unknown}; choose from {METHODS}"
            )
        for name in ("train_sizes", "sigma_grid", "lambda_grid", "omega_grid"):
            if not tuple(getattr(self, name)):
                raise ParameterError(f"{name} must be non-empty")
        if self.kind == "fig1c" and FIG1C_SIGMA not in tuple(self.sigma_grid):
            raise ParameterError(
                f"fig1c labels come from the RBF at sigma={FIG1C_SIGMA}; "
                f"sigma_grid {tuple(self.sigma_grid)} must contain it"
            )


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    replicate: int
    method: str
    cell: float
    precision: float
    recall: float
    fscore: float
    runtime: float


def predict_subsets(instances, params, similarity, inference):
    """Predicted subset of every instance, in instance order.

    The kernels of each item-count group are built in one
    :func:`build_L_stack` call.  Exhaustive mode decodes the group in one
    :func:`map_exhaustive_stack` call; MBR mode decodes kernel by kernel,
    every kernel with a generator seeded by ``inference.seed``, so the T
    samples of each N-item kernel read the same first 2NT uniforms, from
    one shared draw.
    """
    instances = list(instances)
    if not instances:
        return []
    preds = [None] * len(instances)
    for b in stack_instances(instances, similarity):
        _, L = build_L_stack(b, params.theta, params.kernel_weights)
        if inference.mode == "mbr":
            subsets = [predict_subset(EnsembleKernel.from_matrix(M), inference)
                       for M in L]
        else:
            require_enumerable(b.n_items, inference.exhaustive_limit)
            subsets = map_exhaustive_stack(L)
        for pos, pred in zip(b.indices, subsets):
            preds[pos] = pred
    return preds


def evaluate_params(instances, params, similarity, inference):
    """Mean precision/recall/F of predictions against instance labels."""
    instances = list(instances)
    if not instances:
        raise ParameterError("evaluation requires at least one instance")
    preds = predict_subsets(instances, params, similarity, inference)
    arr = np.array([precision_recall_fscore(pred, inst.label)
                    for pred, inst in zip(preds, instances)])
    return tuple(arr.mean(axis=0))


@dataclass(frozen=True)
class GridSearchResult:
    best_config: TrainConfig
    best_params: ModelParams
    best_holdout_fscore: float
    table: tuple  # rows of (lam, holdout F)


def grid_search(train_split, holdout_split, lambda_grid, base_config,
                inference=None):
    """Train at each lam, with omega from ``base_config``; pick the best
    holdout F-score.

    Ties prefer the smaller lam.  Returns the winning config together
    with its trained parameters, so callers need not retrain.
    """
    if not holdout_split:
        raise ParameterError("grid search requires a non-empty holdout split")
    lambdas = sorted(lambda_grid)
    if not lambdas:
        raise ParameterError("grid search requires a non-empty lambda grid")
    inference = inference or InferenceConfig()
    best = None
    table = []
    for lam in lambdas:
        config = replace(base_config, lam=lam)
        result = train(list(train_split), config)
        score = evaluate_params(
            holdout_split, result.params, config.similarity, inference
        )[2]
        table.append((lam, score))
        if best is None or score > best[2]:
            best = (config, result.params, score)
    return GridSearchResult(*best, tuple(table))


def _rbf(bandwidths):
    return SimilarityConfig(bandwidths, include_linear=False)


def _generating_similarity(kind):
    return FIG1C_SIMILARITY if kind == "fig1c" else TRUE_SIMILARITY


def _scored_row(rep, method, cell, fit, ds, similarity, spec):
    """Parameters from ``fit()`` scored on the test split; the row's runtime
    covers fitting and scoring."""
    t0 = time.perf_counter()
    prf = evaluate_params(ds.test, fit(), similarity, spec.inference)
    return ResultRow(spec.kind, rep, method, cell, *prf, time.perf_counter() - t0)


def _method_rows(rep, cell, ds, split, similarity, spec, suffix=""):
    """The mle then lme rows that ``spec.methods`` asks for, trained on
    ``split`` with ``spec.train`` under ``similarity``."""
    base = replace(spec.train, similarity=similarity)
    fits = {"mle": lambda: train(split, replace(base, lam=0.0)).params,
            "lme": lambda: grid_search(split, list(ds.holdout), spec.lambda_grid,
                                       base, spec.inference).best_params}
    return [_scored_row(rep, m + suffix, cell, fits[m], ds, similarity, spec)
            for m in METHODS if m in spec.methods]


def _fig1a_rows(spec, rep, ds):
    rows = []
    for size in spec.train_sizes:
        rows.append(_scored_row(rep, "oracle", size, lambda: true_params(ds), ds,
                                ds.similarity, spec))
        rows += _method_rows(rep, size, ds, list(ds.train[:size]), ds.similarity,
                             spec)
    return rows


def _fig1b_rows(spec, rep, ds):
    split = list(ds.train)
    return [row for sigma in spec.sigma_grid
            for row in _method_rows(rep, sigma, ds, split, _rbf((sigma,)), spec)]


def _fig1c_rows(spec, rep, ds):
    rows = []
    for size in spec.train_sizes:
        split = list(ds.train[:size])
        for sim, suffix in ((_rbf(spec.sigma_grid), ""), (ds.similarity, "_true_s")):
            rows += _method_rows(rep, size, ds, split, sim, spec, suffix)
    return rows


def _omega_sweep_rows(spec, rep, ds):
    split = list(ds.train)
    base = replace(spec.train, similarity=_rbf(spec.sigma_grid))
    return [_scored_row(rep, "lme", omega,
                        lambda: train(split, replace(base, omega=omega)).params,
                        ds, base.similarity, spec)
            for omega in spec.omega_grid]


_ROW_BUILDERS = {"fig1a": _fig1a_rows, "fig1b": _fig1b_rows,
                 "fig1c": _fig1c_rows, "omega_sweep": _omega_sweep_rows}


def _replicate_rows(spec, rep):
    """Replicate ``rep``'s rows, from its own dataset as the module
    docstring describes, so they depend on ``spec`` and ``rep`` alone."""
    sized = spec.kind in ("fig1a", "fig1c")
    synth = replace(spec.synth, seed=spec.synth.seed + rep,
                    n_train=max(spec.train_sizes) if sized else spec.synth.n_train)
    ds = generate_dataset(synth, _generating_similarity(spec.kind))
    return _ROW_BUILDERS[spec.kind](spec, rep, ds)


def run_experiment(spec):
    """``(rows, pr_points)``, the rows in replicate order.

    pr_points is None except for omega_sweep, where it interpolates the
    mean (recall, precision) polyline on a uniform recall grid.
    """
    rows = [row for rep in range(spec.replicates)
            for row in _replicate_rows(spec, rep)]
    if spec.kind != "omega_sweep":
        return rows, None
    pts = sorted((c["recall_mean"], c["precision_mean"]) for c in summarize(rows))
    recs, precs = np.array(pts).T
    if recs[-1] > recs[0]:
        grid = np.linspace(recs[0], recs[-1], 101)
        return rows, list(zip(grid.tolist(), np.interp(grid, recs, precs).tolist()))
    return rows, pts


def summarize(rows):
    """Per-cell mean and standard error over replicates."""
    cells = {}
    for row in rows:
        cells.setdefault((row.experiment, row.method, row.cell), []).append(row)
    out = []
    for (exp, method, cell), group in sorted(cells.items()):
        n = len(group)
        entry = {"experiment": exp, "method": method, "cell": cell, "n": n}
        for metric in ("precision", "recall", "fscore"):
            vals = np.array([getattr(r, metric) for r in group])
            entry[f"{metric}_mean"] = float(vals.mean())
            entry[f"{metric}_stderr"] = (
                float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            )
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# file emission

RESULT_COLUMNS = ("experiment", "replicate", "method", "cell",
                  "precision", "recall", "fscore")
TIMING_COLUMNS = ("experiment", "replicate", "method", "cell", "runtime")
SUMMARY_COLUMNS = ("experiment", "method", "cell", "n",
                   "precision_mean", "precision_stderr",
                   "recall_mean", "recall_stderr",
                   "fscore_mean", "fscore_stderr")


def _fmt(value):
    # plain-float repr also for numpy scalars (np.float64 subclasses float)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, columns, records):
    """A header line, then one comma-joined line per record of values."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for rec in records:
            fh.write(",".join(_fmt(v) for v in rec) + "\n")


def write_manifest(path, spec):
    doc = {
        "kind": "dpplearn-manifest",
        "seed": spec.synth.seed,
        "generating_similarity": asdict(_generating_similarity(spec.kind)),
        "spec": asdict(spec),
        "versions": {
            "dpplearn": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_and_write(spec, out_dir):
    """Run an experiment and write all output files into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows, pr_points = run_experiment(spec)
    for name, columns in (("results.csv", RESULT_COLUMNS),
                          ("timings.csv", TIMING_COLUMNS)):
        write_csv(out / name, columns,
                  ([getattr(r, c) for c in columns] for r in rows))
    write_csv(out / "summary.csv", SUMMARY_COLUMNS,
              ([cell[c] for c in SUMMARY_COLUMNS] for cell in summarize(rows)))
    write_manifest(out / "manifest.json", spec)
    if pr_points is not None:
        write_csv(out / "pr_curve.csv", ("recall", "precision"), pr_points)
    return rows
