"""Maximum likelihood vs large-margin estimation on synthetic data.

Generates labeled ground sets from a known model (noisy annotations of the
most diverse subset), fits the quality parameters both ways, and scores
exhaustive-MAP predictions on held-out test instances.  The large-margin
objective tracks selection errors and stays closer to the oracle under
label noise.
"""

import numpy as np

from dpplearn import (
    InferenceConfig,
    SynthConfig,
    TRUE_SIMILARITY,
    TrainConfig,
    generate_dataset,
    train,
    true_params,
)
from dpplearn.harness import evaluate_params, grid_search

ds = generate_dataset(SynthConfig(n_train=200, n_holdout=100, n_test=100,
                                  seed=123))
sizes = [len(inst.label) for inst in ds.train]
print(f"200 training instances, mean label size {np.mean(sizes):.2f}")

inference = InferenceConfig()
oracle = evaluate_params(ds.test, true_params(ds), TRUE_SIMILARITY, inference)
print(f"oracle (true parameters): P={oracle[0]:.4f} R={oracle[1]:.4f} "
      f"F={oracle[2]:.4f}")

base = TrainConfig(similarity=TRUE_SIMILARITY, rel_tolerance=1e-9)

mle = train(list(ds.train), base)  # lam = 0: plain maximum likelihood
mle_prf = evaluate_params(ds.test, mle.params, TRUE_SIMILARITY, inference)
print(f"maximum likelihood:       P={mle_prf[0]:.4f} R={mle_prf[1]:.4f} "
      f"F={mle_prf[2]:.4f}  ({mle.iterations_used} iterations)")

search = grid_search(list(ds.train), list(ds.holdout),
                     lambda_grid=(0.1, 1.0, 10.0), base_config=base)
lme_prf = evaluate_params(ds.test, search.best_params, TRUE_SIMILARITY, inference)
print(f"large margin (lam={search.best_config.lam:g}):   "
      f"P={lme_prf[0]:.4f} R={lme_prf[1]:.4f} F={lme_prf[2]:.4f}")
print("holdout grid:", [(lam, round(float(f), 4)) for lam, f in search.table])
