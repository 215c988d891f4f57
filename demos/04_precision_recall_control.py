"""Steering precision vs recall with the generalized Hamming weight.

The margin objective weighs missed label items by omega: large omega makes
misses expensive (the model keeps marginals of label items high and selects
more -> recall), small omega punishes spurious picks (fewer, safer
selections -> precision).  Trains the large-margin estimator across omega
on a multiple-kernel similarity and prints the tradeoff.
"""

import numpy as np

from dpplearn import SimilarityConfig, SynthConfig, TrainConfig, generate_dataset, train
from dpplearn.harness import evaluate_params, predict_subsets
from dpplearn.inference import InferenceConfig

ds = generate_dataset(SynthConfig(n_train=200, n_holdout=50, n_test=100, seed=9))
similarity = SimilarityConfig(bandwidths=(0.5, 1.0, 2.0, 4.0, 8.0),
                              include_linear=False)
inference = InferenceConfig()

print(" omega    precision  recall   fscore   mean size")
for q in (-6, -3, 0, 3, 6):
    omega = 2.0**q
    config = TrainConfig(similarity=similarity, lam=1.0, omega=omega,
                         rel_tolerance=1e-9)
    result = train(list(ds.train), config)
    p, r, f = evaluate_params(ds.test, result.params, similarity, inference)
    preds = predict_subsets(ds.test, result.params, similarity, inference)
    mean_size = np.mean([len(y) for y in preds])
    print(f" 2^{q:+d}      {p:.4f}    {r:.4f}   {f:.4f}     {mean_size:.2f}")
