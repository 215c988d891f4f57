import hashlib

import numpy as np
import pytest

from dpplearn import (
    ParameterError,
    SimilarityConfig,
    SynthConfig,
    TRUE_SIMILARITY,
    generate_dataset,
    true_params,
)
from dpplearn.kernel import gram_stack
from dpplearn.batch import build_L_stack, map_exhaustive_stack, stack_instances
from dpplearn.harness import FIG1C_SIMILARITY


SMALL = SynthConfig(n_train=20, n_holdout=8, n_test=8, seed=42)

# the default linear kernel, and the single RBF that fig1c generates with
GENERATING_SIMILARITIES = pytest.mark.parametrize(
    "similarity",
    [TRUE_SIMILARITY, SimilarityConfig(bandwidths=(2.0,), include_linear=False)],
    ids=["linear", "rbf2"],
)


class TestGenerateDataset:
    def test_split_sizes_and_labels(self):
        ds = generate_dataset(SMALL)
        assert (len(ds.train), len(ds.holdout), len(ds.test)) == (20, 8, 8)
        for split in ds.splits.values():
            for inst in split:
                assert inst.label is not None
                assert inst.n_items == 10
                assert all(0 <= i < 10 for i in inst.label)

    def test_deterministic_given_seed(self):
        a, b = generate_dataset(SMALL), generate_dataset(SMALL)
        assert np.array_equal(a.true_theta, b.true_theta)
        for split in ("train", "holdout", "test"):
            for x, y in zip(getattr(a, split), getattr(b, split)):
                assert np.array_equal(x.quality_features, y.quality_features)
                assert x.label == y.label
        c = generate_dataset(SynthConfig(n_train=20, n_holdout=8, n_test=8, seed=43))
        assert not np.array_equal(a.true_theta, c.true_theta)

    def test_no_noise_labels_equal_provenance(self):
        cfg = SynthConfig(n_train=15, n_holdout=5, n_test=5, seed=7, noise_prob=0.0)
        ds = generate_dataset(cfg)
        for split, insts in ds.splits.items():
            for inst, clean in zip(insts, ds.provenance[split]):
                assert inst.label == clean

    @GENERATING_SIMILARITIES
    def test_provenance_is_the_exhaustive_map(self, similarity):
        cfg = SynthConfig(n_train=6, n_holdout=2, n_test=2, seed=3, noise_prob=0.0)
        ds = generate_dataset(cfg, similarity)
        assert ds.similarity == similarity
        params = true_params(ds)
        batch = stack_instances(list(ds.train), similarity)[0]
        _, L = build_L_stack(batch, params.theta, params.kernel_weights)
        assert list(map_exhaustive_stack(L)) == [i.label for i in ds.train]

    @GENERATING_SIMILARITIES
    def test_true_L_is_psd(self, similarity):
        ds = generate_dataset(SMALL, similarity)
        params = true_params(ds)
        batch = stack_instances(list(ds.train), similarity)[0]
        _, L = build_L_stack(batch, params.theta, params.kernel_weights)
        eigs = np.linalg.eigvalsh(L)
        assert eigs.min() >= -1e-9 * max(1.0, eigs.max())

    def test_mean_label_size_in_paper_band(self):
        cfg = SynthConfig(n_train=800, n_holdout=100, n_test=100, seed=1)
        ds = generate_dataset(cfg)
        sizes = [
            len(inst.label)
            for split in ds.splits.values()
            for inst in split
        ]
        assert len(sizes) == 1000
        assert 4.0 <= np.mean(sizes) <= 6.0

    @pytest.mark.parametrize("similarity, digest", [
        (TRUE_SIMILARITY,
         "1274a5ef394c497f4bd5da966d3b2ba4ca0d4e2273512dd92e5243f0b21c0a7b"),
        (FIG1C_SIMILARITY,
         "4394874ce38b3fa55628998a4660f566298c470b49b337db129e9812fc3fc3fb"),
    ], ids=["linear", "fig1c"])
    def test_labels_are_pinned(self, similarity, digest):
        # SHA-256 of the labels of every split of the default config, seeds
        # 0-2: a MAP or kernel change that moves one label changes it
        h = hashlib.sha256()
        for seed in range(3):
            ds = generate_dataset(SynthConfig(seed=seed), similarity)
            for split in (ds.train, ds.holdout, ds.test):
                h.update(repr([inst.label for inst in split]).encode())
        assert h.hexdigest() == digest

    def test_generating_similarity_is_one_kernel(self):
        with pytest.raises(ParameterError):
            generate_dataset(SMALL, SimilarityConfig(bandwidths=(2.0,)))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SynthConfig(noise_prob=1.5)
        with pytest.raises(ParameterError):
            SynthConfig(n_train=0)
        with pytest.raises(ParameterError, match="seed"):
            SynthConfig(seed=-3)


class TestMisspecifiedSimilarity:
    """fig1b's mis-specified similarity: one RBF through gram_stack."""

    @staticmethod
    def rbf(instance, sigma):
        config = SimilarityConfig(bandwidths=(sigma,), include_linear=False)
        return gram_stack(instance.similarity_features[None], config)[0, 0]

    def test_unit_diagonal(self):
        ds = generate_dataset(SMALL)
        S = self.rbf(ds.train[0], 2.0)
        assert np.allclose(np.diag(S), 1.0)
        assert np.array_equal(S, S.T)

    def test_huge_bandwidth_saturates(self):
        ds = generate_dataset(SMALL)
        S = self.rbf(ds.train[0], 1e6)
        assert S.min() > 0.999999

    def test_equals_single_rbf_config(self):
        from oracles import gram_references

        ds = generate_dataset(SMALL)
        inst = ds.train[3]
        sigma = 1.7
        cfg = SimilarityConfig(bandwidths=(sigma,), include_linear=False)
        direct = gram_references(inst.similarity_features, cfg)[0]
        assert np.max(np.abs(direct - self.rbf(inst, sigma))) < 1e-12

    def test_rejects_bad_sigma(self):
        with pytest.raises(ParameterError):
            SimilarityConfig(bandwidths=(0.0,), include_linear=False)
