import math
from collections import Counter

import numpy as np
import pytest

from conftest import make_kernel
from oracles import (
    all_subsets,
    choice_reference,
    consensus_reference,
    map_exhaustive_reference,
    mbr_reference,
    random_psd_matrix,
    sample_dpp_reference,
)

from dpplearn import (
    EnsembleKernel,
    GroundSetInstance,
    InferenceConfig,
    ParameterError,
    ModelParams,
    NumericalError,
    SimilarityConfig,
    SynthConfig,
    TRUE_SIMILARITY,
    build_kernel,
    generate_dataset,
    log_probability,
    map_exhaustive,
    marginal_kernel_from_L,
    mbr_decode,
    predict_subset,
    sample_dpp,
    sample_dpp_stack,
)
from dpplearn.inference import consensus_scores


class TestMapExhaustive:
    def test_diagonal_dominant_item(self):
        L = EnsembleKernel.from_matrix(np.diag([2.0, 0.5]))
        assert map_exhaustive(L) == (0,)

    def test_small_eigenvalues_give_empty_set(self):
        L = EnsembleKernel.from_matrix(0.5 * np.eye(3))
        assert map_exhaustive(L) == ()

    def test_matches_independent_enumeration(self, rng):
        for _ in range(5):
            L = make_kernel(rng, 8, scale=2.0)
            assert map_exhaustive(L) == map_exhaustive_reference(np.asarray(L.matrix))

    def test_map_det_dominates_all_subsets(self, rng):
        from dpplearn.kernel import log_subset_det

        L = make_kernel(rng, 7, scale=2.0)
        best = map_exhaustive(L)
        best_val = log_subset_det(L.matrix, best)
        for y in all_subsets(7):
            assert best_val >= log_subset_det(L.matrix, tuple(y)) - 1e-12

    def test_limit_guard(self, rng):
        L = make_kernel(rng, 6)
        with pytest.raises(ParameterError, match="mbr"):
            map_exhaustive(L, exhaustive_limit=5)


def duplicate_item_kernel():
    """Items 0 and 1 have identical features, so they never co-occur."""
    phi = np.array([[1.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
    inst = GroundSetInstance(np.zeros((3, 1)), phi)
    cfg = SimilarityConfig(bandwidths=(1.0,), include_linear=False)
    return build_kernel(inst, ModelParams(np.zeros(1), [1.0]), cfg)


class TestSampler:
    def test_zero_kernel_always_empty(self, rng):
        L = EnsembleKernel.from_matrix(np.zeros((4, 4)))
        assert all(y == () for y in sample_dpp_stack(L, 50, rng))

    def test_single_item_frequency(self, rng):
        lam = 1.5
        L = EnsembleKernel.from_matrix(np.diag([lam, 0.0]))
        n = 50_000
        hits = sum(0 in y for y in sample_dpp_stack(L, n, rng))
        p = lam / (lam + 1.0)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(hits - n * p) <= 3.0 * sigma

    def test_item_marginals_match_K_diagonal(self, rng):
        n_draws = 50_000
        L = make_kernel(rng, 5, scale=2.0)
        K = marginal_kernel_from_L(L)
        counts = np.zeros(5)
        for y in sample_dpp_stack(L, n_draws, rng):
            for i in y:
                counts[i] += 1
        for i in range(5):
            p = K.matrix[i, i]
            sigma = math.sqrt(n_draws * p * (1 - p))
            assert abs(counts[i] - n_draws * p) <= 4.0 * sigma

    def test_duplicate_items_never_cooccur(self, rng):
        L = duplicate_item_kernel()
        for y in sample_dpp_stack(L, 50_000, rng):
            assert not (0 in y and 1 in y)

    def test_goodness_of_fit_against_enumeration(self, rng):
        from scipy.stats import chisquare

        n_draws = 100_000
        L = make_kernel(rng, 4, scale=2.0)
        expected = {
            y: math.exp(log_probability(L, y)) for y in all_subsets(4)
        }
        counts = Counter(sample_dpp_stack(L, n_draws, rng))
        keys = list(expected)
        obs = np.array([counts.get(y, 0) for y in keys], dtype=float)
        exp = np.array([expected[y] * n_draws for y in keys])
        stat, pvalue = chisquare(obs, exp * obs.sum() / exp.sum())
        assert pvalue > 0.001


def test_choice_reference_is_generator_choice():
    # the reference picks an item with one uniform as Generator.choice does
    g = np.random.default_rng(12)
    for seed in range(200):
        n = int(g.integers(1, 30))
        p = g.random(n) * (g.random(n) < 0.7)  # some items without mass
        p[g.integers(n)] += 1e-3
        p /= p.sum()
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        assert choice_reference(p, rng.random()) == int(twin.choice(n, p=p))
        assert rng.random() == twin.random()


def assert_draw_for_draw(L, T, seed, bit_generator=np.random.PCG64):
    """The stack equals T reference draws on a twin generator, state included."""
    rng = np.random.Generator(bit_generator(seed))
    twin = np.random.Generator(bit_generator(seed))
    got = sample_dpp_stack(L, T, rng)
    assert got == [sample_dpp_reference(L, twin) for _ in range(T)]
    assert all(isinstance(i, int) for y in got for i in y)
    assert rng.random() == twin.random()


class TestSampleDppStack:
    @pytest.mark.parametrize("n", [1, 4, 10, 30])
    def test_random_kernels(self, n):
        for seed in range(3):
            g = np.random.default_rng(1000 * n + seed)
            L = EnsembleKernel.from_matrix(random_psd_matrix(g, n, scale=3.0))
            assert_draw_for_draw(L, 200, seed)

    def test_zero_kernel(self):
        assert_draw_for_draw(EnsembleKernel.from_matrix(np.zeros((4, 4))), 50, 1)

    def test_duplicate_item_kernel(self):
        assert_draw_for_draw(duplicate_item_kernel(), 500, 2)

    def test_rank_deficient_kernel(self, rng):
        A = rng.standard_normal((8, 3))
        assert_draw_for_draw(EnsembleKernel.from_matrix(4.0 * A @ A.T), 300, 3)

    def test_chunks_continue_the_stream(self, monkeypatch):
        import dpplearn.batch as batch_mod
        import dpplearn.inference as inference_mod

        L = EnsembleKernel.from_matrix(
            random_psd_matrix(np.random.default_rng(7), 6, scale=3.0))
        # a sample takes 8 * 6 * (6 + 10) = 768 bytes: chunks of 5 samples
        monkeypatch.setattr(batch_mod, "MAP_CHUNK_BYTES", 16 * 6 * 6 * 7)
        chunks = []
        inner = inference_mod._sample_chunk

        def recording(E, probs, draws):
            chunks.append(len(draws))
            return inner(E, probs, draws)

        monkeypatch.setattr(inference_mod, "_sample_chunk", recording)
        assert_draw_for_draw(L, 100, 4)
        assert len(chunks) > 1 and sum(chunks) == 100
        # mbr_decode's own seeded stream continues across chunks the same way
        chunks.clear()
        config = InferenceConfig(mode="mbr", mbr_samples=100, seed=4)
        twin = np.random.default_rng(4)
        want = [sample_dpp_reference(L, twin) for _ in range(100)]
        assert mbr_decode(L, config) == mbr_reference(want)
        assert len(chunks) > 1 and sum(chunks) == 100

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_other_bit_generators(self, bit_generator, monkeypatch):
        import dpplearn.batch as batch_mod

        L = EnsembleKernel.from_matrix(
            random_psd_matrix(np.random.default_rng(11), 10, scale=3.0))
        assert_draw_for_draw(L, 200, 5, bit_generator)
        assert_draw_for_draw(L, 1, 6, bit_generator)
        # a sample takes 8 * 10 * (10 + 10) = 1600 bytes: chunks of 2 samples
        monkeypatch.setattr(batch_mod, "MAP_CHUNK_BYTES", 16 * 6 * 6 * 7)
        assert_draw_for_draw(L, 50, 7, bit_generator)

    @pytest.mark.parametrize("T", [1, 40])
    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_every_sample_reads_the_whole_bound(self, bit_generator, T):
        # Each sample reads 2N uniforms, however few eigenvectors it keeps:
        # all N (lambda / (lambda + 1) rounds to 1), none (the zero kernel)
        # or at most 3 (a rank-3 kernel).
        Q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((5, 5)))
        saturated = EnsembleKernel.from_matrix(
            Q @ np.diag(1e20 * np.arange(1.0, 6.0)) @ Q.T)
        assert np.all(saturated.eigenvalues / (saturated.eigenvalues + 1.0) == 1.0)
        A = np.random.default_rng(10).standard_normal((6, 3))
        for L in (saturated, EnsembleKernel.from_matrix(np.zeros((4, 4))),
                  EnsembleKernel.from_matrix(4.0 * A @ A.T)):
            assert_draw_for_draw(L, T, 9, bit_generator)
            rng = np.random.Generator(bit_generator(9))
            twin = np.random.Generator(bit_generator(9))
            sample_dpp_stack(L, T, rng)
            twin.random(2 * L.n_items * T)
            assert rng.random() == twin.random()

    def test_temporaries_stay_within_the_chunk_budget(self, monkeypatch):
        import tracemalloc

        import dpplearn.batch as batch_mod

        n, T = 20, 5000
        L = EnsembleKernel.from_matrix(
            random_psd_matrix(np.random.default_rng(3), n, scale=50.0))
        monkeypatch.setattr(batch_mod, "MAP_CHUNK_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            samples = sample_dpp_stack(L, T, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(samples) == T
        assert peak < T * n * n * 8 / 4  # a (T, N, N) array takes 16 MB

    def test_mbr_decode_stays_within_twice_the_chunk_budget(self):
        # at N = 50, T = 2000 nearly every sample is distinct, so dense
        # U x U consensus matrices would take 32 MB each
        import tracemalloc

        import dpplearn.batch as batch_mod

        L = EnsembleKernel.from_matrix(
            random_psd_matrix(np.random.default_rng(13), 50, scale=3.0))
        config = InferenceConfig(mode="mbr", mbr_samples=2000, seed=14)
        tracemalloc.start()
        try:
            mbr_decode(L, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * batch_mod.MAP_CHUNK_BYTES

    def test_sample_dpp_is_the_stack_of_one(self, rng):
        L = make_kernel(rng, 6, scale=2.0)
        r, twin = np.random.default_rng(5), np.random.default_rng(5)
        assert [sample_dpp(L, r) for _ in range(40)] == sample_dpp_stack(L, 40, twin)
        assert r.random() == twin.random()


class TestConsensusScores:
    POOL = [(), (0,), (1, 3), (0, 1, 3), (2,), (0, 2, 4), (5,)]

    def assert_matches_reference(self, samples):
        got, want = consensus_scores(samples), consensus_reference(samples)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert int(np.argmax(got)) == int(np.argmax(want))

    def test_random_lists_with_repeats_and_empty(self, rng):
        for _ in range(50):
            picks = rng.integers(len(self.POOL), size=int(rng.integers(1, 80)))
            self.assert_matches_reference([self.POOL[i] for i in picks])

    def test_edge_lists(self):
        for samples in ([()], [(), ()], [(), (1,)], [(1,), ()], [(0, 2)],
                        [(3,), (3,), (), (0, 3), (0, 3), ()]):
            self.assert_matches_reference(samples)

    def test_items_beyond_one_key_word(self, rng):
        # items 64 and up need a second (and third) 64-bit key word
        pool = [(), (0,), (63,), (64,), (0, 64), (63, 64), (63, 64, 130),
                (130,), (1, 63, 129)]
        for _ in range(50):
            picks = rng.integers(len(pool), size=int(rng.integers(1, 80)))
            self.assert_matches_reference([pool[i] for i in picks])

    def test_one_subset_in_separate_unsorted_tuples(self, rng):
        # grouping by tuple hash must not split one subset into two groups
        got = consensus_scores([(1, 0), (0, 1), (2,)])
        want = consensus_scores([(0, 1), (0, 1), (2,)])
        assert got.tobytes() == want.tobytes()
        self.assert_matches_reference([(1, 0), (0, 1), (2,)])
        for _ in range(50):
            picks = rng.integers(len(self.POOL), size=int(rng.integers(1, 80)))
            samples = [self.POOL[i] for i in picks]
            shuffled = [tuple(rng.permutation(y).tolist()) for y in samples]
            got, want = consensus_scores(shuffled), consensus_scores(samples)
            assert got.tobytes() == want.tobytes()

    def test_drawn_samples(self, rng):
        for n in (4, 10):
            L = make_kernel(rng, n, scale=2.0)
            self.assert_matches_reference(sample_dpp_stack(L, 1000, rng))


class TestMbrDecode:
    def test_single_sample_returned(self, rng):
        L = make_kernel(rng, 5)
        config = InferenceConfig(mode="mbr", mbr_samples=1, seed=3)
        out = mbr_decode(L, config)
        assert isinstance(out, tuple)

    def test_identical_samples_consensus_one(self):
        scores = consensus_scores([(0, 2), (0, 2), (0, 2)])
        assert np.allclose(scores, 1.0)

    def test_matches_independent_rescoring(self, rng):
        L = make_kernel(rng, 6, scale=2.0)
        config = InferenceConfig(mode="mbr", mbr_samples=50, seed=11)
        got = mbr_decode(L, config)
        # regenerate the same sample list the decoder saw, rescore from scratch
        r = np.random.default_rng(config.seed)
        samples = [sample_dpp(L, r) for _ in range(config.mbr_samples)]
        assert got == mbr_reference(samples)

    def test_deterministic_given_seed(self, rng):
        L = make_kernel(rng, 6)
        config = InferenceConfig(mode="mbr", mbr_samples=40, seed=7)
        assert mbr_decode(L, config) == mbr_decode(L, config)


class TestPredictSubset:
    def test_dispatches_exhaustive(self, rng):
        L = make_kernel(rng, 5)
        config = InferenceConfig(mode="exhaustive")
        assert predict_subset(L, config) == map_exhaustive(L)

    def test_dispatches_mbr(self, rng):
        L = make_kernel(rng, 5)
        config = InferenceConfig(mode="mbr", mbr_samples=20, seed=9)
        assert predict_subset(L, config) == mbr_decode(L, config)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            InferenceConfig(mode="greedy")
        with pytest.raises(ParameterError):
            InferenceConfig(exhaustive_limit=30)
        with pytest.raises(ParameterError):
            InferenceConfig(mbr_samples=0)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_exhaustive_limit_below_one_rejected(self, limit):
        with pytest.raises(ParameterError, match="exhaustive_limit"):
            InferenceConfig(exhaustive_limit=limit)

    @pytest.mark.parametrize("mode", ["exhaustive", "mbr"])
    def test_overflowing_qualities_are_numerical_error(self, mode):
        # the generating theta scaled by 200 takes x . theta past
        # LOG_QUALITY_MAX on every test instance
        ds = generate_dataset(SynthConfig(n_train=4, n_holdout=1, n_test=4, seed=0))
        params = ModelParams(200.0 * ds.true_theta, [1.0])
        config = InferenceConfig(mode=mode, mbr_samples=50)
        with pytest.raises(NumericalError, match="overflow"):
            predict_subset(build_kernel(ds.test[0], params, TRUE_SIMILARITY), config)
