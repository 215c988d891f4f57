import logging

import numpy as np
import pytest

from conftest import RBF_SIM, make_instance

from dpplearn import (
    TRUE_SIMILARITY,
    GroundSetInstance,
    ModelParams,
    ParameterError,
    SimilarityConfig,
    TrainConfig,
    project_to_simplex,
    total_objective,
    train,
)
from dpplearn import batch as batch_mod
from dpplearn.learning import ALTERNATION_BLOCK, GRAD_CLIP, STEP_SIZE


def small_dataset(rng, n_instances=12):
    return [make_instance(rng, n=5, label_size=2) for _ in range(n_instances)]


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            TrainConfig(lam=-1.0)
        with pytest.raises(ParameterError):
            TrainConfig(omega=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(rel_tolerance=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(max_outer_iterations=0)


class TestTrain:
    def test_objective_decreases_and_is_finite(self, rng):
        data = small_dataset(rng)
        config = TrainConfig(similarity=RBF_SIM, lam=1.0, max_outer_iterations=20)
        result = train(data, config)
        trace = np.array(result.objective_trace)
        assert np.all(np.isfinite(trace))
        assert trace[-1] < trace[0]
        assert result.iterations_used == len(trace)

    def test_final_objective_matches_total_objective_at_lambda_zero(self, rng):
        data = small_dataset(rng)
        config = TrainConfig(similarity=RBF_SIM, lam=0.0, max_outer_iterations=15,
                             rel_tolerance=1e-12)
        result = train(data, config)
        recomputed = total_objective(result.params, data, config)
        assert result.objective_trace[-1] == pytest.approx(recomputed, rel=1e-10)

    def test_total_objective_is_the_recorded_objective(self):
        # seed-0 synthetic training labels include singular ones, which the
        # trainer records through its finite surrogate
        from dpplearn import SynthConfig, generate_dataset

        data = list(generate_dataset(SynthConfig(seed=0)).train)
        config = TrainConfig(lam=1.0, max_outer_iterations=5)
        result = train(data, config)
        assert total_objective(result.params, data, config) == pytest.approx(
            result.objective_trace[-1], rel=1e-12
        )

    def test_weights_stay_on_simplex(self, rng):
        data = small_dataset(rng)
        config = TrainConfig(similarity=RBF_SIM, lam=2.0, max_outer_iterations=25)
        result = train(data, config)
        w = result.params.kernel_weights
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_satisfied_margin_leaves_params_fixed(self, rng):
        # single confident item: the hinge bracket is negative from the start
        x = np.array([[1.0, 0.5]])
        inst = GroundSetInstance(x, x, label=(0,))
        sim = SimilarityConfig(bandwidths=(1.0,), include_linear=False)
        config = TrainConfig(similarity=sim, lam=1.0, max_outer_iterations=3)
        initial = ModelParams(np.array([2.0, 1.0]), np.ones(1))
        result = train([inst], config, initial=initial)
        assert np.array_equal(result.params.theta, initial.theta)
        assert result.objective_trace[-1] == 0.0

    def test_convergence_flag_on_flat_objective(self, rng):
        x = np.array([[1.0, 0.5]])
        inst = GroundSetInstance(x, x, label=(0,))
        sim = SimilarityConfig(bandwidths=(1.0,), include_linear=False)
        config = TrainConfig(similarity=sim, lam=1.0, max_outer_iterations=50)
        result = train([inst], config, initial=ModelParams(np.array([2.0, 1.0]),
                                                           np.ones(1)))
        assert result.converged
        assert result.iterations_used < 50

    def test_rejects_empty_or_unlabeled(self, rng):
        with pytest.raises(ParameterError):
            train([], TrainConfig(similarity=RBF_SIM))
        inst = make_instance(rng)
        unlabeled = GroundSetInstance(inst.quality_features,
                                      inst.similarity_features)
        with pytest.raises(ParameterError):
            train([unlabeled], TrainConfig(similarity=RBF_SIM))

    def test_initial_weights_length_checked(self, rng):
        data = small_dataset(rng)
        bad = ModelParams(np.zeros(3), np.array([0.5, 0.5]))
        with pytest.raises(ParameterError):
            train(data, TrainConfig(similarity=RBF_SIM), initial=bad)

    def test_singular_label_warns_and_survives(self, rng, caplog):
        phi = np.vstack([np.ones(3), np.ones(3), rng.standard_normal(3)])
        x = 0.1 * rng.standard_normal((3, 2))
        inst = GroundSetInstance(x, phi, label=(0, 1))
        sim = SimilarityConfig(bandwidths=(1.0,), include_linear=False)
        config = TrainConfig(similarity=sim, lam=1.0, max_outer_iterations=5)
        with caplog.at_level(logging.WARNING, logger="dpplearn.learning"):
            result = train([inst], config)
        assert any("singular" in rec.message for rec in caplog.records)
        assert np.all(np.isfinite(result.objective_trace))

    def test_mle_improves_test_fscore_on_synthetic_data(self):
        from dpplearn import SynthConfig, TRUE_SIMILARITY, generate_dataset
        from dpplearn.harness import evaluate_params
        from dpplearn.inference import InferenceConfig
        from dpplearn.kernel import uniform_params

        ds = generate_dataset(SynthConfig(n_train=60, n_holdout=5, n_test=40,
                                          seed=77))
        config = TrainConfig(similarity=TRUE_SIMILARITY, lam=0.0,
                             max_outer_iterations=25)
        inference = InferenceConfig()
        before = evaluate_params(
            ds.test, uniform_params(5, TRUE_SIMILARITY), TRUE_SIMILARITY,
            inference,
        )[2]
        result = train(list(ds.train), config)
        after = evaluate_params(ds.test, result.params, TRUE_SIMILARITY,
                                inference)[2]
        assert after > before


def record_passes(monkeypatch):
    """Record (want_grad, theta, weights) of every pass train makes."""
    calls = []
    inner = batch_mod.dataset_value_and_grad

    def recording(batches, theta, weights, *args, want_grad=True, **kwargs):
        calls.append((want_grad, theta.copy(), weights.copy()))
        return inner(batches, theta, weights, *args, want_grad=want_grad,
                     **kwargs)

    monkeypatch.setattr(batch_mod, "dataset_value_and_grad", recording)
    return calls


def separate_passes_reference(data, config):
    """The trainer's steps with a full-gradient pass for every step and an
    objective-only pass for every iterate (2B + 1 passes per iteration)."""
    batches = batch_mod.stack_instances(data, config.similarity)
    theta = np.zeros(data[0].quality_features.shape[1])
    weights = np.full(config.similarity.n_weights, 1.0 / config.similarity.n_weights)
    trace = []

    def grad(block):
        _, g_t, g_w, _ = batch_mod.dataset_value_and_grad(
            batches, theta, weights, config.lam, config.omega)
        g = (g_t if block == "theta" else g_w) / len(data)
        norm = float(np.linalg.norm(g))
        return g * (GRAD_CLIP / norm) if norm > GRAD_CLIP else g

    for t in range(1, config.max_outer_iterations + 1):
        step = STEP_SIZE / np.sqrt(t)
        for _ in range(ALTERNATION_BLOCK):
            theta = theta - step * grad("theta")
        for _ in range(ALTERNATION_BLOCK):
            weights = project_to_simplex(weights - step * grad("weights"))
        trace.append(batch_mod.dataset_value_and_grad(
            batches, theta, weights, config.lam, config.omega, want_grad=False)[0])
    return theta, project_to_simplex(weights), trace


class TestPassSchedule:
    @pytest.mark.parametrize("similarity, per_iteration", [
        (RBF_SIM, ["theta", "theta", "weights", "weights", "weights", "theta"]),
        (TRUE_SIMILARITY, ["theta", "theta", "theta"]),
    ])
    def test_passes_per_iteration(self, rng, monkeypatch, similarity,
                                  per_iteration):
        calls = record_passes(monkeypatch)
        config = TrainConfig(similarity=similarity, lam=1.0,
                             max_outer_iterations=4, rel_tolerance=1e-15)
        result = train(small_dataset(rng), config)
        T = result.iterations_used
        assert T == 4
        # 6T + 1 passes with the weight block on, 3T + 1 with one kernel
        assert len(calls) == len(per_iteration) * T + 1
        assert [c[0] for c in calls] == ["theta"] + per_iteration * T

    def test_trace_is_total_objective_at_each_iterate(self, rng, monkeypatch):
        calls = record_passes(monkeypatch)
        data = small_dataset(rng)
        config = TrainConfig(similarity=RBF_SIM, lam=1.0,
                             max_outer_iterations=4, rel_tolerance=1e-15)
        result = train(data, config)
        iterates = calls[6::6]
        assert len(iterates) == len(result.objective_trace) == 4
        for recorded, (_, theta, weights) in zip(result.objective_trace, iterates):
            expected = total_objective(ModelParams(theta, weights), data, config)
            assert recorded == expected

    def test_reused_gradient_fits_what_separate_passes_fit(self, rng):
        data = small_dataset(rng)
        config = TrainConfig(similarity=RBF_SIM, lam=1.0,
                             max_outer_iterations=5, rel_tolerance=1e-15)
        result = train(data, config)
        theta, weights, trace = separate_passes_reference(data, config)
        assert np.array_equal(result.params.theta, theta)
        assert np.array_equal(result.params.kernel_weights, weights)
        assert list(result.objective_trace) == trace


def count_label_factorizations(monkeypatch):
    """Count the factorizations of label stacks: every label_terms call,
    and every label_inverse call that factors the labels anew."""
    calls = []
    terms, inverse = batch_mod.label_terms, batch_mod.label_inverse

    def counted_terms(M, *args, **kwargs):
        calls.append(np.shape(M))
        return terms(M, *args, **kwargs)

    def counted_inverse(M, mask, singular, factor=None, *args, **kwargs):
        if factor is None:
            calls.append(np.shape(M))
        return inverse(M, mask, singular, factor, *args, **kwargs)

    monkeypatch.setattr(batch_mod, "label_terms", counted_terms)
    monkeypatch.setattr(batch_mod, "label_inverse", counted_inverse)
    return calls


class TestLabelSpectraPerWeightVector:
    @staticmethod
    def fit(rng, monkeypatch, similarity, iterations):
        """Train on two item counts; return the passes, the label
        factorizations made in each pass and the number of batches."""
        data = [make_instance(rng, n=n, label_size=int(rng.integers(1, 5)))
                for n in (5, 6, 5, 6, 6, 5, 6, 5)]
        config = TrainConfig(similarity=similarity, lam=1.0,
                             max_outer_iterations=iterations, rel_tolerance=1e-15)
        n_batches = len(batch_mod.stack_instances(data, similarity))
        passes = record_passes(monkeypatch)
        calls = count_label_factorizations(monkeypatch)
        per_pass = []
        recorded = batch_mod.dataset_value_and_grad

        def counting(*args, **kwargs):
            before = len(calls)
            out = recorded(*args, **kwargs)
            per_pass.append(len(calls) - before)
            return out

        monkeypatch.setattr(batch_mod, "dataset_value_and_grad", counting)
        assert train(data, config).iterations_used == iterations
        return passes, per_pass, n_batches

    def test_theta_only_fit_takes_label_spectra_once(self, rng, monkeypatch):
        passes, per_pass, n_batches = self.fit(rng, monkeypatch,
                                               TRUE_SIMILARITY, 6)
        assert len(passes) == 3 * 6 + 1
        assert sum(per_pass) == n_batches

    def test_weights_fit_takes_them_once_per_new_weight_vector(
            self, rng, monkeypatch):
        passes, per_pass, n_batches = self.fit(rng, monkeypatch, RBF_SIM, 4)
        assert len(passes) == 6 * 4 + 1
        weights = [w.tobytes() for _, _, w in passes]
        new = 1 + sum(a != b for a, b in zip(weights, weights[1:]))
        assert new == 1 + 3 * 4  # three weight steps per iteration
        assert sum(per_pass) == new * n_batches
        # each iteration's first weights pass is at the weights of the
        # recording pass before it, and reuses that pass's factor
        first = [1 + 6 * t + 2 for t in range(4)]
        assert [passes[i][0] for i in first] == ["weights"] * 4
        assert all(weights[i] == weights[i - 1] for i in first)
        assert [per_pass[i] for i in first] == [0] * 4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_converges_on_synthetic_data(seed):
    from dpplearn import SynthConfig, generate_dataset

    data = list(generate_dataset(SynthConfig(seed=seed, n_train=200)).train)
    config = TrainConfig(lam=1.0, rel_tolerance=1e-9)
    result = train(data, config)
    assert result.converged
    assert result.iterations_used < config.max_outer_iterations
