import logging

import numpy as np
import pytest

from conftest import RBF_SIM, make_instance

from dpplearn import (
    TRUE_SIMILARITY,
    GroundSetInstance,
    ModelParams,
    NumericalError,
    ParameterError,
    SimilarityConfig,
    TrainConfig,
    total_objective,
    train,
)
from dpplearn import batch as batch_mod
from dpplearn import learning


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
        # trainer scores by their margin term alone
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
    """Record (theta, weights, value) of every pass train makes."""
    calls = []
    inner = batch_mod.dataset_value_and_grad

    def recording(batches, theta, weights, *args, **kwargs):
        out = inner(batches, theta, weights, *args, **kwargs)
        calls.append((theta.copy(), weights.copy(), out[0]))
        return out

    monkeypatch.setattr(batch_mod, "dataset_value_and_grad", recording)
    return calls


class TestPassSchedule:
    @pytest.mark.parametrize("similarity", [RBF_SIM, TRUE_SIMILARITY])
    def test_fit_makes_at_most_3T_plus_1_passes(self, rng, monkeypatch,
                                                 similarity):
        data = small_dataset(rng)
        for T in (1, 2, 4, 40):
            calls = record_passes(monkeypatch)
            config = TrainConfig(similarity=similarity, lam=1.0,
                                 max_outer_iterations=T, rel_tolerance=1e-15)
            result = train(data, config)
            assert 0 < result.iterations_used < len(calls) <= 3 * T + 1
            # a spent budget is spent to the last pass it allows; the
            # smallest ones run out before the tolerance is met
            if T <= 2:
                assert result.stop_reason == "budget"
            if result.stop_reason == "budget":
                assert len(calls) == 3 * T + 1 and not result.converged
            # one kernel: every pass holds the weight at 1
            if similarity.n_weights == 1:
                assert all(np.array_equal(w, [1.0]) for _, w, _ in calls)
            monkeypatch.undo()

    def test_trace_is_total_objective_at_each_iterate(self, rng, monkeypatch):
        calls = record_passes(monkeypatch)
        data = small_dataset(rng)
        config = TrainConfig(similarity=RBF_SIM, lam=1.0,
                             max_outer_iterations=6, rel_tolerance=1e-15)
        result = train(data, config)
        trace = result.objective_trace
        assert len(trace) == result.iterations_used > 3
        # the accepted iterates are the passes whose values the trace
        # holds, in order; the others are rejected trial points
        accepted = iter(calls[1:])
        iterates = [next(c for c in accepted if c[2] == value) for value in trace]
        for recorded, (theta, weights, _) in zip(trace, iterates):
            expected = total_objective(ModelParams(theta, weights), data, config)
            assert recorded == expected
        assert np.array_equal(result.params.theta, iterates[-1][0])
        assert np.array_equal(result.params.kernel_weights, iterates[-1][1])
        assert calls[0][2] >= trace[0]
        assert np.all(np.diff(trace) <= 0.0)

    def test_failed_trial_points_end_in_no_step(self, rng, monkeypatch):
        # every trial point raises, as one whose qualities overflow does:
        # each fails the Armijo test, and the fit keeps its start
        calls = record_passes(monkeypatch)
        recording = batch_mod.dataset_value_and_grad

        def failing(*args, **kwargs):
            out = recording(*args, **kwargs)
            if len(calls) > 1:
                raise NumericalError("trial point")
            return out

        monkeypatch.setattr(batch_mod, "dataset_value_and_grad", failing)
        data = small_dataset(rng)
        config = TrainConfig(similarity=RBF_SIM, lam=1.0)
        initial = ModelParams(np.zeros(3), np.full(3, 1 / 3))
        result = train(data, config, initial=initial)
        assert result.stop_reason == "no_step" and not result.converged
        assert result.iterations_used == 0
        assert np.array_equal(result.params.theta, initial.theta)
        # the first direction is -g, so no memory to clear: one line search
        assert len(calls) == 1 + learning.MAX_HALVINGS + 1
        steps = [np.linalg.norm(t) for t, _, _ in calls[1:]]
        assert np.allclose(np.array(steps[1:]) / steps[:-1], 0.5)
        monkeypatch.undo()
        assert result.objective_trace == (total_objective(initial, data, config),)


def count_label_factorizations(monkeypatch):
    """Count the label_terms calls, which factor a batch's labels, and the
    label_inverse calls, which build the label inverses from that factor."""
    calls = {"terms": 0, "inverse": 0}
    terms, inverse = batch_mod.label_terms, batch_mod.label_inverse

    def counted_terms(M, *args, **kwargs):
        calls["terms"] += 1
        return terms(M, *args, **kwargs)

    def counted_inverse(factor, keep):
        calls["inverse"] += 1
        return inverse(factor, keep)

    monkeypatch.setattr(batch_mod, "label_terms", counted_terms)
    monkeypatch.setattr(batch_mod, "label_inverse", counted_inverse)
    return calls


class TestLabelSpectraPerWeightVector:
    @staticmethod
    def fit(rng, monkeypatch, similarity):
        """Train on two item counts; return the passes, the label work and
        the number of batches."""
        data = [make_instance(rng, n=n, label_size=int(rng.integers(1, 5)))
                for n in (5, 6, 5, 6, 6, 5, 6, 5)]
        config = TrainConfig(similarity=similarity, lam=1.0,
                             max_outer_iterations=4, rel_tolerance=1e-15)
        n_batches = len(batch_mod.stack_instances(data, similarity))
        assert n_batches == 2
        passes = record_passes(monkeypatch)
        calls = count_label_factorizations(monkeypatch)
        train(data, config)
        return passes, calls, n_batches

    def test_theta_only_fit_takes_label_spectra_once(self, rng, monkeypatch):
        passes, calls, n_batches = self.fit(rng, monkeypatch, TRUE_SIMILARITY)
        assert len(passes) > 1
        assert calls == {"terms": n_batches, "inverse": 0}

    def test_weights_fit_takes_them_once_per_new_weight_vector(
            self, rng, monkeypatch):
        passes, calls, n_batches = self.fit(rng, monkeypatch, RBF_SIM)
        weights = [w.tobytes() for _, w, _ in passes]
        new = 1 + sum(a != b for a, b in zip(weights, weights[1:]))
        assert new > 1
        # every pass wants the weight gradient, and builds the label
        # inverses from the factor its label terms kept
        assert calls == {"terms": new * n_batches,
                         "inverse": len(passes) * n_batches}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_converges_on_synthetic_data(seed):
    from dpplearn import SynthConfig, generate_dataset

    data = list(generate_dataset(SynthConfig(seed=seed, n_train=200)).train)
    config = TrainConfig(lam=1.0, rel_tolerance=1e-9)
    result = train(data, config)
    assert result.converged and result.stop_reason == "tolerance"
    assert result.iterations_used < config.max_outer_iterations
