import math

import numpy as np
import pytest

from conftest import RBF_SIM, make_instance, make_kernel
from oracles import (
    entrywise_fd_matrix_gradient,
    log_probability_reference,
    loss_weighted_mass,
    project_simplex_reference,
    project_to_simplex,
)

from dpplearn import (
    DegenerateLabelError,
    EnsembleKernel,
    GroundSetInstance,
    ModelParams,
    NumericalError,
    ParameterError,
    SimilarityConfig,
    TrainConfig,
    build_kernel,
    chain_L_to_params,
    finite_difference_check,
    grad_loglik_wrt_L,
    grad_margin_wrt_L,
    instance_objective,
    log_probability,
    marginal_kernel_from_L,
    softmax_margin_term,
    total_objective,
)
from dpplearn.learning import FiniteDifferenceReport


def hinge_active_case(rng, n=6, lam=1.0, omega=2.0):
    """Random instance + params with a comfortably positive hinge bracket."""
    config = TrainConfig(similarity=RBF_SIM, lam=lam, omega=omega)
    while True:
        inst = make_instance(rng, n=n)
        theta = 0.5 * rng.standard_normal(3)
        weights = project_to_simplex(rng.random(3) + 0.2)
        params = ModelParams(theta, weights)
        if instance_objective(params, inst, config) > 0.05:
            return inst, params, config


class TestSoftmaxMarginTerm:
    def test_half_marginals(self):
        K = marginal_kernel_from_L(EnsembleKernel.from_matrix(np.eye(2)))
        assert softmax_margin_term(K, (0,), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_full_ground_set(self, rng):
        L = make_kernel(rng, 5)
        K = marginal_kernel_from_L(L)
        omega = 3.0
        expected = math.log(omega * (5 - np.trace(K.matrix)))
        assert softmax_margin_term(K, tuple(range(5)), omega) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("omega", [0.25, 1.0, 2.0, 4.0])
    def test_matches_brute_force_mass(self, rng, omega):
        for n in (2, 4, 6, 8):
            L = make_kernel(rng, n)
            K = marginal_kernel_from_L(L)
            y = tuple(sorted(rng.choice(n, size=n // 2, replace=False).tolist()))
            got = math.exp(softmax_margin_term(K, y, omega))
            want = loss_weighted_mass(np.asarray(L.matrix), y, omega)
            assert got == pytest.approx(want, rel=1e-8)


class TestObjectives:
    def test_lambda_zero_equals_negative_loglik(self, rng):
        config = TrainConfig(similarity=RBF_SIM, lam=0.0)
        for _ in range(20):
            inst = make_instance(rng)
            params = ModelParams(0.4 * rng.standard_normal(3),
                                 project_to_simplex(rng.random(3)))
            L = build_kernel(inst, params, RBF_SIM)
            assert instance_objective(params, inst, config) == pytest.approx(
                -log_probability(L, inst.label), abs=1e-12
            )

    def test_hinge_floor(self, rng):
        # a single confident item: margin satisfied, objective clamps to 0
        inst = make_instance(rng, n=1, label_size=1, feature_scale=1.0)
        config = TrainConfig(similarity=RBF_SIM, lam=4.0)
        theta = np.array([2.0, 0.0, 0.0])
        x = inst.quality_features[0]
        if x[0] < 0:
            theta = -theta
        params = ModelParams(theta, project_to_simplex(np.ones(3)))
        assert instance_objective(params, inst, config) == 0.0

    def test_composed_oracle(self, rng):
        config = TrainConfig(similarity=RBF_SIM, lam=1.0, omega=1.0)
        inst, params, config = hinge_active_case(rng, n=6, lam=1.0, omega=1.0)
        L = build_kernel(inst, params, RBF_SIM)
        ll = log_probability_reference(np.asarray(L.matrix), inst.label)
        mass = loss_weighted_mass(np.asarray(L.matrix), inst.label, 1.0)
        expected = max(0.0, -ll + math.log(mass))
        assert instance_objective(params, inst, config) == pytest.approx(
            expected, rel=1e-9
        )

    def test_total_objective_additivity(self, rng):
        config = TrainConfig(similarity=RBF_SIM, lam=0.5)
        inst = make_instance(rng)
        params = ModelParams(np.zeros(3), project_to_simplex(np.ones(3)))
        single = instance_objective(params, inst, config)
        assert total_objective(params, [], config) == 0.0
        assert total_objective(params, [inst], config) == pytest.approx(single)
        assert total_objective(params, [inst, inst], config) == pytest.approx(
            2.0 * single
        )

    def test_unlabeled_instance_rejected(self, rng):
        inst = make_instance(rng)
        unlabeled = type(inst)(inst.quality_features, inst.similarity_features)
        config = TrainConfig(similarity=RBF_SIM)
        with pytest.raises(ParameterError):
            instance_objective(
                ModelParams(np.zeros(3), project_to_simplex(np.ones(3))),
                unlabeled, config,
            )


class TestGradLoglik:
    def test_identity_closed_form(self):
        L = EnsembleKernel.from_matrix(np.eye(4))
        g = grad_loglik_wrt_L(L, (0,))
        expected = np.diag([1.0, 0.0, 0.0, 0.0]) - 0.5 * np.eye(4)
        assert np.allclose(g, expected, atol=1e-12)

    def test_empty_label(self, rng):
        L = make_kernel(rng, 4)
        g = grad_loglik_wrt_L(L, ())
        assert np.allclose(g, -np.linalg.inv(L.matrix + np.eye(4)), atol=1e-10)

    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            L = make_kernel(rng, 5)
            y = tuple(sorted(rng.choice(5, size=3, replace=False).tolist()))
            analytic = grad_loglik_wrt_L(L, y)
            numeric = entrywise_fd_matrix_gradient(
                lambda M: log_probability_reference(M, y), np.array(L.matrix)
            )
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-5

    def test_singular_label_raises(self):
        L = EnsembleKernel.from_matrix(np.ones((3, 3)))
        with pytest.raises(DegenerateLabelError):
            grad_loglik_wrt_L(L, (0, 1))


class TestGradMargin:
    def test_identity_closed_form(self):
        L = EnsembleKernel.from_matrix(np.eye(2))
        K = marginal_kernel_from_L(L)
        g = grad_margin_wrt_L(L, K, (0, 1), 1.0)
        assert np.allclose(g, -0.25 * np.eye(2), atol=1e-12)

    def test_omega_scaling_cancels_on_full_set(self, rng):
        L = make_kernel(rng, 4)
        K = marginal_kernel_from_L(L)
        y = (0, 1, 2, 3)
        g1 = grad_margin_wrt_L(L, K, y, 2.0)
        g2 = grad_margin_wrt_L(L, K, y, 4.0)
        assert np.allclose(g1, g2, atol=1e-12)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 3.0])
    def test_matches_finite_differences(self, rng, omega):
        for _ in range(3):
            L = make_kernel(rng, 5)
            y = tuple(sorted(rng.choice(5, size=2, replace=False).tolist()))
            analytic = grad_margin_wrt_L(L, marginal_kernel_from_L(L), y, omega)

            def term(M):
                return math.log(loss_weighted_mass(M, y, omega))

            numeric = entrywise_fd_matrix_gradient(term, np.array(L.matrix))
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


class TestMarginalDiagonalGradient:
    def test_entrywise_identity(self, rng):
        # dK_ii/dL_mn = B_mi * B_ni with B = (L+I)^{-1}, entry by entry;
        # 2e-10 is the absolute resolution limit of central differences here
        L = make_kernel(rng, 4)
        B = np.linalg.inv(L.matrix + np.eye(4))
        for i in range(4):
            analytic = np.outer(B[:, i], B[:, i])

            def kii(M):
                return (M @ np.linalg.inv(M + np.eye(4)))[i, i]

            numeric = entrywise_fd_matrix_gradient(kii, np.array(L.matrix))
            assert np.allclose(analytic, numeric, rtol=1e-5, atol=2e-10)


class TestChainRule:
    def test_zero_upstream(self, rng):
        inst = make_instance(rng)
        params = ModelParams(np.zeros(3), project_to_simplex(np.ones(3)))
        gt, gw = chain_L_to_params(inst, params, RBF_SIM, np.zeros((6, 6)))
        assert not gt.any() and not gw.any()

    def test_single_item_theta_gradient(self, rng):
        inst = make_instance(rng, n=1, label_size=1)
        params = ModelParams(np.zeros(3), project_to_simplex(np.ones(3)))
        L = build_kernel(inst, params, RBF_SIM)
        gt, _ = chain_L_to_params(inst, params, RBF_SIM, np.ones((1, 1)))
        expected = L.matrix[0, 0] * 2.0 * inst.quality_features[0]
        assert np.allclose(gt, expected, atol=1e-12)

    def test_full_parameter_gradient_matches_fd(self, rng):
        inst, params, config = hinge_active_case(rng)
        d = params.theta.size

        def f(v):
            return instance_objective(ModelParams(v[:d], v[d:]), inst, config)

        def grad(v):
            p = ModelParams(v[:d], v[d:])
            L = build_kernel(inst, p, config.similarity)
            K = marginal_kernel_from_L(L)
            U = -grad_loglik_wrt_L(L, inst.label) + config.lam * grad_margin_wrt_L(
                L, K, inst.label, config.omega
            )
            gt, gw = chain_L_to_params(inst, p, config.similarity, U)
            return np.concatenate([gt, gw])

        v0 = np.concatenate([params.theta, params.kernel_weights])
        report = finite_difference_check(f, grad, v0)
        assert report.max_rel_error < 1e-5


class TestProjectToSimplex:
    def test_fixed_point(self):
        v = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_to_simplex(v), v, atol=1e-15)

    def test_uniform_shift(self):
        assert np.allclose(project_to_simplex([0.5, 0.7]), [0.4, 0.6], atol=1e-12)

    def test_feasible_and_idempotent(self, rng):
        for _ in range(200):
            v = 4.0 * rng.standard_normal(int(rng.integers(1, 8)))
            p = project_to_simplex(v)
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.allclose(project_to_simplex(p), p, atol=1e-12)

    def test_matches_qp_oracle(self, rng):
        for _ in range(25):
            v = 3.0 * rng.standard_normal(int(rng.integers(2, 7)))
            assert np.max(np.abs(project_to_simplex(v) -
                                 project_simplex_reference(v))) < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            project_to_simplex([])


class TestFiniteDifferenceCheck:
    def test_quadratic_calibration(self, rng):
        x0 = rng.standard_normal(4)
        report = finite_difference_check(
            lambda v: float(v @ v), lambda v: 2.0 * v, x0
        )
        assert isinstance(report, FiniteDifferenceReport)
        assert report.max_rel_error < 1e-8

    def test_zero_gradient_case(self):
        report = finite_difference_check(lambda v: 1.0, lambda v: np.zeros(3),
                                         np.ones(3))
        assert report.max_rel_error == 0.0

    def test_nonfinite_objective_rejected(self):
        with pytest.raises(NumericalError):
            finite_difference_check(
                lambda v: math.inf, lambda v: np.zeros(2), np.zeros(2)
            )

    def test_hinge_inactive_instance_has_zero_subgradient(self, rng):
        # margin satisfied: objective is 0 in a neighborhood, and the hinge
        # subgradient (0 at the floor) matches the finite differences
        x = np.array([[1.0, 0.5]])
        inst = GroundSetInstance(x, x, label=(0,))
        sim = SimilarityConfig(bandwidths=(1.0,), include_linear=False)
        config = TrainConfig(similarity=sim, lam=2.0)
        theta0 = np.array([2.0, 1.0])

        def f(v):
            return instance_objective(ModelParams(v[:2], v[2:]), inst, config)

        v0 = np.concatenate([theta0, [1.0]])
        assert f(v0) == 0.0
        report = finite_difference_check(f, lambda v: np.zeros(3), v0)
        assert report.max_rel_error == 0.0
