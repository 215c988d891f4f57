import math

import numpy as np
import pytest

from conftest import RBF_SIM, make_instance, make_kernel
from oracles import enumerate_probabilities, gram_references, superset_sum

from dpplearn import (
    EnsembleKernel,
    GroundSetInstance,
    ModelParams,
    NotPositiveSemidefiniteError,
    NumericalError,
    ParameterError,
    SimilarityConfig,
    as_subset,
    build_kernel,
    log_probability,
    marginal_kernel_from_L,
    subset_marginal,
)
from dpplearn.kernel import gram_stack, kernel_stack, quality_stack, similarity_stack


class TestSubset:
    def test_normalizes_and_sorts(self):
        assert as_subset([3, 1, 2]) == (1, 2, 3)
        assert as_subset(()) == ()

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(ParameterError):
            as_subset([1, 1])
        with pytest.raises(ParameterError):
            as_subset([-1])
        with pytest.raises(ParameterError):
            as_subset([5], n_items=5)


class TestInstanceValidation:
    def test_mismatched_item_counts(self):
        with pytest.raises(ParameterError):
            GroundSetInstance(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_label_checked_against_ground_set(self):
        with pytest.raises(ParameterError):
            GroundSetInstance(np.zeros((3, 2)), np.zeros((3, 2)), label=(0, 3))


def similarity_matrix(instance, config, weights):
    """S of one ground set: the stack functions on a stack of one."""
    grams = gram_stack(instance.similarity_features[None], config)
    return similarity_stack(grams, np.asarray(weights, dtype=float))[0]


def kernel_of(q, S):
    """The EnsembleKernel of L = diag(q) S diag(q)."""
    return EnsembleKernel.from_matrix(
        kernel_stack(np.asarray(q, dtype=float)[None], np.asarray(S, dtype=float)[None])[0])


class TestSimilarityMatrix:
    def test_identical_items_rbf_only(self):
        phi = np.tile([1.0, 2.0], (3, 1))
        inst = GroundSetInstance(np.zeros((3, 1)), phi)
        cfg = SimilarityConfig(bandwidths=(0.5, 3.0), include_linear=False)
        S = similarity_matrix(inst, cfg, [0.25, 0.75])
        assert np.allclose(S, 1.0)

    def test_orthogonal_linear_term(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        inst = GroundSetInstance(np.zeros((2, 1)), phi)
        cfg = SimilarityConfig(bandwidths=(), include_linear=True)
        S = similarity_matrix(inst, cfg, [1.0])
        assert S[0, 1] == 0.0

    def test_single_rbf_value(self):
        phi = np.array([[0.0, 0.0], [1.0, 0.0]])
        inst = GroundSetInstance(np.zeros((2, 1)), phi)
        cfg = SimilarityConfig(bandwidths=(1.0,), include_linear=False)
        S = similarity_matrix(inst, cfg, [1.0])
        assert S[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_off_simplex_weights_rejected(self):
        inst = make_instance(np.random.default_rng(0))
        theta = np.zeros(inst.quality_features.shape[1])
        with pytest.raises(ParameterError):
            ModelParams(theta, [0.5, 0.7, 0.1])
        with pytest.raises(ParameterError):  # wrong length
            build_kernel(inst, ModelParams(theta, [0.5, 0.5]), RBF_SIM)

    def test_symmetric_and_psd_without_linear(self, rng):
        inst = make_instance(rng, n=7)
        cfg = SimilarityConfig(bandwidths=(0.5, 1.5, 4.0), include_linear=False)
        S = similarity_matrix(inst, cfg, [0.2, 0.3, 0.5])
        assert np.array_equal(S, S.T)
        assert np.linalg.eigvalsh(S).min() > -1e-10


class TestQualityVector:
    def test_zero_theta_gives_unit_quality(self, rng):
        inst = make_instance(rng)
        assert np.array_equal(quality_stack(inst.quality_features, np.zeros(3)), np.ones(6))

    def test_known_values(self):
        x = np.array([[math.log(2.0), 5.0], [-1.0, 1.0]])
        q = quality_stack(x, np.array([1.0, 0.0]))
        assert q[0] == pytest.approx(2.0, rel=1e-12)
        q = quality_stack(x, np.array([1.0, 1.0]))
        assert q[1] == pytest.approx(1.0, rel=1e-12)

    def test_strictly_positive(self, rng):
        inst = make_instance(rng, feature_scale=3.0)
        assert quality_stack(inst.quality_features, rng.standard_normal(3)).min() > 0

    def test_dimension_mismatch(self, rng):
        inst = make_instance(rng)
        with pytest.raises(ParameterError, match="theta has dimension 5"):
            build_kernel(inst, ModelParams(np.zeros(5), [0.5, 0.3, 0.2]), RBF_SIM)


class TestAssembleL:
    """L = diag(q) S diag(q) by kernel_stack, decomposed by from_matrix."""

    def test_identity_case(self):
        L = kernel_of(np.ones(3), np.eye(3))
        assert np.allclose(L.matrix, np.eye(3))
        assert np.allclose(L.eigenvalues, 1.0)

    def test_diagonal_scaling(self):
        L = kernel_of([2.0, 3.0], np.eye(2))
        assert np.allclose(L.matrix, np.diag([4.0, 9.0]))

    def test_rank_one_eigenvalues(self):
        L = kernel_of(np.ones(2), np.ones((2, 2)))
        assert np.allclose(sorted(L.eigenvalues), [0.0, 2.0], atol=1e-12)

    def test_rejects_asymmetric_similarity(self):
        with pytest.raises(ParameterError):
            kernel_of(np.ones(2), [[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite_similarity(self):
        S = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(NotPositiveSemidefiniteError):
            kernel_of(np.ones(2), S)

    def test_clamps_rounding_noise(self):
        S = np.ones((2, 2)) - 1e-8 * np.eye(2)  # eigenvalue ~ -1e-8
        L = kernel_of(np.ones(2), S)
        assert L.eigenvalues.min() == 0.0

    def test_symmetry_and_reconstruction(self, rng):
        inst = make_instance(rng, n=8)
        L = build_kernel(inst, ModelParams(rng.standard_normal(3), [0.3, 0.3, 0.4]),
                         RBF_SIM)
        assert np.max(np.abs(L.matrix - L.matrix.T)) <= 1e-10
        recon = (L.eigenvectors * L.eigenvalues) @ L.eigenvectors.T
        assert np.max(np.abs(recon - L.matrix)) <= 1e-8


class TestMarginalKernel:
    def test_scalar_case(self):
        K = marginal_kernel_from_L(EnsembleKernel.from_matrix(np.array([[1.0]])))
        assert K.matrix[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_kernel(self):
        K = marginal_kernel_from_L(EnsembleKernel.from_matrix(np.zeros((3, 3))))
        assert np.allclose(K.matrix, 0.0)

    def test_scaled_identity(self):
        K = marginal_kernel_from_L(EnsembleKernel.from_matrix(3.0 * np.eye(2)))
        assert np.allclose(K.matrix, 0.75 * np.eye(2))

    def test_matches_direct_solve(self, rng):
        L = make_kernel(rng, 6)
        K = marginal_kernel_from_L(L)
        direct = L.matrix @ np.linalg.inv(L.matrix + np.eye(6))
        assert np.max(np.abs(K.matrix - direct)) <= 1e-8

    def test_spectral_map(self, rng):
        for _ in range(5):
            L = make_kernel(rng, 7)
            K = marginal_kernel_from_L(L)
            expected = np.sort(L.eigenvalues / (L.eigenvalues + 1.0))
            got = np.sort(np.linalg.eigvalsh(K.matrix))
            assert np.max(np.abs(expected - got)) <= 1e-8
            assert got.min() >= -1e-12 and got.max() < 1.0

    def test_diagonal_is_marginal_probability(self, rng):
        L = make_kernel(rng, 5)
        K = marginal_kernel_from_L(L)
        probs = enumerate_probabilities(np.asarray(L.matrix))
        for i in range(5):
            assert K.matrix[i, i] == pytest.approx(
                superset_sum(probs, (i,)), abs=1e-9
            )


class TestLogProbability:
    def test_identity_kernel(self):
        L = EnsembleKernel.from_matrix(np.eye(4))
        for y in [(), (1,), (0, 2), (0, 1, 2, 3)]:
            assert log_probability(L, y) == pytest.approx(
                -4.0 * math.log(2.0), abs=1e-12
            )

    def test_diagonal_kernel(self):
        L = EnsembleKernel.from_matrix(np.diag([1.0, 3.0]))
        assert log_probability(L, (1,)) == pytest.approx(
            math.log(3.0) - math.log(8.0), abs=1e-12
        )

    def test_singular_submatrix_returns_neg_inf(self):
        L = EnsembleKernel.from_matrix(np.ones((3, 3)))  # rank one
        assert log_probability(L, (0, 1)) == -math.inf

    def test_normalization_over_all_subsets(self, rng):
        from oracles import all_subsets

        L = make_kernel(rng, 4)
        total = sum(math.exp(log_probability(L, y)) for y in all_subsets(4))
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_normalization_invariant(self, rng, n):
        from oracles import all_subsets

        for _ in range(3):
            L = make_kernel(rng, n)
            total = sum(math.exp(log_probability(L, y)) for y in all_subsets(n))
            assert total == pytest.approx(1.0, abs=1e-8)


class TestSubsetMarginal:
    def test_empty_subset(self, rng):
        assert subset_marginal(marginal_kernel_from_L(make_kernel(rng, 4)), ()) == 1.0

    def test_duplicate_items_never_cooccur(self):
        phi = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # items 0, 1 identical
        inst = GroundSetInstance(np.zeros((3, 1)), phi)
        cfg = SimilarityConfig(bandwidths=(1.0,), include_linear=False)
        K = marginal_kernel_from_L(build_kernel(inst, ModelParams(np.zeros(1), [1.0]), cfg))
        assert K.matrix[0, 0] == pytest.approx(K.matrix[0, 1], abs=1e-12)
        assert subset_marginal(K, (0, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_superset_sum(self, rng):
        from oracles import all_subsets

        L = make_kernel(rng, 5)
        K = marginal_kernel_from_L(L)
        probs = enumerate_probabilities(np.asarray(L.matrix))
        for y in all_subsets(5):
            assert subset_marginal(K, y) == pytest.approx(
                superset_sum(probs, y), abs=1e-9
            )

    def test_pairwise_repulsion(self, rng):
        for _ in range(5):
            K = marginal_kernel_from_L(make_kernel(rng, 6))
            for i in range(6):
                for j in range(i + 1, 6):
                    pair = subset_marginal(K, (i, j))
                    assert pair <= min(K.matrix[i, i], K.matrix[j, j]) + 1e-12


def test_kernel_weight_layout(rng):
    # weights are ordered (alpha_1, ..., alpha_K[, beta]): RBFs in
    # bandwidth order, then the linear kernel.  At theta = 0 every quality
    # is 1, so L is the weighted similarity itself.
    inst = make_instance(rng)
    phi = np.asarray(inst.similarity_features)
    sq = np.sum((phi[:, None] - phi[None]) ** 2, axis=-1)
    theta = np.zeros(inst.quality_features.shape[1])

    def L_of(weights, similarity):
        return build_kernel(inst, ModelParams(theta, weights), similarity).matrix

    with_linear = SimilarityConfig(bandwidths=(1.0, 2.0), include_linear=True)
    for w, want in (([1.0, 0.0, 0.0], np.exp(-sq)),
                    ([0.0, 1.0, 0.0], np.exp(-sq / 4.0)),
                    ([0.0, 0.0, 1.0], phi @ phi.T)):
        assert np.allclose(L_of(w, with_linear), want, atol=1e-12)
    rbf_only = SimilarityConfig(bandwidths=(1.0, 2.0), include_linear=False)
    assert np.allclose(L_of([0.4, 0.6], rbf_only),
                       0.4 * np.exp(-sq) + 0.6 * np.exp(-sq / 4.0), atol=1e-12)
    with pytest.raises(ParameterError):
        L_of([1.0], with_linear)


def test_kernel_arrays_are_readonly(rng):
    L = make_kernel(rng, 4)
    with pytest.raises(ValueError):
        L.matrix[0, 0] = 5.0
    inst = make_instance(rng)
    with pytest.raises(ValueError):
        inst.quality_features[0, 0] = 1.0


def test_eigenvalue_error_scales_with_spectrum():
    # noise of 1e-7 relative to a 1e7 spectrum must not be rejected
    base = random_psd_factory()
    evals = np.array([1e7, 5.0, -0.5e-6])
    L = base(evals)
    kernel = EnsembleKernel.from_matrix(L)
    assert kernel.eigenvalues.min() == 0.0


@pytest.mark.parametrize("entries, value, named", [
    ([(0, 1), (1, 0)], np.nan, r"entries at \(0, 1\), \(1, 0\)$"),
    ([(2, 2)], np.inf, r"entries at \(2, 2\)$"),
    ([(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)], -np.inf,
     r"entries at \(0, 0\), \(0, 2\), \(1, 1\), \(2, 0\), \.\.\.$"),
], ids=["nan", "inf-diagonal", "many"])
def test_from_matrix_rejects_non_finite_entries(entries, value, named):
    # eigh of such a matrix gives nan eigenvalues, which no PSD test catches
    L = np.eye(3)
    for ij in entries:
        L[ij] = value
    with pytest.raises(NumericalError, match=named):
        EnsembleKernel.from_matrix(L)


def test_from_matrix_eigh_failure_is_numerical_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match="did not converge"):
        EnsembleKernel.from_matrix(np.eye(3))


def random_psd_factory():
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))

    def build(evals):
        return (Q * evals) @ Q.T

    return build


def _per_set_grams(phi, config):
    """The base Grams of one ground set, by the per-set formulas that
    gram_stack once applied in a loop over the ground sets of a split."""
    n = phi.shape[0]
    grams = np.empty((config.n_weights, n, n))
    if config.bandwidths:
        sq = np.sum(phi**2, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (phi @ phi.T)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2, 0.0)
        for k, sigma in enumerate(config.bandwidths):
            np.exp(-d2 / sigma**2, out=grams[k])
    if config.include_linear:
        np.matmul(phi, phi.T, out=grams[-1])
    return grams


@pytest.mark.parametrize("config", [
    SimilarityConfig(bandwidths=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0), include_linear=False),
    SimilarityConfig(bandwidths=(), include_linear=True),
    RBF_SIM,
], ids=["rbf-bank", "linear", "rbf-and-linear"])
@pytest.mark.parametrize("N", [1, 10, 17])
def test_gram_stack_on_a_stacked_split(config, N):
    rng = np.random.default_rng(N)
    phi = rng.standard_normal((30, N, 5))
    phi[3, 1:] = phi[3, 0]  # one ground set of identical items
    grams = gram_stack(phi, config)
    assert grams.shape == (config.n_weights, 30, N, N)
    for row, p in enumerate(phi):
        ref = np.stack(gram_references(p, config))
        assert np.max(np.abs(grams[:, row] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        assert np.array_equal(grams[:, row], _per_set_grams(p, config))
        assert np.array_equal(gram_stack(p[None], config)[:, 0], grams[:, row])
