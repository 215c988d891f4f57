import math

import numpy as np
import pytest

from oracles import generalized_hamming_reference

from dpplearn import (
    MarginalKernel,
    ParameterError,
    precision_recall_fscore,
    softmax_margin_term,
)


def random_pair(rng, n=12):
    a = tuple(np.nonzero(rng.random(n) < 0.4)[0].tolist())
    b = tuple(np.nonzero(rng.random(n) < 0.4)[0].tolist())
    return a, b


def expected_loss(y_star, y, omega, n=12):
    """The trainer's loss-weighted mass for the DPP that always draws ``y``.

    That DPP's marginal kernel is diagonal, 1 on ``y`` and 0 elsewhere, so
    the mass is exactly the weighted Hamming loss of ``y`` against
    ``y_star``; a zero mass reads -inf in the log and 0 here.
    """
    K = MarginalKernel(np.diag(np.isin(np.arange(n), y).astype(float)))
    return math.exp(softmax_margin_term(K, y_star, omega))


class TestHamming:
    """omega = 1: the plain Hamming distance."""

    def test_equal_subsets(self):
        assert expected_loss((1, 2), (1, 2), 1.0) == 0
        assert expected_loss((), (), 1.0) == 0

    def test_one_extra_one_missing(self):
        assert expected_loss((1, 2), (2, 3), 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_all_extras(self):
        assert expected_loss((), (1, 2, 3), 1.0) == pytest.approx(3.0, rel=1e-15)

    def test_symmetric(self, rng):
        for _ in range(200):
            a, b = random_pair(rng)
            assert expected_loss(a, b, 1.0) == expected_loss(b, a, 1.0)

    def test_zero_iff_equal(self, rng):
        for _ in range(200):
            a, b = random_pair(rng)
            assert (expected_loss(a, b, 1.0) == 0) == (set(a) == set(b))


class TestGeneralizedHamming:
    def test_reduces_to_hamming_at_omega_one(self, rng):
        for _ in range(10_000):
            a, b = random_pair(rng)
            assert expected_loss(a, b, 1.0) == pytest.approx(
                len(set(a) ^ set(b)), rel=1e-14)

    def test_weighted_miss(self):
        assert expected_loss((1, 2), (2, 3), 2.0) == pytest.approx(3.0, rel=1e-15)

    def test_identity_with_large_omega(self):
        assert expected_loss((1,), (1,), 64.0) == 0.0

    def test_asymmetric_witness(self):
        # one miss vs one extra swap roles under omega != 1
        assert expected_loss((1,), (), 2.0) == pytest.approx(2.0, rel=1e-15)
        assert expected_loss((), (1,), 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_matches_reference(self, rng):
        for _ in range(300):
            a, b = random_pair(rng)
            omega = float(rng.choice([0.25, 0.5, 2.0, 8.0]))
            assert expected_loss(a, b, omega) == pytest.approx(
                generalized_hamming_reference(a, b, omega), abs=1e-12
            )

    def test_rejects_nonpositive_omega(self):
        K = MarginalKernel(np.eye(3))
        with pytest.raises(ParameterError):
            softmax_margin_term(K, (1,), 0.0)


class TestPrf:
    def test_perfect_match(self):
        assert precision_recall_fscore((1, 2), (1, 2)) == (1.0, 1.0, 1.0)

    def test_half_precision_full_recall(self):
        p, r, f = precision_recall_fscore((1, 2, 3, 4), (1, 2))
        assert (p, r) == (0.5, 1.0)
        assert f == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_disjoint_nonempty(self):
        assert precision_recall_fscore((1,), (2,)) == (0.0, 0.0, 0.0)

    def test_empty_conventions(self):
        assert precision_recall_fscore((), ()) == (1.0, 1.0, 1.0)
        assert precision_recall_fscore((), (1,)) == (0.0, 0.0, 0.0)
        assert precision_recall_fscore((1,), ()) == (0.0, 0.0, 0.0)

    def test_equal_sizes_collapse_metrics(self, rng):
        for _ in range(300):
            n = 10
            size = int(rng.integers(1, 6))
            a = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            b = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            p, r, f = precision_recall_fscore(a, b)
            assert p == r == pytest.approx(f, abs=1e-12)

    def test_fscore_between_p_and_r(self, rng):
        for _ in range(300):
            a, b = random_pair(rng)
            p, r, f = precision_recall_fscore(a, b)
            assert f <= min(1.0, 2.0 * min(p, r)) + 1e-12
            if p > 0 and r > 0:
                assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12
