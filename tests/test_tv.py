"""Tests for total-variation utilities (repro.markov.tv)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.markov.tv import (
    is_distribution,
    normalize_distribution,
    total_variation,
    total_variation_to_reference,
)


class TestDistributionHelpers:
    def test_is_distribution(self):
        assert is_distribution(np.array([0.5, 0.5]))
        assert is_distribution(np.array([1.0]))
        assert not is_distribution(np.array([0.5, 0.6]))
        assert not is_distribution(np.array([-0.1, 1.1]))
        assert not is_distribution(np.array([[0.5, 0.5]]))

    def test_normalize(self):
        np.testing.assert_allclose(normalize_distribution([1, 3]), [0.25, 0.75])

    def test_normalize_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize_distribution([-1.0, 2.0])

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize_distribution([0.0, 0.0])


class TestTotalVariation:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert total_variation(p, p) == 0.0

    def test_disjoint_support(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert total_variation(p, q) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        p = normalize_distribution(rng.random(6))
        q = normalize_distribution(rng.random(6))
        assert total_variation(p, q) == pytest.approx(total_variation(q, p))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        p = normalize_distribution(rng.random(5))
        q = normalize_distribution(rng.random(5))
        r = normalize_distribution(rng.random(5))
        assert total_variation(p, r) <= total_variation(p, q) + total_variation(q, r) + 1e-12

    def test_known_value(self):
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.25, 0.25, 0.5])
        assert total_variation(p, q) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            total_variation(np.array([1.0]), np.array([0.5, 0.5]))


class TestRowwiseTV:
    def test_matches_scalar(self):
        rng = np.random.default_rng(2)
        rows = np.stack([normalize_distribution(rng.random(4)) for _ in range(3)])
        ref = normalize_distribution(rng.random(4))
        batch = total_variation_to_reference(rows, ref)
        for k in range(3):
            assert batch[k] == pytest.approx(total_variation(rows[k], ref))

    def test_single_row_input(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        out = total_variation_to_reference(p, q)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            total_variation_to_reference(np.ones((2, 3)) / 3, np.array([0.5, 0.5]))
