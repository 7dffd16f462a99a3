"""Tests for the profile-space machinery (repro.games.space)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.games.space import ProfileSpace

from conftest import hamming_distance


class TestConstruction:
    def test_basic_properties(self):
        space = ProfileSpace((2, 3, 2))
        assert space.num_players == 3
        assert space.size == 12
        assert space.max_strategies == 3
        assert space.num_strategies == (2, 3, 2)

    def test_single_player(self):
        space = ProfileSpace((4,))
        assert space.num_players == 1
        assert space.size == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ProfileSpace(())

    def test_rejects_zero_strategies(self):
        with pytest.raises(ValueError):
            ProfileSpace((2, 0, 2))

    def test_len_matches_size(self):
        space = ProfileSpace((2, 2, 2))
        assert len(space) == space.size == 8


class TestEncodeDecode:
    def test_roundtrip_all_profiles(self):
        space = ProfileSpace((2, 3, 4))
        for idx in range(space.size):
            assert space.encode(space.decode(idx)) == idx

    def test_encode_zero_profile(self):
        space = ProfileSpace((3, 3))
        assert space.encode((0, 0)) == 0

    def test_encode_rejects_wrong_length(self):
        space = ProfileSpace((2, 2))
        with pytest.raises(ValueError):
            space.encode((0, 1, 0))

    def test_encode_rejects_out_of_range_strategy(self):
        space = ProfileSpace((2, 2))
        with pytest.raises(ValueError):
            space.encode((0, 2))

    def test_decode_rejects_out_of_range_index(self):
        space = ProfileSpace((2, 2))
        with pytest.raises(ValueError):
            space.decode(4)

    def test_encode_many_matches_scalar(self):
        space = ProfileSpace((2, 3, 2))
        profiles = space.all_profiles()
        indices = space.encode_many(profiles)
        np.testing.assert_array_equal(indices, np.arange(space.size))

    def test_decode_many_matches_scalar(self):
        space = ProfileSpace((3, 2))
        many = space.decode_many(np.arange(space.size))
        for idx in range(space.size):
            np.testing.assert_array_equal(many[idx], space.decode(idx))

    def test_all_profiles_unique(self):
        space = ProfileSpace((2, 2, 3))
        profiles = space.all_profiles()
        assert len({tuple(row) for row in profiles}) == space.size

    def test_iteration_yields_all(self):
        space = ProfileSpace((2, 2))
        assert list(space) == [(0, 0), (1, 0), (0, 1), (1, 1)]


class TestCoordinateSurgery:
    def test_strategy_of_scalar(self):
        space = ProfileSpace((2, 3, 2))
        idx = space.encode((1, 2, 0))
        assert space.strategy_of(idx, 0) == 1
        assert space.strategy_of(idx, 1) == 2
        assert space.strategy_of(idx, 2) == 0

    def test_strategy_of_vectorised(self):
        space = ProfileSpace((2, 3))
        idx = np.arange(space.size)
        strategies = space.strategy_of(idx, 1)
        expected = np.array([space.decode(i)[1] for i in range(space.size)])
        np.testing.assert_array_equal(strategies, expected)

    def test_replace_changes_only_target_player(self):
        space = ProfileSpace((2, 3, 2))
        idx = space.encode((1, 1, 1))
        new = space.replace(idx, 1, 2)
        assert space.decode(new) == (1, 2, 1)

    def test_replace_identity(self):
        space = ProfileSpace((2, 2))
        idx = space.encode((1, 0))
        assert space.replace(idx, 0, 1) == idx

    def test_replace_rejects_bad_strategy(self):
        space = ProfileSpace((2, 2))
        with pytest.raises(ValueError):
            space.replace(0, 0, 5)

    def test_replace_rejects_bad_player(self):
        space = ProfileSpace((2, 2))
        with pytest.raises(ValueError):
            space.replace(0, 7, 0)

    def test_replace_many_matches_scalar(self):
        space = ProfileSpace((2, 3, 2))
        indices = np.arange(space.size)
        replaced = space.set_strategy_many(indices, 1, np.full(space.size, 2))
        expected = np.array([space.replace(i, 1, 2) for i in range(space.size)])
        np.testing.assert_array_equal(replaced, expected)

    def test_deviations_contains_self(self):
        space = ProfileSpace((2, 3))
        idx = space.encode((1, 2))
        devs = space.deviations(idx, 1)
        assert devs.shape == (3,)
        assert devs[2] == idx

    def test_deviations_vary_only_one_player(self):
        space = ProfileSpace((2, 3, 2))
        idx = space.encode((1, 1, 0))
        devs = space.deviations(idx, 1)
        for s, d in enumerate(devs):
            prof = space.decode(int(d))
            assert prof[1] == s
            assert prof[0] == 1 and prof[2] == 0

    def test_deviation_matrix_matches_rowwise(self):
        space = ProfileSpace((2, 3))
        matrix = space.deviation_matrix(1)
        for x in range(space.size):
            np.testing.assert_array_equal(matrix[x], space.deviations(x, 1))


class TestHammingStructure:
    def test_hamming_distance_basic(self):
        assert hamming_distance((0, 1, 1), (0, 0, 1)) == 1
        assert hamming_distance((0, 0), (1, 1)) == 2
        assert hamming_distance((2, 2), (2, 2)) == 0

    def test_hamming_distance_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance((0, 1), (0, 1, 1))

    def test_neighbors_at_distance_one(self):
        space = ProfileSpace((2, 2, 2))
        idx = space.encode((0, 1, 0))
        for nb in space.neighbors(idx):
            assert hamming_distance(space.decode(idx), space.decode(int(nb))) == 1

    def test_neighbor_count_binary(self):
        space = ProfileSpace((2, 2, 2, 2))
        assert space.neighbors(0).size == 4

    def test_neighbor_count_mixed(self):
        space = ProfileSpace((2, 3, 4))
        # (m_i - 1) summed = 1 + 2 + 3 = 6
        assert space.neighbors(0).size == 6

    def test_hamming_edges_count(self):
        space = ProfileSpace((2, 2, 2))
        edges = space.hamming_edges()
        # hypercube Q3 has 12 edges
        assert edges.shape == (12, 2)
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_hamming_edges_are_distance_one(self):
        space = ProfileSpace((2, 3))
        for u, v in space.hamming_edges():
            assert hamming_distance(space.decode(int(u)), space.decode(int(v))) == 1

    def test_weight_counts_ones(self):
        space = ProfileSpace((2, 2, 2))
        idx = space.encode((1, 0, 1))
        assert space.weight(idx) == 2
        weights = space.weight(np.arange(space.size))
        assert weights.sum() == 12  # each of 3 coordinates is 1 in half of 8 profiles


class TestInt64Boundary:
    """Explicit dtype behaviour at and just past the int64 index edge.

    62 binary players (2**62 profiles) is the last size whose profile
    indices all fit in int64; 63 binary players (2**63 profiles) is the
    first that does not (int64 max is 2**63 - 1) — the historical
    "63-player ceiling" of the index-based engine.
    """

    def test_fits_int64_flag_at_the_edge(self):
        assert ProfileSpace((2,) * 62).fits_int64
        assert not ProfileSpace((2,) * 63).fits_int64

    def test_deviations_dtype_is_explicit_on_both_sides(self):
        below = ProfileSpace((2,) * 62)
        devs = below.deviations(below.size - 1, 61)
        assert devs.dtype == np.int64
        assert devs[1] == below.size - 1
        above = ProfileSpace((2,) * 63)
        devs = above.deviations(above.size - 1, 62)
        assert devs.dtype == object  # exact Python ints, never wrapped
        assert devs[1] == above.size - 1
        assert devs[0] == above.size - 1 - 2**62

    def test_vectorised_surgery_works_at_62_players(self):
        space = ProfileSpace((2,) * 62)
        top = np.array([space.size - 1, space.size - 2], dtype=np.int64)
        devs = space.deviations_many(top, 0)
        assert devs.dtype == np.int64
        np.testing.assert_array_equal(
            devs[0], [space.size - 2, space.size - 1]
        )
        flipped = space.set_strategy_many(top, 0, np.array([0, 0]))
        assert flipped.dtype == np.int64
        np.testing.assert_array_equal(flipped, [space.size - 2, space.size - 2])
        np.testing.assert_array_equal(
            space.encode_many(space.decode_many(top)), top
        )

    def test_vectorised_surgery_raises_with_matrix_pointer_at_63_players(self):
        space = ProfileSpace((2,) * 63)
        idx = np.zeros(2, dtype=np.int64)
        for call in (
            lambda: space.deviations_many(idx, 0),
            lambda: space.set_strategy_many(idx, 0, np.zeros(2, dtype=np.int64)),
            lambda: space.encode_many(np.zeros((2, 63), dtype=np.int64)),
            lambda: space.decode_many(idx),
        ):
            with pytest.raises(ValueError, match="matrix"):
                call()

    def test_scalar_paths_are_exact_at_63_players(self):
        space = ProfileSpace((2,) * 63)
        top = space.size - 1
        profile = space.decode(top)
        assert profile == (1,) * 63
        assert space.encode(profile) == top
        assert space.strategy_of(top, 62) == 1
        assert space.replace(top, 62, 0) == top - 2**62
