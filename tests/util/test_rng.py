"""Tests for the deterministic RNG utilities."""

import pytest

from repro.util.rng import SeededRNG, derive_seed


class TestDeriveSeed:
    def test_same_inputs_same_seed(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_different_tags_different_seed(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_order_sensitive(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "b", "a")

    def test_different_master_seed(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_result_is_64_bit(self):
        assert 0 <= derive_seed(7, "tag") < 2 ** 64


class TestSeededRNG:
    def test_reproducible_streams(self):
        a = SeededRNG(5)
        b = SeededRNG(5)
        assert [a.randint(0, 100) for _ in range(20)] == [b.randint(0, 100) for _ in range(20)]

    def test_different_seeds_differ(self):
        a = SeededRNG(5)
        b = SeededRNG(6)
        assert [a.randint(0, 10 ** 6) for _ in range(5)] != [b.randint(0, 10 ** 6) for _ in range(5)]

    def test_fork_is_deterministic(self):
        a = SeededRNG(5).fork("corpus", "icon")
        b = SeededRNG(5).fork("corpus", "icon")
        assert a.randint(0, 10 ** 6) == b.randint(0, 10 ** 6)

    def test_fork_decorrelates(self):
        parent = SeededRNG(5)
        child = parent.fork("x")
        assert child.seed != parent.seed

    def test_choice_from_empty_raises(self):
        with pytest.raises(ValueError):
            SeededRNG(1).choice([])

    def test_weighted_choice_length_mismatch(self):
        with pytest.raises(ValueError):
            SeededRNG(1).weighted_choice(["a", "b"], [1.0])

    def test_weighted_choice_respects_zero_weight(self):
        rng = SeededRNG(3)
        picks = {rng.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}

    def test_bytes_length_and_determinism(self):
        assert len(SeededRNG(9).bytes(64)) == 64
        assert SeededRNG(9).bytes(64) == SeededRNG(9).bytes(64)

    def test_randint_bounds_are_inclusive(self):
        rng = SeededRNG(4)
        assert {rng.randint(1, 3) for _ in range(100)} == {1, 2, 3}

    def test_random_in_unit_interval(self):
        rng = SeededRNG(4)
        assert all(0.0 <= rng.random() < 1.0 for _ in range(100))

    def test_choice_returns_a_member(self):
        rng = SeededRNG(4)
        assert all(rng.choice("abc") in "abc" for _ in range(20))

    def test_numpy_generator_is_seeded(self):
        assert SeededRNG(8).numpy().integers(0, 10 ** 6, size=5).tolist() == \
            SeededRNG(8).numpy().integers(0, 10 ** 6, size=5).tolist()

    def test_sample_larger_than_population_raises(self):
        with pytest.raises(ValueError):
            SeededRNG(2).sample([1, 2], 3)

    def test_sample_distinct(self):
        sample = SeededRNG(2).sample(list(range(100)), 10)
        assert len(set(sample)) == 10
