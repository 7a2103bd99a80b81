import numpy as np
import pytest

from resae.matrix import Rng, StandardizeStats, field_types, standardize_fit_apply
from resae.training import TrainConfig


def splitmix_oracle(seed, n):
    # independent pure-int reimplementation of the documented stream
    mask = (1 << 64) - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    key = mix(seed & mask)
    return [(mix((key + i * 0x9E3779B97F4A7C15) & mask) >> 11) * 2.0 ** -53
            for i in range(1, n + 1)]


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a, b = Rng(1234), Rng(1234)
        np.testing.assert_array_equal(a.uniform(10_000), b.uniform(10_000))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(100), Rng(2).uniform(100))

    def test_matches_pure_python_oracle(self):
        for seed in (0, 42, -7, 2 ** 63):
            np.testing.assert_array_equal(Rng(seed).uniform(64), splitmix_oracle(seed, 64))

    def test_uniform_range(self):
        u = Rng(3).uniform(5000, low=-2.0, high=3.0)
        assert u.min() >= -2.0 and u.max() < 3.0

    def test_normal_moments(self):
        z = Rng(9).normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_normal_shape_and_params(self):
        z = Rng(4).normal(6, 3, mean=10.0, sd=0.5)
        assert z.shape == (6, 3)
        assert 8.0 < z.mean() < 12.0

    def test_permutation_is_permutation(self):
        p = Rng(7).permutation(257)
        assert sorted(p) == list(range(257))

    def test_state_roundtrip_replays(self):
        rng = Rng(5)
        rng.uniform(17)
        state = rng.state
        first = rng.uniform(40)
        rng.state = state
        np.testing.assert_array_equal(rng.uniform(40), first)

    def test_spawn_is_deterministic_and_independent(self):
        a = Rng(11).spawn(3)
        b = Rng(11).spawn(3)
        c = Rng(11).spawn(4)
        np.testing.assert_array_equal(a.uniform(20), b.uniform(20))
        assert not np.array_equal(Rng(11).spawn(3).uniform(20), c.uniform(20))

    def test_subset_distinct(self):
        s = Rng(2).subset(50, 20)
        assert len(set(s.tolist())) == 20
        with pytest.raises(ValueError):
            Rng(2).subset(5, 6)


class TestStandardize:
    def test_fit_centers_and_scales(self):
        x = np.array([[1.0], [2.0], [3.0]])
        out, stats = standardize_fit_apply(x)
        assert stats.mean[0, 0] == pytest.approx(2.0)
        assert stats.sd[0, 0] == pytest.approx(np.sqrt(2.0 / 3.0))  # population sd
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-9

    def test_constant_column_floored_with_warning(self):
        x = np.array([[5.0], [5.0], [5.0]])
        with pytest.warns(UserWarning, match="zero-variance"):
            out, stats = standardize_fit_apply(x)
        np.testing.assert_array_equal(out, np.zeros((3, 1)))
        assert stats.constant_columns == (0,)

    def test_apply_invert_roundtrip(self):
        x = np.random.default_rng(0).normal(loc=3.0, scale=7.0, size=(50, 4))
        out, stats = standardize_fit_apply(x)
        back = stats.invert(out)
        np.testing.assert_allclose(back, x, rtol=1e-10)

    def test_refit_on_standardized_is_idempotent(self):
        x = np.random.default_rng(1).normal(size=(100, 3)) * 40 + 5
        out, _ = standardize_fit_apply(x)
        out2, stats2 = standardize_fit_apply(out)
        assert np.abs(stats2.mean).max() < 1e-9
        assert np.abs(stats2.sd - 1.0).max() < 1e-9
        np.testing.assert_allclose(out2, out, atol=1e-9)

    def test_apply_with_given_stats(self):
        x = np.random.default_rng(2).normal(size=(20, 2))
        _, stats = standardize_fit_apply(x)
        other = np.random.default_rng(3).normal(size=(5, 2))
        out = stats.apply(other)
        np.testing.assert_allclose(out, (other - stats.mean) / stats.sd)

    def test_column_count_mismatch(self):
        _, stats = standardize_fit_apply(np.zeros((4, 2)) + np.arange(4).reshape(-1, 1))
        with pytest.raises(ValueError, match="columns"):
            stats.apply(np.zeros((4, 3)))

    def test_stats_dict_roundtrip(self):
        x = np.random.default_rng(4).normal(size=(30, 3))
        _, stats = standardize_fit_apply(x)
        back = StandardizeStats.from_dict(stats.to_dict())
        np.testing.assert_array_equal(back.mean, stats.mean)
        np.testing.assert_array_equal(back.sd, stats.sd)


def test_field_types_resolves_each_class_once():
    types = field_types(TrainConfig)
    assert types[:3] == (("batch_size", int), ("max_epochs", int), ("learning_rate", float))
    assert len(types) == len(TrainConfig.__dataclass_fields__)
    assert field_types(TrainConfig) is types
