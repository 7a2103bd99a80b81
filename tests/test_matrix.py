import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from plain_reference import PlainRng

from resae.matrix import SD_FLOOR, Rng, StandardizeStats, field_types, standardize_fit_apply
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
            # draws 4,090-4,100 one at a time, across the first block's end
            rng = Rng(seed)
            rng.uniform(4089)
            np.testing.assert_array_equal([rng.uniform(1)[0] for _ in range(11)],
                                          splitmix_oracle(seed, 4100)[4089:])

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

    def test_new_key_at_the_same_counter_draws_that_key_stream(self):
        rng, other = Rng(1), Rng(2)
        rng.uniform(10)
        other.uniform(10)
        rng.state = other.state
        np.testing.assert_array_equal(rng.uniform(10), other.uniform(10))

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

    @pytest.mark.parametrize("draw, name", [
        (lambda r: r.uniform(-3), "rows"), (lambda r: r.uniform(-2, 3), "rows"),
        (lambda r: r.uniform(2, -1), "cols"), (lambda r: r.normal(-1), "rows"),
        (lambda r: r.normal(3, -2), "cols"), (lambda r: r.permutation(-1), "n"),
        (lambda r: r.subset(5, -1), "size"), (lambda r: r.subset(-1, 0), "n"),
    ])
    def test_negative_count_rejected_before_the_counter_moves(self, draw, name):
        rng = Rng(0)
        rng.uniform(5)
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -"):
            draw(rng)
        assert rng.state == (0, 5)
        np.testing.assert_array_equal(rng.uniform(3), splitmix_oracle(0, 8)[5:])

    def test_numpy_integer_counts_draw_the_same_stream(self):
        rng, twin = Rng(6), Rng(6)
        for n in (5, 5000, 3):   # the second block starts past the first's 4,096 draws
            np.testing.assert_array_equal(rng.uniform(np.int64(n)), twin.uniform(n))
        np.testing.assert_array_equal(rng.permutation(np.int64(9)), twin.permutation(9))
        assert rng.state == twin.state and type(rng.state[1]) is int

    @pytest.mark.parametrize("seed", [1.7, 3.0, "3", None])
    def test_a_seed_that_is_not_an_integer_is_rejected(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            Rng(seed)

    def test_a_numpy_integer_seed_draws_the_same_stream(self):
        rng, twin = Rng(np.int64(3)), Rng(3)
        np.testing.assert_array_equal(rng.uniform(9), twin.uniform(9))
        assert rng.state == twin.state and type(rng.seed) is int

    @pytest.mark.parametrize("tag", [1.7, 1.0, "1", None])
    def test_a_spawn_tag_that_is_not_an_integer_is_rejected(self, tag):
        # read as int(tag), 1.7 and "1" would each draw spawn(1)'s stream
        with pytest.raises(ValueError, match=f"^tag must be an integer, got {tag!r}$"):
            Rng(0).spawn(tag)

    def test_a_numpy_integer_spawn_tag_draws_the_same_stream(self):
        np.testing.assert_array_equal(Rng(0).spawn(np.int64(1)).uniform(9),
                                      Rng(0).spawn(1).uniform(9))

    def test_writing_into_a_draw_leaves_later_draws_unchanged(self):
        rng, twin = Rng(8), Rng(8)
        for draw in (lambda r: r.uniform(16, 32), lambda r: r.uniform(3, low=1.0, high=2.0),
                     lambda r: r.normal(7), lambda r: r.permutation(9),
                     lambda r: r.subset(9, 4)):
            state = rng.state
            first, expected = draw(rng), draw(twin)
            first[...] = 7
            rng.state = state
            np.testing.assert_array_equal(draw(rng), expected)
        np.testing.assert_array_equal(rng.uniform(5000), twin.uniform(5000))


# Draw counts around the block size (4,096) and beyond it.
SIZES = (0, 1, 400, 4095, 4096, 4097, 10_000)


@st.composite
def rng_calls(draw):
    """One call on a generator: a draw, a state save or restore, a spawn, a
    new key at the same counter, or a jump of the counter to near 2**64."""
    kind = draw(st.sampled_from(["uniform", "uniform", "uniform2d", "normal", "permutation",
                                 "subset", "save", "restore", "spawn", "rekey", "jump"]))
    size = draw(st.sampled_from(SIZES))
    if kind == "uniform":
        return kind, size, draw(st.sampled_from([(0.0, 1.0), (-2.0, 3.0), (0.0, 2.0)]))
    if kind == "uniform2d":
        cols = draw(st.sampled_from([c for c in (1, 3, 5, 16, 17) if size % c == 0]))
        return kind, (size // cols, cols), draw(st.sampled_from([(0.0, 1.0), (-1.0, 1.0)]))
    if kind == "normal":
        return kind, draw(st.sampled_from(SIZES + (401, 10_001))), draw(st.booleans())
    if kind == "subset":
        return kind, size, draw(st.integers(0, size))
    if kind == "restore":
        return kind, draw(st.integers(0, 7))
    if kind == "spawn":
        return kind, draw(st.integers(-3, 2 ** 40))
    if kind == "rekey":   # and a draw small enough to fit in the block left from the old key
        return kind, draw(st.integers(0, 2 ** 64 - 1)), ("uniform2d", (16, 25), (0.0, 1.0))
    if kind == "jump":
        return kind, draw(st.integers(1, 12_000))
    return kind, size


def _draw(rng, call):
    kind, *args = call
    if kind == "uniform":
        low, high = args[1]
        return rng.uniform(args[0]) if (low, high) == (0.0, 1.0) else \
            rng.uniform(args[0], low=low, high=high)
    if kind == "uniform2d":
        (rows, cols), (low, high) = args
        return rng.uniform(rows, cols, low=low, high=high)
    if kind == "normal":
        return rng.normal(args[0], mean=1.5, sd=0.5) if args[1] else rng.normal(args[0])
    if kind == "permutation":
        return rng.permutation(args[0])
    return rng.subset(*args)


def _check_draw(rng, plain, call):
    before = plain.state
    try:
        expected = _draw(plain, call)
    except OverflowError:   # the plain counter left uint64: outside its range
        plain.state = before
        return
    got = _draw(rng, call)
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(-2 ** 63, 2 ** 64 - 1), calls=st.lists(rng_calls(), max_size=14))
def test_block_draws_match_the_plain_stream(seed, calls):
    """Every draw, and the state after every call, has the bits of a generator
    that computes each request on its own."""
    rng, plain = Rng(seed), PlainRng(seed)
    saved = [rng.state]
    for call in calls:
        kind = call[0]
        if kind == "save":
            saved.append(rng.state)
        elif kind == "restore":
            rng.state = plain.state = saved[call[1] % len(saved)]
        elif kind == "spawn":
            rng, plain = rng.spawn(call[1]), plain.spawn(call[1])
        elif kind == "rekey":
            rng.state = plain.state = (call[1], rng.state[1])
            _check_draw(rng, plain, call[2])
        elif kind == "jump":
            rng.state = plain.state = (rng.state[0], 2 ** 64 - call[1])
        else:
            _check_draw(rng, plain, call)
        assert rng.state == plain.state


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
        with pytest.warns(UserWarning, match=r"^standardize: zero-variance columns \(0,\) "
                                             r"floored at sd=1e-12$"):
            out, stats = standardize_fit_apply(x)
        np.testing.assert_array_equal(out, np.zeros((3, 1)))
        assert stats.sd[0, 0] == SD_FLOOR and not hasattr(stats, "constant_columns")

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
