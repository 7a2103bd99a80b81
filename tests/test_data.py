import numpy as np
import pytest

from resae.data import (
    Dataset,
    SIMULATED_RANGES,
    bin_to_classes,
    gaussian_bump_field,
    generate_simulated,
    generate_spatial_field,
    load_csv,
    simulated_response,
    spatial_feature_matrix,
    spatial_features,
    split,
)


class TestSimulated:
    def test_midpoint_hand_evaluation(self):
        mids = np.array([[(lo + hi) / 2.0 for lo, hi in SIMULATED_RANGES]])
        # x = (50, 5, 5, 50, 550, 50, 15, 50)
        expected = 50 + 5 * 25 + 50 + (500.0 / 550.0) ** 0.3 - 50 + 225 + 50
        assert simulated_response(mids)[0] == pytest.approx(expected)

    def test_noise_free_rows_match_formula(self):
        ds = generate_simulated(n=64, seed=5, noise_sd=0.0)
        x = ds.features
        recomputed = (x[:, 0] + x[:, 1] * x[:, 2] ** 2 + x[:, 3]
                      + (500.0 / x[:, 4]) ** 0.3 - x[:, 5] + x[:, 6] ** 2 + x[:, 7])
        np.testing.assert_allclose(ds.targets.ravel(), recomputed, rtol=1e-12)

    def test_equal_seeds_identical(self):
        a = generate_simulated(n=50, seed=9)
        b = generate_simulated(n=50, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_default_shape(self):
        ds = generate_simulated(n=1000, seed=1)
        assert ds.features.shape == (1000, 8)
        assert ds.targets.shape == (1000, 1)
        assert ds.feature_names == [f"x{i}" for i in range(1, 9)]

    def test_ranges_respected(self):
        ds = generate_simulated(n=500, seed=2)
        for j, (lo, hi) in enumerate(SIMULATED_RANGES):
            col = ds.features[:, j]
            assert col.min() >= lo and col.max() < hi

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_simulated(n=0)
        bad = list(SIMULATED_RANGES)
        bad[4] = (0.0, 10.0)   # zero admits division blow-up
        with pytest.raises(ValueError, match="x5"):
            generate_simulated(n=10, ranges=tuple(bad))

    @pytest.mark.parametrize("noise_sd", [-100.0, -1e-300, float("nan")])
    def test_negative_noise_rejected(self, noise_sd):
        with pytest.raises(ValueError, match="noise_sd"):
            generate_simulated(n=10, noise_sd=noise_sd)


class TestLoadCsv:
    def test_numeric_roundtrip(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1.5,2.0\n-3.25,4.5\n0.0,1.0\n")
        ds = load_csv(p, ["y"], "regression")
        np.testing.assert_array_equal(ds.features, [[1.5], [-3.25], [0.0]])
        np.testing.assert_array_equal(ds.targets, [[2.0], [4.5], [1.0]])
        assert ds.n_dropped == 0

    def test_one_hot_encoding(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("color,y\nred,1\nblue,2\nred,3\ngreen,4\n")
        ds = load_csv(p, ["y"], "regression")
        assert ds.feature_names == ["color=blue", "color=green", "color=red"]
        np.testing.assert_array_equal(ds.features.sum(axis=1), np.ones(4))
        np.testing.assert_array_equal(ds.features[0], [0.0, 0.0, 1.0])

    def test_classification_label_encoding(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,cls\n1,yes\n2,no\n3,yes\n")
        ds = load_csv(p, ["cls"], "classification")
        assert ds.n_classes == 2
        assert ds.encodings["cls"] == ["no", "yes"]
        np.testing.assert_array_equal(ds.targets.ravel(), [1.0, 0.0, 1.0])

    def test_ring_binning(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,rings\n1,5\n1,9\n1,10\n1,11\n1,8\n")
        ds = load_csv(p, ["rings"], "classification", target_bins=[8, 10])
        # bins: <=8, 9-10, >=11
        np.testing.assert_array_equal(ds.targets.ravel(), [0.0, 1.0, 1.0, 2.0, 0.0])
        assert ds.n_classes == 3

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n1,x,2\n?,x,3\n2,,4\n3,z,NA\n4,w,5\n")
        ds = load_csv(p, ["y"], "regression")
        assert ds.n_rows == 2
        assert ds.n_dropped == 3

    def test_empty_result_is_hard_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\nNA,1\n?,2\n")
        with pytest.raises(ValueError, match="no usable rows"):
            load_csv(p, ["y"], "regression")

    def test_infinite_cell_in_numeric_column_is_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n1,2,1\n2,4,2\n3,inf,3\n4,5,4\n")
        with pytest.raises(ValueError, match=r"column 'b'.*'inf'.*row 3"):
            load_csv(p, ["y"], "regression")

    def test_infinite_label_in_categorical_column_stays_a_category(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("b,y\nlow,1\ninf,2\n")
        ds = load_csv(p, ["y"], "regression")
        assert ds.feature_names == ["b=inf", "b=low"]

    @pytest.mark.parametrize("delimiter", [",,", "", 5, None])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,2\n")
        with pytest.raises(ValueError, match="delimiter must be"):
            load_csv(p, ["y"], "regression", delimiter=delimiter)

    def test_missing_target_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="'y'"):
            load_csv(p, ["y"], "regression")

    def test_non_numeric_regression_target(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,low\n2,high\n")
        with pytest.raises(ValueError, match="not numeric"):
            load_csv(p, ["y"], "regression")

    def test_stratify_column_kept_out_of_features(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,day,y\n1,d1,2\n2,d1,3\n3,d2,4\n")
        ds = load_csv(p, ["y"], "regression", stratify_column="day")
        assert ds.feature_names == ["a"]
        assert list(ds.stratify) == ["d1", "d1", "d2"]

    def test_manifest_reports_counts(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,color,y\n1,red,2\n2,blue,3\n?,red,4\n")
        ds = load_csv(p, ["y"], "regression")
        m = ds.manifest()
        assert m["rows"] == 2
        assert m["dropped_rows"] == 1
        assert m["encodings"]["color"] == ["blue", "red"]


class TestBinToClasses:
    def test_bounds_are_inclusive(self):
        classes, names = bin_to_classes(np.array([8.0, 9.0, 10.0, 10.5, 3.0]), [8, 10])
        np.testing.assert_array_equal(classes, [0, 1, 1, 2, 0])
        assert len(names) == 3

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            bin_to_classes(np.array([1.0]), [10, 8])

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError, match="target_bins must be non-empty"):
            bin_to_classes(np.array([1.0]), [])


class TestSplit:
    def test_exact_proportions_at_100(self):
        ds = generate_simulated(n=100, seed=0)
        s = split(ds, seed=1)
        assert len(s.test) == 20
        assert len(s.validation) == 16
        assert len(s.train) == 64

    def test_partition_property(self):
        for seed in range(6):
            n = int(np.random.default_rng(seed).integers(10, 400))
            ds = generate_simulated(n=n, seed=seed)
            s = split(ds, seed=seed)
            merged = np.concatenate([s.train, s.validation, s.test])
            assert sorted(merged.tolist()) == list(range(n))

    def test_equal_seeds_identical(self):
        ds = generate_simulated(n=77, seed=0)
        a, b = split(ds, seed=5), split(ds, seed=5)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_different_seeds_differ(self):
        ds = generate_simulated(n=77, seed=0)
        assert not np.array_equal(split(ds, seed=1).test, split(ds, seed=2).test)

    def test_stratified_preserves_per_label_proportions(self):
        rng = np.random.default_rng(0)
        n = 200
        labels = np.array(["a"] * 120 + ["b"] * 50 + ["c"] * 30)
        ds = Dataset(features=rng.normal(size=(n, 2)), targets=rng.normal(size=(n, 1)),
                     feature_names=["f1", "f2"], target_names=["y"],
                     task="regression", stratify=labels)
        s = split(ds, seed=3, stratify=True)
        for label, count in (("a", 120), ("b", 50), ("c", 30)):
            n_test = sum(labels[i] == label for i in s.test)
            assert abs(n_test - round(0.2 * count)) <= 1

    def test_small_stratum_falls_back_with_warning(self):
        rng = np.random.default_rng(1)
        labels = np.array(["a"] * 46 + ["b"] * 4)
        ds = Dataset(features=rng.normal(size=(50, 2)), targets=rng.normal(size=(50, 1)),
                     feature_names=["f1", "f2"], target_names=["y"],
                     task="regression", stratify=labels)
        with pytest.warns(UserWarning, match="fell back"):
            s = split(ds, seed=0, stratify=True)
        merged = np.concatenate([s.train, s.validation, s.test])
        assert sorted(merged.tolist()) == list(range(50))

    def test_stratify_without_column_rejected(self):
        ds = generate_simulated(n=30, seed=0)
        with pytest.raises(ValueError, match="stratify"):
            split(ds, seed=0, stratify=True)

    def test_too_small_rejected(self):
        ds = generate_simulated(n=9, seed=0)
        with pytest.raises(ValueError):
            split(ds, seed=0)


class TestSpatial:
    def test_feature_values(self):
        assert spatial_features(0.0, 0.0) == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert spatial_features(2.0, 3.0) == (2.0, 3.0, 4.0, 9.0, 6.0)
        assert spatial_features(-1.0, 1.0) == (-1.0, 1.0, 1.0, 1.0, -1.0)

    def test_feature_matrix(self):
        sites = np.array([[2.0, 3.0], [0.0, 1.0]])
        np.testing.assert_array_equal(spatial_feature_matrix(sites),
                                      [[2.0, 3.0, 4.0, 9.0, 6.0],
                                       [0.0, 1.0, 0.0, 1.0, 0.0]])

    def test_bump_field_peak_value(self):
        centers = np.array([[0.5, 0.5]])
        amplitudes = np.array([3.0])
        value = gaussian_bump_field(np.array([[0.5, 0.5]]), centers, amplitudes, 0.2)
        assert value[0] == pytest.approx(3.0)

    def test_noise_free_field_matches_closed_form(self):
        pair = generate_spatial_field(n=60, seed=4, noise_sd=0.0)
        expected = (gaussian_bump_field(pair.sites, pair.centers, pair.amplitudes,
                                        pair.correlation_length)
                    + pair.plain.features @ pair.covariate_coef)
        np.testing.assert_allclose(pair.plain.targets.ravel(), expected, rtol=1e-12)
        np.testing.assert_array_equal(pair.plain.targets, pair.with_coordinates.targets)

    def test_equal_seeds_identical(self):
        a = generate_spatial_field(n=80, seed=2)
        b = generate_spatial_field(n=80, seed=2)
        np.testing.assert_array_equal(a.with_coordinates.features,
                                      b.with_coordinates.features)
        np.testing.assert_array_equal(a.plain.targets, b.plain.targets)

    def test_spatial_variant_has_five_extra_columns(self):
        pair = generate_spatial_field(n=60, seed=1)
        assert pair.with_coordinates.n_features == pair.plain.n_features + 5

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            generate_spatial_field(n=10, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("noise_sd", -0.5), ("noise_sd", float("nan")),
        ("correlation_length", 0.0), ("correlation_length", -0.15),
    ])
    def test_bad_noise_or_length_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            generate_spatial_field(n=60, seed=0, **{field: value})


def test_dataset_row_mismatch_rejected():
    with pytest.raises(ValueError, match="row mismatch"):
        Dataset(features=np.zeros((3, 2)), targets=np.zeros((2, 1)),
                feature_names=["a", "b"], target_names=["y"], task="regression")
