import csv
import hashlib
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from resae.matrix import Rng

from plain_reference import plain_load_csv


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

    def test_repeated_target_column_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,2\n2,3\n")
        with pytest.raises(ValueError, match=r"^targets must be distinct names, "
                                             r"got \['y', 'y'\]$"):
            load_csv(p, ["y", "y"], "regression")

    def test_empty_target_list_rejected_before_reading(self, tmp_path):
        with pytest.raises(ValueError, match=r"^targets must name at least one column, "
                                             r"got \[\]$"):
            load_csv(tmp_path / "absent.csv", [], "regression")

    @pytest.mark.parametrize("header, column", [("a,,y", 2), ("a, ,y", 2), (",,y", 1)])
    def test_blank_header_cell_rejected_naming_its_column(self, tmp_path, header, column):
        # checked before repeated names, which two blank cells would also be
        p = tmp_path / "t.csv"
        p.write_text(f"{header}\n1,x,2\n3,z,4\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: header column "
                                             rf"{column} is blank$"):
            load_csv(p, ["y"], "regression")

    def test_manifest_reports_counts(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,color,y\n1,red,2\n2,blue,3\n?,red,4\n")
        ds = load_csv(p, ["y"], "regression")
        m = ds.manifest()
        assert m["rows"] == 2
        assert m["dropped_rows"] == 1
        assert m["encodings"]["color"] == ["blue", "red"]

    def test_row_longer_than_header_is_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,2\n\n3,4,5\n")    # the blank line is not a data row
        with pytest.raises(ValueError,
                           match=r"t\.csv: data row 2 has 3 cells, but the header has 2"):
            load_csv(p, ["y"], "regression")

    def test_blank_trailing_cells_ignored_and_short_rows_padded(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n1,x,2, ,\n\n2,y\n3,z,4,\n")
        ds = load_csv(p, ["y"], "regression")
        assert ds.feature_names == ["a", "b=x", "b=z"]
        np.testing.assert_array_equal(ds.features, [[1.0, 1.0, 0.0], [3.0, 0.0, 1.0]])
        np.testing.assert_array_equal(ds.targets, [[2.0], [4.0]])
        assert ds.n_dropped == 1     # the short row; the blank line is skipped, not dropped

    def test_target_bins_on_a_regression_rejected_before_reading(self, tmp_path):
        with pytest.raises(ValueError, match=r"^target_bins needs task 'classification', "
                                             r"got 'regression'$"):
            load_csv(tmp_path / "absent.csv", ["y"], "regression", target_bins=[1.0])

    def test_cell_beyond_the_csv_field_limit_is_rejected_naming_path_and_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,2\n" + "x" * (csv.field_size_limit() + 1) + ",3\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: line 3 is not valid "
                                             r"CSV: field larger than field limit \(131072\)$"):
            load_csv(p, ["y"], "regression")

    def test_file_that_is_not_utf8_is_rejected_naming_path(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes("a,y\ncafé,1\n".encode("latin-1"))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: not UTF-8 text "
                                             r"\(invalid continuation byte\)$"):
            load_csv(p, ["y"], "regression")


_LABELS = st.text(alphabet="abcdxyzQ", min_size=1, max_size=3)   # never a number or marker


@st.composite
def csv_tables(draw):
    """(header, rows, marker): finite numeric columns n*, categorical columns c*,
    and the numeric target y, with some cells replaced by one missing marker."""
    n_rows = draw(st.integers(1, 25))
    columns = {f"n{j}": [repr(v) for v in draw(st.lists(
                   st.floats(allow_nan=False, allow_infinity=False),
                   min_size=n_rows, max_size=n_rows))]
               for j in range(draw(st.integers(0, 2)))}
    columns.update({f"c{j}": draw(st.lists(_LABELS, min_size=n_rows, max_size=n_rows))
                    for j in range(draw(st.integers(1, 2)))})
    columns["y"] = [repr(float(v)) for v in draw(st.lists(
        st.integers(-1000, 1000), min_size=n_rows, max_size=n_rows))]
    header = draw(st.permutations(list(columns)))
    rows = [[columns[name][i] for name in header] for i in range(n_rows)]
    marker = draw(st.sampled_from(["", "NA", "?", "null", "n/a", "NaN"]))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n_rows - 1),
                                        st.integers(0, len(header) - 1)), max_size=12)):
        rows[i][j] = marker
    return header, rows, marker


@settings(max_examples=200, deadline=None)
@given(csv_tables())
def test_load_csv_keeps_exactly_the_complete_rows_and_encodes_them(table):
    header, rows, marker = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text("".join(",".join(row) + "\n" for row in [header] + rows))
        blank = [all(c == "" for c in row) for row in rows]
        kept = [row for row in rows if marker not in row]
        if not kept:
            with pytest.raises(ValueError, match="no usable rows"):
                load_csv(path, ["y"], "regression")
            return
        ds = load_csv(path, ["y"], "regression")
    assert ds.n_rows == len(kept)
    assert ds.n_dropped == len(rows) - len(kept) - sum(blank)
    column = {name: [row[j] for row in kept] for j, name in enumerate(header)}
    assert ds.targets.tobytes() == np.array([float(v) for v in column["y"]]).tobytes()
    for name in header:
        if name.startswith("n"):
            values = ds.features[:, ds.feature_names.index(name)]
            assert values.tobytes() == np.array([float(v) for v in column[name]]).tobytes()
        elif name.startswith("c"):
            cats = ds.encodings[name]
            assert cats == sorted(set(column[name]))
            block = ds.features[:, [ds.feature_names.index(f"{name}={c}") for c in cats]]
            np.testing.assert_array_equal(block.sum(axis=1), np.ones(len(kept)))
            assert [cats[i] for i in block.argmax(axis=1)] == column[name]


# cells for the reference comparison: missing markers, cells that parse to NaN or
# infinity without being markers, and labels that read as numbers
_MARKERS = ["", "NaN", "nan", "NA", "?", "null", "n/a"]
_NON_FINITE = ["+nan", "-nan", "inf", "-Infinity", "1e999"]
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.integers(-50, 50).map(str))
_TEXT = st.sampled_from(["low", "high", "Mid", "1", "10", "2.5", "-3", "1e3"])
_COLUMN_CELLS = [                  # one kind per column; most of its cells present
    st.one_of(*[_NUMBERS] * 8, st.sampled_from(_MARKERS)),                       # numeric
    st.one_of(*[_NUMBERS] * 16, st.sampled_from(_MARKERS + _NON_FINITE)),        # non-finite
    st.one_of(*[_TEXT] * 8, st.sampled_from(_MARKERS)),                          # text
    st.one_of(*[_TEXT, _NUMBERS] * 4, st.sampled_from(_MARKERS + _NON_FINITE)),  # mixed
]
_PAD = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def csv_texts(draw):
    """(CSV text, targets, task, target_bins): padded cells of columns of one
    kind each, with blank, whitespace-only, short and long rows among the data.
    Bins come only with classification, and the text is always readable UTF-8:
    the two cases where load_csv differs from the reference on purpose."""
    width = draw(st.integers(2, 4))
    header = [f"c{j}" for j in range(width)]
    kinds = [draw(st.sampled_from(_COLUMN_CELLS)) for _ in header]
    lines = [",".join(draw(_PAD) + name + draw(_PAD) for name in header)]
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(_PAD) + draw(kind) + draw(_PAD) for kind in kinds]
        shape = draw(st.sampled_from(["full"] * 6 + ["blank", "short", "long"]))
        if shape == "blank":
            row = [draw(_PAD) for _ in range(draw(st.integers(0, width + 1)))]
        elif shape == "short":
            row = row[:draw(st.integers(0, width - 1))]
        elif shape == "long":
            row += draw(st.lists(st.sampled_from(["", " ", "\t", "", "5", "x"]),
                                 min_size=1, max_size=2))
        lines.append(",".join(row))
    mode = draw(st.sampled_from(["one", "two", "label", "bins"]))
    n_targets = 2 if mode == "two" else 1
    targets = draw(st.lists(st.sampled_from(header), min_size=n_targets, max_size=n_targets,
                            unique=True))
    task = "regression" if mode in ("one", "two") else "classification"
    bins = draw(st.sampled_from([[0.0], [-1.0, 2.5], [1.0, 1.0]])) if mode == "bins" else None
    return "".join(line + "\n" for line in lines), targets, task, bins


def _read(load, path, targets, task, bins):
    """The Dataset's fields with its arrays as bytes, or the ValueError's message."""
    try:
        ds = load(path, targets, task, target_bins=bins)
    except ValueError as exc:
        return str(exc)
    return (ds.features.shape, ds.features.dtype, ds.features.tobytes(),
            ds.targets.shape, ds.targets.dtype, ds.targets.tobytes(),
            ds.feature_names, ds.target_names, ds.task, ds.encodings, ds.n_dropped,
            ds.n_classes)


@settings(max_examples=300, deadline=None)
@given(csv_texts())
def test_load_csv_matches_the_row_at_a_time_reference(case):
    text, targets, task, bins = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(text, encoding="utf-8")
        assert _read(load_csv, path, targets, task, bins) == \
            _read(plain_load_csv, path, targets, task, bins)


class TestBinToClasses:
    def test_bounds_are_inclusive(self):
        classes, names = bin_to_classes(np.array([8.0, 9.0, 10.0, 10.5, 3.0]), [8, 10])
        np.testing.assert_array_equal(classes, [0, 1, 1, 2, 0])
        assert len(names) == 3

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            bin_to_classes(np.array([1.0]), [10, 8])

    @pytest.mark.parametrize("bounds", [[10.0, 10.0], [1, 5, 5, 9]])
    def test_repeated_bound_rejected(self, bounds):
        with pytest.raises(ValueError, match=r"^target_bins must be strictly increasing"):
            bin_to_classes(np.array([1.0]), bounds)

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

    # sha256 of train, validation and test indices, concatenated as int64 bytes
    @pytest.mark.parametrize("n, seed, sizes, digest", [
        (10, 0, (6, 2, 2),
         "0ef386fceaf67c1bc772dc2abc47726afc0d9f86afdbd9935820327630ab805c"),
        (37, 1, (24, 6, 7),
         "d98590a5dc639855190c2548c02d73a43dab835f09f9eb6daa2e1e4e5eb06e94"),
        (299, 2, (191, 48, 60),
         "763ac647c7632e6d4ee09c44831aff5f38af265ab5fa0c7d38e0bd87cb860849"),
        (1000, 7, (640, 160, 200),
         "17779fe7d59eb82e525929ba51b0dc4b5fd58e05df43023ef3bd91910cc4d96e"),
        (5000, 123456, (3200, 800, 1000),
         "b732e8285aa046ed7fa245efb7da04030bd1da8dd10a4032efcd029f305b0c51"),
    ])
    def test_indices_match_their_pinned_digest(self, n, seed, sizes, digest):
        ds = Dataset(features=np.zeros((n, 1)), targets=np.zeros((n, 1)),
                     feature_names=["x"], target_names=["y"], task="regression")
        s = split(ds, seed=seed)
        parts = (s.train, s.validation, s.test)
        assert tuple(len(a) for a in parts) == sizes
        assert all(a.dtype == np.int64 for a in parts)
        assert hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest() == digest

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

    def test_field_matches_closed_form(self):
        plain = generate_spatial_field(n=60, seed=4, with_coordinates=False)
        spatial = generate_spatial_field(n=60, seed=4)
        # the generator's draws in its order: sites, centers, amplitudes, signs,
        # covariates, then the noise at sd 0.5
        rng = Rng(4)
        sites, centers = rng.uniform(60, 2), rng.uniform(4, 2)
        amplitudes = rng.uniform(4, low=2.0, high=4.0) * np.where(rng.uniform(4) < 0.5, -1.0, 1.0)
        covariates = rng.normal(60, 3)
        noise = 0.5 * rng.normal(60)
        np.testing.assert_array_equal(spatial.features[:, 3:5], sites)
        np.testing.assert_array_equal(plain.features, covariates)
        expected = (gaussian_bump_field(sites, centers, amplitudes, 0.15)
                    + covariates @ np.array([1.5, -1.0, 0.5])) + noise
        assert plain.targets.ravel().tobytes() == expected.tobytes()
        np.testing.assert_array_equal(plain.targets, spatial.targets)

    def test_equal_seeds_identical(self):
        a = generate_spatial_field(n=80, seed=2)
        b = generate_spatial_field(n=80, seed=2)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_spatial_variant_has_five_extra_columns(self):
        plain = generate_spatial_field(n=60, seed=1, with_coordinates=False)
        assert generate_spatial_field(n=60, seed=1).n_features == plain.n_features + 5

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            generate_spatial_field(n=10, seed=0)

    @pytest.mark.parametrize("generate", [generate_simulated, generate_spatial_field])
    def test_row_count_beyond_any_index_rejected_before_drawing(self, generate):
        with pytest.raises(ValueError, match=f"^n must be at most {np.iinfo(np.intp).max}$"):
            generate(n=10 ** 40, seed=0)


@pytest.mark.parametrize("noise_sd", [1e308, 1.7e308])
def test_noise_that_overflows_the_targets_is_rejected_naming_noise_sd(noise_sd):
    # the suite turns RuntimeWarning into an error, so a warning would fail first
    message = f"noise_sd must leave the targets finite, got {noise_sd}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_simulated(n=60, seed=0, noise_sd=noise_sd)


def test_dataset_row_mismatch_rejected():
    with pytest.raises(ValueError, match="row mismatch"):
        Dataset(features=np.zeros((3, 2)), targets=np.zeros((2, 1)),
                feature_names=["a", "b"], target_names=["y"], task="regression")
