import pickle
from dataclasses import replace

import numpy as np
import pytest

from resae.data import generate_simulated
from resae.evaluation import (
    HEADLINE_METRIC,
    TASK_METRICS,
    GridResult,
    Job,
    Metrics,
    RunResult,
    SharedSettings,
    accuracy,
    classification_metrics,
    compare,
    grid_search,
    r2,
    residual_sensitivity,
    rmse_and_nrmse,
    roc_auc,
    run_job,
    score,
    seed_jobs,
)
from resae.training import Regularizer, TrainConfig, make_spec


def pairwise_auc_oracle(labels, scores):
    """P(score_pos > score_neg) + 0.5 P(equal), by exhaustive enumeration."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestR2:
    def test_exact_fit_is_one(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2(y, y.copy()) == 1.0

    def test_mean_predictor_is_zero(self):
        y = np.array([1.0, 2.0, 3.0, 7.0])
        assert r2(y, np.full(4, y.mean())) == 0.0

    def test_direct_arithmetic(self):
        assert r2(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0])) == pytest.approx(0.5)

    def test_constant_observations_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            r2(np.array([2.0, 2.0]), np.array([1.0, 3.0]))

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            r2(np.array([1.0]), np.array([1.0]))


class TestRmse:
    def test_exact_fit(self):
        assert rmse_and_nrmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == (0.0, 0.0)

    def test_direct_arithmetic(self):
        rmse, nrmse = rmse_and_nrmse(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        assert rmse == pytest.approx(1.0)
        assert nrmse == pytest.approx(0.5)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(0)
        y, p = rng.normal(size=30), rng.normal(size=30)
        rmse, nrmse = rmse_and_nrmse(y, p)
        rmse_c, nrmse_c = rmse_and_nrmse(3.0 * y, 3.0 * p)
        assert rmse_c == pytest.approx(3.0 * rmse)
        assert nrmse_c == pytest.approx(nrmse)

    def test_affine_shift_invariance_of_nrmse(self):
        rng = np.random.default_rng(1)
        y, p = rng.normal(size=30), rng.normal(size=30)
        _, nrmse = rmse_and_nrmse(y, p)
        _, nrmse_shift = rmse_and_nrmse(y + 10.0, p + 10.0)
        assert nrmse_shift == pytest.approx(nrmse)

    def test_zero_range_reports_absent(self):
        rmse, nrmse = rmse_and_nrmse(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
        assert nrmse is None


class TestAuc:
    def test_perfect_separation(self):
        assert roc_auc(np.array([1, 1, 0, 0]), np.array([0.9, 0.8, 0.3, 0.1])) == 1.0

    def test_matches_pairwise_oracle_on_random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(size=n), 1)   # rounded to force ties
            assert roc_auc(labels, scores) == pytest.approx(
                pairwise_auc_oracle(labels, scores))

    def test_uniform_scores_give_half(self):
        labels = np.array([1, 0, 1, 0, 1, 0])
        assert roc_auc(labels, np.full(6, 0.5)) == 0.5

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        scores = rng.uniform(0.1, 2.0, size=50)
        assert roc_auc(labels, scores) == pytest.approx(roc_auc(labels, scores ** 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(ValueError, match="finite scores"):
            roc_auc(np.array([1, 0, 1, 0]), np.array([0.9, bad, 0.4, 0.2]))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.ones(4), np.arange(4.0))

    @pytest.mark.parametrize("labels, shown, at", [
        ([0, 1, 2, 1], "2", 2),              # counted in neither class, it gave 1.0
        ([0.0, 1.0, 0.5, 1.0], "0.5", 2),
        ([-1, 0, 1, 1], "-1", 0),
        ([0.0, 1.0, np.nan, 1.0], "nan", 2)])
    def test_label_other_than_0_or_1_rejected_naming_the_first(self, labels, shown, at):
        with pytest.raises(ValueError, match=f"^roc_auc labels must be 0 or 1, got {shown} "
                                             f"at index {at}$"):
            roc_auc(np.array(labels), np.array([0.1, 0.4, 0.3, 0.9]))

    def test_boolean_labels_score_as_0_and_1(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        assert roc_auc(np.array([False, True, False, True]), scores) == \
            roc_auc(np.array([0, 1, 0, 1]), scores) == 1.0


def test_accuracy_is_the_share_of_rows_whose_most_probable_class_is_observed():
    p = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [0.2, 0.5, 0.3], [0.4, 0.5, 0.1]])
    assert accuracy(np.array([[0.0], [2.0], [0.0], [1.0]]), p) == 0.75


ACCURACY_P = np.array([[0.7, 0.3], [0.2, 0.8], [0.6, 0.4]])


@pytest.mark.parametrize("y, probabilities, message", [
    ([0], ACCURACY_P, "accuracy needs one label per probability row, got 1 labels for 3 rows"),
    ([0, 1, 0], ACCURACY_P[:1],
     "accuracy needs one label per probability row, got 3 labels for 1 rows"),
    ([0, 1], ACCURACY_P[0], r"accuracy needs \(n, C\) probabilities, got shape \(2,\)"),
    ([0, 1, 0], ACCURACY_P[None], r"accuracy needs \(n, C\) probabilities, got shape \(1, 3, 2\)"),
    ([0.9, 1.2, 0.0], ACCURACY_P, "accuracy labels must be whole numbers, got 0.9 at row 0"),
    ([0.0, 1.0, np.inf], ACCURACY_P, "accuracy labels must be whole numbers, got inf at row 2"),
    ([0.0, np.nan, 0.0], ACCURACY_P, "accuracy labels must be whole numbers, got nan at row 1"),
], ids=["one-label", "one-row", "1-d", "3-d", "fractional", "infinite", "nan"])
def test_accuracy_rejects_labels_that_do_not_name_one_class_per_row(y, probabilities, message):
    # the row-count and label cases once scored 0.667 or 1.0 (an infinite or NaN label
    # with numpy's invalid-cast warning); the shapes failed inside numpy, unnamed
    with pytest.raises(ValueError, match=f"^{message}$"):
        accuracy(np.array(y), probabilities)


def test_accuracy_scores_whole_number_float_labels_as_their_classes():
    as_ints = accuracy(np.array([0, 1, 1]), ACCURACY_P)
    assert as_ints == 2 / 3
    assert accuracy(np.array([[0.0], [1.0], [1.0]]), ACCURACY_P) == as_ints   # a Dataset's targets
    assert accuracy(np.array([-0.0, 1.0, 1.0]), ACCURACY_P) == as_ints


@pytest.mark.parametrize("task, k", [("regression", 1), ("regression", 3),
                                     ("classification", 2), ("classification", 3)])
def test_headline_metric_alone_is_the_headline_that_score_reports(task, k):
    rng = np.random.default_rng(k)
    if task == "classification":
        observed = rng.integers(0, k, size=(40, 1)).astype(float)
        e = np.exp(rng.normal(size=(40, k)))
        predictions = e / e.sum(axis=1, keepdims=True)
    else:
        observed = rng.normal(size=(40, k))
        predictions = observed + rng.normal(scale=0.5, size=(40, k))
    headline = getattr(score(task, observed, predictions), TASK_METRICS[task][0])
    assert HEADLINE_METRIC[task](observed, predictions) == headline   # the same bits


class TestClassificationMetrics:
    def test_perfect_one_hot(self):
        y = np.array([0.0, 1.0, 2.0])
        p = np.eye(3)
        acc, ce, auc = classification_metrics(y, p)
        assert acc == 1.0
        assert ce == pytest.approx(0.0, abs=1e-9)
        assert auc == 1.0

    def test_uniform_binary_is_chance(self):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        p = np.full((4, 2), 0.5)
        acc, ce, auc = classification_metrics(y, p)
        assert auc == 0.5
        assert ce == pytest.approx(np.log(2.0))

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            classification_metrics(np.array([0.0]), np.array([[0.7, 0.7]]))

    @pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_non_finite_probabilities_rejected(self, row):
        with pytest.raises(ValueError, match="finite"):
            classification_metrics(np.array([1, 1]), np.array([row, [0.5, 0.5]]))

    def test_single_class_auc_absent(self):
        acc, ce, auc = classification_metrics(np.array([1.0, 1.0]),
                                              np.array([[0.2, 0.8], [0.4, 0.6]]))
        assert acc == 1.0
        assert auc is None

    def test_multiclass_macro_auc(self):
        y = np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0])
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.1, 1.0, size=(6, 3))
        p = raw / raw.sum(axis=1, keepdims=True)
        _, _, auc = classification_metrics(y, p)
        expected = np.mean([pairwise_auc_oracle((y == c).astype(int), p[:, c])
                            for c in (0, 1, 2)])
        assert auc == pytest.approx(expected)


def tiny_cfg(**kw):
    base = dict(batch_size=32, max_epochs=10, learning_rate=2e-3, seed=1)
    base.update(kw)
    return TrainConfig(**base)


class TestCompare:
    def test_report_structure_and_paired_counts(self):
        ds = generate_simulated(n=150, seed=0)
        spec = make_spec(ds, (6, 3), dropout_rate=0.0)
        report = compare(ds, spec, tiny_cfg(), n_seeds=3)
        assert len(report.runs) == 6
        assert report.seeds == [1, 2, 3]
        res = report.arm_runs("residual")
        reg = report.arm_runs("regular")
        assert [r.seed for r in res] == [r.seed for r in reg]
        for a, b in zip(res, reg):
            assert a.parameter_count == b.parameter_count
        assert report.jobs == [Job("residual", replace(spec, residual="full"), tiny_cfg()),
                               Job("regular", replace(spec, residual="off"), tiny_cfg())]
        d = report.to_dict()
        assert d["summary"]["residual"]["n_runs"] == 3
        assert "nrmse" in d["definitions"]

    def test_each_job_builds_one_network(self, monkeypatch):
        import resae.evaluation
        import resae.network
        import resae.training
        calls = []

        def counting(make):
            def counted(*args, **kwargs):
                calls.append(args[0])
                return make(*args, **kwargs)
            return counted

        # training builds the network it trains; evaluation lays one out only to count
        # a diverged run's parameters
        monkeypatch.setattr(resae.training, "build_network",
                            counting(resae.network.build_network))
        monkeypatch.setattr(resae.evaluation, "Network", counting(resae.network.Network))
        ds = generate_simulated(n=150, seed=0)
        report = compare(ds, make_spec(ds, (6, 3)), tiny_cfg(max_epochs=2), n_seeds=2)
        assert len(calls) == len(report.runs) == 4
        assert all(r.parameter_count == report.runs[0].parameter_count > 0
                   for r in report.runs)

    def test_non_convergent_arm_recorded_not_fatal(self):
        ds = generate_simulated(n=150, seed=0)
        spec = make_spec(ds, (6, 3), dropout_rate=0.0, use_batchnorm=False,
                         residual_post_op="activation")
        with np.errstate(all="ignore"):
            report = compare(ds, spec, tiny_cfg(optimizer="sgd", learning_rate=1e12),
                             n_seeds=1)
        assert all(not r.converged for r in report.runs)
        assert report.summary["residual"]["n_non_convergent"] == 1
        assert report.summary["residual"]["test_r2"]["mean"] is None

    def test_runs_csv(self, tmp_path):
        ds = generate_simulated(n=150, seed=0)
        spec = make_spec(ds, (6, 3), dropout_rate=0.0)
        report = compare(ds, spec, tiny_cfg(), n_seeds=1)
        path = tmp_path / "runs.csv"
        report.write_runs_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("seed,arm,converged")
        assert len(lines) > 1


def _seeded_jobs(result):
    """(job, run) for each row of a two-seed sweep's run table: every job at
    seed 1, then every job at seed 2, written out here rather than by seed_jobs."""
    labels = [j.label for j in result.jobs]
    assert len(set(labels)) == len(labels)   # the run table is grouped by label
    assert len(result.runs) == 2 * len(result.jobs)
    jobs = [Job(j.label, j.spec, replace(j.cfg, seed=s)) for s in (1, 2) for j in result.jobs]
    assert [run.arm for run in result.runs] == [job.label for job in jobs]
    return list(zip(jobs, result.runs, strict=True))


HARNESSES = {
    "compare": lambda ds, spec, cfg, shared: compare(ds, spec, cfg, n_seeds=2, shared=shared),
    "grid": lambda ds, spec, cfg, shared: grid_search(
        ds, spec, cfg, {"batch_sizes": [16, 32], "output_options": [1, 2]}, n_seeds=2,
        shared=shared),
    "sensitivity": lambda ds, spec, cfg, shared: residual_sensitivity(
        ds, spec, cfg, n_seeds=2, shared=shared),
}


@pytest.mark.parametrize("harness", sorted(HARNESSES))
def test_each_run_equals_its_job_run_alone(harness):
    # each run depends only on its own job (label, spec, train config at its seed)
    # and on what every job shares; a sweep adds nothing of its own
    ds = generate_simulated(n=150, seed=0)
    shared = SharedSettings("l2", 1e-3, reconstruction_weight=0.5)
    result = HARNESSES[harness](ds, make_spec(ds, (6, 3)), tiny_cfg(), shared)
    for job, run in _seeded_jobs(result):
        assert run == run_job(ds, job, shared)[0]


def test_a_sweep_needs_at_least_one_seed():
    job = Job("residual", make_spec(generate_simulated(n=150, seed=0), (6, 3)), tiny_cfg())
    with pytest.raises(ValueError, match="^n_seeds must be >= 1$"):
        seed_jobs([job], 0)


def test_job_and_shared_settings_run_bit_identically_after_a_pickle_round_trip():
    ds = generate_simulated(n=150, seed=0)
    job = Job("residual", make_spec(ds, (6, 3), output_option=2), tiny_cfg(seed=4))
    shared = SharedSettings("l1", 1e-3, reconstruction_weight=0.5)
    job_back, shared_back = pickle.loads(pickle.dumps((job, shared)))
    assert (job_back, shared_back) == (job, shared)
    (run, model), (run_back, model_back) = run_job(ds, job, shared), run_job(ds, job_back,
                                                                             shared_back)
    assert run_back == run and run.converged
    assert model_back.network.flat.value.tobytes() == model.network.flat.value.tobytes()
    assert model_back.history == model.history


@pytest.mark.parametrize("kwargs, message", [
    ({"reconstruction_weight": -0.5}, "reconstruction_weight must be >= 0"),
    ({"reconstruction_weight": "1"}, "reconstruction_weight must be a number"),
    ({"regularizer": "l3"}, "unknown regularizer 'l3'"),
    ({"regularizer": ["l2"]}, "regularizer must be a string"),
    ({"regularizer": "l1", "coefficient": -1e-3}, "regularizer coefficient must be >= 0"),
    ({"coefficient": True}, "coefficient must be a number"),
])
def test_shared_settings_are_checked_when_made(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SharedSettings(**kwargs)


def test_penalty_is_the_loss_sections_regularizer():
    assert SharedSettings().penalty == Regularizer()
    assert SharedSettings("l2", 1e-3, reconstruction_weight=0.5).penalty == Regularizer("l2", 1e-3)


class TestGridSearch:
    def test_singleton_grid_returns_that_config(self):
        ds = generate_simulated(n=150, seed=0)
        spec = make_spec(ds, (6, 3), dropout_rate=0.0)
        result = grid_search(ds, spec, tiny_cfg(), {"batch_sizes": [32]}, n_seeds=1)
        assert len(result.cells) == 1
        assert result.best().cfg.batch_size == 32

    def test_deterministic_ranking(self):
        ds = generate_simulated(n=150, seed=0)
        spec = make_spec(ds, (6, 3), dropout_rate=0.0)
        a = grid_search(ds, spec, tiny_cfg(), {"batch_sizes": [16, 64]}, n_seeds=2)
        b = grid_search(ds, spec, tiny_cfg(), {"batch_sizes": [16, 64]}, n_seeds=2)
        assert [c.label for c in a.cells] == [c.label for c in b.cells]
        assert [a.mean_val_metric(c) for c in a.cells] == [b.mean_val_metric(c) for c in b.cells]

    def test_factorial_cell_count_and_curve(self, tmp_path):
        ds = generate_simulated(n=150, seed=0)
        spec = make_spec(ds, (6, 3), dropout_rate=0.0)
        result = grid_search(ds, spec, tiny_cfg(),
                             {"batch_sizes": [16, 32], "output_options": [1, 2]},
                             n_seeds=1)
        assert len(result.cells) == 4
        curve = result.batch_size_curve()
        assert [b for b, _ in curve] == sorted(b for b, _ in curve)
        result.write_cells_csv(tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_text().startswith("rank,")

    def test_curve_sorts_on_batch_size_alone_when_a_cell_diverged(self):
        spec = make_spec(generate_simulated(n=150, seed=0), (6, 3))
        jobs = [Job("a", spec, tiny_cfg(batch_size=32)), Job("b", spec, tiny_cfg(batch_size=32)),
                Job("c", spec, tiny_cfg(batch_size=16))]
        runs = [RunResult(1, "a", True, 10, validation=Metrics(r2=0.5)),
                RunResult(1, "b", False, 10, diagnostic="non-finite loss"),
                RunResult(1, "c", False, 10, diagnostic="non-finite loss")]
        result = GridResult("regression", jobs, runs, {})
        assert result.batch_size_curve() == [(16, None), (32, 0.5), (32, None)]

    def test_cells_rank_by_mean_validation_metric_then_parameters_then_batch_size(self):
        spec = make_spec(generate_simulated(n=150, seed=0), (6, 3))

        def runs(label, parameter_count, *r2s):
            return [RunResult(seed, label, True, parameter_count, validation=Metrics(r2=v),
                              test=Metrics(r2=v)) for seed, v in enumerate(r2s, 1)]

        batch_sizes = {"diverged": 16, "low": 32, "tie-big-batch": 64, "high": 64,
                       "tie-more-parameters": 16, "tie-small-batch": 32}
        jobs = [Job(label, spec, tiny_cfg(batch_size=b)) for label, b in batch_sizes.items()]
        table = ([RunResult(seed, "diverged", False, 10, diagnostic="non-finite loss")
                  for seed in (1, 2)]
                 + runs("low", 10, 0.0, 0.2) + runs("tie-big-batch", 10, 0.5, 0.5)
                 + runs("high", 30, 0.8, 1.0) + runs("tie-more-parameters", 20, 0.5, 0.5)
                 + runs("tie-small-batch", 10, 0.5, 0.5))
        result = GridResult("regression", jobs, table, {})
        ranked = ["high", "tie-small-batch", "tie-big-batch", "tie-more-parameters", "low",
                  "diverged"]
        assert [c.label for c in result.cells] == ranked
        assert result.best().label == "high"
        assert [c.label for c in result.jobs] == list(batch_sizes)   # listed order stays
        assert [(c["label"], c["n_non_convergent"]) for c in result.to_dict()["ranked"]] == [
            (label, 2 if label == "diverged" else 0) for label in ranked]

    def test_empty_axis_rejected(self):
        ds = generate_simulated(n=150, seed=0)
        spec = make_spec(ds, (6, 3))
        with pytest.raises(ValueError):
            grid_search(ds, spec, tiny_cfg(), {"batch_sizes": []}, n_seeds=1)

    @pytest.mark.parametrize("grid, message", [
        ({"batch_sizes": [16], "nnodes": []}, "grid.nnodes must be non-empty"),
        ({"batch_sizes": [16, 32, 16]}, r"grid.batch_sizes\[2\] repeats grid.batch_sizes\[0\]"),
        ({"nnodes": [[6, 3], [8, 4], [8, 4]]}, r"grid.nnodes\[2\] repeats grid.nnodes\[1\]"),
        ({"activations": ["elu", "tanh", "elu"]},
         r"grid.activations\[2\] repeats grid.activations\[0\]"),
        ({"output_options": [2, 2]},
         r"grid.output_options\[1\] repeats grid.output_options\[0\]"),
    ], ids=["empty-nnodes", "repeated-batch", "repeated-nnode",
            "repeated-activation", "repeated-option"])
    def test_empty_or_repeating_axis_rejected_naming_it(self, grid, message):
        ds = generate_simulated(n=150, seed=0)
        spec = make_spec(ds, (6, 3))
        with pytest.raises(ValueError, match=f"^{message}$"):
            grid_search(ds, spec, tiny_cfg(), grid, n_seeds=1)

    @pytest.mark.parametrize("grid, message", [
        ({"batch_sizes": [16, 32.9]}, r"grid.batch_sizes\[1\] must be an integer, got 32.9"),
        ({"batch_sizes": ["16"]}, r'grid.batch_sizes\[0\] must be an integer, got "16"'),
        ({"batch_sizes": [True]}, r"grid.batch_sizes\[0\] must be an integer, got true"),
        ({"nnodes": [[8, 4.5]]}, r"grid.nnodes\[0\]\[1\] must be an integer, got 4.5"),
        ({"nnodes": ["84"]}, r'grid.nnodes\[0\] must be a list, got "84"'),
        ({"batch_size": [16, 64]}, r"grid.batch_size is not a grid axis"),
    ], ids=["float-batch", "string-batch", "boolean-batch", "float-width", "string-nnode",
            "unknown-axis"])
    def test_axis_value_of_wrong_json_type_or_unknown_axis_rejected(self, grid, message):
        ds = generate_simulated(n=150, seed=0)
        spec = make_spec(ds, (6, 3))
        with pytest.raises(ValueError, match=message):
            grid_search(ds, spec, tiny_cfg(), grid, n_seeds=1)


class Testsensitivity:
    def test_rows_cover_all_counts_and_match_arm_identities(self):
        ds = generate_simulated(n=150, seed=0)
        spec = make_spec(ds, (6, 3), dropout_rate=0.0)
        cfg = tiny_cfg()
        sens = residual_sensitivity(ds, spec, cfg, n_seeds=2)
        assert [job.spec.residual_count() for job in sens.jobs] == [0, 1, 2]
        report = compare(ds, spec, cfg, n_seeds=2)
        # identical seeds and splits: count 0 IS the regular arm, full count the residual arm
        reg = [r.test.r2 for r in report.arm_runs("regular")]
        res = [r.test.r2 for r in report.arm_runs("residual")]
        zero = [r.test.r2 for r in sens.arm_runs("shortcuts=0")]
        full = [r.test.r2 for r in sens.arm_runs("shortcuts=2")]
        np.testing.assert_array_equal(zero, reg)
        np.testing.assert_array_equal(full, res)

    def test_requires_two_pairs(self):
        ds = generate_simulated(n=150, seed=0)
        spec = make_spec(ds, (6,))
        with pytest.raises(ValueError):
            residual_sensitivity(ds, spec, tiny_cfg(), n_seeds=1)

    def test_csv(self, tmp_path):
        ds = generate_simulated(n=150, seed=0)
        spec = make_spec(ds, (6, 3), dropout_rate=0.0)
        sens = residual_sensitivity(ds, spec, tiny_cfg(), n_seeds=1)
        sens.write_csv(tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().strip().splitlines()
        assert lines[0] == "n_shortcuts,mean_test_r2,mean_test_rmse"
        assert len(lines) == 4
