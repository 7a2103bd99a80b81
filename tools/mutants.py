"""Plant each bug of a fixed list in a fresh copy of the repository and check
that the tests named for it fail.

    python tools/mutants.py

Each mutant replaces one exact text in one file.  The copy is `git archive`
of the working tree's tracked files as `git stash create` records them (of
HEAD when nothing has changed), extracted into a new temporary directory for
each mutant, so work can be checked before it is committed.  The tool first
checks that every old text occurs exactly once
in its file, so the list cannot go stale quietly, and that the named tests
pass on the unmutated copy.  It then runs pytest on each mutant's named tests
alone: the mutant is caught when pytest reports a failing test (exit 1).  It
exits 1 unless every check holds and every mutant is caught.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str                 # relative to the repository root
    old: str                  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]    # pytest node ids; any failure catches the mutant


MUTANTS = (
    Mutant("elu-minimum-argument-order", "src/resae/layers.py",
           "m = _minimum(0.0, z)", "m = _minimum(z, 0.0)",
           ("tests/test_layers.py::test_elu_is_bit_identical_to_where_reference",)),
    Mutant("elu-keeps-its-input", "src/resae/layers.py",
           "        return e, m\n", "        return e, z\n",
           ("tests/test_layers.py::test_elu_is_bit_identical_to_where_reference",)),
    Mutant("tanh-backward-reapplies-tanh", "src/resae/layers.py",
           "g = _multiply(kept, kept)", "g = _multiply(_tanh(kept), _tanh(kept))",
           ("tests/test_layers.py"
            "::test_kernels_are_bit_identical_to_where_and_tanh_references_on_any_float",)),
    Mutant("running-variance-check-dropped", "src/resae/network.py",
           'if name.endswith(".running_var") and (data < 0.0).any():', "if False:",
           ("tests/test_training.py::TestModelDocument"
            "::test_bad_document_rejected_naming_field",)),
    Mutant("running-stat-blend-literal", "src/resae/network.py",
           "self.running += (1.0 - BN_MOMENTUM) * self._batch_stats",
           "self.running += 0.1 * self._batch_stats",
           ("tests/test_network.py::TestFlatParameters"
            "::test_train_forwards_blend_running_stats_at_bn_momentum",)),
    Mutant("adam-step-association", "src/resae/training.py",
           "u = _divide(m, c1)\n        _multiply(lr, u, u)\n",
           "u = _multiply(lr, m)\n        _divide(u, c1, u)\n",
           ("tests/test_training.py::test_flat_step_is_bit_identical_to_per_array_steps",)),
    Mutant("rng-block-one-counter-late", "src/resae/matrix.py",
           "block = np.arange(1, size + 1, dtype=np.uint64)",
           "block = np.arange(2, size + 2, dtype=np.uint64)",
           ("tests/test_matrix.py::test_block_draws_match_the_plain_stream",)),
    Mutant("rng-state-setter-keeps-block", "src/resae/matrix.py",
           "        self._block = np.empty(0, dtype=np.uint64)"
           "   # holds draws _block_start + 1, ...\n        self._block_start = self._count\n",
           "        if not hasattr(self, '_block'):\n"
           "            self._block = np.empty(0, dtype=np.uint64)\n"
           "            self._block_start = self._count\n",
           ("tests/test_matrix.py::TestRng"
            "::test_new_key_at_the_same_counter_draws_that_key_stream",)),
    Mutant("batchnorm-infer-subtracts-into-input", "src/resae/layers.py",
           "out = _subtract(x, self.running_mean)", "out = _subtract(x, self.running_mean, x)",
           ("tests/test_layers.py::test_no_step_writes_into_its_input_upstream_or_output",)),
    Mutant("elu-backward-multiplies-into-upstream", "src/resae/layers.py",
           "        _multiply(e, upstream, e)\n        return e\n",
           "        _multiply(e, upstream, upstream)\n        return upstream\n",
           ("tests/test_layers.py::test_no_step_writes_into_its_input_upstream_or_output",)),
    Mutant("batchnorm-output-written-into-its-cache", "src/resae/layers.py",
           "        _multiply(self.gamma, xhat, out)\n",
           "        out = _multiply(self.gamma, xhat, xhat)\n",
           ("tests/test_layers.py::test_no_step_writes_into_its_input_upstream_or_output",)),
    Mutant("network-backward-walks-in-forward-order", "src/resae/network.py",
           "[step.backward for step in reversed(steps)]", "[step.backward for step in steps]",
           ("tests/test_network.py::TestFlatParameters::test_backward_fills_the_flat_gradient",)),
    Mutant("sweep-hands-every-job-the-template-seed", "src/resae/evaluation.py",
           "Job(j.label, j.spec, replace(j.cfg, seed=seed))", "Job(j.label, j.spec, j.cfg)",
           ("tests/test_evaluation.py::test_each_run_equals_its_job_run_alone",)),
    Mutant("seed-jobs-in-job-major-order", "src/resae/evaluation.py",
           "for seed in seeds for j in jobs]", "for j in jobs for seed in seeds]",
           ("tests/test_evaluation.py::test_each_run_equals_its_job_run_alone",)),
    Mutant("arm-runs-ignores-the-label", "src/resae/evaluation.py",
           "return [r for r in self.runs if r.arm == label]", "return list(self.runs)",
           ("tests/test_evaluation.py::TestCompare::test_report_structure_and_paired_counts",)),
    Mutant("grid-ranks-the-worst-cell-first", "src/resae/evaluation.py",
           "else -mean,", "else mean,",
           ("tests/test_evaluation.py::TestGridSearch"
            "::test_cells_rank_by_mean_validation_metric_then_parameters_then_batch_size",)),
    Mutant("artifact-json-indented-by-one", "src/resae/cli.py",
           "json.dump(payload, fh, indent=2,", "json.dump(payload, fh, indent=1,",
           ("tests/test_artifact_set.py::test_the_artifact_set_equals_the_committed_listing",)),
    Mutant("split-swaps-validation-and-test", "src/resae/data.py",
           "validation=order[n_test:n_test + n_val],\n"
           "                        test=order[:n_test])",
           "validation=order[:n_test],\n"
           "                        test=order[n_test:n_test + n_val])",
           ("tests/test_data.py::TestSplit::test_indices_match_their_pinned_digest",)),
    Mutant("grid-repeat-check-skips-the-previous-value", "src/resae/evaluation.py",
           "if value in axes[key][:i]:", "if value in axes[key][:i - 1]:",
           ("tests/test_evaluation.py::TestGridSearch"
            "::test_empty_or_repeating_axis_rejected_naming_it",)),
    Mutant("bin-bounds-allow-a-repeat", "src/resae/data.py",
           "any(lo >= hi for", "any(lo > hi for",
           ("tests/test_data.py::TestBinToClasses::test_repeated_bound_rejected",)),
    Mutant("parsed-column-never-tests-nan-cells-as-markers", "src/resae/data.py",
           "if cells[i].lower() in MISSING_MARKERS]] = False", "if False]] = False",
           ("tests/test_data.py::test_load_csv_matches_the_row_at_a_time_reference",)),
    Mutant("fallback-parse-also-parses-missing-cells", "src/resae/data.py",
           "map(float, compress(cells, mask))", "map(float, cells)",
           ("tests/test_data.py::test_load_csv_matches_the_row_at_a_time_reference",)),
    Mutant("categories-in-first-seen-order", "src/resae/data.py",
           "cats = sorted(set(cells))", "cats = list(dict.fromkeys(cells))",
           ("tests/test_data.py::TestLoadCsv::test_one_hot_encoding",)),
    Mutant("train-drops-the-shared-settings", "src/resae/cli.py",
           'Job("train", run.spec, run.train_cfg), run.shared)',
           'Job("train", run.spec, run.train_cfg), SharedSettings())',
           ("tests/test_cli.py::TestTrain"
            "::test_metrics_equal_the_residual_arm_of_a_one_seed_compare",)),
    Mutant("add-step-keeps-the-saved-rows", "src/resae/layers.py",
           "shallow, self.save.tensor = self.save.tensor, None", "shallow = self.save.tensor",
           ("tests/test_network.py::test_inference_forward_keeps_no_rows"
            "_and_leaves_the_train_backward_bit_identical",)),
    Mutant("early-stop-patience-off-by-one", "src/resae/training.py",
           "epoch - history.best_epoch >= cfg.early_stop_patience",
           "epoch - history.best_epoch > cfg.early_stop_patience",
           ("tests/test_training.py::TestFit"
            "::test_an_early_stop_runs_patience_epochs_past_the_best",)),
    Mutant("val-metric-reads-the-second-metric", "src/resae/evaluation.py",
           '"classification": accuracy}',
           '"classification": lambda y, p: classification_metrics(y, p)[1]}',
           ("tests/test_cli.py::TestTrain"
            "::test_history_val_metric_at_the_best_epoch_is_the_validation_headline",)),
    Mutant("fit-stops-shuffling", "src/resae/training.py",
           "order = shuffle_rng.permutation(n)", "order = np.arange(n)",
           ("tests/test_training.py::test_fit_is_bit_identical_to_plain_per_array_reference",)),
    Mutant("record-reader-names-the-field-not-the-key", "src/resae/matrix.py",
           'f"{where}.{key_of[name]}"', 'f"{where}.{name}"',
           ("tests/test_cli.py::TestConfigErrors::test_wrong_json_type_exits_2_naming_key",)),
    Mutant("penalty-drops-the-coefficient", "src/resae/training.py",
           "loss_kind(dataset.task, spec), cfg, shared, val_metric)",
           "loss_kind(dataset.task, spec), cfg, replace(shared, l2=0.0), val_metric)",
           ("tests/test_evaluation.py::test_penalty_is_the_loss_sections_l2",)),
    Mutant("train-model-reconstructs-at-weight-one", "src/resae/training.py",
           "loss_kind(dataset.task, spec), cfg, shared, val_metric)",
           "loss_kind(dataset.task, spec), cfg, replace(shared, reconstruction_weight=1.0), "
           "val_metric)",
           ("tests/test_evaluation.py::test_reconstruction_weight_is_the_loss_sections",)),
    Mutant("unknown-loss-kind-scored-as-cross-entropy", "src/resae/training.py",
           '    elif kind == "cross_entropy":\n', "    elif True:\n",
           ("tests/test_training.py::TestLoss::test_unknown_kind_rejected",)),
    Mutant("gradient-check-keeps-the-worst-past-a-nan", "src/resae/training.py",
           "if not math.isfinite(err):", "if False:",
           ("tests/test_training.py::TestGradientCheck"
            "::test_a_non_finite_relative_error_is_rejected",)),
    Mutant("gradient-check-scores-a-nan-loss", "src/resae/training.py",
           "        if not math.isfinite(value):\n            raise ValueError(f\"gradient_check",
           "        if False:\n            raise ValueError(f\"gradient_check",
           ("tests/test_training.py::TestGradientCheck::test_a_non_finite_loss_is_rejected",)),
    Mutant("classification-trains-option-2-on-cross-entropy", "src/resae/training.py",
           '    if task == "classification" and spec.output_option == 2:\n', "    if False:\n",
           ("tests/test_training.py::TestTrainModelPipeline"
            "::test_option_2_on_a_classification_task_is_rejected_before_training",)),
    Mutant("gradient-check-takes-any-sample-count", "src/resae/training.py",
           'if checked_json(n_sample, int, "n_sample") < 1:', "if False:",
           ("tests/test_training.py::TestGradientCheck"
            "::test_n_sample_must_be_an_integer_above_zero",)),
    Mutant("spawn-reads-its-tag-with-int", "src/resae/matrix.py",
           '(_integer(tag, "tag") + 1)', "(int(tag) + 1)",
           ("tests/test_matrix.py::TestRng"
            "::test_a_spawn_tag_that_is_not_an_integer_is_rejected",)),
    Mutant("build-network-seeds-only-python-ints", "src/resae/network.py",
           "rng if isinstance(rng, Rng) else Rng(rng)",
           "Rng(rng) if isinstance(rng, int) else rng",
           ("tests/test_network.py::TestBuilder"
            "::test_a_numpy_integer_seed_draws_the_int_seeds_weights",)),
    Mutant("batch-gradient-drops-the-penalty-gradient", "src/resae/training.py",
           "            net.flat.grad += 2.0 * l2 * net.flat.value\n", "            pass\n",
           ("tests/test_training.py::TestRegularizer"
            "::test_l2_matches_finite_differences_through_gradient_check",
            "tests/test_training.py::test_fit_is_bit_identical_to_plain_per_array_reference")),
    Mutant("batch-loss-drops-the-penalty-value", "src/resae/training.py",
           "value += l2 * sum(float((p.value * p.value).sum()) for p in net.parameters()) "
           "if l2 else 0.0",
           "value += 0.0",
           ("tests/test_training.py::TestRegularizer"
            "::test_l2_matches_finite_differences_through_gradient_check",)),
    Mutant("accuracy-takes-the-least-probable-class", "src/resae/evaluation.py",
           "p.argmax(axis=1) == labels", "p.argmin(axis=1) == labels",
           ("tests/test_evaluation.py"
            "::test_accuracy_is_the_share_of_rows_whose_most_probable_class_is_observed",
            "tests/test_evaluation.py::TestClassificationMetrics::test_perfect_one_hot")),
    Mutant("class-labels-unchecked-for-range", "src/resae/evaluation.py",
           " & (labels >= 0) & (labels < p.shape[1])", "",
           ("tests/test_evaluation.py"
            "::test_classification_metrics_checks_labels_before_reading_them",)),
    Mutant("csv-target-with-one-class-kept", "src/resae/data.py",
           "if (classes == classes[0]).all():", "if False:",
           ("tests/test_data.py::TestLoadCsv::test_a_target_that_cannot_be_learned_is_rejected",)),
    Mutant("dropout-draw-cut-by-columns", "src/resae/layers.py",
           "    keep = (rng.uniform(n * bounds[-1][1]) >= rate) / (1.0 - rate)\n"
           "    return [keep[n * lo:n * hi].reshape(n, hi - lo) for lo, hi in bounds]\n",
           "    keep = (rng.uniform(n, bounds[-1][1]) >= rate) / (1.0 - rate)\n"
           "    return [keep[:, lo:hi] for lo, hi in bounds]\n",
           ("tests/test_network.py"
            "::test_a_train_pass_draws_the_masks_of_one_draw_per_dropout_step_in_step_order",)),
    Mutant("inverse-sd-computed-once", "src/resae/network.py",
           "            inverse_sd(np.take(self.running, self._var_index, out=self._inv), "
           "out=self._inv)\n",
           "            if not hasattr(self, '_inv_done'):\n"
           "                self._inv_done = inverse_sd(np.take(self.running, self._var_index, "
           "out=self._inv), out=self._inv)\n",
           ("tests/test_network.py::test_inference_after_each_state_write_is_the_plain_forward",)),
    Mutant("dropout-masks-shifted-one-step", "src/resae/network.py",
           "zip(self._dropout_at, masks)", "zip(self._dropout_at, masks[1:] + masks[:1])",
           ("tests/test_network.py"
            "::test_a_train_pass_draws_the_masks_of_one_draw_per_dropout_step_in_step_order",)),
    Mutant("batchnorm-var-index-counted-per-layer", "src/resae/network.py",
           "at, i, bn = len(var_index), len(steps), BatchNormLayer(width)",
           "at, i, bn = len(norms), len(steps), BatchNormLayer(width)",
           ("tests/test_network.py::test_inference_after_each_state_write_is_the_plain_forward",)),
    Mutant("dropout-draw-columns-do-not-advance", "src/resae/network.py",
           "lo = self._dropout_bounds[-1][1] if self._dropout_bounds else 0", "lo = 0",
           ("tests/test_network.py"
            "::test_a_train_pass_draws_the_masks_of_one_draw_per_dropout_step_in_step_order",)),
    Mutant("shortcuts-in-decode-order", "src/resae/network.py",
           "self.shortcuts.insert(0, steps[-1])", "self.shortcuts.append(steps[-1])",
           ("tests/test_network.py::TestBuilder::test_four_layer_wiring",)),
)


def mutate(text: str, mutant: Mutant) -> str:
    """text with the mutant's old text replaced by its new one; a ValueError
    unless the old text occurs exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: its old text occurs {count} times in "
                         f"{mutant.path}, not once")
    return text.replace(mutant.old, mutant.new)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(archive: bytes, root: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(root, filter="data")


def run_tests(root: Path, tests) -> int:
    """pytest's exit code for the tests, run in root on root's own package."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run(command, cwd=root, env=env, capture_output=True).returncode


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    archive = git("archive", git("stash", "create").decode().strip() or "HEAD")
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        extract(archive, base)
        stale = []
        for m in MUTANTS:
            try:
                mutate((base / m.path).read_text(encoding="utf-8"), m)
            except ValueError as exc:
                stale.append(str(exc))
        if stale:
            print("stale mutants:\n  " + "\n  ".join(stale))
            return 1
        code = run_tests(base, sorted({test for m in MUTANTS for test in m.tests}))
        if code != 0:
            print(f"the named tests do not pass on the unmutated copy (pytest exit {code})")
            return 1
        missed = []
        for m in MUTANTS:
            root = Path(tmp) / m.name
            extract(archive, root)
            path = root / m.path
            path.write_text(mutate(path.read_text(encoding="utf-8"), m), encoding="utf-8")
            start = time.perf_counter()
            code = run_tests(root, m.tests)
            verdict = {0: "MISSED", 1: "caught"}.get(code, f"MISSED (pytest exit {code})")
            print(f"{m.name}: {verdict} in {time.perf_counter() - start:.1f} s", flush=True)
            if code != 1:
                missed.append(m.name)
    print(f"{len(MUTANTS) - len(missed)} of {len(MUTANTS)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
