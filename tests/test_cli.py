import json
import os
import shutil
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import graphcompose
from graphcompose import cli
from graphcompose.cli import (
    _LOSS_WEIGHT_KEYS,
    HIDDEN_WIDTHS,
    LEARNING_RATE_BAND,
    main,
    run_sweep,
    sample_config,
    trial_seed,
    trials_to_text,
)
from graphcompose.data import Dataset, load_dataset
from graphcompose.errors import NumericError, UsageError
from graphcompose.graph import GraphTopology, build_operator
from graphcompose.networks import compile_network, forward, preset

from .conftest import spy_infer_threads, whole, write_dataset_dir


@pytest.fixture(scope="session")
def cli_env(cli_dataset_dir):
    """The on-disk dataset with its splits generated once."""
    code = main(["splits", "--dataset-dir", str(cli_dataset_dir), "--seed", "0"])
    assert code == 0
    return cli_dataset_dir


@pytest.fixture(scope="session")
def sparse_cli_env(sparse_cli_dataset_dir):
    """The sparse-feature dataset with its splits generated once."""
    code = main(["splits", "--dataset-dir", str(sparse_cli_dataset_dir), "--seed", "0"])
    assert code == 0
    return sparse_cli_dataset_dir


def quick_train_args(env, out, method, extra=()):
    return [
        "train",
        "--dataset-dir",
        str(env),
        "--size",
        "1",
        "--split",
        "0",
        "--method",
        method,
        "--epochs",
        "25",
        "--patience",
        "25",
        "--out",
        str(out),
        *extra,
    ]


def read_only_result(out_dir):
    files = list(Path(out_dir).rglob("result.json"))
    assert len(files) == 1
    return json.loads(files[0].read_text())


class TestSampleConfig:
    def draws(self, seed, n=200, **kwargs):
        rng = np.random.default_rng(seed)
        kwargs = {"paper_space": False, "keys": ("hidden_dim", *_LOSS_WEIGHT_KEYS), **kwargs}
        return [sample_config(rng, **kwargs) for _ in range(n)]

    def test_log_sampling_in_bounds(self):
        rates = [cfg["learning_rate"] for cfg in self.draws(1)]
        assert all(1e-4 <= x <= 1e-1 for x in rates)
        # A log draw spends real probability on the low decades.
        assert sum(1 for x in rates if x < 1e-3) > 20

    def test_default_learning_rate_is_log_band(self):
        assert LEARNING_RATE_BAND == (1e-4, 1e-1)
        rates = np.array([cfg["learning_rate"] for cfg in self.draws(1)])
        # Log-uniform over the band: each of its three decades gets about a third.
        per_decade, _ = np.histogram(np.log10(rates), bins=[-4, -3, -2, -1])
        assert all(40 <= n <= 95 for n in per_decade)

    def test_paper_space_learning_rate_plain_uniform(self):
        rates = [cfg["learning_rate"] for cfg in self.draws(1, paper_space=True)]
        assert all(0.0 <= x < 1.0 for x in rates)
        # Outside the default band most of the time, as a plain (0, 1) draw is.
        assert sum(1 for x in rates if x > 1e-1) > 150

    def test_unit_interval_draws_in_bounds(self):
        keys = ("dropout", "weight_decay", "mu_g", "mu_l", "mu_u", "lambda_l", "lambda_u")
        for cfg in self.draws(0):
            assert all(0.0 <= cfg[key] < 1.0 for key in keys)

    def test_hidden_width_from_the_five_choices(self):
        widths = [cfg["hidden_dim"] for cfg in self.draws(3)]
        assert HIDDEN_WIDTHS == (8, 16, 32, 64, 128)
        assert set(widths) == set(HIDDEN_WIDTHS)

    @pytest.mark.parametrize(
        "keys",
        [(), ("hidden_dim",), _LOSS_WEIGHT_KEYS],
        ids=["none", "hidden_dim", "loss_weights"],
    )
    def test_keys(self, keys):
        (cfg,) = self.draws(2, 1, keys=keys)
        assert list(cfg) == ["learning_rate", "dropout", "weight_decay", *keys]


class TestRunSweep:
    def test_trial_seeds_distinct_and_stable(self):
        seeds = [trial_seed(7, i) for i in range(20)]
        assert len(set(seeds)) == 20
        assert seeds == [trial_seed(7, i) for i in range(20)]

    def test_jobs_do_not_change_outcome(self):
        def run_one(cfg, seed):
            return cfg["learning_rate"] * 0.5 + (seed % 97) * 1e-9, ("model", seed)

        best1, model1, trials1 = run_sweep(run_one, 12, seed=3, jobs=1)
        best4, model4, trials4 = run_sweep(run_one, 12, seed=3, jobs=4)
        assert best1 == best4
        assert trials1 == trials4
        assert model1 == model4 == ("model", best1.seed)

    def test_ties_go_to_first_trial(self):
        first = trial_seed(0, 0)

        def run_one(cfg, seed):
            if seed == first:
                time.sleep(0.05)  # let later ties finish first
            return 0.5, ("model", seed)

        for jobs in (1, 4):
            best, model, _ = run_sweep(run_one, 6, seed=0, jobs=jobs)
            assert best.index == 0
            assert model == ("model", first)

    def test_losing_models_are_dropped_as_trials_finish(self):
        class Model:
            pass

        index_of = {trial_seed(5, i): i for i in range(4)}
        refs = {}
        later_done = threading.Event()
        seen_alive = []

        def run_one(cfg, seed):
            index = index_of[seed]
            if index == 0:
                # Trials 1-3 run on the other thread while this one waits.
                assert later_done.wait(timeout=10)
                deadline = time.monotonic() + 5
                while refs[3]() is not None and time.monotonic() < deadline:
                    time.sleep(0.005)
                seen_alive.extend(i for i in (2, 3) if refs[i]() is not None)
                return 0.2, Model()
            model = Model()
            refs[index] = weakref.ref(model)
            if index == 3:
                later_done.set()
            return {1: 0.5, 2: 0.4, 3: 0.3}[index], model

        best, model, trials = run_sweep(run_one, 4, seed=5, jobs=2)
        assert seen_alive == []
        assert best.index == 1 and refs[1]() is model
        assert [t.val_accuracy for t in trials] == [0.2, 0.5, 0.4, 0.3]

    def test_selection_holds_under_thread_switching(self):
        def run_one(cfg, seed):
            return (seed % 5) / 10, ("model", seed)  # many ties

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            best, model, trials = run_sweep(run_one, 64, seed=9, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        top = max(t.val_accuracy for t in trials)
        assert best == next(t for t in trials if t.val_accuracy == top)
        assert model == ("model", best.seed)

    def test_failed_trials_are_recorded_not_fatal(self):
        def run_one(cfg, seed):
            if cfg["dropout"] > 0.5:
                raise NumericError("diverged")
            return cfg["dropout"], None

        best, _, trials = run_sweep(run_one, 20, seed=1)
        statuses = {t.status for t in trials}
        assert statuses == {"ok", "failed"}
        assert best.status == "ok"
        failed = [t for t in trials if t.status == "failed"]
        assert all(t.message == "diverged" for t in failed)

    def test_all_failed_raises(self):
        def run_one(cfg, seed):
            raise NumericError("boom")

        with pytest.raises(NumericError, match="all 4"):
            run_sweep(run_one, 4, seed=0)

    def test_validation(self):
        with pytest.raises(UsageError):
            run_sweep(lambda c, s: (0.0, None), 0, seed=0)
        with pytest.raises(UsageError):
            run_sweep(lambda c, s: (0.0, None), 1, seed=0, jobs=0)

    @pytest.mark.parametrize("keys", [("hidden_dim",), ()], ids=["widths", "no-width"])
    def test_pool_starts_widest_first_and_returns_index_order(self, keys):
        budget = 8
        index_of = {trial_seed(4, i): i for i in range(budget)}
        started = []
        pair = threading.Barrier(2, timeout=10)

        def run_one(cfg, seed):
            started.append(index_of[seed])
            pair.wait()
            return 0.5, None

        best, _, trials = run_sweep(run_one, budget, seed=4, jobs=2, keys=keys)
        assert [t.index for t in trials] == list(range(budget))
        assert best.index == 0
        widths = [t.config.get("hidden_dim", 0) for t in trials]
        order = sorted(range(budget), key=lambda i: (-widths[i], i))
        # Two trials run at once and meet at the barrier before either
        # returns, so trials start in pairs in the order they were submitted.
        pairs = range(0, budget, 2)
        assert [set(started[k:k + 2]) for k in pairs] == [set(order[k:k + 2]) for k in pairs]

    def test_pool_holds_one_blas_thread_and_restores_it(self, two_blas_threads):
        seen = []

        def run_one(cfg, seed):
            seen.append(two_blas_threads())
            raise RuntimeError("trial bug")

        with pytest.raises(RuntimeError, match="trial bug"):
            run_sweep(run_one, 3, seed=0, jobs=2)
        assert seen and set(seen) == {1}
        assert two_blas_threads() == 2
        seen.clear()
        with pytest.raises(RuntimeError, match="trial bug"):
            run_sweep(run_one, 3, seed=0, jobs=1)
        assert seen == [2]

    def test_trials_text_holds_no_test_numbers(self):
        _, _, trials = run_sweep(lambda cfg, seed: (0.4, None), 3, seed=2)
        text = trials_to_text(trials)
        header = text.splitlines()[0]
        assert header == "index\tstatus\tval_accuracy\tconfig"
        assert "test" not in text
        assert len(text.splitlines()) == 4


class TestErrorsAndExitCodes:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["cost", "--method", "sgcn", "--frobnicate"]) == 1

    def test_missing_dataset_dir_is_data_error(self, tmp_path):
        code = main(
            ["splits", "--dataset-dir", str(tmp_path / "absent")]
        )
        assert code == 2

    def test_unknown_method(self, capsys):
        code = main(
            ["cost", "--method", "transformer", "--nodes", "10", "--edges", "10",
             "--input-dim", "4", "--classes", "2"]
        )
        assert code == 1
        assert "unknown method" in capsys.readouterr().err

    def test_cost_needs_sizes(self):
        assert main(["cost", "--method", "sgcn"]) == 1

    def test_cost_rejects_lpnn(self):
        assert main(["cost", "--method", "lpnn", "--nodes", "10", "--edges", "10",
                     "--input-dim", "4", "--classes", "2"]) == 1

    def test_deeply_nested_spec_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["cost", "--method", str(path), "--nodes", "10", "--edges", "10",
                     "--input-dim", "4", "--classes", "2"]) == 1
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith(f"error: cannot read network spec {path}: ")

    def test_gradcheck_rejects_lpnn(self):
        assert main(["gradcheck", "--method", "lpnn"]) == 1

    def test_lpnn_rejects_shape_flags(self, cli_env, tmp_path):
        code = main(quick_train_args(cli_env, tmp_path, "lpnn", ["--hidden", "16"]))
        assert code == 1

    def test_lpnn_rejects_operator_flags(self, cli_env, tmp_path):
        code = main(quick_train_args(cli_env, tmp_path, "lpnn", ["--operator", "row"]))
        assert code == 1

    def test_alpha_requires_beta(self, cli_env, tmp_path):
        code = main(quick_train_args(cli_env, tmp_path, "sgcn", ["--alpha", "0.5"]))
        assert code == 1

    def test_mix_requires_pair(self, cli_env, tmp_path):
        code = main(quick_train_args(cli_env, tmp_path, "sgcn", ["--operator", "mix"]))
        assert code == 1

    def test_split_flags_required(self, cli_env, tmp_path):
        code = main(
            ["train", "--dataset-dir", str(cli_env), "--method", "sgcn",
             "--out", str(tmp_path)]
        )
        assert code == 1

    def test_standard_split_conflicts_with_size(self, cli_env, tmp_path):
        code = main(
            quick_train_args(cli_env, tmp_path, "sgcn", ["--standard-split"])
        )
        assert code == 1

    def test_size_out_of_range(self, cli_env, tmp_path):
        args = quick_train_args(cli_env, tmp_path, "sgcn")
        args[args.index("--size") + 1] = "9"
        assert main(args) == 1

    def test_missing_generated_split_is_data_error(self, cli_dataset_dir, tmp_path):
        args = quick_train_args(cli_dataset_dir, tmp_path, "sgcn")
        args += ["--splits-dir", str(tmp_path / "nosplits")]
        assert main(args) == 2

    def test_out_of_range_generated_split_is_data_error(self, cli_env, tmp_path, capsys):
        splits = tmp_path / "splits"
        (splits / "1" / "0").mkdir(parents=True)
        (splits / "1" / "0" / "split.txt").write_text("train:\n0\nval:\n1\ntest:\n99999\n")
        args = quick_train_args(cli_env, tmp_path, "sgcn") + ["--splits-dir", str(splits)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "split.txt:6: node id 99999 outside" in err

    @pytest.mark.parametrize(
        "lines, message",
        [("0 0 1.0\n0 1 nan\n", "features.txt:2: non-finite feature value 'nan'"),
         ("0 0 1.0\n0 0 2.0\n", "features.txt:2: node 0 feature 0 given twice")],
        ids=["non-finite", "repeated"],
    )
    def test_bad_feature_line_is_data_error(self, cli_env, tmp_path, capsys, lines, message):
        root = tmp_path / "ds"
        shutil.copytree(cli_env, root)
        (root / "features.txt").write_text(lines)
        assert main(["splits", "--dataset-dir", str(root)]) == 2
        assert message in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("method", ["gcn", "sgcn"])
    def test_hidden_must_be_positive(self, cli_env, tmp_path, capsys, method):
        code = main(quick_train_args(cli_env, tmp_path, method, ["--hidden", "0"]))
        assert code == 1
        assert "must be" in capsys.readouterr().err
        assert not list(Path(tmp_path).rglob("result.json"))

    def test_failed_gradcheck_is_numeric_error(self, capsys):
        code = main(["gradcheck", "--method", "gcn", "--tolerance", "1e-18"])
        assert code == 3
        assert "gradient check failed" in capsys.readouterr().err


def split_dir(tmp, text):
    """A splits directory whose size-1, split-0 file holds text."""
    (tmp / "splits" / "1" / "0").mkdir(parents=True)
    (tmp / "splits" / "1" / "0" / "split.txt").write_text(text)
    return str(tmp / "splits")


def non_utf8_copy(env, tmp):
    """A copy of the dataset whose labels.txt ends in two bytes that are not UTF-8."""
    root = tmp / "non-utf8"
    shutil.copytree(env, root, ignore=shutil.ignore_patterns("splits"))
    with open(root / "labels.txt", "ab") as f:
        f.write(b"\xff\xfe\n")
    return str(root)


def regular_file(tmp):
    """A regular file, so that no path beneath it can be written."""
    path = tmp / "a-file"
    path.write_text("")
    return path


def spec_file(tmp, name="spec", stages=({"kind": "fp"},)):
    """A network spec file: the given stages, then a linear classifier and a softmax."""
    stages = [*stages, {"kind": "linear_classifier"}, {"kind": "softmax"}]
    path = tmp / "spec.json"
    path.write_text(json.dumps({"name": name, "stages": stages}))
    return str(path)


def json_file(tmp, doc):
    """doc written as tmp/spec.json."""
    path = tmp / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def labels_dir_copy(env, tmp):
    """A copy of the dataset whose labels.txt is a directory."""
    root = tmp / "labels-dir"
    shutil.copytree(env, root, ignore=shutil.ignore_patterns("splits"))
    (root / "labels.txt").unlink()
    (root / "labels.txt").mkdir()
    return str(root)


def run_args(command, env, extra=()):
    return [
        command, "--dataset-dir", str(env), "--size", "1", "--split", "0",
        "--method", "sgcn", "--epochs", "2", "--patience", "2", *extra,
    ]


# A width, layer count or toy-graph size far past any array numpy can allocate.
HUGE = 10**20

# How a spec file's name is refused, up to the name itself.
NAME_REFUSED = "spec.json: network spec 'name' must match [A-Za-z0-9][A-Za-z0-9._-]*, got"

# Malformed invocations: each is refused with its documented exit code
# (1 usage, 2 data, 3 numeric) and an "error: ..." line, never a traceback.
MALFORMED = [
    ("splits-negative-seed",
     lambda env, tmp: ["splits", "--dataset-dir", str(env), "--seed", "-1", "--out", str(tmp)],
     1, "argument --seed: expected a non-negative integer, got '-1'"),
    ("train-negative-seed",
     lambda env, tmp: quick_train_args(env, tmp, "sgcn", ["--seed", "-1"]),
     1, "argument --seed: expected a non-negative integer"),
    ("train-text-seed",
     lambda env, tmp: quick_train_args(env, tmp, "sgcn", ["--seed", "one"]),
     1, "argument --seed: expected a non-negative integer, got 'one'"),
    ("sweep-negative-seed",
     lambda env, tmp: run_args("sweep", env, ["--budget", "1", "--seed", "-2", "--out", str(tmp)]),
     1, "argument --seed: expected a non-negative integer"),
    ("propmodel-sweep-negative-seed",
     lambda env, tmp: run_args("propmodel-sweep", env, ["--model", "mix", "--seed", "-1"]),
     1, "argument --seed: expected a non-negative integer"),
    ("gradcheck-negative-seed",
     lambda env, tmp: ["gradcheck", "--seed", "-1"],
     1, "argument --seed: expected a non-negative integer"),
    ("gradcheck-zero-classes",
     lambda env, tmp: ["gradcheck", "--classes", "0"],
     1, "--classes >= 1, got 5 and 0"),
    ("gradcheck-negative-input-dim",
     lambda env, tmp: ["gradcheck", "--input-dim", "-1"],
     1, "--classes >= 1, got -1 and 3"),
    ("ll-without-label-propagation",
     lambda env, tmp: quick_train_args(env, tmp, "gcn", ["--ll", "1"]),
     1, "--ll does not apply to preset 'gcn'"),
    ("negative-ll-linear-lp",
     lambda env, tmp: quick_train_args(env, tmp, "linear-lp", ["--ll", "-1"]),
     1, "lp layers must be >= 0, got -1"),
    ("negative-ll-gcn-lp",
     lambda env, tmp: quick_train_args(env, tmp, "gcn-lp", ["--ll", "-1"]),
     1, "lp layers must be >= 0, got -1"),
    ("split-id-in-two-sections",
     lambda env, tmp: quick_train_args(env, tmp, "sgcn", [
         "--splits-dir", split_dir(tmp, "train:\n1 2\nval:\n2\ntest:\n3\n")]),
     2, "split.txt:4: train/val/test sets must be pairwise disjoint (node 2 is in train and val)"),
    ("split-id-repeated-in-a-section",
     lambda env, tmp: quick_train_args(env, tmp, "sgcn", [
         "--splits-dir", split_dir(tmp, "train:\n1\n1\nval:\n2\ntest:\n3\n")]),
     2, "split.txt:3: split sections must not contain repeated node ids (node 1 repeats in train)"),
    ("train-nan-lr",
     lambda env, tmp: quick_train_args(env, tmp, "sgcn", ["--lr", "nan"]),
     1, "learning_rate must be finite and >= 0, got nan"),
    ("train-inf-lr",
     lambda env, tmp: quick_train_args(env, tmp, "sgcn", ["--lr", "inf"]),
     1, "learning_rate must be finite and >= 0, got inf"),
    ("train-nan-weight-decay",
     lambda env, tmp: quick_train_args(env, tmp, "sgcn", ["--weight-decay", "nan"]),
     1, "weight_decay must be finite and >= 0, got nan"),
    ("splits-non-utf8-labels",
     lambda env, tmp: ["splits", "--dataset-dir", non_utf8_copy(env, tmp), "--out", str(tmp / "s")],
     2, "labels.txt:1601: not UTF-8 text (invalid start byte)"),
    ("unknown-flag",
     lambda env, tmp: ["cost", "--method", "sgcn", "--frobnicate"],
     1, "unrecognized arguments: --frobnicate"),
    ("missing-dataset-dir",
     lambda env, tmp: ["splits", "--dataset-dir", str(tmp / "absent")],
     2, "absent"),
    ("lpnn-shape-flag",
     lambda env, tmp: quick_train_args(env, tmp, "lpnn", ["--hidden", "16"]),
     1, "--hidden do not apply to method 'lpnn'"),
    ("size-out-of-range",
     lambda env, tmp: run_args("train", env, ["--size", "9", "--out", str(tmp)]),
     1, "--size must lie in [1, 5], got 9"),
    ("failed-gradient-check",
     lambda env, tmp: ["gradcheck", "--tolerance", "1e-18"],
     3, "gradient check failed"),
    ("train-out-beneath-a-file",
     lambda env, tmp: quick_train_args(env, regular_file(tmp) / "x", "sgcn"),
     2, "cannot write "),
    ("splits-out-beneath-a-file",
     lambda env, tmp: ["splits", "--dataset-dir", str(env), "--out", str(regular_file(tmp) / "s")],
     2, "cannot write "),
    ("train-nan-general-exponent",
     lambda env, tmp: quick_train_args(env, tmp, "sgcn", [
         "--operator", "general", "--alpha", "nan", "--beta", "0.5"]),
     1, "general normalization exponents must be finite, got nan, 0.5"),
    ("train-inf-general-exponent",
     lambda env, tmp: quick_train_args(env, tmp, "sgcn", [
         "--operator", "general", "--alpha", "inf", "--beta", "0.5"]),
     1, "general normalization exponents must be finite, got inf, 0.5"),
    ("propmodel-sweep-nan-exponent",
     lambda env, tmp: run_args("propmodel-sweep", env, ["--model", "exponents", "--grid", "nan,0.5"]),
     1, "general normalization exponents must be finite, got nan, 0.5"),
    ("lpnn-nan-mu-g",
     lambda env, tmp: quick_train_args(env, tmp, "lpnn", ["--mu-g", "nan"]),
     1, "lpnn weight mu_g must be finite and >= 0, got nan"),
    ("lpnn-inf-lambda-u",
     lambda env, tmp: quick_train_args(env, tmp, "lpnn", ["--lambda-u", "inf"]),
     1, "lpnn weight lambda_u must be finite and >= 0, got inf"),
    ("gradcheck-nan-tolerance",
     lambda env, tmp: ["gradcheck", "--tolerance", "nan"],
     1, "gradient check tolerance must be finite and > 0, got nan"),
    ("gradcheck-zero-tolerance",
     lambda env, tmp: ["gradcheck", "--tolerance", "0"],
     1, "gradient check tolerance must be finite and > 0, got 0.0"),
    ("gradcheck-negative-tolerance",
     lambda env, tmp: ["gradcheck", "--tolerance", "-1"],
     1, "gradient check tolerance must be finite and > 0, got -1.0"),
    ("spec-hidden-dims-of-text",
     lambda env, tmp: quick_train_args(env, tmp, spec_file(tmp, stages=[
         {"kind": "fp"}, {"kind": "mlp", "hidden_dims": ["a"]}])),
     1, "spec.json: network spec stage 1 field 'hidden_dims' must be a list of integers, got ['a']"),
    ("spec-layers-as-text",
     lambda env, tmp: quick_train_args(env, tmp, spec_file(tmp, stages=[
         {"kind": "fp", "layers": "2"}])),
     1, "spec.json: network spec stage 0 field 'layers' must be an integer, got '2'"),
    ("spec-layers-as-bool",
     lambda env, tmp: quick_train_args(env, tmp, spec_file(tmp, stages=[
         {"kind": "fp", "layers": True}])),
     1, "spec.json: network spec stage 0 field 'layers' must be an integer, got True"),
    ("spec-stage-as-text",
     lambda env, tmp: quick_train_args(env, tmp, spec_file(tmp, stages=["fp"])),
     1, "spec.json: network spec stage 0 must be an object, got 'fp'"),
    ("spec-hidden-dims-as-int",
     lambda env, tmp: quick_train_args(env, tmp, spec_file(tmp, stages=[
         {"kind": "mlp", "hidden_dims": 4}])),
     1, "spec.json: network spec stage 0 field 'hidden_dims' must be a list of integers, got 4"),
    ("spec-name-as-object",
     lambda env, tmp: quick_train_args(env, tmp, spec_file(tmp, name={})),
     1, f"{NAME_REFUSED} {{}}"),
    # A spec's name is part of its run directory's name. --out lies two levels
    # below tmp, so a name that climbs out of it still writes where the
    # no-result.json check looks.
    ("spec-name-escaping-out",
     lambda env, tmp: quick_train_args(env, tmp / "out/a", spec_file(tmp, name="../../../escape")),
     1, f"{NAME_REFUSED} '../../../escape'"),
    ("spec-name-empty",
     lambda env, tmp: quick_train_args(env, tmp / "out/a", spec_file(tmp, name="")),
     1, f"{NAME_REFUSED} ''"),
    ("spec-name-with-slash",
     lambda env, tmp: quick_train_args(env, tmp / "out/a", spec_file(tmp, name="a/b")),
     1, f"{NAME_REFUSED} 'a/b'"),
    ("spec-unknown-field",
     lambda env, tmp: quick_train_args(env, tmp, spec_file(tmp, stages=[
         {"kind": "fp", "layer": 5}])),
     1, "spec.json: network spec stage 0 has unknown field 'layer'; fp stages take layers, operator"),
    ("spec-hidden-dims-past-the-bound",
     lambda env, tmp: quick_train_args(env, tmp, spec_file(tmp, stages=[
         {"kind": "fp"}, {"kind": "mlp", "hidden_dims": [HUGE]}])),
     1, f"spec.json: mlp hidden width must be <= 4096, got {HUGE}"),
    ("spec-layers-past-the-bound",
     lambda env, tmp: quick_train_args(env, tmp, spec_file(tmp, stages=[
         {"kind": "fp", "layers": HUGE}])),
     1, f"spec.json: fp layers must be <= 4096, got {HUGE}"),
    ("train-hidden-past-the-bound",
     lambda env, tmp: quick_train_args(env, tmp, "gcn", ["--hidden", str(HUGE)]),
     1, f"hidden width must be <= 4096, got {HUGE}"),
    ("train-l-past-the-bound",
     lambda env, tmp: quick_train_args(env, tmp, "gcn", ["--l", str(HUGE)]),
     1, f"network depth must be <= 4096, got {HUGE}"),
    ("train-ll-past-the-bound",
     lambda env, tmp: quick_train_args(env, tmp, "gcn-lp", ["--ll", str(HUGE)]),
     1, f"lp layers must be <= 4096, got {HUGE}"),
    ("gradcheck-input-dim-past-the-bound",
     lambda env, tmp: ["gradcheck", "--input-dim", str(HUGE)],
     1, f"--nodes, --input-dim and --classes <= 4096, got 12, {HUGE} and 3"),
    ("gradcheck-classes-past-the-bound",
     lambda env, tmp: ["gradcheck", "--classes", str(HUGE)],
     1, f"--nodes, --input-dim and --classes <= 4096, got 12, 5 and {HUGE}"),
    ("gradcheck-nodes-past-the-bound",
     lambda env, tmp: ["gradcheck", "--nodes", str(HUGE)],
     1, f"--nodes, --input-dim and --classes <= 4096, got {HUGE}, 5 and 3"),
    ("train-standard-split-with-splits-dir",
     lambda env, tmp: ["train", "--dataset-dir", str(env), "--standard-split", "--splits-dir",
                       str(env / "splits"), "--method", "sgcn", "--out", str(tmp)],
     1, "--standard-split conflicts with --splits-dir"),
    ("train-hidden-without-hidden-layer",
     lambda env, tmp: quick_train_args(env, tmp, "sgcn", ["--hidden", "64"]),
     1, "--hidden does not apply to 'sgcn' at this depth: no hidden layer"),
    ("train-hidden-on-gcn-at-depth-1",
     lambda env, tmp: quick_train_args(env, tmp, "gcn", ["--l", "1", "--hidden", "8"]),
     1, "--hidden does not apply to 'gcn' at this depth: no hidden layer"),
    ("gradcheck-hidden-on-linear-lp",
     lambda env, tmp: ["gradcheck", "--method", "linear-lp", "--hidden", "8"],
     1, "--hidden does not apply to 'linear-lp' at this depth: no hidden layer"),
    ("spec-stage-without-kind",
     lambda env, tmp: quick_train_args(env, tmp, spec_file(tmp, stages=[{"layers": 2}])),
     1, "spec.json: network spec stage 0 is missing its 'kind' field"),
    ("gradcheck-dataset-dir-with-sizes",
     lambda env, tmp: ["gradcheck", "--dataset-dir", str(env), "--nodes", "5",
                       "--input-dim", "2", "--classes", "9"],
     1, "--dataset-dir supplies the sizes; --nodes, --input-dim, --classes do not apply"),
    ("gradcheck-dataset-dir-with-input-dim",
     lambda env, tmp: ["gradcheck", "--dataset-dir", str(env), "--input-dim", "5"],
     1, "--dataset-dir supplies the sizes; --input-dim do not apply"),
    ("cost-dataset-dir-with-sizes",
     lambda env, tmp: ["cost", "--method", "sgcn", "--dataset-dir", str(env),
                       "--nodes", "10", "--classes", "2"],
     1, "--dataset-dir supplies the sizes; --nodes, --classes do not apply"),
    ("train-general-without-exponents",
     lambda env, tmp: quick_train_args(env, tmp, "sgcn", ["--operator", "general"]),
     1, "--operator general requires --alpha and --beta exponents"),
    ("split-out-of-range",
     lambda env, tmp: run_args("train", env, ["--split", "10", "--out", str(tmp)]),
     1, "--split must lie in [0, 9], got 10"),
    ("propmodel-sweep-grid-without-points",
     lambda env, tmp: run_args("propmodel-sweep", env, ["--model", "mix", "--grid", " ; "]),
     1, "--grid holds no alpha,beta point"),
    ("propmodel-sweep-grid-point-not-numeric",
     lambda env, tmp: run_args("propmodel-sweep", env, ["--model", "mix", "--grid", "1,1; ;x,1"]),
     1, "--grid point 'x,1' is not numeric"),
    ("propmodel-sweep-empty-grid",
     lambda env, tmp: run_args("propmodel-sweep", env, ["--model", "mix", "--grid", ""]),
     1, "--grid holds no alpha,beta point"),
    ("propmodel-sweep-grid-point-not-a-pair",
     lambda env, tmp: run_args("propmodel-sweep", env, ["--model", "mix", "--grid", "1,2,3"]),
     1, "--grid point '1,2,3' is not of the form alpha,beta"),
    ("propmodel-sweep-grid-refused-before-load",
     lambda env, tmp: run_args("propmodel-sweep", tmp / "missing", ["--model", "mix", "--grid", ""]),
     1, "--grid holds no alpha,beta point"),
    ("gradcheck-two-nodes",
     lambda env, tmp: ["gradcheck", "--nodes", "2"],
     1, "gradient-check graph needs --nodes >= 3, got 2"),
    ("spec-stages-not-a-list",
     lambda env, tmp: quick_train_args(env, tmp, json_file(tmp, {"name": "s", "stages": {}})),
     1, "spec.json: network spec 'stages' must be a list, got {}"),
    ("splits-labels-file-is-a-directory",
     lambda env, tmp: ["splits", "--dataset-dir", labels_dir_copy(env, tmp), "--out", str(tmp / "s")],
     2, "labels.txt: [Errno 21] Is a directory"),
]


@pytest.mark.parametrize(
    "argv, code, message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_invocation_exits_with_its_code(cli_env, tmp_path, capsys, argv, code, message):
    assert main(argv(cli_env, tmp_path)) == code
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("error: ") and message in last
    assert not list(tmp_path.rglob("result.json"))


RUN_KEYS = {"learning_rate", "dropout", "weight_decay", "max_epochs", "patience", "precision", "seed"}
LOSS_WEIGHT_KEYS = {"mu_g", "mu_l", "mu_u", "lambda_l", "lambda_u"}
SWEEP_KEYS = {"budget", "sweep_seed", "trial_index"}


@pytest.mark.parametrize(
    "command, method, recorded",
    [
        ("train", "gcn-lp", RUN_KEYS | {"hidden_dim", "operator"}),
        ("train", "lpnn", RUN_KEYS | LOSS_WEIGHT_KEYS),
        ("sweep", "gcn-lp", RUN_KEYS | {"hidden_dim", "operator"} | SWEEP_KEYS),
        ("sweep", "lpnn", RUN_KEYS | LOSS_WEIGHT_KEYS | SWEEP_KEYS),
    ],
    ids=["train-gcn-lp", "train-lpnn", "sweep-gcn-lp", "sweep-lpnn"],
)
def test_result_config_records_the_run_settings(cli_env, tmp_path, command, method, recorded):
    # Every setting the run used, and no key of another method or command.
    args = [
        command, "--dataset-dir", str(cli_env), "--size", "1", "--split", "0",
        "--method", method, "--epochs", "2", "--patience", "2", "--out", str(tmp_path),
        *(["--budget", "2"] if command == "sweep" else []),
    ]
    assert main(args) == 0
    assert set(read_only_result(tmp_path)["config"]) == recorded


class TestSplitsCommand:
    def test_short_class_names_the_labels_file(self, cli_env, capsys, tmp_path):
        root = tmp_path / "short"
        shutil.copytree(cli_env, root, ignore=shutil.ignore_patterns("splits"))
        # Keep five nodes of class 1; the rest move to class 0.
        lines, kept = [], 0
        for line in (root / "labels.txt").read_text().splitlines():
            node, cls = line.split()
            if cls == "1":
                kept += 1
                cls = "1" if kept <= 5 else "0"
            lines.append(f"{node} {cls}\n")
        (root / "labels.txt").write_text("".join(lines))
        assert main(["splits", "--dataset-dir", str(root), "--out", str(tmp_path / "s")]) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith(f"error: {root}/labels.txt: class 1 has only")
        assert not (tmp_path / "s").exists()

    def test_reports_counts_and_sizes(self, cli_env, capsys, tmp_path):
        code = main(
            ["splits", "--dataset-dir", str(cli_env), "--seed", "0",
             "--out", str(tmp_path / "s")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote 50 split files" in out
        # Pool of 100 nodes above the 40-node floor: steps of 15.
        assert "train sizes: 40, 55, 70, 85, 100" in out

    def test_regeneration_is_byte_identical(self, cli_env, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["splits", "--dataset-dir", str(cli_env), "--seed", "3", "--out", str(a)]) == 0
        assert main(["splits", "--dataset-dir", str(cli_env), "--seed", "3", "--out", str(b)]) == 0
        files_a = sorted(a.rglob("split.txt"))
        assert len(files_a) == 50
        for fa in files_a:
            fb = b / fa.relative_to(a)
            assert fa.read_bytes() == fb.read_bytes()


class TestTrainCommand:
    def test_composed_run_persists_artifacts(self, cli_env, tmp_path, capsys):
        code = main(quick_train_args(cli_env, tmp_path, "sgcn", ["--dropout", "0.0"]))
        assert code == 0
        out = capsys.readouterr().out
        assert "sgcn on clids (size 1, split 0)" in out
        doc = read_only_result(tmp_path)
        assert doc["method"] == "sgcn"
        assert doc["dataset"] == "clids"
        assert 0.0 <= doc["test_accuracy"] <= 1.0
        assert doc["config"]["seed"] == 0
        history = list(Path(tmp_path).rglob("history.txt"))
        assert len(history) == 1
        assert history[0].read_text().startswith("epoch\t")

    def test_zero_lp_layers_reduces_to_plain_gcn(self, cli_env, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(quick_train_args(cli_env, a, "gcn-lp", ["--ll", "0"])) == 0
        assert main(quick_train_args(cli_env, b, "gcn")) == 0
        ra, rb = read_only_result(a), read_only_result(b)
        assert ra["test_accuracy"] == rb["test_accuracy"]
        assert ra["best_val_accuracy"] == rb["best_val_accuracy"]
        ha = next(Path(a).rglob("history.txt")).read_text()
        hb = next(Path(b).rglob("history.txt")).read_text()
        assert ha == hb

    def test_shape_flags_are_recorded(self, cli_env, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(quick_train_args(cli_env, a, "gcn-lp", ["--l", "3", "--ll", "1"])) == 0
        assert main(quick_train_args(cli_env, b, "gcn-lp")) == 0
        config = read_only_result(a)["config"]
        assert (config["depth"], config["lp_layers"]) == (3, 1)
        assert not {"depth", "lp_layers"} & set(read_only_result(b)["config"])

    def test_lpnn_reports_both_prediction_heads(self, cli_env, tmp_path, capsys):
        code = main(quick_train_args(cli_env, tmp_path, "lpnn", ["--dropout", "0.0"]))
        assert code == 0
        out = capsys.readouterr().out
        assert "label-field test accuracy" in out
        doc = read_only_result(tmp_path)
        assert doc["config"]["mu_g"] == 1.0

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("method", ["gcn", "lpnn"])
    def test_test_pass_runs_at_the_run_precision(
        self, cli_env, tmp_path, monkeypatch, method, precision
    ):
        # Both methods train at either precision, and the test copy's input
        # and the trained weights it reads share it (lpnn's through g).
        seen = []
        original = graphcompose.cli.forward

        def spy(net, params, **kwargs):
            seen.append({net.x_bar.dtype, *(p.dtype for p in params)})
            return original(net, params, **kwargs)

        monkeypatch.setattr(graphcompose.cli, "forward", spy)
        argv = quick_train_args(cli_env, tmp_path, method, ["--precision", precision])
        assert main(argv) == 0
        assert seen == [{np.dtype(precision)}]
        assert read_only_result(tmp_path)["config"]["precision"] == precision

    def test_standard_split_run(self, cli_env, tmp_path):
        args = [
            "train", "--dataset-dir", str(cli_env), "--standard-split",
            "--method", "sgcn", "--epochs", "15", "--patience", "15",
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        doc = read_only_result(tmp_path)
        assert doc["size_index"] == 0

    def test_spec_file_method(self, cli_env, tmp_path):
        spec_path = tmp_path / "net.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "custom-smooth-linear",
                    "stages": [
                        {"kind": "fp", "layers": 1, "operator": "symmetric"},
                        {"kind": "linear_classifier"},
                        {"kind": "softmax"},
                        {"kind": "lp", "layers": 1, "operator": "row"},
                    ],
                }
            )
        )
        out = tmp_path / "runs"
        assert main(quick_train_args(cli_env, out, str(spec_path))) == 0
        doc = read_only_result(out)
        assert doc["method"] == "custom-smooth-linear"

    def test_spec_file_rejects_shape_flags(self, cli_env, tmp_path):
        spec_path = tmp_path / "net.json"
        spec_path.write_text(
            json.dumps({"name": "x", "stages": [{"kind": "linear_classifier"}, {"kind": "softmax"}]})
        )
        code = main(quick_train_args(cli_env, tmp_path, str(spec_path), ["--hidden", "8"]))
        assert code == 1

    def test_spec_file_follows_operator_flag(self, cli_env, tmp_path):
        # A spec file naming the stage default operators trains what the
        # equal preset trains under every --operator.
        spec_path = tmp_path / "net.json"
        spec_path.write_text(
            json.dumps(
                {"name": "sgcn", "stages": [
                    {"kind": "fp", "layers": 2}, {"kind": "linear_classifier"}, {"kind": "softmax"},
                ]}
            )
        )
        histories = {}
        for method in ("sgcn", str(spec_path)):
            for operator in ("symmetric", "row"):
                out = tmp_path / f"{len(histories)}"
                argv = quick_train_args(cli_env, out, method, ["--operator", operator])
                assert main(argv) == 0
                assert read_only_result(out)["config"]["operator"] == operator
                histories[method, operator] = next(out.rglob("history.txt")).read_text()
        assert histories["sgcn", "row"] != histories["sgcn", "symmetric"]
        for operator in ("symmetric", "row"):
            assert histories[str(spec_path), operator] == histories["sgcn", operator]

    def test_deterministic_across_invocations(self, cli_env, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = quick_train_args(cli_env, a, "mlp-lp", ["--seed", "5"])
        assert main(argv) == 0
        argv_b = quick_train_args(cli_env, b, "mlp-lp", ["--seed", "5"])
        assert main(argv_b) == 0
        assert read_only_result(a) == read_only_result(b)


class TestSparseInputRuns:
    def test_gcn_input_is_held_as_csr(self, sparse_cli_env):
        dataset = load_dataset(sparse_cli_env)
        ops = {"symmetric": build_operator(dataset.topology, "symmetric")}
        net = compile_network(
            preset("gcn"), ops, dataset.num_features, dataset.num_classes,
            features=dataset.features, dropout=0.5,
        )
        assert sp.issparse(whole(net).x_bar)

    def test_same_seed_gives_identical_history(self, sparse_cli_env, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(quick_train_args(sparse_cli_env, out, "gcn", ["--seed", "5"])) == 0
        for name in ("history.txt", "result.json"):
            assert next(a.rglob(name)).read_bytes() == next(b.rglob(name)).read_bytes()


class TestBlasThreads:
    @pytest.mark.parametrize("method, env", [("lpnn", "cli_env"), ("gcn", "sparse_cli_env")])
    def test_thread_count_never_changes_bytes(self, request, tmp_path, method, env):
        env = request.getfixturevalue(env)
        src = str(Path(graphcompose.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            child_env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            argv = quick_train_args(env, out, method, ["--seed", "3"])
            proc = subprocess.run(
                [sys.executable, "-m", "graphcompose.cli", *argv],
                env=child_env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for name in ("history.txt", "result.json"):
            assert next(outs[0].rglob(name)).read_bytes() == next(outs[1].rglob(name)).read_bytes()


    @pytest.mark.parametrize(
        "command",
        [["train", "--method", "sgcn"], ["sweep", "--method", "gcn", "--jobs", "2", "--budget", "4"]],
        ids=["train-dense-sgcn", "sweep-jobs-2"],
    )
    def test_threaded_paths_keep_their_bytes(self, cli_env, tmp_path, command):
        # Dense training overlaps its validation and a two-job sweep runs a
        # pool, each holding numpy's OpenBLAS at one thread for a while; the
        # count the process started with must not show in any byte.
        src = str(Path(graphcompose.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            child_env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            argv = [*command, "--dataset-dir", str(cli_env), "--size", "1", "--split", "0",
                    "--epochs", "12", "--patience", "12", "--seed", "3", "--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "graphcompose.cli", *argv],
                env=child_env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append({
                path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()
            })
        assert outs[0] == outs[1]
        assert ("trials.txt" in {path.name for path in outs[0]}) == (command[0] == "sweep")


class TestSweepCommand:
    def sweep_args(self, env, out, jobs, extra=(), method="sgcn", budget=4, epochs=12):
        return [
            "sweep", "--dataset-dir", str(env), "--size", "1", "--split", "0",
            "--method", method, "--budget", str(budget), "--epochs", str(epochs),
            "--patience", str(epochs), "--jobs", str(jobs), "--seed", "11",
            "--out", str(out), *extra,
        ]

    @pytest.mark.parametrize(
        "method, budget, epochs, env",
        [("sgcn", 4, 12, "cli_env"), ("lpnn", 3, 4, "cli_env"), ("gcn", 4, 12, "sparse_cli_env")],
        ids=["sgcn", "lpnn", "gcn-sparse"],
    )
    def test_parallelism_never_changes_results(self, request, tmp_path, method, budget, epochs, env):
        env = request.getfixturevalue(env)
        a, b = tmp_path / "a", tmp_path / "b"
        for out, jobs in ((a, 1), (b, 3)):
            args = self.sweep_args(env, out, jobs, method=method, budget=budget, epochs=epochs)
            assert main(args) == 0
        for name in ("trials.txt", "result.json", "history.txt"):
            assert next(a.rglob(name)).read_bytes() == next(b.rglob(name)).read_bytes()

    def test_lpnn_sweeps_at_float32(self, cli_env, tmp_path):
        args = self.sweep_args(cli_env, tmp_path, 2, ["--precision", "float32"],
                               method="lpnn", budget=2, epochs=2)
        assert main(args) == 0
        assert read_only_result(tmp_path)["config"]["precision"] == "float32"

    def test_jobs_1_validates_beside_the_next_step(self, cli_env, tmp_path, monkeypatch):
        # At --jobs 1 the trials run on the calling thread, so on dense inputs
        # each epoch but the budget's last validates on fit's helper thread.
        calls = spy_infer_threads(monkeypatch)
        args = self.sweep_args(cli_env, tmp_path, 1, method="gcn", budget=2, epochs=4)
        assert main(args) == 0
        on_main = [t == threading.get_ident() for t, _ in calls]
        assert on_main == [False, False, False, True] * 2

    def test_jobs_1_validates_csr_inputs_in_order(self, sparse_cli_env, tmp_path, monkeypatch,
                                                  two_blas_threads):
        # On a CSR input every validation runs on the calling thread, at one
        # BLAS thread, and the count comes back after each trial.
        calls = spy_infer_threads(monkeypatch, two_blas_threads)
        args = self.sweep_args(sparse_cli_env, tmp_path, 1, method="gcn", budget=2, epochs=4)
        assert main(args) == 0
        assert calls == [(threading.get_ident(), 1)] * 8
        assert two_blas_threads() == 2

    @pytest.mark.parametrize("method", ["gcn", "lpnn"])
    def test_each_trial_trains_once(self, cli_env, tmp_path, monkeypatch, method):
        calls = []

        def counting(inner):
            def counted(*args, **kwargs):
                calls.append(1)
                return inner(*args, **kwargs)

            return counted

        for name in ("train", "train_lpnn"):
            monkeypatch.setattr(graphcompose.cli, name, counting(getattr(graphcompose.cli, name)))
        sweep_out = tmp_path / "sweep"
        args = self.sweep_args(cli_env, sweep_out, 2, method=method, budget=3, epochs=6)
        assert main(args) == 0
        assert len(calls) == 3

        # The winner's history is its trial's: a train run with the sampled
        # settings and the trial seed writes the same bytes.
        config = read_only_result(sweep_out)["config"]
        flags = [
            "--lr", repr(config["learning_rate"]), "--dropout", repr(config["dropout"]),
            "--weight-decay", repr(config["weight_decay"]), "--seed", str(config["seed"]),
            "--epochs", "6", "--patience", "6",
        ]
        if "hidden_dim" in config:
            flags += ["--hidden", str(config["hidden_dim"])]
        if method == "lpnn":
            for key in ("mu_g", "mu_l", "mu_u", "lambda_l", "lambda_u"):
                flags += ["--" + key.replace("_", "-"), repr(config[key])]
        train_out = tmp_path / "train"
        train_args = [
            "train", "--dataset-dir", str(cli_env), "--size", "1", "--split", "0",
            "--method", method, "--out", str(train_out), *flags,
        ]
        assert main(train_args) == 0
        sweep_history = next(sweep_out.rglob("history.txt")).read_bytes()
        assert sweep_history == next(train_out.rglob("history.txt")).read_bytes()

    def test_selection_uses_validation_only(self, cli_env, tmp_path, capsys):
        assert main(self.sweep_args(cli_env, tmp_path, 1)) == 0
        capsys.readouterr()
        trials = next(Path(tmp_path).rglob("trials.txt")).read_text()
        assert "test" not in trials
        doc = read_only_result(tmp_path)
        best_val = doc["best_val_accuracy"]
        vals = [
            float(line.split("\t")[2])
            for line in trials.splitlines()[1:]
            if line.split("\t")[1] == "ok"
        ]
        assert best_val == max(vals)
        assert doc["config"]["budget"] == 4
        assert doc["config"]["sweep_seed"] == 11
        assert "trial_index" in doc["config"]

    def test_hidden_flag_refused(self, cli_env, tmp_path, capsys):
        code = main(self.sweep_args(cli_env, tmp_path, 1, ["--hidden", "128"]))
        assert code == 1
        assert "samples the hidden width" in capsys.readouterr().err

    def test_paper_space_flag_accepted(self, cli_env, tmp_path):
        code = main(self.sweep_args(cli_env, tmp_path, 1, ["--paper-space"]))
        assert code == 0

    @pytest.mark.parametrize(
        "flags, recorded",
        [
            (["--operator", "row"], {"operator": "row"}),
            (
                ["--operator", "mix", "--alpha", "1", "--beta", "0.5"],
                {"operator": "mix", "alpha": 1.0, "beta": 0.5},
            ),
        ],
        ids=["row", "mix"],
    )
    def test_records_its_operator(self, cli_env, tmp_path, flags, recorded):
        args = self.sweep_args(cli_env, tmp_path, 1, flags, method="sgcn-lp", budget=2, epochs=4)
        assert main(args) == 0
        config = read_only_result(tmp_path)["config"]
        assert {key: config.get(key) for key in recorded} == recorded

    def test_no_hidden_width_without_a_hidden_layer(self, cli_env, tmp_path):
        assert main(self.sweep_args(cli_env, tmp_path, 1, budget=2, epochs=4)) == 0
        assert "hidden_dim" not in read_only_result(tmp_path)["config"]
        assert "hidden_dim" not in next(tmp_path.rglob("trials.txt")).read_text()

    @pytest.mark.parametrize("method", ["spec-file", "sgcn --l 1", "gcn --l 1"])
    def test_trials_sample_only_the_shared_settings(self, cli_env, tmp_path, method):
        # A spec file fixes its widths, and these presets have no hidden layer.
        if method == "spec-file":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"name": "fixed", "stages": [
                {"kind": "fp", "layers": 1}, {"kind": "mlp", "hidden_dims": [8]},
                {"kind": "linear_classifier"}, {"kind": "softmax"},
            ]}))
            method, extra = str(spec), []
        else:
            method, *extra = method.split()
        out = tmp_path / "out"
        assert main(self.sweep_args(cli_env, out, 1, extra, method=method, budget=2, epochs=4)) == 0
        rows = next(out.rglob("trials.txt")).read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            assert list(json.loads(row.split("\t")[3])) == [
                "dropout", "learning_rate", "weight_decay"
            ]


class TestCompareCommand:
    @staticmethod
    def fake_result(root, method, dataset, size, split, test, val=0.5, config=None):
        doc = {
            "method": method,
            "dataset": dataset,
            "size_index": size,
            "split_index": split,
            "test_accuracy": test,
            "best_val_accuracy": val,
            "config": config or {},
        }
        d = root / f"{dataset}_{method}_s{size}_p{split}"
        d.mkdir(parents=True, exist_ok=True)
        (d / "result.json").write_text(json.dumps(doc))

    def test_rank_table(self, tmp_path, capsys):
        root = tmp_path / "res"
        for split, (a, b) in enumerate([(0.80, 0.70), (0.82, 0.72)]):
            self.fake_result(root, "gcn", "d1", 1, split, a)
            self.fake_result(root, "sgcn", "d1", 1, split, b)
        assert main(["compare", "--results-dir", str(root)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["method", "d1", "R"]
        gcn_line = next(l for l in lines if l.startswith("gcn"))
        assert "81.0" in gcn_line and gcn_line.rstrip().endswith("1.0")
        sgcn_line = next(l for l in lines if l.startswith("sgcn"))
        assert sgcn_line.rstrip().endswith("2.0")

    def test_fractional_tie_in_rank_column(self, tmp_path, capsys):
        root = tmp_path / "res"
        for m in ("gcn", "sgcn", "mlp-lp"):
            self.fake_result(root, m, "d1", 1, 0, 0.8 if m != "mlp-lp" else 0.6)
        assert main(["compare", "--results-dir", str(root)]) == 0
        out = capsys.readouterr().out
        gcn_line = next(l for l in out.splitlines() if l.startswith("gcn"))
        assert gcn_line.rstrip().endswith("1.5")

    def test_method_rows_follow_canonical_order(self, tmp_path, capsys):
        root = tmp_path / "res"
        for m in ("lpnn", "gcn", "linear-lp"):
            self.fake_result(root, m, "d1", 1, 0, 0.5)
        assert main(["compare", "--results-dir", str(root)]) == 0
        lines = capsys.readouterr().out.splitlines()
        order = [l.split()[0] for l in lines[2:]]
        assert order == ["gcn", "linear-lp", "lpnn"]

    def test_size_filter(self, tmp_path, capsys):
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d1", 1, 0, 0.9)
        self.fake_result(root, "sgcn", "d1", 1, 0, 0.8)
        self.fake_result(root, "gcn", "d1", 2, 0, 0.1)
        self.fake_result(root, "sgcn", "d1", 2, 0, 0.2)
        assert main(["compare", "--results-dir", str(root), "--size", "2"]) == 0
        out = capsys.readouterr().out
        sgcn_line = next(l for l in out.splitlines() if l.startswith("sgcn"))
        assert sgcn_line.rstrip().endswith("1.0")

    def test_missing_cell_is_data_error(self, tmp_path, capsys):
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d1", 1, 0, 0.9)
        self.fake_result(root, "gcn", "d2", 1, 0, 0.9)
        self.fake_result(root, "sgcn", "d1", 1, 0, 0.8)
        assert main(["compare", "--results-dir", str(root)]) == 2
        assert "(sgcn, d2)" in capsys.readouterr().err

    def test_first_method_missing_a_dataset_names_the_cell(self, tmp_path, capsys):
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d2", 1, 0, 0.9)
        self.fake_result(root, "sgcn", "d1", 1, 0, 0.8)
        self.fake_result(root, "sgcn", "d2", 1, 0, 0.7)
        assert main(["compare", "--results-dir", str(root)]) == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            "error: comparison table is incomplete; missing cells: (gcn, d1)"
        )

    def test_single_method_rejected(self, tmp_path):
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d1", 1, 0, 0.9)
        assert main(["compare", "--results-dir", str(root)]) == 1

    def test_unwritable_report_leaves_no_temporary_file(self, tmp_path, capsys):
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d1", 1, 0, 0.9)
        self.fake_result(root, "sgcn", "d1", 1, 0, 0.8)
        target = tmp_path / "report"
        target.mkdir()
        assert main(["compare", "--results-dir", str(root), "--out", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.tmp"))

    def test_malformed_json_is_data_error(self, tmp_path):
        root = tmp_path / "res"
        root.mkdir()
        (root / "result.json").write_text("{not json")
        assert main(["compare", "--results-dir", str(root)]) == 2

    def test_deeply_nested_result_is_data_error(self, tmp_path, capsys):
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d1", 1, 0, 0.9)
        bad = root / "deep" / "result.json"
        bad.parent.mkdir()
        bad.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["compare", "--results-dir", str(root)]) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith(f"error: {bad}: not a valid result file: ")

    def test_missing_or_empty_results_dir_is_data_error_naming_it(self, tmp_path, capsys):
        absent, empty = tmp_path / "absent", tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.json").write_text("{}")
        for root, message in ((absent, f"results directory {absent} does not exist"),
                              (empty, f"no run results found under {empty}")):
            assert main(["compare", "--results-dir", str(root)]) == 2
            assert capsys.readouterr().err.strip().splitlines()[-1] == f"error: {message}"

    def test_result_holding_a_list_is_data_error_naming_its_file(self, tmp_path, capsys):
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d1", 1, 0, 0.9)
        bad = root / "listed" / "result.json"
        bad.parent.mkdir()
        bad.write_text("[1, 2]")
        assert main(["compare", "--results-dir", str(root)]) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == f"error: {bad}: malformed run result record: expected an object, got [1, 2]"

    def test_malformed_record_names_its_file(self, tmp_path, capsys):
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d1", 1, 0, 0.9)
        bad = root / "broken" / "result.json"
        bad.parent.mkdir()
        bad.write_text(json.dumps({"dataset": "d1"}))
        assert main(["compare", "--results-dir", str(root)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "malformed run result record" in err

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("size_index", 1.7, "an integer"),
            ("split_index", False, "an integer"),
            ("test_accuracy", True, "a number in [0, 1]"),
            ("best_val_accuracy", 7.5, "a number in [0, 1]"),
            ("method", None, "a string"),
            ("dataset", 3, "a string"),
            ("config", [["learning_rate", 0.01]], "an object"),
        ],
        ids=["fractional-size", "bool-split", "bool-accuracy", "val-past-one", "null-method",
             "numeric-dataset", "list-config"],
    )
    def test_mistyped_field_is_data_error_naming_file_and_field(
        self, tmp_path, capsys, field, value, expected
    ):
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d1", 1, 0, 0.9)
        self.fake_result(root, "sgcn", "d1", 1, 0, 0.8)
        bad = root / "d1_sgcn_s1_p0" / "result.json"
        bad.write_text(json.dumps({**json.loads(bad.read_text()), field: value}))
        assert main(["compare", "--results-dir", str(root)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and f"field {field!r} must be {expected}, got " in err

    def test_other_json_files_are_ignored(self, tmp_path, capsys):
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d1", 1, 0, 0.9)
        self.fake_result(root, "sgcn", "d1", 1, 0, 0.8)
        spec = {"name": "x", "stages": [{"kind": "linear_classifier"}, {"kind": "softmax"}]}
        (root / "net.json").write_text(json.dumps(spec))
        assert main(["compare", "--results-dir", str(root)]) == 0
        assert capsys.readouterr().out.startswith("method")

    def test_duplicate_run_is_data_error_naming_both(self, tmp_path, capsys):
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d1", 1, 0, 0.99)
        self.fake_result(root, "sgcn", "d1", 1, 0, 0.8)
        # A sweep on the same split writes the same (method, dataset, size, split).
        sweep = root / "sweeps"
        self.fake_result(sweep, "gcn", "d1", 1, 0, 0.98)
        assert main(["compare", "--results-dir", str(root)]) == 2
        err = capsys.readouterr().err
        first, second = sorted(root.rglob("d1_gcn_s1_p0/result.json"))
        assert str(first) in err and str(second) in err

    def test_mixed_precisions_are_data_error_naming_two_files(self, tmp_path, capsys):
        # float64 runs written before float32 became the default, beside a
        # float32 run of the same method: never one averaged cell.
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d1", 1, 0, 0.9)
        self.fake_result(root, "gcn", "d1", 1, 1, 0.8, config={"precision": "float64"})
        for split in (0, 1, 2):
            self.fake_result(root, "sgcn", "d1", 1, split, 0.7)
        self.fake_result(root, "gcn", "d1", 1, 2, 0.7, config={"precision": "float32"})
        assert main(["compare", "--results-dir", str(root)]) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        first, _, mixed = sorted(root.rglob("d1_gcn_s1_p*/result.json"))
        assert last == (
            f"error: {first} (float64) and {mixed} (float32) hold gcn runs at different "
            "precisions; compare them apart"
        )
        # A config without the key reads as float64, so the two older runs agree.
        (mixed.parent / "result.json").unlink()
        assert main(["compare", "--results-dir", str(root)]) == 0

    def test_mixed_sizes_need_size_flag(self, tmp_path, capsys):
        root = tmp_path / "res"
        for size, split in ((1, 0), (5, 1)):
            self.fake_result(root, "gcn", "d1", size, split, 0.9)
            self.fake_result(root, "sgcn", "d1", size, split, 0.8)
        assert main(["compare", "--results-dir", str(root)]) == 1
        err = capsys.readouterr().err
        assert "sizes 1, 5" in err and "--size" in err
        assert main(["compare", "--results-dir", str(root), "--size", "5"]) == 0

    def test_size_with_no_runs_names_the_sizes_present(self, tmp_path, capsys):
        root = tmp_path / "res"
        for split in (0, 1):
            self.fake_result(root, "gcn", "d1", 1, split, 0.9)
            self.fake_result(root, "sgcn", "d1", 4, split, 0.8)
        for size in ("3", "0"):
            assert main(["compare", "--results-dir", str(root), "--size", size]) == 2
            assert capsys.readouterr().err.strip().splitlines()[-1] == (
                f"error: no run results at size {size} under {root} (sizes present: 1, 4)"
            )

    def test_report_written_to_file(self, tmp_path, capsys):
        root = tmp_path / "res"
        self.fake_result(root, "gcn", "d1", 1, 0, 0.9)
        self.fake_result(root, "sgcn", "d1", 1, 0, 0.8)
        out_file = tmp_path / "report.txt"
        assert main(["compare", "--results-dir", str(root), "--out", str(out_file)]) == 0
        assert out_file.read_text() == capsys.readouterr().out


class TestPropmodelSweep:
    def base_args(self, env, model, grid):
        return [
            "propmodel-sweep", "--dataset-dir", str(env), "--size", "1",
            "--split", "0", "--method", "sgcn", "--model", model,
            "--grid", grid, "--epochs", "10", "--patience", "10",
        ]

    def test_mix_grid_table(self, cli_env, tmp_path, capsys):
        out_file = tmp_path / "table.txt"
        args = self.base_args(cli_env, "mix", "1,1;0.5,0.5") + ["--out", str(out_file)]
        assert main(args) == 0
        assert "alpha=1 beta=1" in capsys.readouterr().out
        lines = out_file.read_text().splitlines()
        assert lines[0] == "alpha\tbeta\tval\ttest"
        assert len(lines) == 3
        assert lines[1].startswith("1\t1\t")

    def test_exponents_grid(self, cli_env, capsys):
        assert main(self.base_args(cli_env, "exponents", "0.5,0.5")) == 0
        assert "alpha=0.5 beta=0.5" in capsys.readouterr().out

    def test_test_pass_holds_one_blas_thread(self, cli_env, monkeypatch, two_blas_threads):
        # A two-thread product leaves OpenBLAS's worker spinning into the next
        # point's overlapped fit, which then loses the second core.
        counts = []

        def spy(net, params, **kwargs):
            counts.append(two_blas_threads())
            return forward(net, params, **kwargs)

        monkeypatch.setattr(cli, "forward", spy)
        assert main(self.base_args(cli_env, "mix", "1,1;0.5,0.5")) == 0
        assert counts == [1, 1]
        assert two_blas_threads() == 2

    def test_rejects_lpnn(self, cli_env):
        args = self.base_args(cli_env, "mix", "1,1")
        args[args.index("sgcn")] = "lpnn"
        assert main(args) == 1

    def test_bad_grid_syntax(self, cli_env):
        assert main(self.base_args(cli_env, "mix", "1,2,3")) == 1

    @pytest.fixture()
    def isolated_node_env(self, tmp_path):
        n = 1600
        topology = GraphTopology(n, [(i, i + 1) for i in range(n - 2)])
        dataset = Dataset(
            "isolated",
            topology,
            np.ones((n, 3)),
            np.arange(n, dtype=np.int64) % 2,
            num_classes=2,
        )
        root = write_dataset_dir(tmp_path / "isolated", dataset)
        lines = ["train:"] + [str(i) for i in range(40)]
        lines += ["val:"] + [str(i) for i in range(40, 540)]
        lines += ["test:"] + [str(i) for i in range(540, 1540)]
        (root / "standard_split.txt").write_text("\n".join(lines) + "\n")
        return root

    def test_degenerate_point_invalidates_only_its_row(
        self, isolated_node_env, capsys
    ):
        args = [
            "propmodel-sweep", "--dataset-dir", str(isolated_node_env),
            "--standard-split", "--method", "sgcn", "--model", "mix",
            "--grid", "0,1;1,1", "--epochs", "5", "--patience", "5",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "alpha=0 beta=1: invalid" in out
        assert "node 1599" in out
        assert "alpha=1 beta=1: val" in out

    def test_all_points_degenerate_is_data_error(self, isolated_node_env):
        args = [
            "propmodel-sweep", "--dataset-dir", str(isolated_node_env),
            "--standard-split", "--method", "sgcn", "--model", "mix",
            "--grid", "0,1", "--epochs", "5", "--patience", "5",
        ]
        assert main(args) == 2


class TestGradcheckCommand:
    def test_default_toy_instance_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "gradient check PASS" in out
        assert "parameter 0" in out

    def test_lp_chain_passes(self, capsys):
        code = main(
            ["gradcheck", "--method", "mlp-lp", "--ll", "2", "--hidden", "6",
             "--nodes", "9", "--classes", "2"]
        )
        assert code == 0

    def test_general_operator_chain_passes(self):
        code = main(
            ["gradcheck", "--method", "sgcn-lp", "--operator", "general",
             "--alpha", "0.3", "--beta", "0.7", "--nodes", "8"]
        )
        assert code == 0


class TestCostCommand:
    def test_gcn_lp_hand_computed_terms(self, capsys):
        code = main(
            ["cost", "--method", "gcn-lp", "--nodes", "1000", "--edges", "5000",
             "--input-dim", "300", "--classes", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes=1000 edges=5000 dim=16 classes=10" in out
        assert "feature_prop 160000" in " ".join(out.split())
        assert "hidden 512000" in " ".join(out.split())
        assert "classifier 160000" in " ".join(out.split())
        assert "label_prop 50000" in " ".join(out.split())
        assert "total 882000" in " ".join(out.split())

    def test_sgcn_uses_input_dim(self, capsys):
        code = main(
            ["cost", "--method", "sgcn", "--nodes", "100", "--edges", "400",
             "--input-dim", "50", "--classes", "4"]
        )
        assert code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "dim=50" in out
        assert "feature_prop 0" in out
        assert "hidden 0" in out
        assert "classifier 20000" in out
        assert "label_prop 0" in out

    def test_dataset_dir_supplies_sizes(self, cli_env, capsys):
        assert main(["cost", "--method", "sgcn", "--dataset-dir", str(cli_env)]) == 0
        assert "nodes=1600" in capsys.readouterr().out
