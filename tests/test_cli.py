import json
import math
from pathlib import Path

import numpy as np
import pytest

from andkit.cli import main
from andkit.data import load_bin

METRIC_KEYS = {
    "round",
    "epoch",
    "mean_loss",
    "selected_fraction",
    "consistent_count",
    "inconsistent_count",
    "knn_accuracy",
}


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def blob_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blobs.ands"
    assert (
        run(
            "generate", "--classes", 4, "--per-class", 25, "--dim", 16,
            "--seed", 7, "--out", path,
        )
        == 0
    )
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, blob_file):
    out = tmp_path_factory.mktemp("runs") / "run1"
    code = run(
        "train", "--data", blob_file, "--rounds", 4, "--epochs", 3,
        "--init-epochs", 3, "--layers", "24,8", "--seed", 1, "--out", out,
    )
    assert code == 0
    return out


class TestGenerate:
    def test_writes_expected_count(self, blob_file):
        ds = load_bin(blob_file)
        assert ds.n == 100 and ds.dim == 16
        assert sorted(set(ds.labels.tolist())) == [0, 1, 2, 3]

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("generate", "--classes", 4, "--per-class", 10, "--dim", 8)
        assert exc.value.code == 2

    def test_data_beyond_float32_is_a_usage_error_naming_csv(self, tmp_path, capsys):
        argv = ("generate", "--classes", 2, "--per-class", 3, "--dim", 2,
                "--center-scale", 1e39, "--seed", 1)
        assert run(*argv, "--out", tmp_path / "big.ands") == 2
        assert ".csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no file and no temporary file
        assert run(*argv, "--out", tmp_path / "big.csv") == 0
        code = run(
            "train", "--data", tmp_path / "big.csv", "--layers", "2,2", "--batch-size", 6,
            "--k", 2, "--rounds", 1, "--epochs", 1, "--out", tmp_path / "r",
        )
        assert code == 0

    def test_bad_flag_values_are_usage_errors(self, tmp_path, blob_file, run_dir, capsys):
        code = run(
            "generate", "--classes", 1, "--per-class", 10, "--dim", 8,
            "--out", tmp_path / "x.ands",
        )
        assert code == 2
        for flag, value in (
            ("--center-scale", "nan"), ("--center-scale", "inf"), ("--center-scale", -1),
            ("--noise-sigma", "inf"), ("--noise-sigma", "nan"),
        ):
            code = run(
                "generate", "--classes", 2, "--per-class", 10, "--dim", 8, flag, value,
                "--out", tmp_path / "x.ands",
            )
            assert code == 2, (flag, value)
            assert not (tmp_path / "x.ands").exists()
        # flags are checked before any file is read
        for tau in (0, -1, "nan", "inf"):
            code = run(
                "eval", "--checkpoint", tmp_path / "none.andc", "--data", tmp_path / "none.ands",
                "--tau", tau,
            )
            assert code == 2
        # k = N - 1 is the largest neighbourhood; one more is refused before training
        code = run("train", "--data", blob_file, "--k", 100, "--out", tmp_path / "r")
        assert code == 2
        assert not (tmp_path / "r").exists()
        for flag, value in (
            ("--momentum", -1), ("--momentum", "nan"), ("--momentum", 1), ("--momentum", 5),
            ("--lr", "inf"), ("--tau", "inf"),
            ("--layers", "24,1"),
            # refused before training: checkpoint v1 could not store them
            ("--batch-size", 99999999999), ("--seed", 99999999999999999999),
            ("--seed", -(2**63) - 1),
        ):
            code = run("train", "--data", blob_file, flag, value, "--out", tmp_path / "r")
            assert code == 2, (flag, value)
            assert not (tmp_path / "r").exists()
        code = run(
            "train", "--data", blob_file, "--one-off", "--instance-only", "--out", tmp_path / "r"
        )
        assert code == 2
        assert not (tmp_path / "r").exists()
        # removed flags: `--init-epochs 0` skips the warm-up, the --out extension picks the format
        for argv in (
            ("train", "--data", blob_file, "--init", "none", "--out", tmp_path / "r"),
            ("generate", "--classes", 2, "--per-class", 10, "--dim", 8, "--format", "csv",
             "--out", tmp_path / "x.csv"),
        ):
            with pytest.raises(SystemExit) as exc:
                run(*argv)
            assert exc.value.code == 2, argv
            assert not (tmp_path / "r").exists() and not (tmp_path / "x.csv").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["config"]["rounds"] = 0
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        code = run("train", "--manifest", tmp_path / "manifest.json", "--out", tmp_path / "r")
        assert code == 2
        assert not (tmp_path / "r").exists()
        good = json.loads((run_dir / "manifest.json").read_text())
        layers = good["config"]["layer_sizes"]
        malformed = {
            "unknown-key.json": {**good, "config": {**good["config"], "round": 4}},
            "no-config.json": {k: v for k, v in good.items() if k != "config"},
            "null-layers.json": {**good, "config": {**good["config"], "layer_sizes": None}},
            "string-rounds.json": {**good, "config": {**good["config"], "rounds": "4"}},
            "string-seed.json": {**good, "config": {**good["config"], "seed": "1"}},
            "numeric-data.json": {**good, "data": 0},
            "float-layers.json": {
                **good, "config": {**good["config"], "layer_sizes": [*layers[:-1], layers[-1] + 0.9]}
            },
            "string-layers.json": {
                **good, "config": {**good["config"], "layer_sizes": [str(s) for s in layers]}
            },
            "bool-layers.json": {
                **good, "config": {**good["config"], "layer_sizes": [layers[0], True, layers[-1]]}
            },
            "singleton-hook.json": {
                **good, "config": {**good["config"], "force_singleton_neighbourhoods": True}
            },
            "global-schedule.json": {
                **good, "config": {**good["config"], "lr_reset_per_round": False}
            },
        }
        for name, blob in malformed.items():
            (tmp_path / name).write_text(json.dumps(blob))
        (tmp_path / "truncated.json").write_text(json.dumps(good)[:40])
        capsys.readouterr()
        for name in (*malformed, "truncated.json"):
            code = run("train", "--manifest", tmp_path / name, "--out", tmp_path / "r")
            assert code == 2, name
            assert not (tmp_path / "r").exists()
            assert name in capsys.readouterr().err
        # a manifest fixes the whole configuration: only --out may go with it
        for flags in (
            ("--epochs", 1, "--rounds", 1, "--k", 5), ("--seed", 0), ("--one-off",),
            ("--data", blob_file), ("--layers", "24,8"), ("--lr", 0.1),
        ):
            code = run(
                "train", "--manifest", run_dir / "manifest.json", *flags, "--out", tmp_path / "r"
            )
            assert code == 2, flags
            assert not (tmp_path / "r").exists()
            err = capsys.readouterr().err
            assert all(f in err for f in flags if str(f).startswith("--")), (flags, err)
        for args in (("--knn-k", 100), ("--probe", "--probe-lr", "nan"),
                     ("--probe", "--probe-epochs", -1)):
            code = run(
                "eval", "--checkpoint", run_dir / "checkpoint.andc", "--data", blob_file, *args
            )
            assert code == 2, args

    def test_defaults_are_blob_spec_defaults(self, tmp_path):
        from andkit.data import BlobSpec, generate_blobs, save_dataset

        assert run(
            "generate", "--classes", 3, "--per-class", 4, "--dim", 5, "--out", tmp_path / "a.ands"
        ) == 0
        save_dataset(generate_blobs(BlobSpec(3, 4, 5)), tmp_path / "b.ands")
        assert (tmp_path / "a.ands").read_bytes() == (tmp_path / "b.ands").read_bytes()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.ands", tmp_path / "b.ands"
        for path in (a, b):
            assert run(
                "generate", "--classes", 2, "--per-class", 5, "--dim", 4,
                "--seed", 3, "--out", path,
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_outside_i64_is_a_usage_error(self, tmp_path):
        # SeededRng reduces a seed mod 2**64, so 2**64 - 1 would write the bytes of seed -1
        argv = ("generate", "--classes", 2, "--per-class", 3, "--dim", 3)
        assert run(*argv, "--seed", 2**64 - 1, "--out", tmp_path / "x.ands") == 2
        assert list(tmp_path.iterdir()) == []
        assert run(*argv, "--seed", -1, "--out", tmp_path / "x.ands") == 0

    def test_csv_format(self, tmp_path):
        path = tmp_path / "blobs.csv"
        assert run(
            "generate", "--classes", 2, "--per-class", 3, "--dim", 4, "--out", path,
        ) == 0
        assert path.read_text().splitlines()[0] == "label,f0,f1,f2,f3"
        assert run(
            "train", "--data", path, "--rounds", 1, "--epochs", 1, "--init-epochs", 1,
            "--layers", "8,4", "--out", tmp_path / "r",
        ) == 0

    @pytest.mark.parametrize("name", ["blobs.ands", "blobs.csv"])
    def test_failed_replace_keeps_the_earlier_file(self, tmp_path, monkeypatch, capsys, name):
        import os

        path = tmp_path / name
        args = ("generate", "--classes", 2, "--per-class", 5, "--dim", 4, "--out", path)
        assert run(*args, "--seed", 1) == 0
        earlier = path.read_bytes()

        def replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", replace)
        assert run(*args, "--seed", 2) == 1
        assert "replace failed" in capsys.readouterr().err
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == [name]


class TestTrain:
    def test_outputs_exist(self, run_dir):
        names = {"checkpoint.andc", "plans.andp", "metrics.jsonl", "manifest.json"}
        assert {path.name for path in run_dir.iterdir()} == names

    def test_metrics_schema(self, run_dir):
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3 + 4 * 3  # init epochs + rounds * epochs
        for line in lines:
            assert set(json.loads(line)) == METRIC_KEYS

    def test_zero_rounds_is_usage_error(self, blob_file, tmp_path):
        code = run(
            "train", "--data", blob_file, "--rounds", 0, "--out", tmp_path / "r",
        )
        assert code == 2

    def test_defaults_are_train_config_defaults(self, blob_file, tmp_path):
        import dataclasses

        from andkit.pipeline import TrainConfig

        assert run("train", "--data", blob_file, "--out", tmp_path / "r") == 0
        config = json.loads((tmp_path / "r" / "manifest.json").read_text())["config"]
        config["layer_sizes"] = tuple(config["layer_sizes"])
        assert config == dataclasses.asdict(TrainConfig(layer_sizes=(16, 64, 16)))

    def test_dataset_read_once(self, blob_file, tmp_path, monkeypatch):
        import andkit.cli as cli

        calls = []
        real = cli.load_dataset
        monkeypatch.setattr(cli, "load_dataset", lambda path: calls.append(path) or real(path))
        assert run(
            "train", "--data", blob_file, "--rounds", 1, "--epochs", 1, "--init-epochs", 1,
            "--layers", "24,8", "--out", tmp_path / "once",
        ) == 0
        assert calls == [str(blob_file)]

    def test_out_naming_a_file_is_refused_before_training(
        self, run_dir, blob_file, tmp_path, monkeypatch, capsys
    ):
        import andkit.cli as cli

        afile = tmp_path / "afile"
        afile.write_bytes(b"kept")
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("trained"))
        for source in (("--data", blob_file), ("--manifest", run_dir / "manifest.json")):
            assert run("train", *source, "--out", afile) == 2
            assert "not a directory" in capsys.readouterr().err
        assert afile.read_bytes() == b"kept"

    def test_manifest_rerun_bit_identical(self, run_dir, tmp_path):
        out2 = tmp_path / "rerun"
        assert run("train", "--manifest", run_dir / "manifest.json", "--out", out2) == 0
        for name in ("checkpoint.andc", "plans.andp", "metrics.jsonl"):
            assert (out2 / name).read_bytes() == (run_dir / name).read_bytes(), name

    @pytest.mark.parametrize("failing", [1, 2, 3, 4])
    def test_failed_replace_leaves_no_partial_artifact(
        self, run_dir, tmp_path, monkeypatch, capsys, failing
    ):
        import os

        # the failing'th os.replace raises: the files moved in before it are whole,
        # and neither it nor a later one exists, nor any temporary file
        calls, real = [], os.replace

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == failing:
                raise OSError("replace failed")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        out = tmp_path / "run"
        assert run("train", "--manifest", run_dir / "manifest.json", "--out", out) == 1
        assert "replace failed" in capsys.readouterr().err
        written = sorted(path.name for path in out.iterdir())
        assert written == sorted(Path(dst).name for dst in calls[:failing - 1])
        for name in written:
            if name != "manifest.json":  # the rerun names its own --out
                assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_manifest_with_retired_false_key_reruns(self, run_dir, tmp_path):
        # older manifests hold retired keys at the value that survives: the singleton hook off,
        # and the per-round schedule on (`lr_reset_per_round`)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["config"]["force_singleton_neighbourhoods"] = False
        manifest["config"]["lr_reset_per_round"] = True
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        out2 = tmp_path / "rerun"
        assert run("train", "--manifest", tmp_path / "manifest.json", "--out", out2) == 0
        assert (out2 / "checkpoint.andc").read_bytes() == (run_dir / "checkpoint.andc").read_bytes()
        assert (out2 / "metrics.jsonl").read_bytes() == (run_dir / "metrics.jsonl").read_bytes()

    def test_retired_lr_reset_flag_changes_nothing(self, run_dir, blob_file, tmp_path, capsys):
        out = tmp_path / "flagged"
        assert run(
            "train", "--data", blob_file, "--rounds", 4, "--epochs", 3,
            "--init-epochs", 3, "--layers", "24,8", "--seed", 1, "--out", out,
            "--lr-reset-per-round",
        ) == 0
        assert (out / "checkpoint.andc").read_bytes() == (run_dir / "checkpoint.andc").read_bytes()
        assert (out / "metrics.jsonl").read_bytes() == (run_dir / "metrics.jsonl").read_bytes()
        with pytest.raises(SystemExit):
            run("train", "--help")
        assert "--lr-reset-per-round" not in capsys.readouterr().out

    @pytest.mark.parametrize("tau", [1e-3, 1e-4])
    def test_readme_walkthrough_trains_at_small_tau(self, tmp_path, tau):
        # most of each row's softmax mass underflows to 0 here; the loss must stay finite
        data = tmp_path / "blobs.ands"
        assert run(
            "generate", "--classes", 4, "--per-class", 100, "--dim", 32, "--seed", 7,
            "--out", data,
        ) == 0
        assert run(
            "train", "--data", data, "--rounds", 4, "--epochs", 20, "--seed", 1,
            "--layers", "64,16", "--lr", 3.84, "--tau", tau, "--out", tmp_path / "run",
        ) == 0
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 20 + 4 * 20
        assert all(math.isfinite(json.loads(line)["mean_loss"]) for line in lines)

    def test_init_none_skips_warmup(self, blob_file, tmp_path):
        out = tmp_path / "cold"
        assert run(
            "train", "--data", blob_file, "--rounds", 2, "--epochs", 2,
            "--init-epochs", 0, "--layers", "24,8", "--out", out,
        ) == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 4  # no round-0 records at all
        assert json.loads(lines[0])["round"] == 1


class TestEval:
    def test_report_schema(self, run_dir, blob_file, capsys):
        assert run("eval", "--checkpoint", run_dir / "checkpoint.andc", "--data", blob_file) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "knn_accuracy",
            "linear_accuracy",
            "consistent_count",
            "inconsistent_count",
            "per_class_accuracy",
        }
        assert 0.0 <= report["knn_accuracy"] <= 1.0
        assert report["consistent_count"] + report["inconsistent_count"] == 100
        assert len(report["per_class_accuracy"]) == 4

    def test_knn_k_one(self, run_dir, blob_file, capsys):
        assert run(
            "eval", "--checkpoint", run_dir / "checkpoint.andc", "--data", blob_file,
            "--knn-k", 1,
        ) == 0
        assert 0.0 <= json.loads(capsys.readouterr().out)["knn_accuracy"] <= 1.0

    def test_probe_adds_linear_accuracy(self, run_dir, blob_file, capsys):
        from andkit.data import load_dataset
        from andkit.evaluation import linear_probe
        from andkit.pipeline import load_checkpoint

        ds, ckpt = load_dataset(blob_file), load_checkpoint(run_dir / "checkpoint.andc")
        # probe flags left out: linear_probe's own defaults
        for flags, kwargs in ((("--probe-epochs", 50), {"epochs": 50}), ((), {})):
            assert run(
                "eval", "--checkpoint", run_dir / "checkpoint.andc", "--data", blob_file,
                "--probe", *flags,
            ) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["linear_accuracy"] == linear_probe(ds, ds, ckpt.params, **kwargs)

    def test_unlabelled_dataset_fails_with_message(self, run_dir, tmp_path, capsys):
        from andkit.data import Dataset, save_bin

        plain = tmp_path / "plain.ands"
        save_bin(Dataset(inputs=np.zeros((100, 16))), plain)
        assert run(
            "eval", "--checkpoint", run_dir / "checkpoint.andc", "--data", plain
        ) == 1
        assert "labelled" in capsys.readouterr().err

    def test_held_out_split_scores_against_bank_data(self, blob_file, tmp_path, capsys):
        from andkit.data import Dataset, load_dataset, make_benchmark_splits, save_dataset
        from andkit.evaluation import knn_accuracy
        from andkit.pipeline import load_checkpoint

        # both halves of one generation, so the test split shares the bank's class centres
        train_path, test_path = tmp_path / "train.ands", tmp_path / "test.ands"
        splits = make_benchmark_splits(4, 20, dim=16, seed=5)
        for split, path in zip(splits, (train_path, test_path)):
            save_dataset(split, path)
        ckpt_path = tmp_path / "run" / "checkpoint.andc"
        assert run(
            "train", "--data", train_path, "--rounds", 2, "--epochs", 2, "--layers", "24,8",
            "--seed", 1, "--out", ckpt_path.parent,
        ) == 0
        capsys.readouterr()
        assert run(
            "eval", "--checkpoint", ckpt_path, "--data", test_path, "--bank-data", train_path
        ) == 0
        report = json.loads(capsys.readouterr().out)
        train_split, test_split = load_dataset(train_path), load_dataset(test_path)
        ckpt = load_checkpoint(ckpt_path)
        assert report["knn_accuracy"] == knn_accuracy(
            test_split, ckpt.params, ckpt.bank, train_split.labels
        )
        # the bank split must be labelled and be the one the bank was trained on (80 rows)
        save_dataset(Dataset(inputs=train_split.inputs), tmp_path / "plain.ands")
        for bank_data, message in ((tmp_path / "plain.ands", "labelled"), (blob_file, "100")):
            assert run(
                "eval", "--checkpoint", ckpt_path, "--data", test_path, "--bank-data", bank_data
            ) == 1
            assert message in capsys.readouterr().err

    def test_default_knn_k_is_capped_on_a_small_bank(self, tmp_path, capsys):
        from andkit.data import load_dataset
        from andkit.encoder import forward
        from andkit.evaluation import knn_predict_batch
        from andkit.pipeline import load_checkpoint

        data, out = tmp_path / "nine.ands", tmp_path / "run"
        assert run(
            "generate", "--classes", 3, "--per-class", 3, "--dim", 4, "--seed", 2, "--out", data
        ) == 0
        assert run(
            "train", "--data", data, "--rounds", 1, "--epochs", 2, "--layers", "8,4",
            "--out", out,
        ) == 0
        capsys.readouterr()
        assert run("eval", "--checkpoint", out / "checkpoint.andc", "--data", data) == 0
        report = json.loads(capsys.readouterr().out)
        ds, ckpt = load_dataset(data), load_checkpoint(out / "checkpoint.andc")
        feats, _ = forward(ckpt.params, ds.inputs)
        preds = knn_predict_batch(feats, ckpt.bank, ds.labels, 8, leave_one_out=True)
        assert report["knn_accuracy"] == float((preds == ds.labels).mean())
        # an explicit k beyond the N - 1 = 8 candidates is still refused
        assert run("eval", "--checkpoint", out / "checkpoint.andc", "--data", data,
                   "--knn-k", 9) == 2

    def test_report_is_strict_json_for_a_class_missing_from_the_split(self, tmp_path, capsys):
        from andkit.data import Dataset, load_dataset, save_dataset

        def no_constants(name):
            raise ValueError(f"non-JSON constant {name}")

        data, out = tmp_path / "gap.csv", tmp_path / "run"
        assert run(
            "generate", "--classes", 3, "--per-class", 10, "--dim", 4, "--seed", 3,
            "--out", tmp_path / "three.ands",
        ) == 0
        blobs = load_dataset(tmp_path / "three.ands")
        labels = np.where(blobs.labels == 1, 2, blobs.labels)  # labels {0, 2}: class 1 is empty
        save_dataset(Dataset(inputs=blobs.inputs, labels=labels), data)
        assert run(
            "train", "--data", data, "--rounds", 1, "--epochs", 2, "--layers", "8,4",
            "--out", out,
        ) == 0
        capsys.readouterr()
        assert run("eval", "--checkpoint", out / "checkpoint.andc", "--data", data) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=no_constants)
        per_class = report["per_class_accuracy"]
        assert len(per_class) == 3 and per_class[1] is None
        assert all(0.0 <= acc <= 1.0 for acc in (per_class[0], per_class[2]))

    def test_non_finite_checkpoint_values_rejected(self, run_dir, blob_file, tmp_path, capsys):
        from andkit.pipeline import load_checkpoint

        good = (run_dir / "checkpoint.andc").read_bytes()
        ckpt = load_checkpoint(run_dir / "checkpoint.andc")
        # the file ends with the parameters, then u32 n, u32 d and the bank rows
        params = sum(w.size + b.size for w, b in zip(ckpt.params.weights, ckpt.params.biases))
        first_weight = len(good) - 8 * (ckpt.bank.features.size + params) - 8
        bad = tmp_path / "bad.andc"
        for offset, value in ((len(good) - 8, math.nan), (first_weight, math.inf)):
            blob = bytearray(good)
            blob[offset:offset + 8] = np.float64(value).tobytes()
            bad.write_bytes(bytes(blob))
            assert run("eval", "--checkpoint", bad, "--data", blob_file) == 1
            assert "non-finite" in capsys.readouterr().err
            assert run("inspect", "--checkpoint", bad, "--out", tmp_path / "bad.csv") == 1
            assert not (tmp_path / "bad.csv").exists()


class TestCurve:
    def test_one_row_per_round(self, run_dir, capsys):
        assert run("curve", "--metrics", run_dir / "metrics.jsonl") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "round,consistent_count,inconsistent_count"
        rounds = [int(line.split(",")[0]) for line in lines[1:]]
        assert rounds == [1, 2, 3, 4]
        for line in lines[1:]:
            _, cons, incons = line.split(",")
            assert int(cons) >= 0 and int(incons) >= 0

    def test_malformed_line_is_parse_error(self, run_dir, tmp_path, capsys):
        good = (run_dir / "metrics.jsonl").read_text()
        path = tmp_path / "metrics.jsonl"
        lineno = len(good.splitlines()) + 1
        record = json.loads(good.splitlines()[-1])
        for bad in (
            '{"round": 1', "[1, 2]", '{"epoch": 1}',
            json.dumps({**record, "round": True}),
            json.dumps({**record, "consistent_count": "x", "inconsistent_count": None}),
            json.dumps({**record, "consistent_count": 3, "inconsistent_count": None}),
            '{"round": 1, "epoch": 0, "mean_loss": 1.0, "selected_fraction": 0.5}',
            json.dumps({key: v for key, v in record.items() if key != "consistent_count"}),
            json.dumps({key: v for key, v in record.items() if key != "inconsistent_count"}),
        ):
            path.write_text(good + bad + "\n")
            capsys.readouterr()
            assert run("curve", "--metrics", path, "--out", tmp_path / "curve.csv") == 1, bad
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"{path}: line {lineno}:" in err, bad
            assert not (tmp_path / "curve.csv").exists()


class TestInspect:
    def test_csv_shape_and_ranges(self, run_dir, blob_file, capsys):
        assert run(
            "inspect", "--checkpoint", run_dir / "checkpoint.andc", "--data", blob_file
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "anchor,members,entropy,selected,consistent"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 100
        for row in rows:
            assert 0.0 <= float(row[2]) <= math.log(100) + 1e-9
            assert row[4] in ("0", "1")

    def test_csv_matches_a_row_by_row_oracle(self, blob_file, tmp_path, capsys):
        # each form byte for byte, the unlabelled one with its consistent column empty,
        # at k = 3 so that every row joins several member ids
        from andkit.data import load_dataset
        from andkit.evaluation import consistent_rows
        from andkit.pipeline import load_checkpoint, load_plan

        out = tmp_path / "run"
        assert run(
            "train", "--data", blob_file, "--rounds", 2, "--epochs", 1, "--init-epochs", 1,
            "--layers", "24,8", "--k", 3, "--out", out,
        ) == 0
        ckpt = load_checkpoint(out / "checkpoint.andc")
        plan = load_plan(out / "plans.andp", ckpt, 1)
        labels = load_dataset(blob_file).labels
        for consistent, data in (
            (consistent_rows(plan.members, labels).astype(int).tolist(), ["--data", blob_file]),
            ([""] * ckpt.bank.n, []),
        ):
            expected = "anchor,members,entropy,selected,consistent\n"
            for i, row in enumerate(plan.members.tolist()):
                ids = ";".join(str(m) for m in row)
                entropy = float(plan.entropies[i])
                expected += f"{i},{ids},{entropy!r},{int(plan.selected[i])},{consistent[i]}\n"
            capsys.readouterr()
            assert run("inspect", "--checkpoint", out / "checkpoint.andc", "--round", 1, *data) == 0
            assert capsys.readouterr().out == expected

    def test_selected_count_matches_round(self, run_dir, capsys):
        for r, expected in ((1, 25), (2, 50), (4, 100)):
            assert run(
                "inspect", "--checkpoint", run_dir / "checkpoint.andc", "--round", r
            ) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            assert sum(int(row.split(",")[3]) for row in rows) == expected

    @pytest.mark.parametrize("mode", ["--one-off", "--instance-only", None])
    def test_selected_count_is_what_training_used(self, blob_file, tmp_path, capsys, mode):
        # inspect reads the plans training wrote, so its selected and consistent counts
        # are those of each round's metrics records
        out = tmp_path / "run"
        assert run(
            "train", "--data", blob_file, "--rounds", 4, "--epochs", 1, "--init-epochs", 1,
            "--layers", "24,8", *([mode] if mode else []), "--out", out,
        ) == 0
        records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        by_round = {rec["round"]: rec for rec in records}
        ckpt = ["--checkpoint", out / "checkpoint.andc", "--data", blob_file]
        for r in (1, 2, 3, 4, None):
            capsys.readouterr()
            assert run("inspect", *ckpt, *(["--round", r] if r else [])) == 0
            rec = by_round[r or 4]
            rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
            selected = [row for row in rows if row[3] == "1"]
            assert len(selected) == 100 * rec["selected_fraction"], (mode, r)
            consistent = sum(int(row[4]) for row in selected)
            assert consistent == rec["consistent_count"], (mode, r)
            assert len(selected) - consistent == rec["inconsistent_count"], (mode, r)

    def test_without_plans_file_replans_with_a_note(self, run_dir, blob_file, tmp_path, capsys):
        import shutil

        from andkit.pipeline import load_checkpoint, plan_record, plan_round, save_plans

        bare = tmp_path / "bare"
        bare.mkdir()
        shutil.copy(run_dir / "checkpoint.andc", bare)
        ckpt = load_checkpoint(bare / "checkpoint.andc")
        # the same checkpoint with plans re-planned on its final bank: the CSV inspect
        # wrote before it read plans files
        replanned = tmp_path / "replanned"
        replanned.mkdir()
        shutil.copy(run_dir / "checkpoint.andc", replanned)
        plans = [plan_record(plan_round(ckpt.bank, ckpt.config, r)) for r in (1, 2, 3, 4)]
        save_plans(plans, ckpt.bank.n, ckpt.config.k, ckpt.crc32, replanned / "plans.andp")
        for r in (1, 3):
            capsys.readouterr()
            args = ("--data", blob_file, "--round", r)
            assert run("inspect", "--checkpoint", bare / "checkpoint.andc", *args) == 0
            got = capsys.readouterr()
            assert "note: no" in got.err and "re-planning round" in got.err
            assert run("inspect", "--checkpoint", replanned / "checkpoint.andc", *args) == 0
            expected = capsys.readouterr()
            assert got.out == expected.out and expected.err == ""

    def test_malformed_plans_file_rejected(self, run_dir, blob_file, tmp_path, capsys):
        import shutil
        import struct

        from andkit.errors import FormatError
        from andkit.pipeline import load_checkpoint, load_plan

        n, k, rounds, head = 100, 1, 4, 22  # head: magic, u16 version, u32 n, k, rounds, crc
        record = 8 * n + 13 + 4 * n * (k + 1)
        good = (run_dir / "plans.andp").read_bytes()
        assert len(good) == head + rounds * record
        at = head + (3 - 1) * record  # round 3, the round inspected below
        members = at + 8 * n + 13

        def patched(offset, fmt, value):
            blob = bytearray(good)
            struct.pack_into(fmt, blob, offset, value)
            return bytes(blob)

        cases = {
            "truncated": good[:-1],
            "truncated header": good[:head - 1],
            "bad magic": b"XNDP" + good[4:],
            "wrong version": patched(4, "<H", 2),
            "trailing bytes": good + b"\0",
            "member beyond n": patched(members + 4 * 7, "<i", n),
            "negative member": patched(members + 4 * 7, "<i", -1),
            "anchor not first": patched(members + 4 * 2 * (k + 1), "<i", 5),
            "NaN entropy": patched(at + 8 * 9, "<d", math.nan),
            "infinite entropy": patched(at, "<d", math.inf),
            "padding bit": patched(at + 8 * n + 12, "<B", good[at + 8 * n + 12] | 0x80),
            "n mismatch": patched(6, "<I", n + 1),
            "k mismatch": patched(10, "<I", k + 1),
            "rounds mismatch": patched(14, "<I", rounds - 1),
            "crc mismatch": patched(18, "<I", struct.unpack_from("<I", good, 18)[0] ^ 1),
        }
        ckpt_dir = tmp_path / "run"
        ckpt_dir.mkdir()
        shutil.copy(run_dir / "checkpoint.andc", ckpt_dir)
        ckpt = load_checkpoint(ckpt_dir / "checkpoint.andc")
        table = tmp_path / "inspect.csv"
        for name, blob in cases.items():
            assert blob != good, name
            (ckpt_dir / "plans.andp").write_bytes(blob)
            with pytest.raises(FormatError):
                load_plan(ckpt_dir / "plans.andp", ckpt, 3)
            capsys.readouterr()
            args = ("--data", blob_file, "--round", 3, "--out", table)
            assert run("inspect", "--checkpoint", ckpt_dir / "checkpoint.andc", *args) == 1, name
            assert capsys.readouterr().err.startswith("error: "), name
            assert not table.exists(), name

    @pytest.mark.parametrize("fault", ["selected bit flipped", "member repeated"])
    def test_self_contradicting_plans_file_rejected(
        self, run_dir, blob_file, tmp_path, capsys, fault
    ):
        import shutil
        import struct

        from andkit.errors import FormatError
        from andkit.pipeline import load_checkpoint, load_plan

        n, k, head = 100, 1, 22
        at = head + (3 - 1) * (8 * n + 13 + 4 * n * (k + 1))  # round 3
        blob = bytearray((run_dir / "plans.andp").read_bytes())
        if fault == "selected bit flipped":
            blob[at + 8 * n] ^= 1  # anchor 0
            message = "selected bits differ"
        else:
            # anchor 5's one neighbour becomes anchor 5 itself: [5, 5]
            struct.pack_into("<i", blob, at + 8 * n + 13 + 4 * (5 * (k + 1) + 1), 5)
            message = "repeats an index"
        ckpt_dir = tmp_path / "run"
        ckpt_dir.mkdir()
        shutil.copy(run_dir / "checkpoint.andc", ckpt_dir)
        (ckpt_dir / "plans.andp").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=message):
            load_plan(ckpt_dir / "plans.andp", load_checkpoint(ckpt_dir / "checkpoint.andc"), 3)
        args = ("--data", blob_file, "--round", 3)
        assert run("inspect", "--checkpoint", ckpt_dir / "checkpoint.andc", *args) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_round_out_of_range_is_usage_error(self, run_dir):
        assert run(
            "inspect", "--checkpoint", run_dir / "checkpoint.andc", "--round", 9
        ) == 2
