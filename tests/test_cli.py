import json
import math

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
            ("--momentum", -1), ("--momentum", "nan"), ("--lr", "inf"), ("--tau", "inf"),
            ("--layers", "24,1"),
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
        for args in (("--knn-k", 100), ("--probe", "--probe-lr", "nan"),
                     ("--probe", "--probe-epochs", -1)):
            code = run(
                "eval", "--checkpoint", run_dir / "checkpoint.andc", "--data", blob_file, *args
            )
            assert code == 2, args

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.ands", tmp_path / "b.ands"
        for path in (a, b):
            assert run(
                "generate", "--classes", 2, "--per-class", 5, "--dim", 4,
                "--seed", 3, "--out", path,
            ) == 0
        assert a.read_bytes() == b.read_bytes()

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


class TestTrain:
    def test_outputs_exist(self, run_dir):
        for name in ("checkpoint.andc", "metrics.jsonl", "manifest.json"):
            assert (run_dir / name).exists()

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

    def test_manifest_rerun_bit_identical(self, run_dir, tmp_path):
        out2 = tmp_path / "rerun"
        assert run("train", "--manifest", run_dir / "manifest.json", "--out", out2) == 0
        assert (out2 / "checkpoint.andc").read_bytes() == (run_dir / "checkpoint.andc").read_bytes()
        assert (out2 / "metrics.jsonl").read_bytes() == (run_dir / "metrics.jsonl").read_bytes()

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
        assert run(
            "eval", "--checkpoint", run_dir / "checkpoint.andc", "--data", blob_file,
            "--probe", "--probe-epochs", 50,
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["linear_accuracy"] is not None

    def test_unlabelled_dataset_fails_with_message(self, run_dir, tmp_path, capsys):
        from andkit.data import Dataset, save_bin

        plain = tmp_path / "plain.ands"
        save_bin(Dataset(inputs=np.zeros((100, 16))), plain)
        assert run(
            "eval", "--checkpoint", run_dir / "checkpoint.andc", "--data", plain
        ) == 1
        assert "labelled" in capsys.readouterr().err

    def test_held_out_split_scores_against_bank_data(self, blob_file, tmp_path, capsys):
        from andkit.benchmark import make_benchmark_splits
        from andkit.data import Dataset, load_dataset, save_dataset
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
        for bad in ('{"round": 1', "[1, 2]", '{"epoch": 1}'):
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

    def test_selected_count_matches_round(self, run_dir, capsys):
        for r, expected in ((1, 25), (2, 50), (4, 100)):
            assert run(
                "inspect", "--checkpoint", run_dir / "checkpoint.andc", "--round", r
            ) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            assert sum(int(row.split(",")[3]) for row in rows) == expected

    @pytest.mark.parametrize("mode", ["--one-off", "--instance-only"])
    def test_selected_count_is_what_training_used(self, blob_file, tmp_path, capsys, mode):
        out = tmp_path / "run"
        assert run(
            "train", "--data", blob_file, "--rounds", 4, "--epochs", 1, "--init-epochs", 1,
            "--layers", "24,8", mode, "--out", out,
        ) == 0
        records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        fraction = {rec["round"]: rec["selected_fraction"] for rec in records}
        for r in (1, 4):
            capsys.readouterr()
            assert run("inspect", "--checkpoint", out / "checkpoint.andc", "--round", r) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            assert sum(int(row.split(",")[3]) for row in rows) == 100 * fraction[r], (mode, r)

    def test_round_out_of_range_is_usage_error(self, run_dir):
        assert run(
            "inspect", "--checkpoint", run_dir / "checkpoint.andc", "--round", 9
        ) == 2
