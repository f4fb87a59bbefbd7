import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andkit.data import (
    BlobSpec,
    Dataset,
    generate_blobs,
    load_bin,
    load_csv,
    make_batches,
    save_bin,
    save_csv,
    write_atomic,
)
from andkit.errors import ConfigurationError, FormatError, ParseError
from andkit.numerics import SeededRng

from conftest import looped_blobs


class TestGenerateBlobs:
    def test_counts_and_labels(self):
        ds = generate_blobs(BlobSpec(num_classes=4, per_class=100, dim=32, seed=7))
        assert ds.n == 400 and ds.dim == 32
        assert sorted(set(ds.labels.tolist())) == [0, 1, 2, 3]
        assert all((ds.labels == c).sum() == 100 for c in range(4))

    def test_deterministic_in_seed(self):
        spec = BlobSpec(num_classes=3, per_class=5, dim=8, seed=9)
        a, b = generate_blobs(spec), generate_blobs(spec)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tight_pairs_far_apart(self):
        # direct computation on the generated data: class-pure cosine beats cross-class
        ds = generate_blobs(BlobSpec(2, 2, 2, center_scale=10.0, noise_sigma=0.01, seed=1))
        unit = ds.inputs / np.linalg.norm(ds.inputs, axis=1, keepdims=True)
        cos = unit @ unit.T
        same = [cos[i, j] for i in range(4) for j in range(4) if i != j and ds.labels[i] == ds.labels[j]]
        diff = [cos[i, j] for i in range(4) for j in range(4) if ds.labels[i] != ds.labels[j]]
        assert min(same) > max(diff)

    @pytest.mark.parametrize(
        "spec",
        [
            BlobSpec(num_classes=4, per_class=100, dim=32, seed=7),
            # odd dims: the Box-Muller spare normal carries over from one sample to the next
            BlobSpec(3, 5, 7, center_scale=2.5, noise_sigma=0.3, seed=9),
            BlobSpec(2, 3, 3, center_scale=0.0, seed=1),
        ],
    )
    def test_matches_per_sample_loop_bit_for_bit(self, spec):
        ds = generate_blobs(spec)
        inputs, labels = looped_blobs(spec)
        assert ds.inputs.tobytes() == inputs.tobytes()
        np.testing.assert_array_equal(ds.labels, labels)

    def test_zero_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_blobs(BlobSpec(2, 2, 2, noise_sigma=0.0))

    def test_tiny_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_blobs(BlobSpec(1, 5, 4))


class TestCsvRoundTrip:
    def test_round_trip_within_tolerance(self, tmp_path):
        ds = generate_blobs(BlobSpec(2, 3, 4, seed=3))
        path = tmp_path / "blobs.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_allclose(back.inputs, ds.inputs, atol=1e-9)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_unlabelled_round_trip(self, tmp_path):
        ds = Dataset(inputs=np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "plain.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.labels is None
        np.testing.assert_allclose(back.inputs, ds.inputs, atol=1e-9)

    def test_mixed_labels_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n-1,5.0,6.0\n")
        with pytest.raises(ParseError, match="all present or all -1"):
            load_csv(path)

    def test_label_below_minus_one_rejected(self, tmp_path):
        path = tmp_path / "negative.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n-2,3.0,4.0\n")
        with pytest.raises(ParseError, match="all present or all -1"):
            load_csv(path)

    def test_label_beyond_int32_rejected(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n99999999999,3.0,4.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        for cell in ("nan", "inf", "-inf"):
            path = tmp_path / "nonfinite.csv"
            path.write_text(f"label,f0,f1\n0,1.0,2.0\n1,3.0,{cell}\n")
            with pytest.raises(ParseError, match="line 3"):
                load_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,oops,4.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"label,f0,f1\n0,1.0,2.0\n1,3.0,\xe94.0\n")
        with pytest.raises(ParseError, match="line 3: not valid UTF-8"):
            load_csv(path)


class TestBinRoundTrip:
    def test_bytes_idempotent(self, tmp_path):
        ds = generate_blobs(BlobSpec(3, 4, 5, seed=11))
        first = tmp_path / "a.ands"
        second = tmp_path / "b.ands"
        save_bin(ds, first)
        save_bin(load_bin(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_load_save_matches_float32_quantisation(self, tmp_path):
        ds = generate_blobs(BlobSpec(2, 3, 4, seed=2))
        path = tmp_path / "q.ands"
        save_bin(ds, path)
        back = load_bin(path)
        np.testing.assert_array_equal(back.inputs, ds.inputs.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.ands"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_bin(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ands"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FormatError, match="magic"):
            load_bin(path)

    def test_zero_samples_rejected(self, tmp_path):
        import struct

        path = tmp_path / "zero.ands"
        path.write_bytes(struct.pack("<4sHBBII", b"ANDS", 1, 0, 0, 0, 4))
        with pytest.raises(FormatError):
            load_bin(path)

    def test_negative_class_id_rejected(self, tmp_path):
        ds = generate_blobs(BlobSpec(2, 3, 4, seed=2))
        path = tmp_path / "negative.ands"
        save_bin(ds, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = (-3).to_bytes(4, "little", signed=True)  # last sample's label
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="negative class id"):
            load_bin(path)

    def test_non_finite_input_rejected(self, tmp_path):
        ds = generate_blobs(BlobSpec(2, 3, 4, seed=2))
        path = tmp_path / "nan.ands"
        save_bin(ds, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 16 + 4 * 5, float("nan"))  # sample 1, feature 1
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite"):
            load_bin(path)

    def test_float32_overflow_refused_before_writing(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "big.ands"
        save_bin(Dataset(inputs=np.array([[top, 1.0], [-top, 0.0]])), path)  # the edge still fits
        assert load_bin(path).inputs[:, 0].tolist() == [top, -top]
        old = path.read_bytes()
        for big in (1e39, -1e39, 2 * top):
            with pytest.raises(ConfigurationError, match=r"float32.*\.csv"):
                save_bin(Dataset(inputs=np.array([[1.0, 2.0], [big, 0.0]])), path)
            assert path.read_bytes() == old  # neither replaced nor left a temporary beside it
            assert [p.name for p in tmp_path.iterdir()] == ["big.ands"]
            with pytest.raises(ConfigurationError):
                save_bin(Dataset(inputs=np.array([[1.0, 2.0], [big, 0.0]])), tmp_path / "new.ands")
            assert [p.name for p in tmp_path.iterdir()] == ["big.ands"]

    def test_truncated_payload_rejected(self, tmp_path):
        ds = generate_blobs(BlobSpec(2, 3, 4, seed=2))
        path = tmp_path / "trunc.ands"
        save_bin(ds, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_bin(path)


class TestWriteAtomic:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.bin"
        write_atomic(path, b"first")
        write_atomic(path, b"second")
        assert path.read_bytes() == b"second"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_replace_keeps_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        import os

        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def fail(src, dst):
            assert Path(src).read_bytes() == b"new" and Path(src).parent == tmp_path
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk gone"):
            write_atomic(path, b"new")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        with pytest.raises(OSError):
            write_atomic(tmp_path / "fresh.bin", b"new")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestMakeBatches:
    def test_sizes(self):
        batches = make_batches(5, 2, SeededRng(1))
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_single_full_batch_is_permutation(self):
        (batch,) = make_batches(4, 4, SeededRng(2))
        assert sorted(batch.tolist()) == [0, 1, 2, 3]

    def test_same_seed_same_batches(self):
        a = make_batches(9, 4, SeededRng(3))
        b = make_batches(9, 4, SeededRng(3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            make_batches(5, 0, SeededRng(0))

    def test_oversized_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            make_batches(5, 6, SeededRng(0))

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
    @settings(max_examples=40)
    def test_every_index_once(self, n, batch_size):
        batch_size = min(batch_size, n)
        batches = make_batches(n, batch_size, SeededRng(17))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(n))
