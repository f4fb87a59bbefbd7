"""A mutated artifact file loads or is refused as malformed, never otherwise.

Each property starts from one small valid file (N = 12) and mutates it: the
binary files (a `.ands` dataset, a `.andc` checkpoint and its `plans.andp`)
by truncation, byte overwrites, inserted bytes and u32 fields set to 0, 1,
2**31 - 1 or 2**32 - 1; the `.csv` dataset by character edits. Loading the
result must either succeed or raise `FormatError` (`ParseError` for `.csv`);
any other exception, or any warning, fails the property.
"""

import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andkit.cli import main
from andkit.data import BlobSpec, generate_blobs, load_bin, load_csv, save_bin, save_csv
from andkit.errors import FormatError, ParseError
from andkit.pipeline import PLANS_FILE, load_checkpoint, load_plan

N, D, K, ROUNDS, LAYERS = 12, 3, 2, 2, (3, 4, 2)
U32_EDGES = [0, 1, 2**31 - 1, 2**32 - 1]
# the u32 fields of each file, by offset (a checkpoint's bank n and d are found from its end)
ANDS_FIELDS = (8, 12)  # n, d
ANDC_FIELDS = (
    *range(6, 30, 4),  # rounds, epochs_per_round, init_epochs, batch_size, k, final_round
    74,  # the layer count, after the 68-byte config block
    *range(78, 78 + 4 * len(LAYERS), 4),  # the layer sizes
)
ANDP_FIELDS = (6, 10, 14, 18)  # n, k, rounds, the checkpoint's crc32


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The valid files, by suffix, and a directory to write their mutants in."""
    src = tmp_path_factory.mktemp("valid")
    dataset = generate_blobs(BlobSpec(3, N // 3, D, seed=5))
    save_bin(dataset, src / "blobs.ands")
    save_csv(dataset, src / "blobs.csv")
    argv = ["train", "--data", src / "blobs.ands", "--layers", ",".join(map(str, LAYERS[1:])),
            "--k", K, "--rounds", ROUNDS, "--epochs", 1, "--batch-size", 4, "--out", src / "run"]
    assert main([str(a) for a in argv]) == 0
    valid = {
        "ands": (src / "blobs.ands").read_bytes(),
        "csv": (src / "blobs.csv").read_bytes(),
        "andc": (src / "run" / "checkpoint.andc").read_bytes(),
        "andp": (src / "run" / PLANS_FILE).read_bytes(),
    }
    return valid, tmp_path_factory.mktemp("mutants")


@st.composite
def mutated(draw, blob: bytes, u32_fields) -> bytes:
    """`blob` after one to three truncations, byte overwrites, insertions or u32 overwrites."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "overwrite", "insert", "u32"]))
        if kind == "truncate" and blob:
            blob = blob[: draw(st.integers(0, len(blob) - 1))]
        elif kind == "overwrite" and blob:
            at = draw(st.integers(0, len(blob) - 1))
            blob = blob[:at] + draw(st.binary(min_size=1, max_size=1)) + blob[at + 1 :]
        elif kind == "insert":
            at = draw(st.integers(0, len(blob)))
            blob = blob[:at] + draw(st.binary(min_size=1, max_size=8)) + blob[at:]
        elif kind == "u32" and len(blob) >= 4:
            fields = [at for at in u32_fields if at <= len(blob) - 4]
            anywhere = st.integers(0, len(blob) - 4)
            at = draw(st.one_of(st.sampled_from(fields), anywhere) if fields else anywhere)
            out = bytearray(blob)
            struct.pack_into("<I", out, at, draw(st.sampled_from(U32_EDGES)))
            blob = bytes(out)
    return blob


CSV_BYTES = st.sampled_from(
    [bytes([c]) for c in b"0123456789,-+.eE\n\r \tnaifINF_x"] + [b"\xff", b"\xc3", "é".encode()]
)


@st.composite
def edited(draw, text: bytes) -> bytes:
    """`text` after one to four character deletions, insertions or replacements."""
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["delete", "insert", "replace"]))
        at = draw(st.integers(0, max(len(text) - 1, 0)))
        if kind == "delete":
            text = text[:at] + text[at + 1 :]
        elif kind == "insert":
            text = text[:at] + draw(CSV_BYTES) + text[at:]
        else:
            text = text[:at] + draw(CSV_BYTES) + text[at + 1 :]
    return text


def loads_or_is_refused(load, refusal=FormatError) -> None:
    """Run `load`; a `refusal` passes, and any other exception or a warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load()
        except refusal:
            pass


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_dataset_loads_or_is_a_format_error(files, data):
    valid, tmp = files
    path = tmp / "mutant.ands"
    path.write_bytes(data.draw(mutated(valid["ands"], ANDS_FIELDS)))
    loads_or_is_refused(lambda: load_bin(path))


@given(data=st.data(), target=st.sampled_from(["andc", "andp"]))
@settings(max_examples=400, deadline=None)
def test_mutated_checkpoint_or_plans_loads_or_is_a_format_error(files, data, target):
    valid, tmp = files
    blobs = dict(valid)
    if target == "andc":
        bank_fields = (len(blobs["andc"]) - 8 * N * LAYERS[-1] - 8,) * 2
        fields = (*ANDC_FIELDS, bank_fields[0], bank_fields[1] + 4)
    else:
        fields = ANDP_FIELDS
    blobs[target] = data.draw(mutated(valid[target], fields))
    (tmp / "checkpoint.andc").write_bytes(blobs["andc"])
    (tmp / PLANS_FILE).write_bytes(blobs["andp"])
    loaded = []
    loads_or_is_refused(lambda: loaded.append(load_checkpoint(tmp / "checkpoint.andc")))
    for ckpt in loaded:  # a mutant may load holding up to 2**32 - 1 rounds
        for r in range(1, min(ckpt.config.rounds, ROUNDS) + 1):
            loads_or_is_refused(lambda: load_plan(tmp / PLANS_FILE, ckpt, r))


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_edited_csv_loads_or_is_a_parse_error(files, data):
    valid, tmp = files
    path = tmp / "mutant.csv"
    path.write_bytes(data.draw(edited(valid["csv"])))
    loads_or_is_refused(lambda: load_csv(path), ParseError)
