"""Datasets: synthetic blob generation, CSV/binary serialisation, batching.

Labels ride along inside `Dataset` for evaluation, but the training entry
points only ever accept the raw input matrix, so labels cannot leak into
unsupervised training by construction.

Binary dataset format (extension ``.ands``, all integers little-endian):

    magic   4 bytes  b"ANDS"
    version u16      1
    flags   u8       1 if labels present, else 0
    pad     u8       0
    n       u32      sample count
    d       u32      feature count
    inputs  n*d little-endian float32, row-major
    labels  n little-endian int32 (only when the flag is set)

CSV format: header ``label,f0,...,f{D-1}``; the label column is either all
non-negative int32 integers or all -1, the latter meaning "no labels".
A `Dataset` refuses NaN and infinite inputs, and labels that are not
non-negative int32 integers; the CSV loader refuses them first, and
`load_bin` turns the `Dataset`'s refusal into a FormatError.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, ParseError
from .numerics import SeededRng, check_kinds, check_positive, l2_normalize

_MAGIC = b"ANDS"
_VERSION = 1
_HEADER = "<4sHBBII"
_INT32 = np.iinfo(np.int32)  # class ids are stored as int32


def label_fault(labels: np.ndarray) -> str | None:
    """Why `labels` are not class ids (non-negative integral values), or None when they are."""
    if labels.dtype.kind == "b":
        return "labels must be integral class ids, not bools"
    if labels.dtype.kind not in "iu":
        values = labels.astype(np.float64)
        if not (np.isfinite(values) & (values == np.floor(values))).all():
            return "labels must be integral class ids"
    if (labels < 0).any():
        return "labels must be non-negative class ids"
    return None


def input_matrix(inputs, copy: bool) -> np.ndarray:
    """`inputs` as a float64 (n, d) matrix, n >= 2 and d >= 1, of finite values; else a
    ConfigurationError. Without `copy`, a float64 array comes back as is."""
    with np.errstate(invalid="ignore"):  # a signalling NaN is refused below, not warned about
        x = (np.array if copy else np.asarray)(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 1:
        raise ConfigurationError(f"inputs need a 2-D shape with n >= 2 and d >= 1, got {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ConfigurationError(f"sample {bad[0]}: non-finite input value")
    return x


@dataclass(frozen=True)
class Dataset:
    """Immutable raw-sample container of finite inputs; labels optional and evaluation-only."""

    inputs: np.ndarray  # (n, d) float64
    labels: np.ndarray | None = None  # (n,) int32 class ids

    def __post_init__(self):
        inputs = input_matrix(self.inputs, copy=True)  # later caller writes stay out
        inputs.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (inputs.shape[0],):
                raise ConfigurationError(
                    f"labels length {labels.shape} does not match n={inputs.shape[0]}"
                )
            fault = label_fault(labels)
            if fault:
                raise ConfigurationError(fault)
            if labels.max() > _INT32.max:
                raise ConfigurationError(f"label {labels.max()} is outside the int32 range")
            labels = labels.astype(np.int32)  # a copy: the caller's array stays writeable
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class BlobSpec:
    """Recipe for an isotropic-Gaussian blob dataset; building one refuses a bad field."""

    num_classes: int
    per_class: int
    dim: int
    center_scale: float = 5.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_kinds(self)
        counts = (self.num_classes, self.per_class, self.dim)
        if min(counts) < 2:
            raise ConfigurationError(f"num_classes, per_class and dim must be >= 2, got {counts}")
        if not -(2**63) <= self.seed < 2**63:  # TrainConfig's bound; SeededRng reduces mod 2**64
            raise ConfigurationError(f"seed must fit in a signed 64-bit integer, got {self.seed}")
        scale = self.center_scale
        if not 0 <= scale <= sys.float_info.max:  # also refuses nan and an int past float
            raise ConfigurationError(f"center_scale must be a finite number >= 0, got {scale}")
        check_positive("noise_sigma", self.noise_sigma)


def generate_blobs(spec: BlobSpec) -> Dataset:
    """Sample `num_classes * per_class` labelled points around random centers.

    Each class center is a seeded random direction scaled to norm
    `center_scale`; samples add isotropic Gaussian noise with std
    `noise_sigma`. Rows are class-major (all of class 0 first). The same
    seed reproduces the same dataset bit for bit.
    """
    rng = SeededRng(spec.seed)
    centers = np.stack(
        [l2_normalize(rng.normals(spec.dim)) * spec.center_scale for _ in range(spec.num_classes)]
    )
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int32), spec.per_class)
    # one row-major draw gives each sample the normals a per-sample draw would, in order
    noise = rng.normals((labels.size, spec.dim))
    return Dataset(inputs=centers[labels] + spec.noise_sigma * noise, labels=labels)


def make_benchmark_splits(
    classes: int, per_class_half: int, dim: int = 32, **spec
) -> tuple[Dataset, Dataset]:
    """One blob generation split per class into equal train/test halves.

    Both halves share the class centres, so the test half is a held-out split
    for a bank trained on the other. `spec` holds any further `BlobSpec` fields
    (`noise_sigma`, `center_scale`, `seed`); the ones left out keep
    `BlobSpec`'s defaults.
    """
    per_class = 2 * per_class_half
    ds = generate_blobs(BlobSpec(classes, per_class, dim, **spec))
    first_half = np.arange(ds.n) % per_class < per_class_half  # rows are class-major
    return (
        Dataset(inputs=ds.inputs[first_half], labels=ds.labels[first_half]),
        Dataset(inputs=ds.inputs[~first_half], labels=ds.labels[~first_half]),
    )


def save_csv(dataset: Dataset, path) -> None:
    """Write `dataset` as ``label,f0,...`` text, whole or not at all (`write_atomic`)."""
    labels = dataset.labels
    lines = ["label," + ",".join(f"f{j}" for j in range(dataset.dim))]
    for i in range(dataset.n):
        label = -1 if labels is None else int(labels[i])
        lines.append(f"{label}," + ",".join(repr(float(v)) for v in dataset.inputs[i]))
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` whole or not at all.

    The bytes go to a temporary file in the same directory, flushed to disk,
    which `os.replace` then moves over `path`; on any failure the temporary
    file is removed and `path` keeps what it held before.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; bytes that are not UTF-8 are a ParseError."""
    blob = Path(path).read_bytes()
    try:
        return blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as err:
        lineno = blob.count(b"\n", 0, err.start) + 1
        raise ParseError(f"{path}: line {lineno}: not valid UTF-8") from None


def load_csv(path) -> Dataset:
    lines = read_lines(path)
    if not lines:
        raise ParseError(f"{path}: line 1: missing header")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise ParseError(f"{path}: line 1: header must be 'label,f0,...', got {lines[0]!r}")
    dim = len(header) - 1
    if header[1:] != [f"f{j}" for j in range(dim)]:
        raise ParseError(f"{path}: line 1: feature columns must be f0..f{dim - 1}")
    rows, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ParseError(f"{path}: line {lineno}: expected {dim + 1} cells, got {len(cells)}")
        try:
            labels.append(int(cells[0]))
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-integer label {cells[0]!r}") from None
        if not _INT32.min <= labels[-1] <= _INT32.max:
            raise ParseError(f"{path}: line {lineno}: label {labels[-1]} outside the int32 range")
        try:
            rows.append([float(c) for c in cells[1:]])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric feature cell") from None
        if not all(map(math.isfinite, rows[-1])):
            raise ParseError(f"{path}: line {lineno}: non-finite feature cell")
    if len(rows) < 2:
        raise ParseError(f"{path}: need at least 2 data rows, got {len(rows)}")
    label_arr = np.asarray(labels, dtype=np.int32)
    absent = label_arr == -1
    if (label_arr < -1).any() or (absent.any() and not absent.all()):
        raise ParseError(f"{path}: labels must be all present or all -1")
    return Dataset(inputs=rows, labels=None if absent.all() else label_arr)


class BinaryReader:
    """Reads a binary file in order; a read past its end or bytes left at `end` is a FormatError."""

    def __init__(self, path, fh):  # fh: a seekable binary file object, open at path
        self.path, self.fh, self.size = path, fh, fh.seek(0, os.SEEK_END)
        fh.seek(0)

    def _claim(self, num: int) -> int:
        at = self.fh.tell()
        if at + num > self.size:
            raise FormatError(f"{self.path}: truncated at byte {at} (+{num} needed)")
        return num

    def skip(self, num: int) -> None:
        self.fh.seek(self._claim(num), os.SEEK_CUR)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.fh.read(self._claim(struct.calcsize(fmt))))

    def head(self, fmt: str, magic: bytes, version: int) -> list:
        """Unpack a header that opens with `magic` and a u16 version; return its other fields."""
        found, got, *rest = self.unpack(fmt)
        if found != magic:
            raise FormatError(f"{self.path}: bad magic {found!r}")
        if got != version:
            raise FormatError(f"{self.path}: unsupported version {got}")
        return rest

    def array(self, dtype, *shape: int) -> np.ndarray:
        """The next values of `dtype`, read into a new writable array of `shape`."""
        self._claim(np.dtype(dtype).itemsize * math.prod(shape))
        out = np.empty(shape, dtype)
        self.fh.readinto(out)  # a short read (the file shrank) leaves `end` refusing it
        return out

    def end(self) -> None:
        if self.fh.tell() != self.size:
            raise FormatError(f"{self.path}: {self.size - self.fh.tell()} trailing bytes")


def save_bin(dataset: Dataset, path) -> None:
    """Write `dataset` in the binary format, whole or not at all (`write_atomic`).

    An input whose float32 cast is not finite, which `load_bin` would refuse,
    is refused before anything is written.
    """
    with np.errstate(over="ignore"):
        inputs = np.ascontiguousarray(dataset.inputs, dtype="<f4")
    if not np.isfinite(inputs).all():
        raise ConfigurationError(
            f"{path}: an input value is not finite as float32, the binary format's cell;"
            " a finite value beyond float32's range fits a .csv file instead"
        )
    labels = dataset.labels
    head = struct.pack(_HEADER, _MAGIC, _VERSION, labels is not None, 0, dataset.n, dataset.dim)
    tail = b"" if labels is None else np.ascontiguousarray(labels, dtype="<i4").tobytes()
    write_atomic(path, b"".join((head, inputs.tobytes(), tail)))


def load_bin(path) -> Dataset:
    """Read a binary dataset; a malformed file, or values `Dataset` refuses, is a FormatError."""
    with open(path, "rb") as fh:
        rd = BinaryReader(path, fh)
        has_labels, _pad, n, d = rd.head(_HEADER, _MAGIC, _VERSION)
        if has_labels not in (0, 1):
            raise FormatError(f"{path}: bad label flag {has_labels}")
        inputs = rd.array("<f4", n, d)
        labels = rd.array("<i4", n) if has_labels else None
        rd.end()
    try:
        return Dataset(inputs=inputs, labels=labels)  # Dataset converts to float64 in its one copy
    except ConfigurationError as err:
        raise FormatError(f"{path}: {err}") from err


def load_dataset(path) -> Dataset:
    """Dispatch on extension: ``.csv`` is text, everything else binary."""
    if str(path).endswith(".csv"):
        return load_csv(path)
    return load_bin(path)


def save_dataset(dataset: Dataset, path) -> None:
    """Write the format `load_dataset` reads back: ``.csv`` as text, everything else binary."""
    if str(path).endswith(".csv"):
        save_csv(dataset, path)
    else:
        save_bin(dataset, path)


def make_batches(n: int, batch_size: int, rng: SeededRng) -> list[np.ndarray]:
    """Chunk a seeded permutation of 0..n-1 into batches.

    The final batch may be short; together the batches cover every index
    exactly once.
    """
    if batch_size < 1 or batch_size > n:
        raise ConfigurationError(f"batch_size must be in [1, {n}], got {batch_size}")
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]
