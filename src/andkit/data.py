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
Both loaders reject NaN and infinite inputs.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, ParseError
from .numerics import SeededRng, l2_normalize

_MAGIC = b"ANDS"
_VERSION = 1
_HEADER = struct.Struct("<4sHBBII")
_INT32 = np.iinfo(np.int32)  # class ids are stored as int32


@dataclass(frozen=True)
class Dataset:
    """Immutable raw-sample container; labels optional and evaluation-only."""

    inputs: np.ndarray  # (n, d) float64
    labels: np.ndarray | None = None  # (n,) int32 class ids

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[0] < 2:
            raise ConfigurationError(
                f"dataset needs a 2-D input matrix with n >= 2, got shape {inputs.shape}"
            )
        inputs.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int32)
            if labels.shape != (inputs.shape[0],):
                raise ConfigurationError(
                    f"labels length {labels.shape} does not match n={inputs.shape[0]}"
                )
            if (labels < 0).any():
                raise ConfigurationError("labels must be non-negative class ids")
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
    """Recipe for an isotropic-Gaussian blob dataset."""

    num_classes: int
    per_class: int
    dim: int
    center_scale: float = 5.0
    noise_sigma: float = 1.0
    seed: int = 0


def generate_blobs(spec: BlobSpec) -> Dataset:
    """Sample `num_classes * per_class` labelled points around random centers.

    Each class center is a seeded random direction scaled to norm
    `center_scale`; samples add isotropic Gaussian noise with std
    `noise_sigma`. Rows are class-major (all of class 0 first). The same
    seed reproduces the same dataset bit for bit.
    """
    if spec.num_classes < 2 or spec.per_class < 2 or spec.dim < 2:
        raise ConfigurationError(
            "blob spec needs num_classes >= 2, per_class >= 2, dim >= 2, got "
            f"({spec.num_classes}, {spec.per_class}, {spec.dim})"
        )
    if not (math.isfinite(spec.center_scale) and spec.center_scale >= 0):
        raise ConfigurationError(
            f"center_scale must be a finite number >= 0, got {spec.center_scale}"
        )
    if not (math.isfinite(spec.noise_sigma) and spec.noise_sigma > 0):
        raise ConfigurationError(
            f"noise_sigma must be a finite number > 0, got {spec.noise_sigma}"
        )
    rng = SeededRng(spec.seed)
    centers = np.stack(
        [l2_normalize(rng.normals(spec.dim)) * spec.center_scale for _ in range(spec.num_classes)]
    )
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int32), spec.per_class)
    # one row-major draw gives each sample the normals a per-sample draw would, in order
    noise = rng.normals((labels.size, spec.dim))
    return Dataset(inputs=centers[labels] + spec.noise_sigma * noise, labels=labels)


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
    return Dataset(
        inputs=np.asarray(rows, dtype=np.float64),
        labels=None if absent.all() else label_arr,
    )


def save_bin(dataset: Dataset, path) -> None:
    """Write `dataset` in the binary format, whole or not at all (`write_atomic`).

    An input whose float32 cast is not finite, which `load_bin` would refuse,
    is refused before anything is written.
    """
    has_labels = dataset.labels is not None
    with np.errstate(over="ignore"):
        inputs = np.ascontiguousarray(dataset.inputs, dtype="<f4")
    if not np.isfinite(inputs).all():
        raise ConfigurationError(
            f"{path}: an input value is not finite as float32, the binary format's cell;"
            " a finite value beyond float32's range fits a .csv file instead"
        )
    parts = [
        _HEADER.pack(_MAGIC, _VERSION, int(has_labels), 0, dataset.n, dataset.dim),
        inputs.tobytes(),
    ]
    if has_labels:
        parts.append(np.ascontiguousarray(dataset.labels, dtype="<i4").tobytes())
    write_atomic(path, b"".join(parts))


def load_bin(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, has_labels, _pad, n, d = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if has_labels not in (0, 1):
        raise FormatError(f"{path}: bad label flag {has_labels}")
    if n < 2 or d < 1:
        raise FormatError(f"{path}: invalid dimensions n={n}, d={d}")
    expected = _HEADER.size + 4 * n * d + (4 * n if has_labels else 0)
    if len(blob) != expected:
        raise FormatError(f"{path}: payload is {len(blob)} bytes, expected {expected}")
    off = _HEADER.size
    inputs = np.frombuffer(blob, dtype="<f4", count=n * d, offset=off).reshape(n, d)
    if not np.isfinite(inputs).all():
        raise FormatError(f"{path}: non-finite input value")
    labels = None
    if has_labels:
        labels = np.frombuffer(blob, dtype="<i4", count=n, offset=off + 4 * n * d)
        if (labels < 0).any():
            raise FormatError(f"{path}: negative class id {int(labels.min())}")
    return Dataset(inputs=inputs.astype(np.float64), labels=labels)


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
