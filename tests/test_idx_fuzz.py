"""Fuzz tests for IDX headers and payloads.

Every input either loads or raises ``FormatError``/``DataError``, and
``admmnet train mlp`` on a directory of such files exits 0 or 1, never with
a traceback.  Header sizes mix small values with ones whose products
overflow 64 bits; payloads are exact, short or long, and files are
sometimes cut inside the header.  The explicit examples are inputs that
once escaped as a bare ``ValueError``, ``ZeroDivisionError`` or
``ShapeError``.
"""
import math
import os
import struct
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmnet.cli import main
from admmnet.data_io import IMAGES_MAGIC, LABELS_MAGIC, read_idx_images, read_idx_labels
from admmnet.errors import DataError, FormatError

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
SIZES = st.one_of(st.integers(0, 6), st.sampled_from([2**16, 2**31, 2**32 - 1]))
IMAGES, LABELS = "train-images-idx3-ubyte", "train-labels-idx1-ubyte"


def idx(magic, dims, payload=b""):
    return struct.pack(f">{len(dims) + 1}I", magic, *dims) + bytes(payload)


@st.composite
def idx_file(draw, magic, dims, byte_max):
    """An IDX file: a magic word that is sometimes wrong, the drawn sizes, a
    payload of the length they ask for or of a drawn length, and now and
    then a cut anywhere in the file."""
    word = draw(st.sampled_from([magic, magic, magic, magic ^ 0xA]))
    dims = draw(dims)
    count = math.prod(dims)
    lengths = st.integers(0, 20)
    length = draw(st.one_of(st.just(count), lengths) if count <= 64 else lengths)
    raw = idx(word, dims, draw(st.lists(st.integers(0, byte_max), min_size=length,
                                        max_size=length)))
    if draw(st.integers(0, 7)) == 0:
        raw = raw[:draw(st.integers(0, len(raw)))]
    return raw


@st.composite
def idx_dataset(draw):
    """The four files of a valid data set of 2x2 images, one of them, or
    none, then replaced by a fuzzed file."""
    files = {}
    for split in ("train", "t10k"):
        n = draw(st.integers(1, 6))
        pixels = draw(st.lists(st.integers(0, 255), min_size=4 * n, max_size=4 * n))
        labels = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        files[f"{split}-images-idx3-ubyte"] = idx(IMAGES_MAGIC, (n, 2, 2), pixels)
        files[f"{split}-labels-idx1-ubyte"] = idx(LABELS_MAGIC, (n,), labels)
    name = draw(st.sampled_from([None, *files]))
    if name in (IMAGES, "t10k-images-idx3-ubyte"):
        files[name] = draw(idx_file(IMAGES_MAGIC, st.tuples(SIZES, SIZES, SIZES), 255))
    elif name is not None:
        files[name] = draw(idx_file(LABELS_MAGIC, st.tuples(SIZES), 11))
    return files


def load(reader, raw):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            return reader(path)
        except (FormatError, DataError):
            return None


VALID_TEST = {"t10k-images-idx3-ubyte": idx(IMAGES_MAGIC, (3, 2, 2), range(12)),
              "t10k-labels-idx1-ubyte": idx(LABELS_MAGIC, (3,), [0, 1, 2])}


@SETTINGS
@given(idx_file(IMAGES_MAGIC, st.tuples(SIZES, SIZES, SIZES), 255))
@example(idx(IMAGES_MAGIC, (2**31, 2**31, 4)))  # a 64-bit product of the sizes wraps to 0
def test_images_load_or_raise_typed(raw):
    x = load(read_idx_images, raw)
    if x is not None:
        n, rows, cols = struct.unpack_from(">3I", raw, 4)
        assert x.shape == (rows * cols, n)


@SETTINGS
@given(idx_file(LABELS_MAGIC, st.tuples(SIZES), 11))
def test_labels_load_or_raise_typed(raw):
    y = load(lambda path: read_idx_labels(path, 10), raw)
    if y is not None:
        assert y.shape[0] == 10 and (y.sum(axis=0) == 1.0).all()


@SETTINGS
@given(idx_dataset())
@example({IMAGES: idx(IMAGES_MAGIC, (2**31, 2**31, 4)), LABELS: idx(LABELS_MAGIC, (0,)),
          **VALID_TEST})
@example({IMAGES: idx(IMAGES_MAGIC, (0, 2, 2)), LABELS: idx(LABELS_MAGIC, (0,)), **VALID_TEST})
@example({IMAGES: idx(IMAGES_MAGIC, (5, 2, 2), range(20)),
          LABELS: idx(LABELS_MAGIC, (4,), [0, 1, 2, 3]), **VALID_TEST})
@example({IMAGES: idx(IMAGES_MAGIC, (3, 2, 2), range(12)), LABELS: idx(LABELS_MAGIC, (3,), [0, 1, 2]),
          **VALID_TEST, "t10k-images-idx3-ubyte": idx(IMAGES_MAGIC, (3, 1, 2), range(6))})
def test_train_mlp_exits_0_or_1(files):
    with tempfile.TemporaryDirectory() as d:
        for name, raw in files.items():
            with open(os.path.join(d, name), "wb") as fh:
                fh.write(raw)
        code = main(["train", "mlp", "--data", d, "--layers", "4,3,10", "--epochs", "1",
                     "--out", os.path.join(d, "run.csv")])
    assert code in (0, 1)
