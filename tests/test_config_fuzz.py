"""Fuzz tests for the ``--config`` file.

``admmnet train mlp`` and ``admmnet train gcn`` read a shared key=value
file whose values become option defaults.  Every corrupted file either
loads or is rejected, so each run exits 0 or 1, never with a traceback.  A
file starts as a valid config that sets options of both models; then its
bytes are replaced, inserted or deleted, a line is repeated, or the file
is cut.  The inserted bytes lean towards the ones the reader parses:
digits, '=', '#', signs, line ends, letters of float and flag values, NUL
and bytes that are not UTF-8.  ``--data``, ``--out``, ``--layers`` and
``--epochs 1`` are given on the command line, which wins over the file, so
no corrupted value starts a long or large run.
"""
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmnet.cli import main
from admmnet.data_io import save_graph, write_idx_images, write_idx_labels
from admmnet.linalg import Rng
from admmnet.synth import make_image_classes, make_sbm_graph
from fuzzing import corrupted

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
VALID = (b"# shared by both models\n"
         b"rho=1.0\nnu=1e-6\nmu=1.0\nlam=0\nlr=1e-3\noptimizer=admm\n"
         b"seed=3\nsubsample=0\ntiming=0\nepochs=5\nlayers=16,8,10\n")
BYTES = st.one_of(st.sampled_from(list(b"0123456789=#-+.e\n\r \tnaifx_") + [0, 0xFF]),
                  st.integers(0, 255))


@pytest.fixture(scope="module")
def data_dirs(tmp_path_factory):
    """A small image set and a small graph, written once."""
    images = tmp_path_factory.mktemp("images")
    train, test = make_image_classes(30, n_pixels=16, n_classes=3, rng=Rng(0))
    write_idx_images(str(images / "train-images-idx3-ubyte"), train.x)
    write_idx_labels(str(images / "train-labels-idx1-ubyte"), train.y)
    write_idx_images(str(images / "t10k-images-idx3-ubyte"), test.x)
    write_idx_labels(str(images / "t10k-labels-idx1-ubyte"), test.y)
    graph = tmp_path_factory.mktemp("graph")
    save_graph(str(graph), make_sbm_graph(30, rng=Rng(0)))
    return {"mlp": (images, "16,8,10"), "gcn": (graph, "4")}


def run(model, raw, data_dirs):
    data, layers = data_dirs[model]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(raw)
        return main(["train", model, "--config", path, "--data", str(data), "--layers", layers,
                     "--epochs", "1", "--out", os.path.join(d, "run.csv")])


def test_valid_config_runs(data_dirs):
    assert run("mlp", VALID, data_dirs) == 0
    assert run("gcn", VALID, data_dirs) == 0


@pytest.mark.parametrize("model", ["mlp", "gcn"])
@SETTINGS
@given(raw=corrupted(VALID, BYTES))
@example(raw=VALID.replace(b"rho=1.0", b"rho=\xff1.0"))  # once a UnicodeDecodeError
@example(raw=VALID + b"=1\n")  # an empty key
@example(raw=VALID.replace(b"epochs=5", b"epochs=abc"))
@example(raw=VALID.replace(b"rho=1.0", b"rho=nan"))
@example(raw=VALID + b"rho 1.0\n")  # no '='
@example(raw=VALID.replace(b"seed=3", b"seed=-3"))
def test_train_exits_0_or_1(model, raw, data_dirs):
    assert run(model, raw, data_dirs) in (0, 1)
