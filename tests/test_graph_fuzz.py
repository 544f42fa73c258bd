"""Fuzz tests for the graph bundle.

Every bundle either loads into a valid ``Graph`` or raises
``FormatError``/``DataError``, and ``admmnet train gcn`` on it exits 0 or 1,
never with a traceback.  A bundle starts as ``save_graph``'s output for a
small drawn graph; then one of its four files, or none, is corrupted:
bytes replaced, inserted or deleted, a line repeated, or the file cut.  The
inserted bytes lean towards the ones the readers parse: digits, separators,
signs, line ends, quotes, NUL and bytes that are not UTF-8.
"""
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmnet.cli import main
from admmnet.data_io import load_graph, save_graph
from admmnet.errors import DataError, FormatError
from admmnet.gcn import Graph
from fuzzing import corrupted

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
FILES = ("edges.tsv", "features.csv", "labels.csv", "masks.csv")
BYTES = st.one_of(st.sampled_from(list(b"0123456789\t\n\r ,-+.e\"#x") + [0, 0xFF]),
                  st.integers(0, 255))


@st.composite
def graph(draw):
    """A graph of 1-7 nodes with drawn edges, 1-2 feature columns, some
    nodes unlabeled and some in neither mask, at least one training node."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = np.array([p for p, k in zip(pairs, keep) if k], dtype=int).reshape(-1, 2)
    width = draw(st.integers(1, 2))
    features = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n * width,
                                      max_size=n * width))).reshape(n, width)
    classes = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    labels = np.zeros((n, 3))
    for node, cls in enumerate(classes):
        if cls >= 0:
            labels[node, cls] = 1.0
    split = draw(st.lists(st.sampled_from(["train", "test", None]), min_size=n, max_size=n))
    split[0] = "train"
    return Graph(n, edges, features, labels, np.array([s == "train" for s in split]),
                 np.array([s == "test" for s in split]))


@st.composite
def bundle(draw):
    """The four files of a saved graph, one of them, or none, corrupted."""
    with tempfile.TemporaryDirectory() as d:
        save_graph(d, draw(graph()))
        files = {}
        for name in FILES:
            with open(os.path.join(d, name), "rb") as fh:
                files[name] = fh.read()
    name = draw(st.sampled_from([None, *FILES]))
    if name is not None:
        files[name] = draw(corrupted(files[name], BYTES))
    return files


def written(files, directory):
    for name, raw in files.items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(raw)
    return directory


VALID = {"edges.tsv": b"0\t1\n", "features.csv": b"1\n2\n", "labels.csv": b"0,0\n1,1\n",
         "masks.csv": b"0,train\n1,test\n"}


@SETTINGS
@given(bundle())
@example({**VALID, "labels.csv": b"0,0\n0,1\n"})  # once a two-hot label row
@example({**VALID, "labels.csv": b"0,0\n1,99999999999\n"})  # once an N x 10^11 label matrix
@example({**VALID, "edges.tsv": b"0\t\xff1\n"})  # once a UnicodeDecodeError
@example({**VALID, "masks.csv": b"0,train\n1,\"test\n"})  # an unclosed quote
@example({**VALID, "masks.csv": b"0,train\n1,te\x00st\n"})
def test_bundle_loads_or_raises_typed(files):
    with tempfile.TemporaryDirectory() as d:
        try:
            g = load_graph(written(files, d))
        except (FormatError, DataError):
            return
    e = g.edges
    assert e.shape[1] == 2 and np.all(e[:, 0] < e[:, 1]) and np.all(e[:, 1] < g.n_nodes)
    assert np.all(np.count_nonzero(g.labels, axis=1) <= 1)


@settings(SETTINGS, max_examples=60)
@given(bundle())
def test_train_gcn_exits_0_or_1(files):
    with tempfile.TemporaryDirectory() as d:
        code = main(["train", "gcn", "--data", written(files, d), "--layers", "4",
                     "--epochs", "1", "--out", os.path.join(d, "run.csv")])
    assert code in (0, 1)
