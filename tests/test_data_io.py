import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmnet import data_io
from admmnet.cli import main as cli_main
from admmnet.data_io import (
    load_graph,
    read_idx_images,
    read_idx_labels,
    save_graph,
    subsample,
    write_idx_images,
    write_idx_labels,
)
from admmnet.errors import DataError, FormatError
from admmnet.gcn import Graph
from admmnet.linalg import Rng
from admmnet.objective import Dataset
from admmnet.synth import make_sbm_graph


def write_images_fixture(path, n, rows, cols, payload, magic=0x00000803):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", magic, n, rows, cols))
        fh.write(bytes(payload))


def write_labels_fixture(path, labels, magic=0x00000801):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", magic, len(labels)))
        fh.write(bytes(labels))


class TestIdxImages:
    def test_hand_fixture(self, tmp_path):
        p = tmp_path / "imgs"
        write_images_fixture(p, 2, 2, 2, [0, 255, 128, 0, 255, 0, 0, 128])
        x = read_idx_images(str(p))
        assert x.shape == (4, 2)
        assert np.allclose(x[:, 0], [0.0, 1.0, 128 / 255, 0.0])
        assert np.allclose(x[:, 1], [1.0, 0.0, 0.0, 128 / 255])
        assert abs(x[2, 0] - 0.50196) < 1e-4

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "imgs"
        write_images_fixture(p, 1, 1, 1, [7], magic=0x00000999)
        with pytest.raises(FormatError, match="byte 0"):
            read_idx_images(str(p))

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "imgs"
        write_images_fixture(p, 2, 2, 2, [0, 1, 2])  # needs 8 bytes
        with pytest.raises(FormatError, match="truncated"):
            read_idx_images(str(p))

    def test_empty_dims(self, tmp_path):
        p = tmp_path / "imgs"
        write_images_fixture(p, 0, 2, 2, [])
        x = read_idx_images(str(p))
        assert x.shape == (4, 0)

    def test_round_trip(self, tmp_path):
        rng = Rng(0)
        x = np.round(rng.random((6, 3)) * 255) / 255
        p = tmp_path / "imgs"
        write_idx_images(str(p), x)
        back = read_idx_images(str(p))
        assert np.allclose(back, x, atol=1e-12)


class TestIdxLabels:
    def test_one_hot(self, tmp_path):
        p = tmp_path / "labels"
        write_labels_fixture(p, [2, 0])
        y = read_idx_labels(str(p), 3)
        assert np.array_equal(y[:, 0], [0, 0, 1])
        assert np.array_equal(y[:, 1], [1, 0, 0])

    def test_out_of_range_label(self, tmp_path):
        p = tmp_path / "labels"
        write_labels_fixture(p, [0, 3])
        with pytest.raises(DataError, match="sample 1"):
            read_idx_labels(str(p), 3)

    def test_round_trip(self, tmp_path):
        y = np.zeros((4, 5))
        y[[1, 0, 3, 2, 2], np.arange(5)] = 1.0
        p = tmp_path / "labels"
        write_idx_labels(str(p), y)
        assert np.array_equal(read_idx_labels(str(p), 4), y)


def write_graph_bundle(d, edges, features, labels, masks):
    (d / "edges.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in edges))
    (d / "features.csv").write_text(
        "".join(",".join(str(v) for v in row) + "\n" for row in features)
    )
    (d / "labels.csv").write_text("".join(f"{n},{c}\n" for n, c in labels))
    (d / "masks.csv").write_text("".join(f"{n},{s}\n" for n, s in masks))


class TestLoadGraph:
    def test_path_graph(self, tmp_path):
        write_graph_bundle(
            tmp_path,
            edges=[(0, 1), (1, 2)],
            features=[[1.0], [2.0], [3.0]],
            labels=[(0, 0), (2, 1)],
            masks=[(0, "train"), (2, "test")],
        )
        g = load_graph(str(tmp_path))
        assert np.array_equal(g.edges, [[0, 1], [1, 2]])
        assert np.array_equal(g.adjacency, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert np.all(np.diag(g.adjacency) == 0)
        # node 1 in neither mask: allowed, unlabeled
        assert not g.train_mask[1] and not g.test_mask[1]

    def test_dangling_edge(self, tmp_path):
        write_graph_bundle(
            tmp_path, edges=[(0, 5)], features=[[1.0], [2.0], [3.0]],
            labels=[(0, 0)], masks=[(0, "train")],
        )
        with pytest.raises(DataError, match="out of range"):
            load_graph(str(tmp_path))

    def test_duplicate_mask(self, tmp_path):
        write_graph_bundle(
            tmp_path, edges=[(0, 1)], features=[[1.0], [2.0]],
            labels=[(0, 0), (1, 1)], masks=[(0, "train"), (0, "test")],
        )
        with pytest.raises(DataError, match="twice"):
            load_graph(str(tmp_path))

    def test_duplicate_label(self, tmp_path):
        """A node listed twice in labels.csv would get a two-hot label row."""
        write_graph_bundle(
            tmp_path, edges=[(0, 1)], features=[[1.0], [2.0]],
            labels=[(0, 0), (0, 1)], masks=[(0, "train")],
        )
        with pytest.raises(DataError, match="labels.csv line 2: node 0 labeled twice"):
            load_graph(str(tmp_path))

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_unlabeled_node_in_a_mask(self, tmp_path, split):
        """A masked node that labels.csv does not list would be scored as
        class 0."""
        write_graph_bundle(
            tmp_path, edges=[(0, 1)], features=[[1.0], [2.0], [3.0]],
            labels=[(0, 0), (1, 1)], masks=[(0, "train"), (1, "test"), (2, split)],
        )
        with pytest.raises(DataError, match=r"masks.csv line 3: node 2 is in a mask but \S*"
                                            r"labels.csv gives it no label"):
            load_graph(str(tmp_path))

    def test_self_loop_rejected(self, tmp_path):
        write_graph_bundle(
            tmp_path, edges=[(1, 1)], features=[[1.0], [2.0]],
            labels=[(0, 0)], masks=[(0, "train")],
        )
        with pytest.raises(DataError, match="self-loop"):
            load_graph(str(tmp_path))

    @pytest.mark.parametrize("name, text, error", [
        ("labels.csv", "0,0\n3\n", FormatError),  # row without a comma
        ("labels.csv", "0,0\n1,x\n", FormatError),  # class not an integer
        ("labels.csv", "0,0\n1,-1\n", DataError),  # negative class
        ("labels.csv", "0,0\n1,4\n", DataError),  # more classes than nodes
        ("labels.csv", "", DataError),  # no labeled node
        ("masks.csv", "0,train\n1\n", FormatError),
        ("masks.csv", "0,test\n1,test\n", DataError),  # no training node
        ("edges.tsv", "0\tb\n", FormatError),
        ("features.csv", "1.0\nx\n", FormatError),
        ("features.csv", "1.0\nnan\n3.0\n4.0\n", DataError),  # non-finite feature
        ("features.csv", "1.0\n2.0\n-inf\n4.0\n", DataError),
        ("features.csv", "", DataError),  # no node
    ])
    def test_malformed_row_is_typed(self, tmp_path, name, text, error):
        write_graph_bundle(
            tmp_path, edges=[(0, 1)], features=[[1.0], [2.0], [3.0], [4.0]],
            labels=[(0, 0), (1, 1)], masks=[(0, "train"), (1, "test")],
        )
        (tmp_path / name).write_text(text)
        with pytest.raises(error):
            load_graph(str(tmp_path))
        code = cli_main(["train", "gcn", "--data", str(tmp_path), "--epochs", "1",
                         "--out", str(tmp_path / "run.csv")])
        assert code == 1


def save_graph_by_node(directory, graph):
    """The node-by-node bundle writer that ``save_graph`` must match byte
    for byte."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "edges.tsv", "w") as fh:
        us, vs = np.nonzero(np.triu(graph.adjacency))
        for u, v in zip(us, vs):
            fh.write(f"{u}\t{v}\n")
    np.savetxt(directory / "features.csv", graph.features, delimiter=",", fmt="%.10g")
    with open(directory / "labels.csv", "w") as fh:
        for node in range(graph.n_nodes):
            if np.any(graph.labels[node] != 0):
                fh.write(f"{node},{int(np.argmax(graph.labels[node]))}\n")
    with open(directory / "masks.csv", "w") as fh:
        for node in range(graph.n_nodes):
            if graph.train_mask[node]:
                fh.write(f"{node},train\n")
            elif graph.test_mask[node]:
                fh.write(f"{node},test\n")


def partly_labeled_graph():
    """An SBM graph in which some nodes have no label and some are in
    neither mask, with three feature columns.  The unlabeled nodes are in no
    mask."""
    g = make_sbm_graph(60, n_blocks=3, n_features=3, rng=Rng(5))
    labels, train, test = g.labels.copy(), g.train_mask.copy(), g.test_mask.copy()
    labels[[1, 7, 30, 59]] = 0.0
    train[[1, 2, 7, 9, 30]] = test[[1, 3, 7, 30, 40, 59]] = False
    return Graph(g.n_nodes, g.edges, g.features, labels, train, test)


@pytest.mark.parametrize("make", [lambda: make_sbm_graph(80, rng=Rng(2)), partly_labeled_graph],
                         ids=["sbm", "partly-labeled"])
def test_save_graph_matches_node_by_node_writer(make, tmp_path, monkeypatch):
    """Byte for byte, and read back by ``np.loadtxt`` alone: ``save_graph``'s
    edges.tsv never takes the line-by-line fallback."""

    def fallback(*args):
        raise AssertionError("edges.tsv read line by line")

    monkeypatch.setattr(data_io, "_edges_by_line", fallback)
    g = make()
    save_graph(str(tmp_path / "fast"), g)
    save_graph_by_node(tmp_path / "ref", g)
    for name in ("edges.tsv", "features.csv", "labels.csv", "masks.csv"):
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name
    back = load_graph(str(tmp_path / "fast"))
    assert np.array_equal(back.adjacency, g.adjacency)
    assert np.array_equal(back.train_mask, g.train_mask) and np.array_equal(back.test_mask, g.test_mask)


def edges_by_line(path, n):
    """The line-by-line edges.tsv reader that ``load_graph`` must match: the
    edges it keeps, in the form of ``Graph.edges``, or its typed error."""
    adjacency = np.zeros((n, n))
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"{path} line {lineno}: expected 'u<TAB>v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(f"{path} line {lineno}: node ids must be integers") from None
            for node in (u, v):
                if not 0 <= node < n:
                    raise DataError(f"{path} line {lineno}: node id {node} out of range (N={n})")
            if u == v:
                raise DataError(f"{path} line {lineno}: self-loop on node {u}")
            adjacency[u, v] = adjacency[v, u] = 1.0
    return np.argwhere(np.triu(adjacency))


def outcome(read):
    """The edges ``read`` returns, or the class and line number of its error."""
    try:
        return read()
    except (FormatError, DataError) as exc:
        return type(exc), re.search(r"line (\d+)", str(exc)).group(1)


ORACLE_NODES = 4


def edge_outcomes(directory, raw):
    """(load_graph's outcome, the line-by-line reader's) for an edges.tsv of
    bytes ``raw`` in a bundle of ORACLE_NODES nodes."""
    write_graph_bundle(directory, edges=[], features=[[1.0]] * ORACLE_NODES, labels=[(0, 0)],
                       masks=[(0, "train")])
    (directory / "edges.tsv").write_bytes(raw)
    return (outcome(lambda: load_graph(str(directory)).edges),
            outcome(lambda: edges_by_line(directory / "edges.tsv", ORACLE_NODES)))


def same_outcome(got, want):
    if isinstance(want, tuple):
        return got == want
    return isinstance(got, np.ndarray) and got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("raw, plain", [
    (b"0 1\n", False),  # a space, not a tab
    (b"0\t1\t2\n", False),  # two tabs
    (b"0\t1\r\n1\t2\r\n", True),  # CRLF
    (b"\n0\t1\n\n\n2\t3\n\n", True),  # blank lines
    (b"0 \t 1\n", True),
    (b"1\t0\n0\t1\n0\t1\n2\t1\n", True),  # reversed and repeated
    (b"-1\t2\n", False),
    (b"1.0\t2\n", False),
    (b"", False),  # no edge
    (b"0\t1", True),  # no final newline
    (b"003\t01\n", True),
    (b"0\t1\r2\t3\r", True),  # CR line ends
    (b"\t0\t1\t\n", False),  # tab-padded
    (b"  \n0\t1\n", False),  # a line of spaces
    (b"+1\t2\n", True),
    ("\u0663\t1\n".encode(), False),  # an Arabic-Indic 3, which int() reads
    (b"0\t\n", False),
    (b"1\t\n2\n", False),  # the second id on the next line
    (b"\t\n", False),
    (b"0\t1\n\t2\n", False),
    (b"0\t1\n3\t3\n", False),  # self-loop
    (b"0\t1\n2\t4\n", False),  # out of range
    (b"0\t1\n2\t-3\n", False),  # out of range in the second column
    (b"99999999999999999999\t1\n", False),
    (b"0\t7\n1\tx\n", False),  # the data error comes first
    (b"1\tx\n0\t7\n", False),  # the format error comes first
])
def test_load_graph_edges_match_line_by_line_reader(tmp_path, raw, plain, monkeypatch):
    """The same edges, or the same error class and line number.  ``plain``
    files are read by ``np.loadtxt`` alone; the others again by the line by
    line reader, which ``load_graph`` calls when that read fails or finds no
    edge, an id out of range or a self-loop."""
    fallbacks = []
    real = data_io._edges_by_line
    monkeypatch.setattr(data_io, "_edges_by_line",
                        lambda path, n: fallbacks.append(path) or real(path, n))
    got, want = edge_outcomes(tmp_path, raw)
    assert same_outcome(got, want), (got, want)
    assert (not fallbacks) == plain


EDGE_BYTES = [b"0", b"1", b"3", b"4", b"\t", b"\n", b"\r", b" ", b"-", b"+", b".", b"\x0b", b"\x0c",
              b"\x1c", b"#", b"_", b"e", b"x"] + [c.encode() for c in "\u00a0\u3000\u0085\u2028\u0663"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(EDGE_BYTES), max_size=24).map(b"".join))
def test_load_graph_edges_match_line_by_line_reader_fuzzed(tmp_path_factory, raw):
    """Including white space, digits and signs that Python's ``strip`` and
    ``int`` read differently from numpy."""
    got, want = edge_outcomes(tmp_path_factory.mktemp("bundle"), raw)
    assert same_outcome(got, want), (raw, got, want)


class TestSubsample:
    @staticmethod
    def make_data(counts):
        k = len(counts)
        cols = []
        labels = []
        for cls, c in enumerate(counts):
            for _ in range(c):
                labels.append(cls)
        m = len(labels)
        x = np.arange(m, dtype=float)[None, :]
        y = np.zeros((k, m))
        y[labels, np.arange(m)] = 1.0
        return Dataset(x, y)

    def test_identity_when_full(self):
        data = self.make_data([3, 3])
        out = subsample(data, 6, Rng(0))
        assert np.array_equal(out.x, data.x)
        assert np.array_equal(out.y, data.y)

    def test_stratification(self):
        data = self.make_data([40, 40, 20])
        out = subsample(data, 50, Rng(1))
        counts = out.y.sum(axis=1)
        # proportions within one sample of 20/20/10
        assert abs(counts[0] - 20) <= 1
        assert abs(counts[1] - 20) <= 1
        assert abs(counts[2] - 10) <= 1
        assert counts.sum() == 50

    def test_deterministic(self):
        data = self.make_data([30, 30])
        a = subsample(data, 20, Rng(7))
        b = subsample(data, 20, Rng(7))
        assert np.array_equal(a.x, b.x)

    def test_too_many_requested(self):
        data = self.make_data([3, 3])
        with pytest.raises(ValueError):
            subsample(data, 7, Rng(0))

    @pytest.mark.parametrize("n", [0, -5])
    def test_fewer_than_one_requested(self, n):
        data = self.make_data([3, 3])
        with pytest.raises(ValueError):
            subsample(data, n, Rng(0))


def test_labels_name_the_first_bad_sample(tmp_path):
    p = tmp_path / "labels"
    write_labels_fixture(p, [0, 2, 7, 1, 9])
    with pytest.raises(DataError, match="label 7 out of range .* at sample 2$"):
        read_idx_labels(str(p), 3)
