import struct

import numpy as np
import pytest

from admmnet.cli import main as cli_main
from admmnet.data_io import (
    load_graph,
    read_idx_images,
    read_idx_labels,
    subsample,
    write_idx_images,
    write_idx_labels,
)
from admmnet.errors import DataError, FormatError
from admmnet.linalg import Rng
from admmnet.objective import Dataset


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
        ("labels.csv", "", DataError),  # no labeled node
        ("masks.csv", "0,train\n1\n", FormatError),
        ("masks.csv", "0,test\n1,test\n", DataError),  # no training node
        ("edges.tsv", "0\tb\n", FormatError),
        ("features.csv", "1.0\nx\n", FormatError),
        ("features.csv", "1.0\nnan\n3.0\n4.0\n", DataError),  # non-finite feature
        ("features.csv", "1.0\n2.0\n-inf\n4.0\n", DataError),
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
