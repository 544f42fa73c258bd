"""Dataset loaders: IDX image/label files and a plain-text graph bundle.

IDX is the de-facto MNIST encoding: a big-endian magic word, big-endian
32-bit dimension sizes, then raw unsigned bytes.  The graph bundle is four
text files in one directory: edges.tsv (u<TAB>v per line), features.csv
(one row per node), labels.csv (node,class) and masks.csv (node,split).
"""
from __future__ import annotations

import csv
import os
import struct

import numpy as np

from .errors import DataError, FormatError
from .gcn import Graph
from .linalg import Matrix, Rng
from .objective import Dataset

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


def _read_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise FormatError(f"{path}: truncated header at byte {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def _read_idx(path: str, magic: int, n_dims: int):
    with open(path, "rb") as fh:
        buf = fh.read()
    got = _read_u32(buf, 0, path)
    if got != magic:
        raise FormatError(f"{path}: bad magic 0x{got:08x} at byte 0, expected 0x{magic:08x}")
    dims = [_read_u32(buf, 4 + 4 * i, path) for i in range(n_dims)]
    start = 4 + 4 * n_dims
    count = int(np.prod(dims)) if dims else 0
    if len(buf) - start < count:
        raise FormatError(f"{path}: truncated payload at byte {len(buf)}, expected {start + count} bytes")
    payload = np.frombuffer(buf, dtype=np.uint8, count=count, offset=start)
    return dims, payload


def read_idx_images(path: str) -> Matrix:
    """Images as an n_pixels x n_samples matrix with values byte/255."""
    dims, payload = _read_idx(path, IMAGES_MAGIC, 3)
    n, rows, cols = dims
    return payload.reshape(n, rows * cols).T.astype(float) / 255.0


def read_idx_labels(path: str, n_classes: int) -> Matrix:
    """Labels as a K x m one-hot matrix."""
    (n,), payload = _read_idx(path, LABELS_MAGIC, 1)
    y = np.zeros((n_classes, n))
    for i, lab in enumerate(payload):
        if lab >= n_classes:
            raise DataError(f"{path}: label {lab} out of range (K={n_classes}) at sample {i}")
        y[lab, i] = 1.0
    return y


def write_idx_images(path: str, x: Matrix) -> None:
    """Inverse of read_idx_images; columns are written as 1 x n_pixels images."""
    n_pixels, n = x.shape
    payload = np.clip(np.round(x.T * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, n, 1, n_pixels))
        fh.write(payload.tobytes())


def write_idx_labels(path: str, y: Matrix) -> None:
    labels = np.argmax(y, axis=0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, labels.size))
        fh.write(labels.tobytes())


def load_idx_dataset(directory: str, n_classes: int = 10):
    """(train, test) Datasets from the standard MNIST filenames."""
    names = {
        "train_x": "train-images-idx3-ubyte",
        "train_y": "train-labels-idx1-ubyte",
        "test_x": "t10k-images-idx3-ubyte",
        "test_y": "t10k-labels-idx1-ubyte",
    }
    paths = {k: os.path.join(directory, v) for k, v in names.items()}
    for p in paths.values():
        if not os.path.exists(p):
            raise FormatError(f"missing dataset file {p}")
    train = Dataset(read_idx_images(paths["train_x"]), read_idx_labels(paths["train_y"], n_classes))
    test = Dataset(read_idx_images(paths["test_x"]), read_idx_labels(paths["test_y"], n_classes))
    return train, test


def subsample(data: Dataset, n: int, rng: Rng) -> Dataset:
    """Deterministic class-stratified subset of n samples."""
    m = data.n_samples
    if n < 1:
        raise ValueError(f"a subsample needs at least 1 sample, got {n}")
    if n > m:
        raise ValueError(f"requested {n} samples but only {m} available")
    if n == m:
        return data
    classes = np.argmax(data.y, axis=0)
    # largest-remainder apportionment of n across classes, ties by class id
    uniq, counts = np.unique(classes, return_counts=True)
    quotas = counts * (n / m)
    take = np.floor(quotas).astype(int)
    remainder = n - int(take.sum())
    order = np.argsort(-(quotas - take), kind="stable")
    take[order[:remainder]] += 1
    picked = []
    for cls, k in zip(uniq, take):
        idx = np.flatnonzero(classes == cls)
        sel = rng.permutation(idx.size)[:k]
        picked.append(idx[np.sort(sel)])
    picked = np.sort(np.concatenate(picked))
    return Dataset(data.x[:, picked], data.y[:, picked])


# ---------------------------------------------------------------------------
# Graph bundle
# ---------------------------------------------------------------------------

def _check_node(node: int, n: int, path: str, line: int) -> None:
    if not 0 <= node < n:
        raise DataError(f"{path} line {line}: node id {node} out of range (N={n})")


def _csv_pairs(path: str, header: str):
    """(line number, first field, second field) of each non-empty row of a
    two-column CSV file."""
    with open(path) as fh:
        for lineno, row in enumerate(csv.reader(fh), 1):
            if not row:
                continue
            if len(row) != 2:
                raise FormatError(f"{path} line {lineno}: expected '{header}'")
            yield lineno, row[0], row[1]


def load_graph(directory: str) -> Graph:
    feat_path = os.path.join(directory, "features.csv")
    try:
        features = np.loadtxt(feat_path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{feat_path}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise DataError(f"{feat_path}: non-finite feature value on node {bad[0]}")
    n = features.shape[0]

    edge_path = os.path.join(directory, "edges.tsv")
    adjacency = np.zeros((n, n))
    with open(edge_path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"{edge_path} line {lineno}: expected 'u<TAB>v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(f"{edge_path} line {lineno}: node ids must be integers") from None
            _check_node(u, n, edge_path, lineno)
            _check_node(v, n, edge_path, lineno)
            if u == v:
                raise DataError(f"{edge_path} line {lineno}: self-loop on node {u}")
            adjacency[u, v] = adjacency[v, u] = 1.0

    label_path = os.path.join(directory, "labels.csv")
    pairs = []
    for lineno, node_text, cls_text in _csv_pairs(label_path, "node,class"):
        try:
            node, cls = int(node_text), int(cls_text)
        except ValueError:
            raise FormatError(f"{label_path} line {lineno}: node and class must be integers") from None
        _check_node(node, n, label_path, lineno)
        if cls < 0:
            raise DataError(f"{label_path} line {lineno}: negative class {cls}")
        pairs.append((node, cls))
    if not pairs:
        raise DataError(f"{label_path}: no labeled nodes")
    n_classes = max(c for _, c in pairs) + 1
    labels = np.zeros((n, n_classes))
    for node, cls in pairs:
        labels[node, cls] = 1.0

    mask_path = os.path.join(directory, "masks.csv")
    train_mask = np.zeros(n, dtype=bool)
    test_mask = np.zeros(n, dtype=bool)
    assigned = set()
    for lineno, node_text, split in _csv_pairs(mask_path, "node,split"):
        try:
            node = int(node_text)
        except ValueError:
            raise FormatError(f"{mask_path} line {lineno}: node id must be an integer") from None
        split = split.strip()
        _check_node(node, n, mask_path, lineno)
        if node in assigned:
            raise DataError(f"{mask_path} line {lineno}: node {node} assigned to a mask twice")
        assigned.add(node)
        if split == "train":
            train_mask[node] = True
        elif split == "test":
            test_mask[node] = True
        else:
            raise FormatError(f"{mask_path} line {lineno}: unknown split {split!r}")
    if not train_mask.any():
        raise DataError(f"{mask_path}: no node in 'train'")

    return Graph(
        n_nodes=n,
        adjacency=adjacency,
        features=features,
        labels=labels,
        train_mask=train_mask,
        test_mask=test_mask,
    )


def save_graph(directory: str, graph: Graph) -> None:
    """Writes the four bundle files; inverse of load_graph."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "edges.tsv"), "w") as fh:
        us, vs = np.nonzero(np.triu(graph.adjacency))
        for u, v in zip(us, vs):
            fh.write(f"{u}\t{v}\n")
    np.savetxt(os.path.join(directory, "features.csv"), graph.features, delimiter=",", fmt="%.10g")
    with open(os.path.join(directory, "labels.csv"), "w") as fh:
        for node in range(graph.n_nodes):
            if np.any(graph.labels[node] != 0):
                fh.write(f"{node},{int(np.argmax(graph.labels[node]))}\n")
    with open(os.path.join(directory, "masks.csv"), "w") as fh:
        for node in range(graph.n_nodes):
            if graph.train_mask[node]:
                fh.write(f"{node},train\n")
            elif graph.test_mask[node]:
                fh.write(f"{node},test\n")
