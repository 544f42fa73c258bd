"""Dataset loaders: IDX image/label files and a plain-text graph bundle.

IDX is the de-facto MNIST encoding: a big-endian magic word, big-endian
32-bit dimension sizes, then raw unsigned bytes.  The graph bundle is four
UTF-8 text files in one directory: edges.tsv (u<TAB>v per line, one tab),
features.csv (one row per node), labels.csv (node,class, each node at most
once) and masks.csv (node,split); a node in a mask needs a label.  An edge
line and its reverse or repeat are one edge.  ``load_graph`` reads edges.tsv
with ``np.loadtxt``, and again line by line, which names the first bad line,
when that read fails or finds no edge, an id out of range or a self-loop.
"""
from __future__ import annotations

import csv
import io
import math
import os
import struct
import warnings

import numpy as np

from .errors import DataError, FormatError
from .gcn import Graph
from .linalg import Matrix, Rng
from .objective import Dataset

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
N_CLASSES = 10  # the classes of an IDX dataset, as in MNIST


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
    count = math.prod(dims)  # Python integers: a numpy product of 32-bit sizes can wrap
    if len(buf) - start < count:
        raise FormatError(f"{path}: truncated payload at byte {len(buf)}, expected {start + count} bytes")
    payload = np.frombuffer(buf, dtype=np.uint8, count=count, offset=start)
    return dims, payload


def read_idx_images(path: str) -> Matrix:
    """Images as an n_pixels x n_samples matrix with values byte/255."""
    dims, payload = _read_idx(path, IMAGES_MAGIC, 3)
    n, rows, cols = dims
    if rows * cols > np.iinfo(np.intp).max // 8:  # only a file of no images gets here
        raise FormatError(f"{path}: {rows}x{cols} images are too large for a float matrix")
    return payload.reshape(n, rows * cols).T.astype(float) / 255.0


def read_idx_labels(path: str, n_classes: int) -> Matrix:
    """Labels as a K x m one-hot matrix."""
    (n,), payload = _read_idx(path, LABELS_MAGIC, 1)
    bad = np.flatnonzero(payload >= n_classes)
    if bad.size:
        raise DataError(f"{path}: label {payload[bad[0]]} out of range (K={n_classes}) "
                        f"at sample {bad[0]}")
    y = np.zeros((n_classes, n))
    y[payload, np.arange(n)] = 1.0
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


def load_idx_dataset(directory: str):
    """(train, test) Datasets from the standard MNIST filenames.  A split
    whose image and label counts differ or are 0 is a ``DataError`` naming
    its two files, and so are two splits whose images differ in pixel count."""
    paths = [os.path.join(directory, f"{split}-{kind}-ubyte") for split in ("train", "t10k")
             for kind in ("images-idx3", "labels-idx1")]
    for p in paths:
        if not os.path.exists(p):
            raise FormatError(f"missing dataset file {p}")
    sets = []
    for x_path, y_path in (paths[:2], paths[2:]):
        x, y = read_idx_images(x_path), read_idx_labels(y_path, N_CLASSES)
        if x.shape[1] != y.shape[1] or x.shape[1] == 0:
            raise DataError(f"{x_path} holds {x.shape[1]} images but {y_path} {y.shape[1]} labels; "
                            "a split needs one label per image and at least one image")
        sets.append(Dataset(x, y))
    if sets[0].x.shape[0] != sets[1].x.shape[0]:
        raise DataError(f"{paths[0]} holds images of {sets[0].x.shape[0]} pixels but {paths[2]} "
                        f"of {sets[1].x.shape[0]}; both splits need the same image size")
    return tuple(sets)


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

def _read_text(path: str) -> str:
    """The file as UTF-8 text with universal newlines, as ``open`` reads it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _check_node(node: int, n: int, path: str, line: int) -> None:
    if not 0 <= node < n:
        raise DataError(f"{path} line {line}: node id {node} out of range (N={n})")


def _csv_pairs(path: str, header: str):
    """(line number, first field, second field) of each non-empty row of a
    two-column CSV file."""
    rows = csv.reader(io.StringIO(_read_text(path)))
    try:
        for row in rows:
            if not row:
                continue
            if len(row) != 2:
                raise FormatError(f"{path} line {rows.line_num}: expected '{header}'")
            yield rows.line_num, row[0], row[1]
    except csv.Error as exc:
        raise FormatError(f"{path} line {rows.line_num}: {exc}") from None


def _edges_by_line(path: str, n: int):
    """The (u, v) id arrays of an edges.tsv read line by line: each line
    stripped of white space is empty or 'u<TAB>v' of integer ids, else a
    typed error that names it."""
    us, vs = [], []
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
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
        _check_node(u, n, path, lineno)
        _check_node(v, n, path, lineno)
        if u == v:
            raise DataError(f"{path} line {lineno}: self-loop on node {u}")
        us.append(u)
        vs.append(v)
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)


def _load_edges(path: str, n: int) -> np.ndarray:
    """The edges of edges.tsv as ``Graph.edges``: a line and its reverse or
    repeat are one edge.  Read by ``np.loadtxt``, and again line by line, for
    its error, unless that gives E >= 1 rows of two distinct ids in [0, n)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file
            pairs = np.loadtxt(path, delimiter="\t", dtype=np.int64, ndmin=2, comments=None,
                               encoding="utf-8")
    except (ValueError, UnicodeDecodeError):
        pairs = np.empty((0, 0))
    ok = (pairs.shape[0] >= 1 and pairs.shape[1] == 2 and pairs.min() >= 0 and pairs.max() < n
          and np.all(pairs[:, 0] != pairs[:, 1]))
    u, v = pairs.T if ok else _edges_by_line(path, n)
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0
    return np.column_stack(np.divmod(keys, n))


def load_graph(directory: str) -> Graph:
    feat_path = os.path.join(directory, "features.csv")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file, raised on below
            features = np.loadtxt(feat_path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{feat_path}: {exc}") from None
    if features.shape[0] == 0:
        raise DataError(f"{feat_path}: no feature rows")
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise DataError(f"{feat_path}: non-finite feature value on node {bad[0]}")
    n = features.shape[0]

    edges = _load_edges(os.path.join(directory, "edges.tsv"), n)

    label_path = os.path.join(directory, "labels.csv")
    labels_of = {}
    for lineno, node_text, cls_text in _csv_pairs(label_path, "node,class"):
        try:
            node, cls = int(node_text), int(cls_text)
        except ValueError:
            raise FormatError(f"{label_path} line {lineno}: node and class must be integers") from None
        _check_node(node, n, label_path, lineno)
        if not 0 <= cls < n:
            raise DataError(f"{label_path} line {lineno}: class {cls} out of range "
                            f"(N={n} nodes hold at most N classes)")
        if node in labels_of:
            raise DataError(f"{label_path} line {lineno}: node {node} labeled twice")
        labels_of[node] = cls
    if not labels_of:
        raise DataError(f"{label_path}: no labeled nodes")
    labels = np.zeros((n, max(labels_of.values()) + 1))
    labels[list(labels_of), list(labels_of.values())] = 1.0

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
        if node not in labels_of:
            raise DataError(f"{mask_path} line {lineno}: node {node} is in a mask but "
                            f"{label_path} gives it no label")
    if not train_mask.any():
        raise DataError(f"{mask_path}: no node in 'train'")

    return Graph(
        n_nodes=n,
        edges=edges,
        features=features,
        labels=labels,
        train_mask=train_mask,
        test_mask=test_mask,
    )


def save_graph(directory: str, graph: Graph) -> None:
    """Writes the four bundle files; inverse of load_graph.  Edges are
    written once each, smaller node first, in row-major order; labels.csv
    lists the labeled nodes and masks.csv the nodes in a mask, by node id."""
    os.makedirs(directory, exist_ok=True)

    def write(name, lines):
        with open(os.path.join(directory, name), "w") as fh:
            fh.writelines(lines)

    # one format call for all edges: a third of the time of a string per edge
    write("edges.tsv", [("%d\t%d\n" * len(graph.edges)) % tuple(graph.edges.ravel().tolist())])
    row = ",".join(["%.10g"] * graph.features.shape[1]) + "\n"
    write("features.csv", (row % tuple(r) for r in graph.features.tolist()))
    labeled = np.flatnonzero(np.any(graph.labels != 0, axis=1))
    classes = np.argmax(graph.labels[labeled], axis=1)
    write("labels.csv", (f"{n},{c}\n" for n, c in zip(labeled.tolist(), classes.tolist())))
    in_mask = np.flatnonzero(graph.train_mask | graph.test_mask)
    splits = np.where(graph.train_mask[in_mask], "train", "test")
    write("masks.csv", (f"{n},{s}\n" for n, s in zip(in_mask.tolist(), splits.tolist())))
