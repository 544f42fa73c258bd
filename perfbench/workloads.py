"""The benchmark workloads, driven only through admmnet's public API.

Every input comes from ``synth`` with the benchmark seed, is written with
the ``data_io`` writers and read back with its loaders, so set-up exercises
the same path a user's files take. The trainer seeds (42 for the MLPs, as
in the README quick start; 0 for the GCN) are fixed, so the benchmark seed
changes the data only.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from admmnet import baselines, data_io, gcn, synth, training
from admmnet.linalg import Rng
from admmnet.objective import MlpArchitecture

from harness import Epoch, Target

MLP_DIMS = (784, 200, 200, 10)
N_IMAGES = 5000
N_NODES = 1000
GCN_HIDDEN = (32,)

# Every run makes at least this many identical training calls on each of
# its data sets, so each run checks that the package repeats itself.
MIN_CALLS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # "images" or "graph"
    trainer: str  # "admm", "gcn" or "adam"
    target: Target
    monotone: bool  # the Lagrangian must not rise (rho > 2H holds)
    epochs: int  # per training call: past the target crossing on every seed seen
    nominal_epoch_s: float  # epoch time at 1 BLAS thread on the reference box
    rho: float = 1.0  # ADMM MLP only (nu = 1e-6); the GCN runs at rho = mu = 1
    # Data sets per run. Where the epoch that meets the target depends on
    # the data, one data set per run would make time to target jump by a
    # whole epoch from seed to seed; the median over several does not.
    datasets: int = 1

    def data_seed(self, seed: int, i: int) -> int:
        """Seed of data set ``i`` of the run with benchmark seed ``seed``;
        with one data set it is the benchmark seed itself."""
        return seed * self.datasets + i

    def calls_for(self, seconds: float) -> int:
        """Training calls in a run, a multiple of ``datasets``: together
        about ``seconds`` at the nominal epoch time, and never fewer than
        MIN_CALLS per data set. The count depends on the arguments only,
        never on measured speed, so every run of a commit trains the same
        models."""
        per_set = round(seconds / (self.datasets * self.epochs * self.nominal_epoch_s))
        return self.datasets * max(MIN_CALLS, per_set)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="mlp5k-rho1",
            data="images", trainer="admm", monotone=True,
            epochs=4, nominal_epoch_s=1.05,
            target=Target("residual", 0.1, relative=True),
        ),
        Workload(
            name="mlp5k-rho1e-6",
            data="images", trainer="admm", rho=1e-6, monotone=False,
            epochs=8, nominal_epoch_s=1.3,
            target=Target("train_acc", 0.85, relative=False),
        ),
        Workload(
            name="gcn-sbm1k",
            data="graph", trainer="gcn", monotone=True,
            epochs=10, nominal_epoch_s=0.05,
            target=Target("residual", 1e-3, relative=True),
        ),
        Workload(
            name="adam5k",
            data="images", trainer="adam", monotone=False,
            epochs=8, nominal_epoch_s=0.16, datasets=8,
            target=Target("train_acc", 0.85, relative=False),
        ),
    ]
}


class SetupMismatch(AssertionError):
    """Data read back through data_io differ from what was generated."""


def _quantized(x):
    """The IDX writer stores each pixel as round(255 x), clipped to a byte."""
    return np.clip(np.round(x * 255.0), 0, 255).astype(np.uint8).astype(float) / 255.0


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SetupMismatch(what)


def setup_images(seed: int, directory: str):
    """(train, test) 784-pixel, 10-class images through the IDX path."""
    train, test = synth.make_image_classes(N_IMAGES, rng=Rng(seed))
    os.makedirs(directory, exist_ok=True)
    for prefix, data in (("train", train), ("t10k", test)):
        data_io.write_idx_images(os.path.join(directory, f"{prefix}-images-idx3-ubyte"), data.x)
        data_io.write_idx_labels(os.path.join(directory, f"{prefix}-labels-idx1-ubyte"), data.y)
    got_train, got_test = data_io.load_idx_dataset(directory)
    for name, want, got in (("train", train, got_train), ("test", test, got_test)):
        _check(np.array_equal(got.x, _quantized(want.x)), f"{name} images differ after IDX round trip")
        _check(np.array_equal(got.y, want.y), f"{name} labels differ after IDX round trip")
    return got_train, got_test


def setup_graph(seed: int, directory: str):
    """An N=1,000 two-block SBM graph through the graph-bundle path."""
    graph = synth.make_sbm_graph(N_NODES, rng=Rng(seed))
    data_io.save_graph(directory, graph)
    got = data_io.load_graph(directory)
    _check(np.array_equal(got.adjacency, graph.adjacency), "adjacency differs after bundle round trip")
    # features.csv keeps 10 significant digits
    _check(np.allclose(got.features, graph.features, rtol=1e-9, atol=1e-12),
           "features differ after bundle round trip")
    _check(np.array_equal(got.labels, graph.labels), "labels differ after bundle round trip")
    _check(np.array_equal(got.train_mask, graph.train_mask)
           and np.array_equal(got.test_mask, graph.test_mask), "masks differ after bundle round trip")
    return got


def setup(w: Workload, seed: int, directory: str):
    return setup_images(seed, directory) if w.data == "images" else setup_graph(seed, directory)


def data_digest(w: Workload, data) -> str:
    """Hash of every array a set-up returned, to compare repeated set-ups."""
    if w.data == "graph":
        arrays = [data.adjacency, data.features, data.labels, data.train_mask, data.test_mask]
    else:
        arrays = [a for ds in data for a in (ds.x, ds.y)]
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def n_samples(w: Workload, data) -> int:
    """Training samples for the MLPs, nodes for the GCN."""
    return data.n_nodes if w.data == "graph" else data[0].n_samples


def train(w: Workload, data, epochs: int, sink) -> None:
    """One training call; ``sink`` receives every epoch's trace record."""
    if w.trainer == "gcn":
        cfg = gcn.GcnConfig(hidden_dims=GCN_HIDDEN, rho=1.0, mu=1.0, epochs=epochs, seed=0)
        gcn.gcn_train(data, cfg, trace_sink=sink)
        return
    train_data, test_data = data
    arch = MlpArchitecture(layer_dims=MLP_DIMS)
    if w.trainer == "adam":
        cfg = baselines.BaselineConfig(optimizer="adam", learning_rate=1e-3, epochs=epochs, seed=42)
        baselines.run_baseline(cfg, arch, train_data, eval_data=test_data, trace_sink=sink)
    else:
        cfg = training.TrainConfig(rho=w.rho, nu=1e-6, epochs=epochs, seed=42)
        training.train(arch, train_data, cfg, eval_data=test_data, trace_sink=sink)


def epoch_facts(trace) -> Epoch:
    """The checked facts of an MLP, GCN or baseline trace record."""
    if hasattr(trace, "residual_fro"):
        residual = trace.residual_fro
    else:
        residual = getattr(trace, "residual_l2", float("nan"))
    return Epoch(
        lagrangian=getattr(trace, "lagrangian", getattr(trace, "loss", float("nan"))),
        cert_violation=getattr(trace, "max_cert_violation", 0.0),
        residual=residual,
        train_acc=trace.train_acc,
        test_acc=trace.test_acc,
    )
