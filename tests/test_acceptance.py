"""Acceptance suite: twelve end-to-end criteria, one test (and one printed
pass/fail line) per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; the heavy image-classification fixtures take several minutes total.
"""
import os
import time

import numpy as np
import pytest

from admmnet.baselines import BaselineConfig, run_baseline
from admmnet.cli import main as cli_main
from admmnet.data_io import (
    load_graph,
    load_idx_dataset,
    read_idx_images,
    read_idx_labels,
    save_graph,
    write_idx_labels,
)
from admmnet.errors import DataError, FormatError
from admmnet.gcn import (
    GcnConfig,
    GcnState,
    gcn_accuracy,
    gcn_train,
    grad_psi_block,
    normalize_adjacency,
    propagations,
    psi,
)
from admmnet.linalg import Rng, l2sq
from admmnet.objective import (
    Dataset,
    MlpArchitecture,
    MlpState,
    Regularizer,
    grad_phi_block,
    phi,
    residuals,
)
from admmnet.solvers import solve_z_relu, update_b
from admmnet.synth import make_sbm_graph, make_separable
from admmnet.training import TrainConfig, train


def report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# Shared fixtures (module scope: each heavy run happens once)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def image_data(tmp_path_factory):
    """5,000-sample synthetic 784-dim 10-class set through the IDX pipeline."""
    out = str(tmp_path_factory.mktemp("idx5k"))
    assert cli_main(["make-data", "images", "--n", "5000", "--seed", "1", "--out", out]) == 0
    return load_idx_dataset(out)


ARCH_5K = MlpArchitecture(layer_dims=(784, 200, 200, 10))


@pytest.fixture(scope="module")
def run_fig2(image_data):
    train_data, test_data = image_data
    cfg = TrainConfig(rho=1.0, nu=1e-6, epochs=200, seed=42)
    return train(ARCH_5K, train_data, cfg, eval_data=test_data)


@pytest.fixture(scope="module")
def run_fig3(image_data):
    train_data, _ = image_data
    cfg = TrainConfig(rho=1e-6, nu=1.0, epochs=200, seed=42)
    return train(ARCH_5K, train_data, cfg)


@pytest.fixture(scope="module")
def run_perf(image_data):
    train_data, test_data = image_data
    cfg = TrainConfig(rho=1e-6, nu=1e-6, epochs=200, seed=42)
    admm = train(ARCH_5K, train_data, cfg, eval_data=test_data)
    bcfg = BaselineConfig(optimizer="adam", learning_rate=1e-3, epochs=200, seed=42)
    _, adam_traces = run_baseline(bcfg, ARCH_5K, train_data, eval_data=test_data)
    return admm, adam_traces


@pytest.fixture(scope="module")
def separable_run():
    data = make_separable(50, rng=Rng(3))
    arch = MlpArchitecture(layer_dims=(4, 8, 2))
    cfg = TrainConfig(rho=4.0, nu=1.0, epochs=200, seed=0)
    return train(arch, data, cfg)


@pytest.fixture(scope="module")
def squared_run():
    data = make_separable(50, rng=Rng(3))
    arch = MlpArchitecture(layer_dims=(4, 8, 2), risk="squared")
    cfg = TrainConfig(rho=4.0, nu=1.0, epochs=200, seed=0)
    return train(arch, data, cfg)


@pytest.fixture(scope="module")
def sbm_run():
    graph = make_sbm_graph(200, rng=Rng(8))
    cfg = GcnConfig(hidden_dims=(32,), rho=1.0, mu=1.0, epochs=200, seed=0)
    state, traces = gcn_train(graph, cfg)
    return graph, state, traces


# ---------------------------------------------------------------------------
# 1. Gradient fidelity
# ---------------------------------------------------------------------------

def _fd_block(value_fn, block_array, h=1e-6):
    num = np.zeros_like(block_array)
    for idx in np.ndindex(*block_array.shape):
        orig = block_array[idx]
        block_array[idx] = orig + h
        fp = value_fn()
        block_array[idx] = orig - h
        fm = value_fn()
        block_array[idx] = orig
        num[idx] = (fp - fm) / (2 * h)
    return num


def test_criterion_01_gradient_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        rng = Rng(100 + trial)
        risk = "cross_entropy" if trial % 2 == 0 else "squared"
        dims = tuple(int(d) for d in rng.integers(2, 9, 4))
        m = 5
        x = rng.normal(0, 1, (dims[0], m))
        y = np.zeros((dims[-1], m))
        y[rng.integers(0, dims[-1], m), np.arange(m)] = 1.0
        data = Dataset(x, y)
        arch = MlpArchitecture(layer_dims=dims, risk=risk)
        L = len(dims) - 1
        state = MlpState(
            W=[rng.normal(0, 0.6, (dims[l + 1], dims[l])) for l in range(L)],
            b=[rng.normal(0, 0.3, (dims[l + 1], 1)) for l in range(L)],
            z=[rng.normal(0, 1.0, (dims[l + 1], m)) for l in range(L)],
            a=[rng.normal(0, 1.0, (dims[l + 1], m)) for l in range(L - 1)],
            u=rng.normal(0, 0.5, (dims[-1], m)),
            rho=1.3,
            nu=0.7,
        )
        val = lambda: phi(state, residuals(state, data))
        for layer in range(L):
            for block, arr in (
                ("W", state.W[layer]),
                ("b", state.b[layer]),
                ("z", state.z[layer]),
            ):
                g = grad_phi_block(state, data, block, layer, residuals(state, data))
                num = _fd_block(val, arr)
                worst = max(worst, np.linalg.norm(g - num) / max(np.linalg.norm(num), 1e-3))
        for layer in range(L - 1):
            g = grad_phi_block(state, data, "a", layer, residuals(state, data))
            num = _fd_block(val, state.a[layer])
            worst = max(worst, np.linalg.norm(g - num) / max(np.linalg.norm(num), 1e-3))

    for trial in range(10):
        rng = Rng(500 + trial)
        n = 2 * int(rng.integers(3, 7, ()))
        graph = make_sbm_graph(n, rng=rng)
        a_norm = normalize_adjacency(graph)
        dims = (graph.features.shape[1], 4, graph.labels.shape[1])
        state = GcnState(
            W=[rng.normal(0, 0.6, (dims[l], dims[l + 1])) for l in range(2)],
            Z=[rng.normal(0, 1.0, (graph.n_nodes, dims[l + 1])) for l in range(2)],
            U=rng.normal(0, 0.5, (graph.n_nodes, dims[-1])),
            A_norm=a_norm,
            rho=1.3,
            mu=0.7,
        )
        val = lambda: psi(state, propagations(state, graph))
        for layer in range(2):
            for block, arr in (("W", state.W[layer]), ("Z", state.Z[layer])):
                g = grad_psi_block(state, block, layer, propagations(state, graph))
                num = _fd_block(val, arr)
                worst = max(worst, np.linalg.norm(g - num) / max(np.linalg.norm(num), 1e-3))

    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-5 and elapsed < 10.0,
           f"worst relative error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Subproblem optimality oracles
# ---------------------------------------------------------------------------

def test_criterion_02_subproblem_oracles():
    t0 = time.perf_counter()
    grid = np.arange(-5.0, 5.0 + 1e-9, 1e-3)
    rng = Rng(7)
    worst = 0.0

    for _ in range(1000):
        m = float(rng.normal(0, 1.5, ()))
        t = float(rng.normal(0, 1.5, ()))
        w_lin = float(rng.uniform(0.1, 3.0, ()))
        w_act = float(rng.uniform(0.1, 3.0, ()))
        z = float(solve_z_relu(np.array([[m]]), np.array([[t]]), w_lin, w_act)[0, 0])
        obj = lambda v: w_lin * (v - m) ** 2 + w_act * (t - np.maximum(v, 0.0)) ** 2
        worst = max(worst, float(obj(z) - obj(grid).min()))

    for _ in range(200):
        nu, rho = float(rng.uniform(0.2, 3.0, ())), float(rng.uniform(0.2, 3.0, ()))
        targets = rng.normal(0, 1.0, (1, 4))
        anchor = np.array([[float(rng.normal(0, 1.0, ()))]])
        for layer, n_layers, weight in ((0, 2, nu), (1, 2, rho)):
            grad = -weight * np.sum(targets - anchor, axis=1, keepdims=True)
            b = float(update_b(anchor, grad, layer, n_layers, nu, rho, n_samples=4)[0, 0])
            grid_obj = 0.5 * weight * ((targets.reshape(-1, 1) - grid.reshape(1, -1)) ** 2).sum(axis=0)
            b_obj = 0.5 * weight * ((targets - b) ** 2).sum()
            worst = max(worst, float(b_obj - grid_obj.min()))

    for _ in range(200):
        lam_over_step = float(rng.uniform(0.01, 2.0, ()))
        v = float(rng.normal(0, 2.0, ()))
        for kind in ("l1", "l2"):
            reg = Regularizer(kind, 1.0)
            p = float(reg.prox(np.array([[v]]), reg.lam / lam_over_step)[0, 0])
            if kind == "l2":
                pen = lam_over_step * grid**2
            else:
                pen = lam_over_step * np.abs(grid)
            grid_obj = 0.5 * (grid - v) ** 2 + pen
            p_obj = 0.5 * (p - v) ** 2 + (lam_over_step * p**2 if kind == "l2" else lam_over_step * abs(p))
            worst = max(worst, float(p_obj - grid_obj.min()))

    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-4 and elapsed < 30.0,
           f"worst objective excess over grid {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Backtracking certificate
# ---------------------------------------------------------------------------

def test_criterion_03_backtracking_certificate(separable_run):
    worst = max(t.max_cert_violation for t in separable_run.traces)
    report(3, worst <= 1e-10,
           f"max certificate violation {worst:.2e} over {len(separable_run.traces)} iterations")


# ---------------------------------------------------------------------------
# 4. Output-layer stationarity identity
# ---------------------------------------------------------------------------

def test_criterion_04_output_stationarity(separable_run, squared_run):
    ce_worst = max(t.stationarity_residual for t in separable_run.traces)
    sq_worst = max(t.stationarity_residual for t in squared_run.traces)
    report(4, ce_worst < 1e-5 and sq_worst < 1e-12,
           f"cross-entropy {ce_worst:.2e} (< 1e-5), squared {sq_worst:.2e} (< 1e-12)")


# ---------------------------------------------------------------------------
# 5. Sufficient descent
# ---------------------------------------------------------------------------

def test_criterion_05_sufficient_descent(separable_run):
    lag = [t.lagrangian for t in separable_run.traces]
    monotone = all(b <= a + 1e-9 for a, b in zip(lag, lag[1:]))
    certified = all(t.descent_ok for t in separable_run.traces)
    hypothesis = all(t.hypothesis_met for t in separable_run.traces)
    report(5, monotone and certified and hypothesis,
           f"monotone={monotone}, descent inequality every iteration={certified}")


# ---------------------------------------------------------------------------
# 6. Monotone convergence at rho=1 (image task)
# ---------------------------------------------------------------------------

def test_criterion_06_monotone_large_run(run_fig2):
    lag = [t.lagrangian for t in run_fig2.traces]
    monotone = all(b <= a for a, b in zip(lag, lag[1:]))
    r0 = run_fig2.traces[0].residual_l2
    r_end = run_fig2.traces[-1].residual_l2
    elapsed = run_fig2.traces[-1].wall_time
    report(6, monotone and r_end < 0.1 * r0 and elapsed < 600.0,
           f"monotone={monotone}, residual {r0:.3e}->{r_end:.3e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. Non-monotone behavior at tiny rho
# ---------------------------------------------------------------------------

def test_criterion_07_nonmonotone_tiny_rho(run_fig3):
    lag = [t.lagrangian for t in run_fig3.traces]
    increases = sum(1 for a, b in zip(lag, lag[1:]) if b > a)
    report(7, increases >= 10, f"{increases} strict increases in 200 epochs (need >= 10)")


# ---------------------------------------------------------------------------
# 8. Training performance vs Adam
# ---------------------------------------------------------------------------

def test_criterion_08_performance_vs_adam(run_perf):
    admm, adam_traces = run_perf
    acc = admm.traces[-1].train_acc
    adam_acc = adam_traces[-1].train_acc
    report(8, acc >= 0.85 and acc >= adam_acc - 0.05,
           f"train accuracy {acc:.3f} (Adam {adam_acc:.3f})")


# ---------------------------------------------------------------------------
# 9. Graph model convergence and accuracy
# ---------------------------------------------------------------------------

def test_criterion_09_gcn(sbm_run):
    graph, state, traces = sbm_run
    lag = [t.lagrangian for t in traces]
    monotone = all(b <= a + 1e-9 for a, b in zip(lag, lag[1:]))
    ratio = traces[-1].residual_fro / traces[0].residual_fro
    test = graph.test_mask
    acc = gcn_accuracy(state, test, np.argmax(graph.labels[test], axis=1),
                       propagations(state, graph))
    report(9, monotone and ratio < 1e-3 and acc >= 0.9,
           f"monotone={monotone}, residual ratio {ratio:.2e}, test accuracy {acc:.3f}")


# ---------------------------------------------------------------------------
# 10. Running-minimum move sequence
# ---------------------------------------------------------------------------

def test_criterion_10_ck_series(run_fig2, separable_run, squared_run, sbm_run):
    ok = True
    for traces in (run_fig2.traces, separable_run.traces, squared_run.traces, sbm_run[2]):
        cks = [t.ck for t in traces]
        ok = ok and all(c >= 0 for c in cks)
        ok = ok and all(b <= a for a, b in zip(cks, cks[1:]))
    cks = [t.ck for t in squared_run.traces]
    kck = [(i + 1) * c for i, c in enumerate(cks)]
    tail = kck[3 * len(kck) // 4:]
    decreasing = all(b <= a for a, b in zip(tail, tail[1:]))
    report(10, ok and decreasing,
           f"nonneg+nonincreasing on 4 runs={ok}, k*c_k decreasing over final quarter={decreasing}")


# ---------------------------------------------------------------------------
# 11. Determinism of the command line
# ---------------------------------------------------------------------------

def test_criterion_11_cli_determinism(tmp_path):
    data_dir = str(tmp_path / "idx")
    assert cli_main(["make-data", "images", "--n", "120", "--seed", "4", "--out", data_dir]) == 0
    args = ["train", "mlp", "--data", data_dir, "--layers", "784,16,10",
            "--rho", "1", "--nu", "1e-4", "--epochs", "15", "--seed", "3"]
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli_main(args + ["--out", out1]) == 0
    assert cli_main(args + ["--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        b1, b2 = f1.read(), f2.read()
    report(11, b1 == b2, f"two runs, {len(b1)} bytes each, identical={b1 == b2}")


# ---------------------------------------------------------------------------
# 12. Format robustness
# ---------------------------------------------------------------------------

def test_criterion_12_format_robustness(tmp_path):
    failures = []

    bad_magic = tmp_path / "bad-images"
    bad_magic.write_bytes(b"\x00\x00\x07\xff" + b"\x00" * 12)
    try:
        read_idx_images(str(bad_magic))
        failures.append("bad magic accepted")
    except FormatError:
        pass

    bad_label = tmp_path / "bad-labels"
    y = np.zeros((10, 3))
    y[0, :] = 1.0
    write_idx_labels(str(bad_label), y)
    raw = bytearray(bad_label.read_bytes())
    raw[-1] = 240  # label out of range for 10 classes
    bad_label.write_bytes(bytes(raw))
    try:
        read_idx_labels(str(bad_label), 10)
        failures.append("out-of-range label accepted")
    except DataError:
        pass

    gdir = tmp_path / "graph"
    save_graph(str(gdir), make_sbm_graph(20, rng=Rng(0)))
    with open(gdir / "edges.tsv", "a") as f:
        f.write("0\t999\n")
    try:
        load_graph(str(gdir))
        failures.append("dangling edge accepted")
    except DataError:
        pass

    report(12, not failures, "corruptions rejected with typed errors"
           if not failures else "; ".join(failures))
