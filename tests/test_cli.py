import itertools
import re
import shutil
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

import admmnet.cli as cli
import admmnet.gcn as gcn
import admmnet.training as training
from admmnet.cli import CSV_HEADER, main, selfcheck
from admmnet.data_io import write_idx_images, write_idx_labels
from admmnet.errors import BacktrackError
from admmnet.linalg import Rng
from admmnet.synth import make_image_classes


@pytest.fixture(scope="module")
def image_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("imgs")
    train, test = make_image_classes(60, n_pixels=16, n_classes=3, rng=Rng(0))
    write_idx_images(str(d / "train-images-idx3-ubyte"), train.x)
    write_idx_labels(str(d / "train-labels-idx1-ubyte"), train.y)
    write_idx_images(str(d / "t10k-images-idx3-ubyte"), test.x)
    write_idx_labels(str(d / "t10k-labels-idx1-ubyte"), test.y)
    return d


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("graph") / "g"
    assert main(["make-data", "graph", "--n", "40", "--seed", "0", "--out", str(d)]) == 0
    return d


def run_train(image_dir, out, extra=()):
    return main([
        "train", "mlp", "--data", str(image_dir), "--layers", "16,8,10",
        "--rho", "1", "--nu", "1e-6", "--epochs", "5", "--seed", "42",
        "--out", str(out), *extra,
    ])


def test_train_writes_rows(image_dir, tmp_path):
    out = tmp_path / "run.csv"
    assert run_train(image_dir, out) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6  # header + one row per epoch


def test_missing_data_flag_usage_error(tmp_path):
    code = main(["train", "mlp", "--layers", "4,2", "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_unknown_flag_usage_error(tmp_path):
    code = main(["train", "mlp", "--bogus", "1"])
    assert code == 1


def test_zero_epochs_usage_error(image_dir, tmp_path):
    code = main([
        "train", "mlp", "--data", str(image_dir), "--layers", "16,8,10",
        "--epochs", "0", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_missing_dataset_dir(tmp_path):
    code = main([
        "train", "mlp", "--data", str(tmp_path / "nope"), "--layers", "16,8,10",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_byte_identical_reruns(image_dir, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_train(image_dir, out1) == 0
    assert run_train(image_dir, out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_baseline_optimizer_path(image_dir, tmp_path):
    out = tmp_path / "adam.csv"
    code = run_train(image_dir, out, extra=("--optimizer", "adam", "--lr", "1e-3"))
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 6


def test_config_file_supplies_defaults(image_dir, tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(
        f"data={image_dir}\nlayers=16,8,10\nrho=1\nnu=1e-6\n"
        f"epochs=3\nseed=7\nout={tmp_path / 'cfg.csv'}\n"
    )
    assert main(["train", "mlp", "--config", str(cfgf)]) == 0
    lines = (tmp_path / "cfg.csv").read_text().strip().split("\n")
    assert len(lines) == 4


def test_config_flag_override_wins(image_dir, tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"data={image_dir}\nlayers=16,8,10\nepochs=9\nout={tmp_path / 'o.csv'}\n")
    assert main([
        "train", "mlp", "--config", str(cfgf), "--epochs", "2",
        "--out", str(tmp_path / "o.csv"),
    ]) == 0
    assert len((tmp_path / "o.csv").read_text().strip().split("\n")) == 3


def test_make_data_and_gcn_train(tmp_path):
    gdir = tmp_path / "graph"
    assert main(["make-data", "graph", "--n", "40", "--seed", "0",
                 "--out", str(gdir)]) == 0
    out = tmp_path / "gcn.csv"
    code = main([
        "train", "gcn", "--data", str(gdir), "--layers", "8", "--rho", "1",
        "--mu", "1", "--epochs", "4", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 5


def test_selfcheck_quick_passes():
    assert main(["selfcheck", "--quick"]) == 0


RUN_CHECKS = ["backtracking certificate", "Lagrangian monotone (rho=4, nu=1)",
              "gcn backtracking certificate", "gcn Lagrangian monotone (rho=1, mu=1)"]


def test_selfcheck_runs_both_models(capsys):
    """The certificate and the monotone Lagrangian are checked on a short
    run of each model."""
    assert main(["selfcheck", "--quick"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert all(f"PASS  {line}" in out for line in RUN_CHECKS)


def test_selfcheck_detects_rising_gcn_lagrangian(monkeypatch, capsys):
    """A GCN run whose Lagrangian rises fails that line alone, and exit 3."""
    rise = itertools.count()
    real = gcn.lagrangian
    monkeypatch.setattr(gcn, "lagrangian", lambda *args: real(*args) + 10.0 * next(rise))
    assert main(["selfcheck", "--quick"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL")] == [f"FAIL  {RUN_CHECKS[3]}"]


def test_selfcheck_detects_injected_gradient_bug(monkeypatch, capsys):
    """A wrong W gradient in the function the trainer steps with must fail
    the finite-difference check."""
    import admmnet.objective as objective

    real = objective.grad_W

    def scaled(*args, **kwargs):
        return 1.5 * real(*args, **kwargs)

    monkeypatch.setattr(objective, "grad_W", scaled)
    assert selfcheck(quick=True) == 3
    assert "FAIL  gradient W vs finite differences" in capsys.readouterr().out


def test_selfcheck_detects_wrong_a_gradient(monkeypatch, capsys):
    """Every block gradient is finite-differenced, not only W's."""
    import admmnet.objective as objective

    real = objective.grad_a

    def scaled(*args, **kwargs):
        grad, *rest = real(*args, **kwargs)
        return (1.5 * grad, *rest)

    monkeypatch.setattr(objective, "grad_a", scaled)
    assert selfcheck(quick=True) == 3
    assert "FAIL  gradient a vs finite differences" in capsys.readouterr().out


@pytest.mark.parametrize("block", ["W", "Z"])
def test_selfcheck_detects_wrong_gcn_gradient(block, monkeypatch, capsys):
    """The GCN's block gradients are finite-differenced against psi too."""
    real = gcn.grad_psi_block

    def scaled(*args, **kwargs):
        return 1.5 * real(*args, **kwargs)

    monkeypatch.setattr(gcn, "grad_psi_block", scaled)
    assert selfcheck(quick=True) == 3
    assert f"FAIL  gcn gradient {block} vs finite differences" in capsys.readouterr().out


def test_selfcheck_detects_understated_risk_curvature(monkeypatch, capsys):
    import admmnet.objective as objective

    line = "output-risk curvature <= H"
    assert selfcheck(quick=True) == 0
    assert f"PASS  {line}" in capsys.readouterr().out
    real = objective.mean_risk
    monkeypatch.setattr(objective, "mean_risk", lambda kind, y: replace(
        real(kind, y), curvature=0.9 * real(kind, y).curvature))
    assert selfcheck(quick=True) == 3
    assert f"FAIL  {line}" in capsys.readouterr().out


def test_selfcheck_detects_understated_masked_curvature(monkeypatch, capsys):
    """The GCN's masked risk, whose H sets its output FISTA step, is checked
    against its own Hessian: 0.9 of its curvature fails that line alone."""
    real = gcn.masked_ce
    monkeypatch.setattr(gcn, "masked_ce", lambda labels, mask: replace(
        real(labels, mask), curvature=0.9 * real(labels, mask).curvature))
    assert selfcheck(quick=True) == 3
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL")] == [
        "FAIL  gcn output-risk curvature <= H"]


def test_selfcheck_detects_wrong_newton_direction(monkeypatch, capsys):
    """The output solve's Newton direction is checked against the risk
    Hessian: a direction 1.5 times too long fails."""
    import admmnet.objective as objective

    line = "cross-entropy Newton direction vs finite-difference Hessian"
    assert selfcheck(quick=True) == 0
    assert f"PASS  {line}" in capsys.readouterr().out
    real = objective.mean_risk

    def scaled(kind, y):
        risk = real(kind, y)
        if risk.newton is None:
            return risk
        return replace(risk, newton=lambda z, g, rho: 1.5 * risk.newton(z, g, rho))

    monkeypatch.setattr(objective, "mean_risk", scaled)
    assert selfcheck(quick=True) == 3
    assert f"FAIL  {line}" in capsys.readouterr().out


def test_divergence_exit_code(image_dir, tmp_path, monkeypatch):
    import admmnet.cli as cli
    from admmnet.errors import DivergenceError

    def boom(*a, **k):
        raise DivergenceError("blown up", traces=[])

    monkeypatch.setattr(cli, "train", boom)
    out = tmp_path / "div.csv"
    assert run_train(image_dir, out) == 2
    assert out.read_text().startswith(CSV_HEADER)


def _fail_after(real, calls):
    """``real``, raising BacktrackError from call ``calls + 1`` on."""
    seen = [0]

    def wrapped(*args, **kwargs):
        seen[0] += 1
        if seen[0] > calls:
            raise BacktrackError("no certified step")
        return real(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("path", ["admm", "baseline", "gcn"])
def test_backtrack_failure_exit_code(path, image_dir, tmp_path, monkeypatch):
    # both trainers make six step searches per iteration at these sizes, so
    # the 13th fails in epoch 3 and two completed epochs are written
    out = tmp_path / "bt.csv"
    if path == "admm":
        monkeypatch.setattr(training, "backtrack_quadratic",
                            _fail_after(training.backtrack_quadratic, 12))
        code, rows = run_train(image_dir, out), 2
    elif path == "baseline":
        def boom(*a, **k):
            raise BacktrackError("no certified step", traces=[])

        monkeypatch.setattr(cli, "run_baseline", boom)
        code, rows = run_train(image_dir, out, extra=("--optimizer", "adam")), 0
    else:
        gdir = tmp_path / "graph"
        assert main(["make-data", "graph", "--n", "40", "--seed", "0",
                     "--out", str(gdir)]) == 0
        monkeypatch.setattr(gcn, "backtrack_quadratic", _fail_after(gcn.backtrack_quadratic, 12))
        code = main(["train", "gcn", "--data", str(gdir), "--layers", "8",
                     "--epochs", "5", "--out", str(out)])
        rows = 2
    assert code == 2
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + rows


def csv_rows(path):
    return [line.split(",") for line in path.read_text().strip().split("\n")[1:]]


def test_baseline_rows_leave_admm_columns_empty(image_dir, tmp_path):
    out = tmp_path / "adam.csv"
    assert run_train(image_dir, out, extra=("--optimizer", "adam")) == 0
    col = CSV_HEADER.split(",").index
    for row in csv_rows(out):
        for name in ("lagrangian", "residual_l2", "descent_ok", "ck"):
            assert row[col(name)] == "", name
        assert row[col("objective")] != ""


def test_gcn_descent_ok_column_matches_traces(graph_dir, tmp_path, monkeypatch):
    seen = {}
    real = cli.gcn_train

    def spy(graph, cfg):
        state, seen["traces"] = real(graph, cfg)
        return state, seen["traces"]

    monkeypatch.setattr(cli, "gcn_train", spy)
    out = tmp_path / "gcn.csv"
    assert main(["train", "gcn", "--data", str(graph_dir), "--layers", "8", "--rho", "4",
                 "--epochs", "4", "--out", str(out)]) == 0
    col = [row[CSV_HEADER.split(",").index("descent_ok")] for row in csv_rows(out)]
    assert col == [str(int(t.descent_ok)) for t in seen["traces"]]
    assert "0" in col  # iteration 1 misses the bound (see test_gcn), so nothing is invented


def test_config_equals_form_is_read(image_dir, tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"data={image_dir}\nlayers=16,8,10\nepochs=2\nout={tmp_path / 'eq.csv'}\n")
    assert main(["train", "mlp", f"--config={cfgf}"]) == 0
    assert len((tmp_path / "eq.csv").read_text().strip().split("\n")) == 3


@pytest.mark.parametrize("line", ["epochs=abc", "rho=abc"])
def test_config_value_of_wrong_type_usage_error(image_dir, tmp_path, line):
    cfgf = tmp_path / "bad.cfg"
    cfgf.write_text(f"data={image_dir}\nlayers=16,8,10\n{line}\nout={tmp_path / 'x.csv'}\n")
    assert main(["train", "mlp", "--config", str(cfgf)]) == 1


@pytest.mark.parametrize("value, timed", [("1", True), ("TRUE", True), ("Yes", True),
                                          ("0", False), ("False", False), ("NO", False)])
def test_config_timing_values(image_dir, tmp_path, value, timed):
    out = tmp_path / "t.csv"
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"data={image_dir}\nlayers=16,8,10\nepochs=2\ntiming={value}\nout={out}\n")
    assert main(["train", "mlp", "--config", str(cfgf)]) == 0
    header, *rows = out.read_text().strip().split("\n")
    col = header.split(",").index("wall_time_s")
    assert [float(row.split(",")[col]) > 0.0 for row in rows] == [timed, timed]


@pytest.mark.parametrize("value", ["maybe", "on", "2", ""])
def test_config_timing_other_value_format_error(image_dir, tmp_path, capsys, value):
    """Only 1/true/yes and 0/false/no, in any case, set the flag; another
    value is not read as false."""
    out = tmp_path / "t.csv"
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"data={image_dir}\nlayers=16,8,10\nepochs=2\ntiming={value}\nout={out}\n")
    assert main(["train", "mlp", "--config", str(cfgf)]) == 1
    assert one_error_line(capsys) == (f"error: {cfgf}: timing must be 1, true, yes, 0, false or no, "
                                      f"not {value!r}")
    assert not out.exists()


@pytest.mark.parametrize("model, flags", [
    ("mlp", ["--rho", "0"]),
    ("mlp", ["--nu", "0"]),
    ("gcn", ["--mu", "-1"]),
    ("mlp", ["--layers", "16,0,10"]),
    ("mlp", ["--layers", "16,8"]),
    ("mlp", ["--layers", "5,3,10"]),  # the images have 16 pixels
    ("mlp", ["--layers", "16,8,3"]),  # the labels have 10 classes
    ("gcn", ["--layers", "0"]),
], ids=["rho", "nu", "mu", "zero-width", "one-layer", "inputs", "classes", "gcn-zero-width"])
def test_invalid_train_arguments_usage_error(model, flags, image_dir, graph_dir, tmp_path, capsys):
    data = image_dir if model == "mlp" else graph_dir
    layers = ["--layers", "16,8,10"] if model == "mlp" else []  # a later --layers wins
    out = tmp_path / "x.csv"
    code = main(["train", model, "--data", str(data), *layers, "--epochs", "2",
                 "--out", str(out), *flags])
    assert code == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("model, flags, name", [
    ("mlp", ["--rho", "nan"], "rho"),
    ("mlp", ["--nu", "inf"], "nu"),
    ("mlp", ["--rho", "1e400"], "rho"),  # parses to inf
    ("mlp", ["--lam", "nan"], "lam"),
    ("mlp", ["--optimizer", "adam", "--lr", "nan"], "learning_rate"),
    ("gcn", ["--mu", "nan"], "mu"),
    ("gcn", ["--rho", "inf"], "rho"),
], ids=["rho-nan", "nu-inf", "rho-overflow", "lam-nan", "lr-nan", "gcn-mu-nan", "gcn-rho-inf"])
def test_non_finite_hyperparameter_usage_error(model, flags, name, image_dir, graph_dir, tmp_path,
                                               capsys):
    """A NaN or infinite hyperparameter is a usage error before training,
    not a divergence abort (exit 2) at iteration 1."""
    data = image_dir if model == "mlp" else graph_dir
    layers = ["--layers", "16,8,10"] if model == "mlp" else []
    out = tmp_path / "x.csv"
    code = main(["train", model, "--data", str(data), *layers, "--epochs", "2",
                 "--out", str(out), *flags])
    assert code == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert err == [f"error: {name} must be finite, got {float(flags[-1])!r}"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_features_data_error(graph_dir, tmp_path, capsys, value):
    gdir = tmp_path / "g"
    shutil.copytree(graph_dir, gdir)
    rows = (gdir / "features.csv").read_text().split("\n")
    rows[2] = ",".join([value] * len(rows[2].split(",")))
    (gdir / "features.csv").write_text("\n".join(rows))
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no matmul warnings: training never starts
        code = main(["train", "gcn", "--data", str(gdir), "--epochs", "2", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: ") and "non-finite" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("count", ["-5", "-1000", "61"])
def test_subsample_out_of_range_usage_error(count, image_dir, tmp_path, capsys):
    """The training split has 60 samples: a count below 1 or above 60 is a
    one-line usage error, not a silently smaller or empty training set."""
    out = tmp_path / "x.csv"
    assert run_train(image_dir, out, extra=("--subsample", count)) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_gcn_rejects_optimizer(graph_dir, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["train", "gcn", "--data", str(graph_dir), "--epochs", "2",
                 "--optimizer", "adam", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.strip() == "error: --optimizer applies to mlp only"
    assert not out.exists()


@pytest.mark.parametrize("model, flags, message", [
    ("gcn", ["--subsample", "5"], "--subsample applies to mlp only"),
    ("gcn", ["--nu", "3"], "--nu applies to mlp only"),
    ("gcn", ["--lam", "2"], "--lam applies to mlp only"),
    ("gcn", ["--lambda", "2"], "--lam applies to mlp only"),
    ("gcn", ["--lr", "9"], "--lr applies to mlp only"),
    ("gcn", ["--n", "1e-6"], "--nu applies to mlp only"),  # an abbreviation of --nu
    ("gcn", ["--optimizer", "admm"], "--optimizer applies to mlp only"),
    ("mlp", ["--mu", "2"], "--mu applies to gcn only"),
], ids=["subsample", "nu", "lam", "lambda", "lr", "nu-abbrev", "optimizer-admm", "mu"])
def test_flag_of_the_other_model_usage_error(model, flags, message, image_dir, graph_dir,
                                             tmp_path, capsys):
    data = image_dir if model == "mlp" else graph_dir
    layers = ["--layers", "16,8,10"] if model == "mlp" else []
    out = tmp_path / "x.csv"
    code = main(["train", model, "--data", str(data), *layers, "--epochs", "2",
                 "--out", str(out), *flags])
    assert code == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not out.exists()


def test_shared_config_may_set_options_of_either_model(image_dir, graph_dir, tmp_path):
    """A config file serves both models: each ignores the keys of the other."""
    cfgf = tmp_path / "shared.cfg"
    cfgf.write_text("epochs=2\nnu=1e-6\nlam=0\nlr=1e-3\nsubsample=0\nmu=1\n")
    assert main(["train", "gcn", "--config", str(cfgf), "--data", str(graph_dir),
                 "--out", str(tmp_path / "g.csv")]) == 0
    assert main(["train", "mlp", "--config", str(cfgf), "--data", str(image_dir),
                 "--layers", "16,8,10", "--out", str(tmp_path / "m.csv")]) == 0
    # a file that picks Adam for the MLP still serves the GCN, which reads no optimizer
    cfgf.write_text("epochs=2\noptimizer=adam\nlr=1e-3\nmu=1\n")
    assert main(["train", "gcn", "--config", str(cfgf), "--data", str(graph_dir),
                 "--out", str(tmp_path / "g2.csv")]) == 0
    assert (tmp_path / "g2.csv").read_text() == (tmp_path / "g.csv").read_text()
    assert main(["train", "mlp", "--config", str(cfgf), "--data", str(image_dir),
                 "--layers", "16,8,10", "--out", str(tmp_path / "m2.csv")]) == 0
    assert (tmp_path / "m2.csv").read_text() != (tmp_path / "m.csv").read_text()  # Adam ran


def test_selfcheck_detects_wrong_cached_gcn_gradient(monkeypatch, capsys):
    """The GCN gradient is also finite-differenced with the propagations the
    trainer keeps, as an iteration moved them, so a fault in that cache alone
    fails the check while the fresh propagations still pass."""
    real = gcn.gcn_iteration

    def misplaced(state, risk, record, props):
        out = real(state, risk, record, props)
        props.m = [1.5 * m for m in props.m]
        return out

    monkeypatch.setattr(gcn, "gcn_iteration", misplaced)
    assert selfcheck(quick=True) == 3
    out = capsys.readouterr().out
    assert "PASS  gcn gradient W vs finite differences" in out
    assert "FAIL  gcn gradient W (cached propagations) vs finite differences" in out


def test_selfcheck_detects_operator_without_self_loops(monkeypatch, capsys):
    """An A_norm that lost its self-loops leaves an isolated node's row
    empty, and ``np.add.reduceat`` then hands that row the next row's entry
    without an error.  psi and its gradient both go through the broken
    operator, so only the comparison with the dense formula fails."""
    real = gcn.normalize_adjacency

    def without_self_loops(graph):
        op = real(graph)
        rows = np.repeat(np.arange(op.n), np.diff(np.append(op.starts, op.cols.size)))
        keep = rows != op.cols
        starts = np.append(0, np.cumsum(np.bincount(rows[keep], minlength=op.n))[:-1])
        return gcn.SparseAdjacency(op.n, starts, op.cols[keep], op.vals[keep])

    monkeypatch.setattr(gcn, "normalize_adjacency", without_self_loops)
    assert selfcheck(quick=True) == 3
    out = capsys.readouterr().out
    assert "FAIL  gcn propagation vs dense normalization formula" in out
    assert "PASS  gcn gradient W vs finite differences" in out


def idx_bytes(magic, dims, payload=()):
    return struct.pack(f">{len(dims) + 1}I", magic, *dims) + bytes(payload)


@pytest.mark.parametrize("images, labels, message", [
    # a 64-bit product of these sizes wraps to 0; the count asks for 2^64 bytes
    (idx_bytes(0x803, (2**31, 2**31, 4)), idx_bytes(0x801, (0,)),
     r"train-images-idx3-ubyte: truncated payload"),
    (idx_bytes(0x803, (0, 2, 2)), idx_bytes(0x801, (0,)),
     r"train-images-idx3-ubyte holds 0 images but \S*train-labels-idx1-ubyte 0 labels"),
    (idx_bytes(0x803, (5, 2, 2), range(20)), idx_bytes(0x801, (4,), [0, 1, 2, 3]),
     r"train-images-idx3-ubyte holds 5 images but \S*train-labels-idx1-ubyte 4 labels"),
], ids=["wrapped-size-product", "no-samples", "count-mismatch"])
def test_malformed_idx_data_error(images, labels, message, tmp_path, capsys):
    (tmp_path / "train-images-idx3-ubyte").write_bytes(images)
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(labels)
    (tmp_path / "t10k-images-idx3-ubyte").write_bytes(idx_bytes(0x803, (3, 2, 2), range(12)))
    (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(idx_bytes(0x801, (3,), [0, 1, 2]))
    code = main(["train", "mlp", "--data", str(tmp_path), "--layers", "4,3,10", "--epochs", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert re.search(message, capsys.readouterr().err)


def test_empty_features_data_error(graph_dir, tmp_path, capsys):
    """An empty features.csv is blamed on itself, with no numpy warning."""
    gdir = tmp_path / "g"
    shutil.copytree(graph_dir, gdir)
    (gdir / "features.csv").write_text("")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", "gcn", "--data", str(gdir), "--epochs", "1", "--out", str(out)])
    assert code == 1
    assert one_error_line(capsys) == f"error: {gdir / 'features.csv'}: no feature rows"
    assert not out.exists()


def test_unlabeled_node_in_a_mask_data_error(graph_dir, tmp_path, capsys):
    gdir = tmp_path / "g"
    shutil.copytree(graph_dir, gdir)
    lines = (gdir / "labels.csv").read_text().splitlines(keepends=True)
    node = lines.pop(2).split(",")[0]  # every node of the bundle is in a mask
    (gdir / "labels.csv").write_text("".join(lines))
    out = tmp_path / "x.csv"
    code = main(["train", "gcn", "--data", str(gdir), "--epochs", "1", "--out", str(out)])
    assert code == 1
    err = one_error_line(capsys)
    assert re.search(rf"masks.csv line \d+: node {node} is in a mask but .*no label", err), err
    assert not out.exists()


def one_error_line(capsys):
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def test_config_not_utf8_format_error(image_dir, tmp_path, capsys):
    cfgf = tmp_path / "bad.cfg"
    cfgf.write_bytes(b"epochs=2\nrho=\xff1\n")
    out = tmp_path / "x.csv"
    code = main(["train", "mlp", "--config", str(cfgf), "--data", str(image_dir),
                 "--layers", "16,8,10", "--out", str(out)])
    assert code == 1
    assert one_error_line(capsys) == f"error: {cfgf}: byte 13 is not UTF-8 text"
    assert not out.exists()


@pytest.mark.parametrize("model, flags", [
    ("mlp", []),
    ("mlp", ["--optimizer", "adam"]),
    ("mlp", ["--subsample", "10"]),  # the subsample draw would raise first
    ("gcn", []),
], ids=["admm", "adam", "subsample", "gcn"])
def test_negative_seed_usage_error(model, flags, image_dir, graph_dir, tmp_path, capsys):
    data = image_dir if model == "mlp" else graph_dir
    layers = ["--layers", "16,8,10"] if model == "mlp" else []
    out = tmp_path / "x.csv"
    code = main(["train", model, "--data", str(data), *layers, "--epochs", "1", "--seed", "-1",
                 "--out", str(out), *flags])
    assert code == 1
    assert one_error_line(capsys) == "error: seed must be >= 0, got -1"
    assert not out.exists()


@pytest.mark.parametrize("model", ["mlp", "gcn"])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_fails_before_training(model, where, image_dir, graph_dir, tmp_path,
                                              capsys, monkeypatch):
    """An --out that cannot be opened for writing is a usage error before
    any epoch runs, not an OSError after the whole run."""
    def never(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr(cli, "train", never)
    monkeypatch.setattr(cli, "gcn_train", never)
    out = tmp_path / "nope" / "x.csv" if where == "missing-dir" else tmp_path
    data = image_dir if model == "mlp" else graph_dir
    layers = ["--layers", "16,8,10"] if model == "mlp" else []
    code = main(["train", model, "--data", str(data), *layers, "--epochs", "1",
                 "--out", str(out)])
    assert code == 1
    assert one_error_line(capsys).startswith("error: cannot write --out: ")


@pytest.mark.parametrize("argv, message", [
    (["graph", "--n", "0"], "--n must be >= 1"),
    (["graph", "--n", "1"], "--n 1: need at least one training node"),
    (["images", "--n", "-5"], "--n must be >= 1"),
    (["images", "--n", "20", "--seed", "-3"], "--seed must be >= 0"),
    (["graph", "--n", "20", "--seed", "-3"], "--seed must be >= 0"),
], ids=["graph-n0", "graph-n1", "images-negative-n", "images-seed", "graph-seed"])
def test_make_data_bad_argument_usage_error(argv, message, tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["make-data", *argv, "--out", str(out)]) == 1
    assert one_error_line(capsys) == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["images", "graph"])
def test_make_data_out_is_a_file_usage_error(kind, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    assert main(["make-data", kind, "--n", "20", "--out", str(out)]) == 1
    assert "File exists" in one_error_line(capsys)
    assert out.read_text() == "keep me\n"
