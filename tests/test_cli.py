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


def test_selfcheck_detects_injected_gradient_bug():
    assert selfcheck(quick=True, gradient_perturbation=0.05) == 3


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
        monkeypatch.setattr(gcn, "backtrack_quadratic",
                            _fail_after(gcn.backtrack_quadratic, 12))
        code = main(["train", "gcn", "--data", str(gdir), "--layers", "8",
                     "--epochs", "5", "--out", str(out)])
        rows = 2
    assert code == 2
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + rows
