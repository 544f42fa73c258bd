"""Command-line front end: training runs, synthetic data generation, self-check.

Exit codes: 0 success, 1 usage or data error, 2 training aborted (divergence
or failed step search; the completed epochs are still written), 3 failed
self-check.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .baselines import BaselineConfig, run_baseline
from .data_io import (_read_text, load_graph, load_idx_dataset, save_graph, subsample,
                      write_idx_images, write_idx_labels)
from .errors import DataError, DivergenceError, FormatError, TrainingAborted
from .gcn import GcnConfig, gcn_train
from .linalg import Rng
from .objective import MlpArchitecture, Regularizer, check_fit
from .synth import make_image_classes, make_sbm_graph, make_separable
from .training import BlockRecord, TrainConfig, train

CSV_HEADER = "iter,objective,lagrangian,residual_l2,train_acc,test_acc,descent_ok,ck,wall_time_s"

# ``train`` options that only one model reads, by destination.  Given on the
# command line for the other model they are a usage error; a --config file
# shared by both models may still set them.
MODEL_ONLY = {"optimizer": "mlp", "subsample": "mlp", "nu": "mlp", "lam": "mlp", "lr": "mlp",
              "mu": "gcn"}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _csv_row(trace, timing: bool) -> str:
    """One CSV line of an MLP, GCN or baseline trace.  A column whose field
    the trace does not have is left empty."""

    def field(*names):
        return next((getattr(trace, n) for n in names if hasattr(trace, n)), None)

    def num(value):
        return "" if value is None else repr(float(value))

    ok = field("descent_ok")
    return ",".join([
        str(trace.iter),
        num(field("objective_F", "risk", "loss")),
        num(field("lagrangian")),
        num(field("residual_l2", "residual_fro")),
        num(trace.train_acc),
        num(trace.test_acc),
        "" if ok is None else str(int(ok)),
        num(field("ck")),
        num(trace.wall_time if timing else 0.0),
    ])


def _write_csv(fh, traces: list, timing: bool) -> None:
    fh.write(CSV_HEADER + "\n")
    for t in traces:
        fh.write(_csv_row(t, timing) + "\n")


def _load_config_defaults(path: str) -> dict:
    """One key=value per line of UTF-8 text; '#' starts a comment."""
    out = {}
    for line in _read_text(path).split("\n"):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        out[k.strip().replace("-", "_")] = v.strip()
    return out


def _parse_layers(text: str):
    try:
        dims = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise SystemExit(_usage_error("--layers must be a comma-separated integer list"))
    return dims


def _usage_error(msg: str) -> int:
    sys.stderr.write(f"error: {msg}\n")
    return 1


def _cmd_train(args) -> int:
    if args.data is None:
        return _usage_error("--data is required")
    if args.out is None:
        return _usage_error("--out is required")
    if args.epochs < 1:
        return _usage_error("--epochs must be >= 1")

    if args.model == "mlp":
        try:
            train_data, test_data = load_idx_dataset(args.data)
        except (FormatError, DataError, OSError) as exc:
            return _usage_error(str(exc))
        dims = _parse_layers(args.layers)
        try:
            arch = MlpArchitecture(
                layer_dims=dims,
                regularizer=Regularizer("l2", args.lam),
            )
            check_fit(arch, train_data, test_data)
            if args.optimizer == "admm":
                cfg = TrainConfig(rho=args.rho, nu=args.nu, epochs=args.epochs, seed=args.seed)
            else:
                cfg = BaselineConfig(optimizer=args.optimizer, learning_rate=args.lr,
                                     epochs=args.epochs, seed=args.seed)
            if args.subsample:  # after the config has checked the seed
                train_data = subsample(train_data, args.subsample, Rng(args.seed))
        except ValueError as exc:
            return _usage_error(str(exc))
        if args.optimizer == "admm":
            run = lambda: train(arch, train_data, cfg, eval_data=test_data).traces
        else:
            run = lambda: run_baseline(cfg, arch, train_data, eval_data=test_data)[1]

    else:  # gcn
        try:
            graph = load_graph(args.data)
        except (FormatError, DataError, OSError) as exc:
            return _usage_error(str(exc))
        hidden = _parse_layers(args.layers) if args.layers else (32,)
        try:
            cfg = GcnConfig(hidden_dims=hidden, rho=args.rho, mu=args.mu,
                            epochs=args.epochs, seed=args.seed)
        except ValueError as exc:
            return _usage_error(str(exc))
        run = lambda: gcn_train(graph, cfg)[1]

    try:  # opened before the first epoch, so a path that cannot be written costs no run
        out = open(args.out, "w")
    except OSError as exc:
        return _usage_error(f"cannot write --out: {exc}")
    with out:
        try:
            traces, code = run(), 0
        except TrainingAborted as exc:
            # the iterations completed before the abort are still written
            what = "divergence" if isinstance(exc, DivergenceError) else "step search failed"
            sys.stderr.write(f"{what}: {exc}\n")
            traces, code = exc.traces, 2
        _write_csv(out, traces, args.timing)
    return code


def _cmd_make_data(args) -> int:
    if args.n < 1:
        return _usage_error("--n must be >= 1")
    if args.seed < 0:
        return _usage_error("--seed must be >= 0")
    try:
        if args.kind == "images":
            os.makedirs(args.out, exist_ok=True)
            train, test = make_image_classes(args.n, rng=Rng(args.seed))
            write_idx_images(os.path.join(args.out, "train-images-idx3-ubyte"), train.x)
            write_idx_labels(os.path.join(args.out, "train-labels-idx1-ubyte"), train.y)
            write_idx_images(os.path.join(args.out, "t10k-images-idx3-ubyte"), test.x)
            write_idx_labels(os.path.join(args.out, "t10k-labels-idx1-ubyte"), test.y)
        else:
            save_graph(args.out, make_sbm_graph(args.n, rng=Rng(args.seed)))
    except ValueError as exc:  # a graph too small to hold a training node
        return _usage_error(f"--n {args.n}: {exc}")
    except OSError as exc:  # an --out that is a file, or cannot be written
        return _usage_error(str(exc))
    return 0


def _cmd_selfcheck(args) -> int:
    return selfcheck(quick=args.quick)


def _top_eigenvalue(grad_fn, z, rng: Rng, iters: int = 50, h: float = 1e-5) -> float:
    """Top eigenvalue of the Hessian of a convex function at z, by power
    iteration on central-difference products of its gradient."""
    v = rng.normal(0.0, 1.0, z.shape)
    top = 0.0
    for _ in range(iters):
        v = v / np.sqrt(np.vdot(v, v))
        hv = (grad_fn(z + h * v) - grad_fn(z - h * v)) / (2.0 * h)
        top, v = float(np.vdot(v, hv)), hv
    return top


def _fd_error(grad_fn, store: list, value_fn, h: float = 1e-6) -> float:
    """Worst error over layers l of ``grad_fn(l)`` against central differences
    of ``value_fn()`` in ``store[l]``, relative to max(1, largest quotient)."""
    worst = 0.0
    for l, block in enumerate(store):
        grad = grad_fn(l)
        num = np.zeros_like(grad)
        for idx in np.ndindex(*grad.shape):
            w0 = block[idx]
            block[idx] = w0 + h
            fp = value_fn()
            block[idx] = w0 - h
            fm = value_fn()
            block[idx] = w0
            num[idx] = (fp - fm) / (2 * h)
        worst = max(worst, float(np.max(np.abs(grad - num))) / max(1.0, float(np.max(np.abs(num)))))
    return worst


def selfcheck(quick: bool = False) -> int:
    """Gradient checks, subproblem oracles, each output risk's curvature (the
    MLP's and the GCN's masked one) against its H, the constant the descent
    certificate and the GCN's FISTA step share, the Newton direction, and a
    short descent run of each model; returns the exit code.
    The gradients checked against finite differences are the ones the
    trainers step with: ``objective.grad_phi_block`` (``grad_W`` and
    ``grad_a`` behind it) and ``gcn.grad_psi_block``, the latter both fresh
    and given the propagations a GCN iteration moved.  The GCN's
    propagation through A_norm is compared with the dense normalization
    formula."""
    from . import gcn, objective, solvers
    from .objective import Dataset, forward_init, grad_phi_block, phi, residuals

    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    rng = Rng(7)
    arch = MlpArchitecture(layer_dims=(3, 4, 2))
    x = rng.normal(0.0, 1.0, (3, 6))
    y = np.zeros((2, 6))
    y[rng.integers(0, 2, 6), np.arange(6)] = 1.0
    data = Dataset(x, y)
    state = forward_init(arch, data, Rng(1), rho=1.0, nu=1.0)[0]
    for l, p in enumerate(state.z):
        state.z[l] = p + 0.1 * rng.normal(0.0, 1.0, p.shape)
    for l, p in enumerate(state.a):
        state.a[l] = p + 0.1 * rng.normal(0.0, 1.0, p.shape)
    state.u = rng.normal(0.0, 1.0, state.u.shape)

    # finite-difference check on every block gradient, then the same for the
    # GCN's blocks on a small graph off its consistent point
    for block, store in {"W": state.W, "b": state.b, "z": state.z, "a": state.a}.items():
        worst = _fd_error(lambda l: grad_phi_block(state, data, block, l, residuals(state, data)),
                          store, lambda: phi(state, residuals(state, data)))
        check(f"gradient {block} vs finite differences", worst < 1e-5)
    graph = make_sbm_graph(6, p_in=0.6, p_out=0.3, rng=Rng(13))
    gstate = gcn.gcn_forward_init(graph, (2, 3, 2), Rng(2), rho=1.0, mu=1.0)[0]
    gstate.Z = [z + 0.3 * rng.normal(0.0, 1.0, z.shape) for z in gstate.Z]
    gstate.U = rng.normal(0.0, 1.0, gstate.U.shape)
    # with the propagations the trainer keeps too, as one iteration moved them
    props = gcn.propagations(gstate, graph)
    risk = gcn.masked_ce(graph.labels, graph.train_mask)
    moved = gcn.gcn_iteration(gstate, risk, BlockRecord(), props)[0]
    for block in ("W", "Z"):
        for tag, at, cache in (("", gstate, gcn.propagations(gstate, graph)),
                               (" (cached propagations)", moved, props)):
            worst = _fd_error(lambda l: gcn.grad_psi_block(at, block, l, cache),
                              at.W if block == "W" else at.Z,
                              lambda: gcn.psi(at, gcn.propagations(at, graph)))
            check(f"gcn gradient {block}{tag} vs finite differences", worst < 1e-5)
    # psi's finite differences go through the same A_norm as its gradient, so
    # the operator is checked against the dense normalization formula on its
    # own, on a graph whose node 1 has no edge (a row with its self-loop only)
    adj = np.zeros((4, 4))
    adj[[0, 0, 2, 2, 3, 3], [2, 3, 0, 3, 0, 2]] = 1.0
    lone = gcn.Graph(4, np.argwhere(np.triu(adj)), np.ones((4, 1)), np.eye(4, 2), np.arange(4) == 0,
                     np.arange(4) == 1)
    inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1) + 1.0)
    probe = Rng(17).normal(0.0, 1.0, (4, 3))
    want = inv_sqrt[:, None] * (adj + np.eye(4)) * inv_sqrt[None, :] @ probe
    got = gcn._adj(gcn.normalize_adjacency(lone), probe)
    check("gcn propagation vs dense normalization formula",
          got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=0.0))

    # scalar z-subproblem vs a fine grid
    rng2 = Rng(11)
    ok = True
    grid = np.linspace(-5, 5, 10001)
    for _ in range(20 if quick else 200):
        m_in = float(rng2.normal(0.0, 2.0, ()))
        tgt = float(rng2.normal(0.0, 2.0, ()))
        z = solvers.solve_z_relu(np.array([[m_in]]), np.array([[tgt]]), 0.5, 0.5)[0, 0]

        def obj(v):
            return 0.5 * (v - m_in) ** 2 + 0.5 * (np.maximum(v, 0.0) - tgt) ** 2

        if obj(z) > np.min(obj(grid)) + 1e-4:
            ok = False
    check("relu z-subproblem vs grid", ok)

    # a Risk's H sets the descent certificate and the GCN's output FISTA step
    # 1/(H + rho): the risk Hessian's top eigenvalue, by power iteration on
    # finite-difference products of its gradient, must not exceed it (uniform logits attain it),
    # for the MLP's risks and the GCN's masked one
    mlp_risks = [objective.mean_risk(kind, y) for kind in ("cross_entropy", "squared")]
    for model, risks, z in (("", mlp_risks, state.z[-1]), ("gcn ", [risk], gstate.Z[-1])):
        ratio = max(_top_eigenvalue(r.grad, at, Rng(5)) / r.curvature
                    for r in risks for at in (z, np.zeros_like(z)))
        check(f"{model}output-risk curvature <= H", ratio <= 1.0 + 1e-6)

    # Newton direction d: (Hessian + rho I) d = g, Hessian times d by central differences
    risk, z, g = objective.mean_risk("cross_entropy", y), state.z[-1], Rng(19).normal(0.0, 1.0, y.shape)
    d = risk.newton(z, g, 1e-3)
    hd = (risk.grad(z + 1e-5 * d) - risk.grad(z - 1e-5 * d)) / 2e-5 + 1e-3 * d
    check("cross-entropy Newton direction vs finite-difference Hessian", np.max(np.abs(hd - g)) < 1e-6)

    # a short run of each model: certificate + monotone Lagrangian
    epochs = 5 if quick else 25
    mlp_run = lambda: train(MlpArchitecture(layer_dims=(4, 8, 2)), make_separable(40, rng=Rng(3)),
                            TrainConfig(rho=4.0, nu=1.0, epochs=epochs)).traces
    gcn_run = lambda: gcn_train(make_sbm_graph(200, rng=Rng(8)),
                                GcnConfig((32,), rho=1.0, mu=1.0, epochs=epochs))[1]
    for model, params, run in (("", "rho=4, nu=1", mlp_run), ("gcn ", "rho=1, mu=1", gcn_run)):
        try:
            traces = run()
        except TrainingAborted:
            check(f"{model}training run completes", False)
            continue
        lagr = [t.lagrangian for t in traces]
        mono = all(b <= a + 1e-9 for a, b in zip(lagr, lagr[1:]))
        check(f"{model}backtracking certificate", max(t.max_cert_violation for t in traces) <= 1e-10)
        check(f"{model}Lagrangian monotone ({params})", mono)

    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 3
    return 0


def build_parser(train_defaults: dict = None) -> _Parser:
    """``train_defaults`` maps ``train`` destinations to values from a
    config file.  They replace the built-in defaults, so flags on the
    command line still win, and argparse converts string values with each
    argument's ``type``.  A key that names no ``train`` argument raises
    ``FormatError``."""
    p = _Parser(prog="admmnet")
    sub = p.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="train a model and write a metrics CSV")
    train_args = [
        tr.add_argument("model", choices=["mlp", "gcn"]),
        tr.add_argument("--data", default=None, help="dataset directory"),
        tr.add_argument("--layers", default="", help="mlp: full dims; gcn: hidden dims"),
        tr.add_argument("--optimizer", default="admm",
                        choices=["admm", "gd", "adagrad", "adadelta", "adam"]),
        tr.add_argument("--rho", type=float, default=1.0),
        tr.add_argument("--nu", type=float, default=1e-6),
        tr.add_argument("--mu", type=float, default=1.0),
        tr.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.0),
        tr.add_argument("--lr", type=float, default=1e-3, help="baseline learning rate"),
        tr.add_argument("--epochs", type=int, default=200),
        tr.add_argument("--seed", type=int, default=0),
        tr.add_argument("--subsample", type=int, default=0),
        tr.add_argument("--out", default=None, help="output CSV path"),
        tr.add_argument("--timing", action="store_true",
                        help="record wall-clock times (off by default so CSVs are reproducible)"),
        tr.add_argument("--config", default=None, help="key=value defaults file"),
    ]
    tr.set_defaults(func=_cmd_train)
    if train_defaults:
        unknown = sorted(set(train_defaults) - {a.dest for a in train_args})
        if unknown:
            raise FormatError(f"unknown config key {unknown[0]!r}")
        tr.set_defaults(**train_defaults)

    mk = sub.add_parser("make-data", help="generate a synthetic dataset on disk")
    mk.add_argument("kind", choices=["images", "graph"])
    mk.add_argument("--n", type=int, default=1000, help="samples (images) or nodes (graph)")
    mk.add_argument("--seed", type=int, default=0)
    mk.add_argument("--out", required=True, help="output directory")
    mk.set_defaults(func=_cmd_make_data)

    sc = sub.add_parser("selfcheck", help="run built-in correctness checks")
    sc.add_argument("--quick", action="store_true", help="sub-second subset only")
    sc.set_defaults(func=_cmd_selfcheck)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # the config file is read first, since its values become parser defaults
    config = _Parser(prog="admmnet train", add_help=False)
    config.add_argument("--config")
    try:
        path = config.parse_known_args(argv)[0].config
        defaults = _load_config_defaults(path) if path else {}
        if "timing" in defaults:  # a flag, so argparse has no type to convert it with
            text = defaults["timing"].lower()
            if text not in ("1", "true", "yes", "0", "false", "no"):
                raise FormatError(f"{path}: timing must be 1, true, yes, 0, false or no, "
                                  f"not {defaults['timing']!r}")
            defaults["timing"] = text in ("1", "true", "yes")
        args = build_parser(defaults).parse_args(argv)
        if args.command == "train":  # None defaults show which options the command line gave
            given = build_parser(dict.fromkeys(MODEL_ONLY)).parse_args(argv)
            for dest, model in MODEL_ONLY.items():
                if getattr(given, dest) is not None and args.model != model:
                    return _usage_error(f"--{dest} applies to {model} only")
    except (FormatError, OSError) as exc:
        return _usage_error(str(exc))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
