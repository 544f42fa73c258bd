"""Full-batch backpropagation baselines: GD, Adagrad, Adadelta, Adam.

These train the same forward model (the network the splitting scheme
relaxes) so that traces are comparable run-for-run.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import objective
from .errors import DivergenceError
from .linalg import Rng, require_finite
from .objective import Dataset, MlpArchitecture, accuracy


# Adam's moment decays, Adadelta's decay and the denominators' guard
BETA1, BETA2, ADADELTA_DECAY, EPS = 0.9, 0.999, 0.95, 1e-8


@dataclass
class BaselineConfig:
    optimizer: str  # gd | adagrad | adadelta | adam
    learning_rate: float
    epochs: int
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("gd", "adagrad", "adadelta", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        require_finite(learning_rate=self.learning_rate)
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class BaselineTrace:
    iter: int
    loss: float
    train_acc: float
    test_acc: float
    wall_time: float


def backprop_grads(W, b, data: Dataset, arch: MlpArchitecture, forward: tuple):
    """Exact full-batch gradients of risk + regularizer w.r.t. every W_l, b_l,
    given ``forward``, ``objective.forward`` of W, b and the data."""
    zs, acts = forward
    last, reg = len(W) - 1, arch.regularizer
    gW = [None] * len(W)
    gb = [None] * len(W)
    delta = objective.mean_risk(arch.risk, data.y).grad(zs[last])
    for l in range(last, -1, -1):
        gW[l] = delta @ (data.x if l == 0 else acts[l - 1]).T
        gb[l] = np.sum(delta, axis=1, keepdims=True)
        if reg.active:
            gW[l] = gW[l] + reg.grad(W[l])
        if l > 0:
            delta = (W[l].T @ delta) * objective.relu_deriv(zs[l - 1])
    return gW, gb


def _loss(W, z_last, data, arch) -> float:
    """Risk of the output logits ``z_last`` plus the regularizer of W."""
    val = objective.mean_risk(arch.risk, data.y).value(z_last)
    for w in W:  # one by one: sum() of floats compensates from Python 3.12 on
        val += arch.regularizer.value(w)
    return val


class _Updater:
    """Per-parameter state for the four optimizer rules."""

    def __init__(self, cfg: BaselineConfig, params):
        self.cfg = cfg
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        cfg = self.cfg
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            if cfg.optimizer == "gd":
                out.append(p - cfg.learning_rate * g)
            elif cfg.optimizer == "adagrad":
                self.v[i] += g * g
                out.append(p - cfg.learning_rate * g / (np.sqrt(self.v[i]) + EPS))
            elif cfg.optimizer == "adadelta":
                d = ADADELTA_DECAY
                self.v[i] = d * self.v[i] + (1 - d) * g * g
                upd = -np.sqrt(self.m[i] + EPS) / np.sqrt(self.v[i] + EPS) * g
                self.m[i] = d * self.m[i] + (1 - d) * upd * upd
                out.append(p + cfg.learning_rate * upd)
            else:  # adam
                self.m[i] = BETA1 * self.m[i] + (1 - BETA1) * g
                self.v[i] = BETA2 * self.v[i] + (1 - BETA2) * g * g
                mhat = self.m[i] / (1 - BETA1 ** self.t)
                vhat = self.v[i] / (1 - BETA2 ** self.t)
                out.append(p - cfg.learning_rate * mhat / (np.sqrt(vhat) + EPS))
        return out


def run_baseline(
    cfg: BaselineConfig,
    arch: MlpArchitecture,
    data: Dataset,
    eval_data: Dataset = None,
    trace_sink=None,
):
    """Trains by full-batch backprop; returns ((W, b), traces)."""
    rng, dims = Rng(cfg.seed), arch.layer_dims
    W = [objective.glorot(rng, (dims[l + 1], dims[l])) for l in range(len(dims) - 1)]
    b = [np.zeros((d, 1)) for d in dims[1:]]
    upd = _Updater(cfg, W + b)
    traces = []
    t0 = time.perf_counter()
    # the forward pass of the training data that gives one epoch's loss is
    # the one the next epoch's gradients start from
    forward = objective.forward(W, b, data.x)
    for it in range(1, cfg.epochs + 1):
        gW, gb = backprop_grads(W, b, data, arch, forward)
        del forward  # not kept alive while the next one is formed
        new = upd.step(W + b, gW + gb)
        W, b = new[: len(W)], new[len(W):]
        forward = objective.forward(W, b, data.x)
        z_last = forward[0][-1]
        test_acc = float("nan")
        if eval_data is not None:
            test_acc = accuracy(objective.forward_logits(W, b, eval_data.x), eval_data.y)
        trace = BaselineTrace(
            iter=it,
            loss=_loss(W, z_last, data, arch),
            train_acc=accuracy(z_last, data.y),
            test_acc=test_acc,
            wall_time=time.perf_counter() - t0,
        )
        traces.append(trace)
        if trace_sink is not None:
            trace_sink(trace)
        if not np.isfinite(trace.loss):
            raise DivergenceError(f"non-finite loss at epoch {it}", traces=traces)
    return (W, b), traces
