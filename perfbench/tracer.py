"""Per-layer tracing from outside the package.

Each traced function is replaced, for the length of a run, at the module
attribute its callers resolve: ``training`` imports ``backtrack_quadratic``
by name, so the wrapper goes on ``training.backtrack_quadratic``, while
``objective`` calls ``linear_residual`` through its own globals, so the
wrapper goes on ``objective.linear_residual``. Functions that several
modules import are wrapped at each of them under one metric name.

``linalg``, ``activations`` and ``errors`` are not wrapped: their helpers
run thousands of times per epoch, their cost belongs to their callers, and
a wrapper per call would swamp what it measures.
"""
from __future__ import annotations

import importlib
import time

# (module, attribute, metric, what the result carries)
TARGETS = [
    ("objective", "linear_residual", "objective.linear_residual", None),
    ("objective", "lagrangian", "objective.lagrangian", None),
    ("objective", "grad_phi_block", "objective.grad_phi_block", None),
    ("objective", "objective_F", "objective.objective_F", None),
    ("objective", "forward_logits", "objective.forward_logits", None),
    ("training", "backward_sweep", "training.backward_sweep", None),
    ("training", "forward_sweep", "training.forward_sweep", None),
    ("training", "backtrack_quadratic", "solvers.backtrack_quadratic", "trials"),
    ("gcn", "backtrack_quadratic", "solvers.backtrack_quadratic", "trials"),
    ("solvers", "fista_minimize", "solvers.fista_minimize", "fista"),
    ("gcn", "fista_minimize", "solvers.fista_minimize", "fista"),
    ("training", "solve_z_last", "solvers.solve_z_last", None),
    ("training", "solve_z_relu", "solvers.solve_z_relu", None),
    ("gcn", "gcn_iteration", "gcn.gcn_iteration", None),
    ("gcn", "propagated", "gcn.propagated", None),
    ("gcn", "grad_psi_block", "gcn.grad_psi_block", None),
    ("gcn", "lagrangian", "gcn.lagrangian", None),
    ("gcn", "gcn_accuracy", "gcn.gcn_accuracy", None),
    ("gcn", "normalize_adjacency", "gcn.normalize_adjacency", None),
    ("synth", "make_image_classes", "synth.make_image_classes", None),
    ("synth", "make_sbm_graph", "synth.make_sbm_graph", None),
    ("data_io", "write_idx_images", "data_io.write", None),
    ("data_io", "write_idx_labels", "data_io.write", None),
    ("data_io", "save_graph", "data_io.write", None),
    ("data_io", "load_idx_dataset", "data_io.load", None),
    ("data_io", "load_graph", "data_io.load", None),
    ("baselines", "backprop_grads", "baselines.backprop_grads", None),
]


class Recorder:
    """Calls, seconds and solver counts per epoch of one training call, or
    per set-up. ``epochs[i][metric]`` is ``[calls, seconds, work, ok]``:
    work is backtracking trials or FISTA iterations, ok is converged solves."""

    def __init__(self):
        self.epochs = [{}]

    def add(self, metric: str, seconds: float, result, kind) -> None:
        row = self.epochs[-1].setdefault(metric, [0, 0.0, 0, 0])
        row[0] += 1
        row[1] += seconds
        if kind == "trials":
            row[2] += result.trials
        elif kind == "fista":
            row[2] += result.iterations
            row[3] += bool(result.converged)

    def end_epoch(self) -> None:
        self.epochs.append({})

    def closed_epochs(self) -> list:
        """Epochs ended by ``end_epoch``; work after the last one (none, in
        a normal run) is not an epoch."""
        return self.epochs[:-1]

    def counts(self) -> list:
        """Per closed epoch, the integer counts only, for the repeat check."""
        return [
            {m: (r[0], r[2], r[3]) for m, r in ep.items()}
            for ep in self.closed_epochs()
        ]

    def total(self, metric: str) -> list:
        out = [0, 0.0, 0, 0]
        for ep in self.closed_epochs():
            for i, v in enumerate(ep.get(metric, ())):
                out[i] += v
        return out


class Tracer:
    """Installs the wrappers; every call they see goes to ``recorder``."""

    def __init__(self):
        self.recorder = None
        self._saved = []

    def install(self) -> None:
        for mod_name, attr, metric, kind in TARGETS:
            mod = importlib.import_module(f"admmnet.{mod_name}")
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, metric, kind))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def _wrap(self, fn, metric, kind):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            if self.recorder is not None:
                self.recorder.add(metric, dt, out, kind)
            return out

        traced.__wrapped__ = fn
        return traced


# name, unit, better; the order is the output order.
PER_LAYER = [
    ("trace.epoch_s_p50", "s", "lower"),
    ("objective.linear_residual.calls_per_epoch", "count/epoch", "lower"),
    ("objective.linear_residual.s", "s/epoch", "lower"),
    ("objective.lagrangian.calls_per_epoch", "count/epoch", "lower"),
    ("objective.lagrangian.s", "s/epoch", "lower"),
    ("objective.grad_phi_block.calls_per_epoch", "count/epoch", "lower"),
    ("objective.grad_phi_block.s", "s/epoch", "lower"),
    ("objective.objective_F.s", "s/epoch", "lower"),
    ("objective.forward_logits.s", "s/epoch", "lower"),
    ("training.diagnostics.s", "s/epoch", "lower"),
    ("training.diagnostics.share", "ratio", "lower"),
    ("training.backward_sweep.s", "s/epoch", "lower"),
    ("training.forward_sweep.s", "s/epoch", "lower"),
    ("solvers.fista_minimize.s", "s/epoch", "lower"),
    ("solvers.fista_minimize.iters_per_epoch", "count/epoch", "lower"),
    ("solvers.fista_minimize.converged_frac", "ratio", "higher"),
    ("solvers.solve_z_last.s", "s/epoch", "lower"),
    ("solvers.backtrack_quadratic.calls_per_epoch", "count/epoch", "lower"),
    ("solvers.backtrack_quadratic.trials_per_epoch", "count/epoch", "lower"),
    ("solvers.backtrack_quadratic.s", "s/epoch", "lower"),
    ("solvers.backtrack_quadratic.accept_ratio", "ratio", "higher"),
    ("solvers.solve_z_relu.s", "s/epoch", "lower"),
    ("gcn.gcn_iteration.s", "s/epoch", "lower"),
    ("gcn.propagated.calls_per_epoch", "count/epoch", "lower"),
    ("gcn.propagated.s", "s/epoch", "lower"),
    ("gcn.grad_psi_block.calls_per_epoch", "count/epoch", "lower"),
    ("gcn.grad_psi_block.s", "s/epoch", "lower"),
    ("gcn.lagrangian.s", "s/epoch", "lower"),
    ("gcn.gcn_accuracy.s", "s/epoch", "lower"),
    ("gcn.normalize_adjacency.s", "s", "lower"),
    ("synth.make_image_classes.s", "s", "lower"),
    ("synth.make_sbm_graph.s", "s", "lower"),
    ("data_io.write.s", "s", "lower"),
    ("data_io.load.s", "s", "lower"),
    ("baselines.backprop_grads.s", "s/epoch", "lower"),
    ("baselines.other.s", "s/epoch", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(train: Recorder, setup: Recorder, durations: list,
                      epoch_p50: float) -> dict:
    """Per-layer values of one traced run. Per-epoch values average over
    the epochs of all training calls; set-up values average over the
    set-ups, one closed epoch of ``setup`` each;
    ``gcn.normalize_adjacency.s`` is the one-off cost per training call."""
    n = len(durations)
    epoch_s = sum(durations)
    out = {"trace.epoch_s_p50": epoch_p50}

    def per_epoch(metric):
        calls, secs, work, ok = train.total(metric)
        return calls / n, secs / n, work / n, _ratio(ok, calls)

    for name in ("objective.linear_residual", "objective.lagrangian",
                 "objective.grad_phi_block", "gcn.propagated", "gcn.grad_psi_block"):
        calls, secs, _, _ = per_epoch(name)
        out[f"{name}.calls_per_epoch"] = calls
        out[f"{name}.s"] = secs
    for name in ("objective.objective_F", "objective.forward_logits",
                 "training.backward_sweep", "training.forward_sweep",
                 "solvers.solve_z_last", "solvers.solve_z_relu",
                 "gcn.gcn_iteration", "gcn.lagrangian", "gcn.gcn_accuracy",
                 "baselines.backprop_grads"):
        out[f"{name}.s"] = per_epoch(name)[1]

    sweeps = out["training.backward_sweep.s"] + out["training.forward_sweep.s"]
    is_admm_mlp = sweeps > 0.0
    diag = epoch_s / n - sweeps if is_admm_mlp else 0.0
    out["training.diagnostics.s"] = diag
    out["training.diagnostics.share"] = _ratio(diag, epoch_s / n) if is_admm_mlp else 0.0

    calls, secs, iters, conv = per_epoch("solvers.fista_minimize")
    out["solvers.fista_minimize.s"] = secs
    out["solvers.fista_minimize.iters_per_epoch"] = iters
    out["solvers.fista_minimize.converged_frac"] = conv

    calls, secs, trials, _ = per_epoch("solvers.backtrack_quadratic")
    out["solvers.backtrack_quadratic.calls_per_epoch"] = calls
    out["solvers.backtrack_quadratic.trials_per_epoch"] = trials
    out["solvers.backtrack_quadratic.s"] = secs
    out["solvers.backtrack_quadratic.accept_ratio"] = _ratio(calls, trials)

    calls, secs, _, _ = train.total("gcn.normalize_adjacency")
    out["gcn.normalize_adjacency.s"] = _ratio(secs, calls)
    for name in ("synth.make_image_classes", "synth.make_sbm_graph",
                 "data_io.write", "data_io.load"):
        out[f"{name}.s"] = setup.total(name)[1] / len(setup.closed_epochs())

    grads = out["baselines.backprop_grads.s"]
    out["baselines.other.s"] = epoch_s / n - grads if grads > 0.0 else 0.0
    return {name: out[name] for name, _, _ in PER_LAYER}
