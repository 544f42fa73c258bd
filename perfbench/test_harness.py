"""Self-tests of the benchmark's bookkeeping on synthetic records; no
training runs. From the repository root:

    python3 -m pytest -q perfbench/test_harness.py
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracer  # noqa: E402
from harness import Epoch, Target  # noqa: E402


def ep(lagrangian=1.0, cert=0.0, residual=1.0, train_acc=0.5, test_acc=0.5):
    return Epoch(lagrangian, cert, residual, train_acc, test_acc)


# -- tail percentile -------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    samples = list(range(1, 26))  # 25 epochs, shuffled order must not matter
    samples.reverse()
    value, pct, n = harness.tail_percentile(samples)
    assert (value, pct, n) == (15, 60.0, 25)
    assert sum(s > value for s in samples) == 10


def test_tail_of_a_hundred_samples_is_p90():
    value, pct, n = harness.tail_percentile([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)


def test_tail_without_enough_samples_is_the_maximum():
    assert harness.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert harness.tail_percentile([1.0] * 10) == (1.0, 100.0, 10)
    assert harness.tail_percentile(list(range(11))) == (0, 100.0 / 11, 11)
    with pytest.raises(ValueError):
        harness.tail_percentile([])


def test_epoch_durations_start_at_the_call():
    assert harness.epoch_durations(10.0, [11.0, 11.5, 13.0]) == [1.0, 0.5, 1.5]


# -- time to target --------------------------------------------------------

def test_relative_target_crossing():
    epochs = [ep(residual=r) for r in (2.0, 0.5, 0.21, 0.2, 0.01)]
    assert harness.first_crossing(epochs, Target("residual", 0.1, relative=True)) == 3


def test_absolute_target_crossing():
    epochs = [ep(train_acc=a) for a in (0.1, 0.84, 0.85, 0.9)]
    assert harness.first_crossing(epochs, Target("train_acc", 0.85, relative=False)) == 2


def test_target_never_crossed():
    epochs = [ep(train_acc=a) for a in (0.1, 0.2, 0.3)]
    assert harness.first_crossing(epochs, Target("train_acc", 0.85, relative=False)) is None
    assert harness.first_crossing([], Target("residual", 0.1, relative=True)) is None
    nan_run = [ep(residual=1.0), ep(residual=math.nan)]
    assert harness.first_crossing(nan_run, Target("residual", 0.1, relative=True)) is None


# -- failure accounting ----------------------------------------------------

def test_raise_mid_run_fails_that_epoch_and_every_later_one():
    completed = [ep(lagrangian=v) for v in (3.0, 2.0, 1.0)]
    assert harness.failed_epochs(completed, attempted=10, monotone=True) == list(range(4, 11))


def test_raise_in_the_first_epoch_fails_the_whole_run():
    assert harness.failed_epochs([], attempted=5, monotone=False) == [1, 2, 3, 4, 5]


def test_non_finite_lagrangian_and_certificate_violation_fail():
    epochs = [ep(), ep(lagrangian=math.inf), ep(cert=2e-10), ep(cert=1e-10), ep(cert=math.nan)]
    assert harness.failed_epochs(epochs, attempted=5, monotone=False) == [2, 3, 5]


def test_lagrangian_rise_fails_only_where_monotone_is_required():
    epochs = [ep(lagrangian=v) for v in (2.0, 1.0, 1.0 + 5e-10, 1.0 + 5e-9)]
    assert harness.failed_epochs(epochs, attempted=4, monotone=True) == [4]
    assert harness.failed_epochs(epochs, attempted=4, monotone=False) == []


def test_more_epochs_than_attempted_is_an_error():
    with pytest.raises(ValueError):
        harness.failed_epochs([ep(), ep()], attempted=1, monotone=False)


# -- determinism and count repeat ------------------------------------------

@dataclass
class FakeTrace:
    iter: int
    lagrangian: float
    step_stats: dict
    wall_time: float


def test_canonical_ignores_wall_time_and_keeps_nan_equal():
    a = FakeTrace(1, math.nan, {("W", 0): 0.5}, wall_time=1.0)
    b = FakeTrace(1, math.nan, {("W", 0): 0.5}, wall_time=2.0)
    assert harness.canonical(a) == harness.canonical(b)
    assert harness.fingerprint([a]) == harness.fingerprint([b])


def test_first_difference_finds_the_last_bit():
    x = [FakeTrace(i, 1.0, {}, 0.0) for i in (1, 2, 3)]
    y = [FakeTrace(1, 1.0, {}, 0.0), FakeTrace(2, 1.0 + 2.0**-52, {}, 0.0)]
    cx, cy = [harness.canonical(t) for t in x], [harness.canonical(t) for t in y]
    assert harness.first_difference(cx, cy) == 2
    assert harness.first_difference(cx, cx[:2]) is None


def _recorder(trials_in_epoch_two):
    rec = tracer.Recorder()
    rec.add("objective.linear_residual", 0.01, None, None)
    rec.add("solvers.backtrack_quadratic", 0.02, SimpleNamespace(trials=2), "trials")
    rec.end_epoch()
    rec.add("solvers.backtrack_quadratic", 0.02, SimpleNamespace(trials=trials_in_epoch_two), "trials")
    rec.add("solvers.fista_minimize", 0.03, SimpleNamespace(iterations=100, converged=False), "fista")
    rec.end_epoch()
    return rec


def test_counts_repeat_passes_on_equal_counts_despite_times():
    a, b = _recorder(3), _recorder(3)
    b.epochs[0]["objective.linear_residual"][1] = 9.0  # times may differ
    assert harness.assert_counts_repeat(a.counts(), b.counts()) == 2


def test_counts_repeat_compares_the_common_prefix():
    short = _recorder(3)
    short.epochs = short.epochs[:1] + [{}]
    assert harness.assert_counts_repeat(short.counts(), _recorder(4).counts()) == 1


def test_counts_repeat_names_the_epoch_and_counter_that_differ():
    with pytest.raises(harness.CountMismatch, match=r"epoch 2: solvers.backtrack_quadratic"):
        harness.assert_counts_repeat(_recorder(3).counts(), _recorder(4).counts())
    with pytest.raises(harness.CountMismatch):
        harness.assert_counts_repeat([], _recorder(3).counts())


# -- per-layer metrics -----------------------------------------------------

def test_per_layer_metrics_from_a_synthetic_recorder():
    rec = _recorder(3)
    setup = tracer.Recorder()
    for seconds in (0.3, 0.5):
        setup.add("synth.make_image_classes", seconds, None, None)
        setup.end_epoch()
    m = tracer.per_layer_metrics(rec, setup, durations=[1.0, 1.0], epoch_p50=1.0)
    assert [name for name, _, _ in tracer.PER_LAYER] == list(m)
    assert m["objective.linear_residual.calls_per_epoch"] == 0.5
    assert m["solvers.backtrack_quadratic.calls_per_epoch"] == 1.0
    assert m["solvers.backtrack_quadratic.trials_per_epoch"] == 2.5
    assert m["solvers.backtrack_quadratic.accept_ratio"] == 2 / 5
    assert m["solvers.fista_minimize.iters_per_epoch"] == 50.0
    assert m["solvers.fista_minimize.converged_frac"] == 0.0
    assert m["synth.make_image_classes.s"] == pytest.approx(0.4)
    assert m["training.diagnostics.s"] == 0.0  # no sweeps ran
    assert m["gcn.propagated.calls_per_epoch"] == 0.0


def test_diagnostics_are_the_epoch_outside_the_sweeps():
    rec = tracer.Recorder()
    rec.add("training.backward_sweep", 0.4, None, None)
    rec.add("training.forward_sweep", 0.4, None, None)
    rec.end_epoch()
    setup = tracer.Recorder()
    setup.end_epoch()
    m = tracer.per_layer_metrics(rec, setup, durations=[1.0], epoch_p50=1.0)
    assert m["training.diagnostics.s"] == pytest.approx(0.2)
    assert m["training.diagnostics.share"] == pytest.approx(0.2)


# -- the spec file matches the code ----------------------------------------

def test_benchmark_json_lists_what_run_py_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    run.import_package()
    import workloads

    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for name in (w["name"] for w in spec["workloads"]):
        w = workloads.WORKLOADS[name]  # training planned for a run fits run_seconds
        calls = w.calls_for(spec["run_seconds"])
        assert calls * w.epochs * w.nominal_epoch_s <= 1.1 * spec["run_seconds"]
        assert calls % w.datasets == 0 and calls // w.datasets >= workloads.MIN_CALLS
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_quartile_spread():
    s = harness.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0 and s["spread"] == pytest.approx((s["q3"] - s["q1"]) / 3.0)
