"""The benchmark's traced mode wraps admmnet functions at the module
attribute each caller resolves (perfbench/tracer.py). A refactor that
renames or removes one of those attributes would make the traced run fail
or silently stop attributing time, so every target must still resolve."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_is_a_callable_attribute():
    targets = load_tracer().TARGETS
    assert targets
    for mod_name, attr, _, _ in targets:
        module = importlib.import_module(f"admmnet.{mod_name}")
        assert callable(getattr(module, attr, None)), f"admmnet.{mod_name}.{attr}"


def test_each_trainer_calls_its_targets():
    """A target that still resolves can stop being called through its
    module attribute (say, when the driver moves and a call starts to
    resolve through another module); its metric would then read 0."""
    from admmnet import baselines, gcn, training
    from admmnet.linalg import Rng
    from admmnet.objective import MlpArchitecture
    from admmnet.synth import make_sbm_graph, make_separable

    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    data = make_separable(20, rng=Rng(0))
    arch = MlpArchitecture(layer_dims=(4, 6, 2))
    runs = {
        "mlp": lambda: training.train(arch, data, training.TrainConfig(rho=1.0, nu=1.0, epochs=2)),
        "gcn": lambda: gcn.gcn_train(make_sbm_graph(30, rng=Rng(0)),
                                     gcn.GcnConfig(hidden_dims=(4,), rho=1.0, mu=1.0, epochs=2)),
        "adam": lambda: baselines.run_baseline(
            baselines.BaselineConfig(optimizer="adam", learning_rate=1e-3, epochs=2), arch, data),
    }
    expected = {
        "mlp": ["training.backward_sweep", "training.forward_sweep", "solvers.backtrack_quadratic",
                "solvers.solve_z_last", "solvers.solve_z_relu", "objective.forward_logits"],
        "gcn": ["gcn.gcn_iteration", "gcn.propagated", "gcn.grad_psi_block", "gcn.lagrangian",
                "gcn.gcn_accuracy", "solvers.backtrack_quadratic", "solvers.fista_minimize"],
        "adam": ["baselines.backprop_grads"],
    }
    tracer.install()
    try:
        for name, run in runs.items():
            tracer.recorder = tracer_module.Recorder()
            run()
            tracer.recorder.end_epoch()
            for metric in expected[name]:
                assert tracer.recorder.total(metric)[0] >= 1, f"{name}: {metric}"
    finally:
        tracer.recorder = None
        tracer.uninstall()
