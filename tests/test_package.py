"""The package's public names: ``admmnet.__all__`` is what ``from admmnet
import *`` gives, and every name in it resolves.  The formulas take their
caches as required arguments and no parameter they do not read, each run
builds its risk once, and the package imports nothing beyond the standard
library and numpy."""
import ast
import importlib.util
import inspect
import pathlib
import re
import sys

import pytest

import admmnet
from admmnet import baselines, gcn, objective, training
from admmnet.linalg import Rng
from admmnet.objective import MlpArchitecture
from admmnet.synth import make_image_classes, make_sbm_graph

SOURCES = sorted(pathlib.Path(admmnet.__file__).parent.glob("*.py"))
TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    for name in admmnet.__all__:
        assert getattr(admmnet, name, None) is not None, name


def test_star_import():
    names = {}
    exec("from admmnet import *", names)
    assert set(admmnet.__all__) <= set(names)


def test_relu_is_no_type():
    """ReLU is the function ``objective.relu``, not an exported object."""
    named = [n for n in dir(admmnet) if "activation" in n.lower() or n.lower() == "relu"]
    assert named == []
    assert importlib.util.find_spec("admmnet.activations") is None


def test_caches_are_required_arguments():
    """A formula that reads the residuals R, the propagations ``props``, a
    forward pass, a residual r or the run's risk takes them from its caller:
    a call that leaves one out fails instead of quietly forming it
    afresh."""
    for module in (objective, gcn, training, baselines):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            for param in inspect.signature(fn).parameters.values():
                if param.name in ("R", "props", "forward", "r", "risk"):
                    assert param.default is param.empty, f"{module.__name__}.{name}: {param}"


def test_every_parameter_is_read():
    """Each parameter of each ``def`` is read in its body, directly or by a
    nested function; a lambda's signature is a callback protocol and is
    exempt."""
    unread = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            if "super" in read:  # super() without arguments reads the first one
                read.add(params[0].arg)
            unread += [f"{path.name}:{node.lineno} {node.name}({p.arg})"
                       for p in params if p is not None and p.arg not in read]
    assert unread == []


def test_every_import_is_used():
    """Each name a module imports is read in that module, re-exported
    through its ``__all__``, or a target that perfbench/tracer.py wraps on
    that module; an import kept for the tracer alone goes once the tracer
    stops wrapping it."""
    tracer = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(tracer)
    tracer.loader.exec_module(module)
    wrapped = {(mod, attr) for mod, attr, _, _ in module.TARGETS}
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        nodes = list(ast.walk(tree))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read.add("annotations")  # from __future__: a compiler directive
        read |= {e.value for n in nodes if isinstance(n, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in n.targets)
                 for e in n.value.elts}
        for node in nodes:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and (path.stem, name) not in wrapped:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_imports_only_declared_dependencies():
    """The package imports the standard library, numpy (its one runtime
    dependency in pyproject.toml) and itself; a module that is merely
    installed alongside, such as scipy, would break an install."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "admmnet"}
    found = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert found - allowed == set()


def test_gcn_train_builds_one_masked_risk(monkeypatch):
    """One ``gcn_train`` call builds its masked risk once; every iteration
    runs under it."""
    built = []
    real = gcn.masked_ce

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(gcn, "masked_ce", counting)
    cfg = gcn.GcnConfig(hidden_dims=(4,), rho=1.0, mu=1.0, epochs=3)
    gcn.gcn_train(make_sbm_graph(40, rng=Rng(2)), cfg)
    assert len(built) == 1


MLP_RUNS = {
    "admm": lambda arch, data: training.train(
        arch, data, training.TrainConfig(rho=1.0, nu=1.0, epochs=4)),
    "adam": lambda arch, data: baselines.run_baseline(
        baselines.BaselineConfig("adam", 1e-3, 4), arch, data),
}


@pytest.mark.parametrize("run", MLP_RUNS)
def test_mlp_run_builds_one_risk(run, monkeypatch):
    """One ``train`` or ``run_baseline`` call builds its risk once; its
    output solves, objective_F, Lagrangian, gradients and losses all read
    it."""
    built = []
    real = objective.mean_risk

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(objective, "mean_risk", counting)
    data = make_image_classes(200, n_pixels=16, n_classes=10, rng=Rng(1))[0]
    MLP_RUNS[run](MlpArchitecture(layer_dims=(16, 8, 10)), data)
    assert len(built) == 1


@pytest.mark.parametrize("run", MLP_RUNS)
def test_mlp_run_forms_each_log_softmax_once(run, monkeypatch):
    """Within one run no output point's log-softmax is formed twice: the
    one risk's memo serves every formula that evaluates it at the same
    point.  The points are held, so no id is reused."""
    points = []
    real = objective._log_softmax

    def recording(z):
        points.append(z)
        return real(z)

    monkeypatch.setattr(objective, "_log_softmax", recording)
    data = make_image_classes(200, n_pixels=16, n_classes=10, rng=Rng(1))[0]
    MLP_RUNS[run](MlpArchitecture(layer_dims=(16, 8, 10)), data)
    repeats = len(points) - len({id(z) for z in points})
    assert points and repeats == 0, f"{repeats} of {len(points)} points repeat"


def test_only_the_runs_build_risks():
    """``mean_risk`` and ``masked_ce`` are called only where a run starts
    (and by the self-check), and ``masked_ce`` builds on ``mean_risk``:
    every formula takes the run's risk."""
    builders, callers = ("mean_risk", "masked_ce"), set()
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            calls = [n.func for n in ast.walk(top) if isinstance(n, ast.Call)]
            if any(getattr(f, "attr", getattr(f, "id", None)) in builders for f in calls):
                callers.add(top.name)
    assert callers == {"train", "run_baseline", "gcn_train", "selfcheck", "masked_ce"}


def test_one_switch_over_risk_kinds():
    """``objective.mean_risk`` is the one place that tells the risk kinds
    apart, and ``MlpArchitecture.__post_init__`` the one that checks a kind
    name: no other comparison in the package has "squared" or
    "cross_entropy" as an operand, alone or in a tuple."""
    kinds = {"squared", "cross_entropy"}

    def literals(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return {n.value for n in items if isinstance(n, ast.Constant)}

    def switches(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Compare) and any(
                literals(op) & kinds for op in (node.left, *node.comparators)):
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from switches(child, scope)

    found = {f"{path.stem}.{scope}" for path in SOURCES
             for scope in switches(ast.parse(path.read_text()), "")}
    assert found == {"objective.mean_risk", "objective.MlpArchitecture.__post_init__"}


def test_readme_code_map_names_every_module():
    """README's code map names exactly the package's modules, so none is
    added or deleted without it."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Code map", 1)[1].split("\n## ", 1)[0]
    entries = re.findall(r"^- (.+?) —", section, re.M)
    named = {name for entry in entries for name in re.findall(r"`(\w+)`", entry)}
    assert named == {path.stem for path in SOURCES} - {"__init__"}
