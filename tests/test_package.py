"""The package's public names: ``admmnet.__all__`` is what ``from admmnet
import *`` gives, and every name in it resolves.  The formulas take their
caches as required arguments."""
import importlib.util
import inspect

import admmnet
from admmnet import baselines, gcn, objective, training


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
    """A formula that reads the products P, the propagations ``props``, a
    forward pass or a residual r takes them from its caller: a call that
    leaves one out fails instead of quietly forming it afresh."""
    for module in (objective, gcn, training, baselines):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            for param in inspect.signature(fn).parameters.values():
                if param.name in ("P", "props", "forward", "r"):
                    assert param.default is param.empty, f"{module.__name__}.{name}: {param}"
