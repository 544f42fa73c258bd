"""The package's public names: ``admmnet.__all__`` is what ``from admmnet
import *`` gives, and every name in it resolves."""
import importlib.util

import admmnet


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
