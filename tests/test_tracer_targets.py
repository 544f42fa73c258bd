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
