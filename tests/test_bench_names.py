"""The traced benchmark looks package functions up by name; every name it
lists must exist, so a rename or deletion fails here rather than in a
benchmark run."""

import importlib
import importlib.util
import pathlib

import pytest

import tsgseg.tensor

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("op", sorted(set(tracing.OPS) | set(tracing.TIMED_OPS)))
def test_op_exists(op):
    assert callable(getattr(tsgseg.tensor, op, None)), f"tsgseg.tensor has no {op}"


@pytest.mark.parametrize("span,mod,cls,attr", tracing.LAYERS,
                         ids=[f"{s}:{a}" for s, _, _, a in tracing.LAYERS])
def test_layer_resolves(span, mod, cls, attr):
    # Resolved the way Tracer.install does: methods from the class's own
    # namespace, functions from the module.
    module = importlib.import_module(f"tsgseg.{mod}")
    if cls is None:
        assert callable(getattr(module, attr, None))
    else:
        owner = getattr(module, cls)
        assert callable(owner.__dict__.get(attr))
