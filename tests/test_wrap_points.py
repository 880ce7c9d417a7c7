"""The benchmark's wrap points still name functions of the package.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` in its ``WRAPS``
at run time; a deleted or renamed target would only fail there. The tracer
imports only the standard library, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPS


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _, _ in _wraps()}))
def test_wrap_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module("multihop." + module), attr))
