"""The names perfbench's tracer wraps must exist in the package.

The tracer replaces module attributes by name when a traced benchmark run
starts, so a refactor that drops one of those imports otherwise surfaces
only in a ``--trace 1`` run.  The tracer module is loaded by path, since
``perfbench/`` is not a package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_wrapped_name_is_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being built.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    wrapped = tracing.WRAPPED
    assert wrapped
    missing = [f"{module}.{attribute}" for module, attribute, _ in wrapped
               if not callable(getattr(importlib.import_module(module),
                                       attribute, None))]
    assert missing == []
