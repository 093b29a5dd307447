"""The names perfbench reads or wraps must exist in the package.

The tracer replaces module attributes by name when a traced benchmark run
starts, so a refactor that drops one of those imports otherwise surfaces
only in a ``--trace 1`` run.  The tracer module is loaded by path, since
``perfbench/`` is not a package.  A short in-process run of every workload
in both modes also reaches the attributes perfbench reads off results.
"""

import ast
import importlib
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

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


BENCH = TRACING.with_name("bench.py")
BENCH_MODULES = ("arrays", "cli", "harness", "pipeline", "reports", "solver",
                 "subbands")


def test_every_name_the_bench_reads_exists():
    """``bench.py`` reads ``<module>.<name>`` off the nuvdoa modules it
    imports; a name a refactor drops otherwise surfaces only as a failed
    benchmark run."""
    tree = ast.parse(BENCH.read_text())
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in BENCH_MODULES}
    assert ("pipeline", "load_default_error_table") in read
    missing = sorted(f"{module}.{name}" for module, name in read
                     if not hasattr(importlib.import_module(f"nuvdoa.{module}"),
                                    name))
    assert missing == []


PERFBENCH = TRACING.parent
BENCHMARK = PERFBENCH.parent / "BENCHMARK.json"
BENCH_WORKLOADS = sorted(path.stem for path in
                         (PERFBENCH / "workloads").glob("*.yaml"))


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """perfbench's ``bench`` module, imported from ``perfbench/``, writing
    its results under ``tmp_path`` and leaving no module patched."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    own = ("bench", "checks", "tracing")
    for name in own:
        monkeypatch.delitem(sys.modules, name, raising=False)
    module = importlib.import_module("bench")
    for module_name, attribute, _ in module.tracing.WRAPPED:
        target = importlib.import_module(module_name)
        monkeypatch.setattr(target, attribute, getattr(target, attribute))
    shutil.copytree(PERFBENCH / "workloads", tmp_path / "workloads")
    monkeypatch.setattr(module, "HERE", tmp_path)
    yield module
    for name in own:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_bench_run_is_clean_and_prints_the_declared_metrics(bench, workload,
                                                            trace):
    """One in-process benchmark run per workload and mode: the attributes
    it reads off results exist, no trial fails, and it prints exactly the
    metrics BENCHMARK.json declares for the mode."""
    _, failed, problems, metrics = bench.run(workload, 0, 0.01, bool(trace), 0.0)
    assert failed == 0
    assert problems == []
    declared = json.loads(BENCHMARK.read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    assert sorted(metrics) == sorted(m["name"] for m in section)
