"""Every exported name resolves, so a deletion cannot leave a stale export,
and importing clp leaves scipy unloaded."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import clp

MODULES = ["clp"] + [f"clp.{m.name}" for m in pkgutil.iter_modules(clp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate export"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_import_leaves_scipy_unloaded():
    # scipy serves only check_symmetry, so the coders and the CLI start without it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clp.__file__)))
    code = "import sys, clp, clp.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_benchmark_trace_targets_resolve(monkeypatch):
    # perfbench --trace patches these attributes by name; a rename under
    # src/ must fail here, not only in the benchmark
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    bench_trace = importlib.import_module("bench_trace")
    traced = {name for _, _, name in bench_trace.attribute_sites()}
    assert traced == {name for name, _, _ in bench_trace.TARGETS}
