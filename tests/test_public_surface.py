"""Every exported name resolves, so a deletion cannot leave a stale export;
importing clp leaves scipy unloaded, and the symmetry check loads only
scipy's special functions."""

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


def _fresh_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clp.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_leaves_scipy_unloaded():
    # scipy serves only check_symmetry's chi-square tail, so the coders and
    # the CLI start without any of it
    code = ("import sys, clp, clp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code).strip() == "[]"


def test_symmetry_check_loads_scipy_special_only():
    # the chi-square tail comes from scipy.special; scipy.stats would load
    # hundreds more modules and roughly double a lemma process's memory
    code = ("import sys; from clp.harness import ExperimentConfig, check_symmetry; "
            "r = check_symmetry(ExperimentConfig(trials=20, build_n=256, workers=1)); "
            "print(r.passed, 'scipy.special' in sys.modules, 'scipy.stats' in sys.modules)")
    assert _fresh_python(code).split() == ["True", "True", "False"]


def test_benchmark_trace_targets_resolve(monkeypatch):
    # perfbench --trace patches these attributes by name; a rename under
    # src/ must fail here, not only in the benchmark
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    bench_trace = importlib.import_module("bench_trace")
    traced = {name for _, _, name in bench_trace.attribute_sites()}
    assert traced == {name for name, _, _ in bench_trace.TARGETS}
