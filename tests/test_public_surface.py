"""The public surface: exports resolve, every export has a caller outside
the tests, every name the benchmark looks up exists, demos run, the
README example holds, and the runtime needs numpy only."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orbitcov

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["orbitcov"] + [f"orbitcov.{info.name}" for info in pkgutil.iter_modules(orbitcov.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def referenced_names(path: Path) -> set[str]:
    """Names a file imports, reads as bare identifiers or looks up by an
    exact string. Attributes do not count: `law.visibility_probability`
    is another object than a module-level function of that name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    # a public name that only the tests use belongs in the tests
    package = ROOT / "src" / "orbitcov"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = {path.resolve(): referenced_names(path) for path in sources}
    uncalled = []
    for name in orbitcov.__all__:
        obj = getattr(orbitcov, name)
        if name == "__version__" or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        defining = Path(sys.modules[obj.__module__].__file__).resolve()
        if not any(name in names for path, names in used.items() if path != defining):
            uncalled.append(name)
    assert uncalled == []


def lookup_names(path: Path) -> set[str]:
    """The string names a file passes to `lookup(module, name)`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "lookup":
            name = node.args[1]
            assert isinstance(name, ast.Constant) and isinstance(name.value, str), ast.dump(node)
            names.add(name.value)
    return names


def test_every_benchmark_lookup_resolves():
    # the benchmark reaches private and unexported names by string, so a
    # rename in the package would otherwise fail only its own smoke run
    names = set().union(*(lookup_names(path) for path in (ROOT / "perfbench").glob("*.py")))
    modules = [importlib.import_module(name) for name in MODULES]
    assert names
    assert sorted(name for name in names if not any(hasattr(module, name) for module in modules)) == []


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


def test_readme_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library in one minute", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    stated = float(re.search(r"^\)\s+#\s*([0-9.]+)\s*$", block, re.M).group(1))
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["p"] == pytest.approx(stated, abs=5e-5)


def modules_after(code: str = "import orbitcov.cli") -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    code += "\nimport sys; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_cli_imports_no_scipy():
    assert [m for m in modules_after() if m.split(".")[0] == "scipy"] == []


def test_cli_imports_only_what_every_verb_runs(tmp_path):
    # `validate` imports the criteria; a simulation on two threads starts
    # plain threads, and so imports no executor
    loaded = modules_after()
    assert "orbitcov.cli" in loaded
    assert loaded.isdisjoint({"orbitcov.validation", "concurrent.futures"})
    scenario = tmp_path / "two_batches.json"
    orbit = {"altitude_km": 500.0, "theta_deg": 90.0, "density_per_km": 0.005}
    mc = {"trials": 2000, "seed": 3, "batch": 1000}
    scenario.write_text(json.dumps({"scenario_id": "two_batches", "orbits": [orbit], "mc": mc}))
    argv = ["coverage", "--config", str(scenario), "--out", str(tmp_path)]
    code = f"from orbitcov import cli, montecarlo\nmontecarlo._usable_cpus = lambda: 2\nassert cli.main({argv!r}) == 0"
    loaded = modules_after(code)
    assert "orbitcov.montecarlo" in loaded and "concurrent.futures" not in loaded
