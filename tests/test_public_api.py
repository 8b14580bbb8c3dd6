"""Every exported name resolves: no ``__all__`` entry and no package-level
name points at a function that is gone.  Each entry point loads only the
modules it runs."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import twistrank

MODULES = sorted(m.name for m in pkgutil.iter_modules(twistrank.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"twistrank.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(mod, n)] == []


def test_package_imports_resolve():
    # the package re-exports lazily, from its name -> module table
    exported = twistrank._EXPORTS
    assert exported
    assert sorted(twistrank.__all__) == sorted(exported)
    listed = dir(twistrank)
    for name, module in exported.items():
        source = importlib.import_module(f"twistrank.{module}")
        assert getattr(twistrank, name) is getattr(source, name), (module, name)
        assert name in source.__all__, (module, name)
        assert name in listed, name
    with pytest.raises(AttributeError):
        twistrank.no_such_name


@pytest.mark.parametrize(
    "statement, modules",
    [
        ("import twistrank.cli", ["arith", "cli"]),
        ("import twistrank.verification_lab", ["arith", "kernel", "verification_lab"]),
        ("from twistrank import kronecker", ["arith"]),
        ("import twistrank; twistrank.curve.cpm", ["arith", "curve"]),
    ],
    ids=["cli", "verification_lab", "kronecker", "submodule"],
)
def test_import_footprint(statement, modules):
    probe = f"""
import json, sys
{statement}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("twistrank", "scipy"))))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(twistrank.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [m for m in loaded if m.startswith("twistrank")] == ["twistrank"] + [
        f"twistrank.{m}" for m in modules
    ]
    assert "scipy.integrate" not in loaded


def test_kronecker_named_by_arith_and_verification_lab_only():
    # every other module reads (r|p) off arith's residue tables; the scalar
    # symbol is the public name and the reference side of verify's identities
    src = Path(twistrank.__file__).resolve().parent
    naming = {
        path.stem
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        # identifiers: names, attributes, imports and definitions, not strings
        if "kronecker" in (getattr(node, field, None) for field in ("id", "attr", "name"))
    }
    assert naming == {"arith", "verification_lab"}
