"""Which modules load, and that every subcommand runs, in a fresh process.

In-process tests cannot see a missing import inside a subcommand: by the
time they run, earlier tests have loaded every module.  Each case here starts
its own interpreter.  One more test reads the source alone: every private
module-level name has a caller.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twostate.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
       "COLUMNS": "100"}  # --help wraps at the terminal's width, so both sides get the same one


def fresh(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, timeout=120)


def loaded_after(statement: str) -> set[str]:
    """The twostate submodules a fresh interpreter holds after ``statement``."""
    proc = fresh("-c", f"{statement}\nimport sys, json\n"
                 "print(json.dumps([m for m in sys.modules if m.startswith('twostate.')]))")
    assert proc.returncode == 0, proc.stderr.decode()
    return {name.removeprefix("twostate.") for name in json.loads(proc.stdout)}


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import twostate") == set()


def test_an_abl_query_loads_only_the_rules_and_what_they_read():
    assert loaded_after("import twostate\ntwostate.abl_probabilities") == {"algebra", "rules", "errors"}


def test_importing_the_cli_loads_no_layer():
    assert loaded_after("from twostate import cli") == {"cli", "errors"}


def test_every_exported_name_is_the_defining_modules_object():
    proc = fresh("-c", """
import importlib, sys, types
import twostate

names = {}
exec("from twostate import *", names)
for name in twostate.__all__:
    value = getattr(twostate, name)
    if isinstance(value, types.ModuleType):
        assert value is importlib.import_module(f"twostate.{name}"), name
    else:
        assert value is getattr(sys.modules[value.__module__], name), name
        assert value.__module__.startswith("twostate."), name
    assert names[name] is value, name
assert set(twostate.__all__) <= set(dir(twostate))
assert twostate.simulate is twostate.montecarlo.simulate
""")
    assert proc.returncode == 0, proc.stderr.decode()


def test_an_unknown_name_raises_the_standard_attribute_error():
    import twostate

    with pytest.raises(AttributeError, match="^module 'twostate' has no attribute 'no_such_name'$"):
        twostate.no_such_name  # noqa: B018


SMOKE = {
    "born": ["born", "--state", "up-z", "--obs", "spin:1.0:0.5"],
    "abl": ["abl", "--pre", "up-x", "--post", "spin:1.0", "--obs", "pauli-z"],
    "weak": ["weak", "--pre", "up-z", "--post", "up-x", "--obs", "pauli-y", "--format", "json"],
    "simulate": ["simulate", "--pre", "up-x", "--measure", "pauli-z", "--post", "pauli-y", "--trials", "2000"],
    "scenario": ["scenario", "--builtin", "erasure", "--mode", "analytic"],
    "paper-checks": ["paper-checks", "--trials", "2000"],
    "pointer-sweep": ["pointer-sweep", "--pre", "up-z", "--post", "spin:1.0", "--obs", "pauli-x"],
    "help": ["--help"],
}


@pytest.mark.parametrize("name", SMOKE)
def test_each_subcommand_runs_alone_as_it_runs_in_process(name, capsysbinary, monkeypatch):
    argv = SMOKE[name]
    monkeypatch.setenv("COLUMNS", ENV["COLUMNS"])
    proc = fresh("-m", "twostate.cli", *argv)
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    assert (proc.returncode, proc.stdout) == (code, capsysbinary.readouterr().out)
    assert proc.stderr == b""


def test_every_private_module_name_is_used_outside_its_definition():
    # a stacked helper left without a caller fails here; only code counts,
    # as a name or an attribute read, not an import or a docstring
    trees = {path: ast.parse(path.read_text()) for path in sorted(Path(SRC, "twostate").glob("*.py"))}
    defined = {}  # name -> (defining file, first line, last line)
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    assert name not in defined, f"{name} is defined twice"
                    defined[name] = (path, node.lineno, node.end_lineno)
    used = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in defined:
                where, first, last = defined[name]
                if where != path or not first <= node.lineno <= last:
                    used.add(name)
    assert len(defined) > 50  # the walk found the package's private names
    assert sorted(set(defined) - used) == []
