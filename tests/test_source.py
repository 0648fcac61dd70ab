"""Source hygiene: no module of the package imports a name it never uses,
no module-level name of the package goes unread, and importing the CLI
loads no heavy standard module."""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nonarch"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """The names that the module's imports bind and that it never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == [], module


def test_unused_imports_are_named():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from math import gcd, lcm\n"
              "def f(x: lcm):\n    return os.sep\n")
    assert unused_imports(source) == ["gcd", "system"]


def unread_module_names(sources):
    """The module-level functions, classes and constants, as "module:name",
    that no module of ``sources`` (module name -> source) reads: as a name,
    an attribute or an import (so an ``__init__`` export counts).  Dunder
    names are left out."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                defined += [(module, t.id) for t in targets
                            if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module}:{name}" for module, name in defined
                  if name not in read and not name.startswith("__"))


def test_no_unread_module_names():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_module_names(sources) == []


def test_unread_module_names_are_named():
    sources = {
        "a": ("LIMIT = 4\nSPARE: int = 5\n__version__ = '1'\n"
              "def used():\n    return LIMIT\n"
              "def spare():\n    pass\n"
              "class Exported:\n    def method(self):\n        pass\n"),
        "b": "from .a import Exported\nimport a\nprint(a.used())\n",
    }
    assert unread_module_names(sources) == ["a:SPARE", "a:spare"]


# every standard module the package imports at its top level; they are
# loaded before the package, so only what the package itself adds is seen
# (a Python whose random falls back to hashlib cannot fail the check)
_STDLIB_IMPORTS = ("argparse", "collections", "decimal", "enum", "fractions",
                   "functools", "itertools", "json", "math", "operator",
                   "os", "random", "struct", "sys")


def test_cli_import_loads_no_heavy_stdlib_module():
    # dataclasses (with inspect, ast, dis, tokenize) and hashlib took more
    # than half of the CLI's start-up; hashlib loads when a certificate
    # fingerprints its series
    probe = (f"import {', '.join(_STDLIB_IMPORTS)}\n"
             "before = set(sys.modules)\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import nonarch.cli\n"
             "print(*sorted(set(sys.modules) - before))\n")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe,
                          str(SRC.parent)], check=True, capture_output=True,
                         text=True, timeout=60).stdout.split()
    assert "nonarch.cli" in out
    assert not {"dataclasses", "inspect", "hashlib"} & set(out), out
