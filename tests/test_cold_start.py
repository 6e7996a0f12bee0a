"""A cold orbatlas process loads only what it runs.

Each `orbatlas` call is a fresh interpreter, so every module that importing
orbatlas loads is paid for by every call.  Two of the standard library's
are not needed by the calls that the benchmark makes: `hashlib`, which
loads OpenSSL (the chart ids of pullback squares use the built-in `_md5`,
and only a saved choice table imports `hashlib`), and `argparse`, with the
`gettext` it loads (`cli.read_argv` reads the command line).
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("argparse", "gettext", "hashlib", "_hashlib")

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import {modules}
print(",".join(m for m in sys.argv[2:] if m in sys.modules))
"""


@pytest.mark.parametrize("modules", ["orbatlas.cli", "orbatlas.fractions, orbatlas.fixtures"])
def test_importing_orbatlas_loads_no_heavy_module(modules):
    """In an isolated interpreter without `site`, so that nothing but
    orbatlas can have loaded them; it writes no bytecode into `src/`."""
    child = CHILD.format(modules=modules)
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", child, str(SRC), *HEAVY],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def _module_level_imports(tree):
    """The modules that the statements of `tree` import outside functions,
    other than as the fallback of an `except ImportError`."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name) \
                and node.type.id == "ImportError":
            continue
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module)
        out += _module_level_imports(node)
    return out


def test_no_module_level_import_of_hashlib_or_argparse():
    found = [f"{path.name}: {name}" for path in sorted(SRC.rglob("*.py"))
             for name in _module_level_imports(ast.parse(path.read_text()))
             if name.split(".")[0] in ("hashlib", "argparse")]
    assert found == []


def test_guard_sees_a_module_level_import():
    tree = ast.parse("import hashlib\n"
                     "class C:\n    import argparse\n"
                     "try:\n    from _md5 import md5\nexcept ImportError:\n"
                     "    from hashlib import md5\n"
                     "def f():\n    import hashlib\n")
    assert _module_level_imports(tree) == ["hashlib", "argparse", "_md5"]
