import ast
from pathlib import Path

from orbatlas import memo as memo_mod

SRC = Path(memo_mod.__file__).parent
ROOT = SRC.parent.parent


def _references(node, own=None):
    """Names a node reads: plain names, attribute names, and the parts of
    dotted-path strings (the benchmark's tracer names its targets so).  A
    definition referring to itself does not count."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if len(parts) > 1 and all(p.isidentifier() for p in parts):
                out.update(parts)
    out.discard(own)
    return out


def _unreferenced(src, files):
    """Module-level functions and classes of the modules in `src` that no
    file refers to, other than by their own definition and the re-exports
    of the package's `__init__.py`."""
    defined, used = {}, set()
    for path in files:
        init = path == src / "__init__.py"
        for node in ast.parse(path.read_text()).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if path.parent == src and not init:
                    defined[own] = f"{path.name}:{own}"
            if init and isinstance(node, ast.ImportFrom):
                continue
            used |= _references(node, own)
    return sorted(where for name, where in defined.items() if name not in used)


def test_no_unreferenced_module_level_names():
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    found = _unreferenced(SRC, files)
    assert found == [], f"defined but never used; delete them: {found}"


def test_guard_sees_an_unreferenced_name(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .m import dead, used, traced, recursive\n")
    (pkg / "m.py").write_text(
        "def dead():\n    pass\n\n"
        "def used():\n    pass\n\n"
        "def traced():\n    pass\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Caller:\n    def go(self):\n        return used()\n")
    (tmp_path / "bench.py").write_text('from pkg.m import Caller\n'
                                       'TARGETS = [("m.traced", "pkg.m", "traced")]\n'
                                       'dead = Caller().go()\n')
    files = [pkg / "__init__.py", pkg / "m.py", tmp_path / "bench.py"]
    assert _unreferenced(pkg, files) == ["m.py:dead", "m.py:recursive"]


def _key_comparisons(path):
    """`==`/`!=` comparisons with a `.key()` call as an operand: values are
    their own keys, so such a test should compare the values."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        for side in (node.left, *node.comparators):
            if (isinstance(side, ast.Call) and isinstance(side.func, ast.Attribute)
                    and side.func.attr == "key" and not side.args):
                out.append(f"{path.name}:{node.lineno}")
                break
    return out


def test_no_key_comparisons_in_src():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _key_comparisons(path)]
    assert found == [], f"compare the values, not their key() tuples: {found}"


def test_guard_sees_a_key_comparison(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("a = x.key() != y.key()\n"
                 "b = x == y.key()\n"
                 "c = sorted(xs, key=lambda v: v.key())\n"
                 "d = x.key() < y.key()\n"
                 "e = x.key(1) == y\n")
    assert _key_comparisons(p) == ["m.py:1", "m.py:2"]
