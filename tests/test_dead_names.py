import ast
import builtins
from pathlib import Path

from orbatlas import memo as memo_mod

SRC = Path(memo_mod.__file__).parent
ROOT = SRC.parent.parent


def _references(node, own=()):
    """Names a node reads: plain names, attribute names, and the parts of
    dotted-path strings (the benchmark's tracer names its targets so).  A
    definition referring to itself, named in `own`, does not count."""
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
    return out - set(own)


def _is_method(node):
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def _unreferenced(src, files):
    """Module-level functions and classes of the modules in `src`, and the
    methods of those classes other than dunders, that no file refers to,
    other than by their own definition and the re-exports of the package's
    `__init__.py`.  A method counts as referred to when any attribute or
    dotted-path part bears its name."""
    defined, used = {}, set()
    for path in files:
        init = path == src / "__init__.py"
        ours = path.parent == src and not init
        for node in ast.parse(path.read_text()).body:
            if init and isinstance(node, ast.ImportFrom):
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                used |= _references(node)
                continue
            if ours:
                defined[node.name] = f"{path.name}:{node.name}"
            if not isinstance(node, ast.ClassDef):
                used |= _references(node, [node.name])
                continue
            for part in node.decorator_list + node.bases + node.keywords + node.body:
                if not _is_method(part):
                    used |= _references(part, [node.name])
                    continue
                if ours:
                    defined[f"{node.name}.{part.name}"] = f"{path.name}:{node.name}.{part.name}"
                used |= _references(part, [node.name, part.name])
    return sorted(where for name, where in defined.items() if name.split(".")[-1] not in used)


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


def test_guard_sees_an_unreferenced_method(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .m import Shape\n")
    (pkg / "m.py").write_text(
        "class Shape:\n"
        "    def __init__(self):\n        self.n = 0\n"
        "    def __eq__(self, other):\n        return True\n"
        "    def dead(self):\n        pass\n"
        "    def used(self):\n        return self.traced()\n"
        "    def traced(self):\n        pass\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1)\n"
        "    @property\n    def size(self):\n        return 1\n")
    (tmp_path / "bench.py").write_text('from pkg.m import Shape\n'
                                       'TARGETS = [("m.Shape.traced", "pkg.m", "Shape.traced")]\n'
                                       'x = Shape().used(), Shape().size\n')
    files = [pkg / "__init__.py", pkg / "m.py", tmp_path / "bench.py"]
    assert _unreferenced(pkg, files) == ["m.py:Shape.dead", "m.py:Shape.recursive"]


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


def _random_imports(path):
    """Imports of the standard `random` module: every verdict is decided
    exactly, so nothing in the package may sample."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(n == "random" or n.startswith("random.") for n in names):
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_random_in_src():
    found = [hit for path in sorted(SRC.rglob("*.py")) for hit in _random_imports(path)]
    assert found == [], f"decide the verdict exactly instead of sampling: {found}"


def test_guard_sees_a_random_import(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("import random\n"
                 "from random import Random\n"
                 "def f():\n    import os, random as r\n"
                 "from . import random_walk\n"
                 "import randomness\n")
    assert _random_imports(p) == ["m.py:1", "m.py:2", "m.py:4"]


# The entry points whose word bound may default: the unchanged benchmark
# calls them without one.  Everything else takes the bound it is given.
BOUND_DEFAULTS = {"atlas_ops", "groupoid_ops", "fred0", "fred1"}


def _bound_leaks(path):
    """A `bound` parameter with a default, other than on BOUND_DEFAULTS; and
    a call of `fred0`/`fred1` that passes no bound, which would fall back to
    the default."""
    tree = ast.parse(path.read_text())
    allowed = {node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in BOUND_DEFAULTS}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):] + [
                arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if node not in allowed and any(arg.arg == "bound" for arg in defaulted):
                out.append(node.lineno)
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if (name in ("fred0", "fred1") and len(node.args) < 2
                    and not any(k.arg == "bound" for k in node.keywords)):
                out.append(node.lineno)
    return [f"{path.name}:{n}" for n in sorted(out)]


def test_the_word_bound_is_passed_not_defaulted():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _bound_leaks(path)]
    assert found == [], f"take the word bound from the caller: {found}"


def test_guard_sees_a_defaulted_bound(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("def fred0(a, bound=4):\n    return closure(a, bound)\n"
                 "def closure(a, bound=4):\n    pass\n"
                 "def check(a, *, bound=4):\n    pass\n"
                 "key = lambda m, bound=4: m\n"
                 "def atlas_ops(bound=4):\n    return fred1(m)\n"
                 "x = frd.fred0(a), fred1(m, bound), frd.fred1(m, bound=b), fred2(c)\n")
    assert _bound_leaks(p) == ["m.py:3", "m.py:5", "m.py:7", "m.py:9", "m.py:10"]


# Only a proof of nonexistence (`NoSuchCellError`) or an undecided verdict
# may be caught on the way to a verdict: an error of these kinds means a
# broken precondition, and the catch-alls hide any error.
PRECONDITIONS = {"ValueError", "ComposabilityError", "GeometryError"}
CATCH_ALLS = {"Exception", "BaseException"}


def _broad_excepts(paths):
    """`except` clauses that are bare, or that name a catch-all, one of
    PRECONDITIONS or a subclass of one (defined in `paths` or built in), or
    a module-level tuple of such names."""
    trees = {p: ast.parse(p.read_text()) for p in paths}
    bases, aliases = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_name(b) for b in node.bases]
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                  and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)):
                aliases[node.targets[0].id] = [_name(e) for e in node.value.elts]

    def precondition(name):
        builtin = getattr(builtins, name or "", None)
        if name in PRECONDITIONS or (isinstance(builtin, type) and issubclass(builtin, ValueError)):
            return True
        return any(precondition(b) for b in bases.get(name, ()))

    def broad(name):
        return (name in CATCH_ALLS or precondition(name)
                or any(broad(e) for e in aliases.get(name, ())))

    out = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(broad(_name(c)) for c in caught):
                out.append(f"{path.name}:{node.lineno}")
    return out


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_no_broad_excepts_in_src():
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "cli.py"]
    found = _broad_excepts(files)
    assert found == [], f"catch NoSuchCellError or UndecidedError, let the rest propagate: {found}"


def test_guard_sees_a_broad_except(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("class GeometryError(Exception): pass\n"
                 "class EmptyRegionError(GeometryError): pass\n"
                 "class NoSuchCellError(Exception): pass\n"
                 "NO_CELL = (KeyError, EmptyRegionError)\n"
                 "try: pass\nexcept: pass\n"
                 "try: pass\nexcept Exception: pass\n"
                 "try: pass\nexcept (KeyError, ValueError): pass\n"
                 "try: pass\nexcept geo.EmptyRegionError: pass\n"
                 "try: pass\nexcept UnicodeDecodeError: pass\n"
                 "try: pass\nexcept NO_CELL: pass\n"
                 "try: pass\nexcept (KeyError, NoSuchCellError, UndecidedError): pass\n"
                 "try: pass\nexcept frd.UnsupportedGroupoidError as e: pass\n")
    assert _broad_excepts([p]) == ["m.py:6", "m.py:8", "m.py:10", "m.py:12", "m.py:14",
                                   "m.py:16"]


def _no_such_cell_raised_outside(path, owner):
    """`raise NoSuchCellError` statements outside the class `owner`.  Only
    the closure knows whether it is complete, so only it may turn a missing
    germ into a proof that no cell exists."""
    tree = ast.parse(path.read_text())
    inside = {id(n) for c in ast.walk(tree)
              if isinstance(c, ast.ClassDef) and c.name == owner for n in ast.walk(c)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None or id(node) in inside:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if _name(exc) == "NoSuchCellError":
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_only_the_closure_refutes_a_cell_in_atlas():
    found = _no_such_cell_raised_outside(SRC / "atlas.py", "Pseudogroup")
    assert found == [], f"refute through Pseudogroup, which knows its completeness: {found}"


def test_guard_sees_a_refutation_outside_the_closure(tmp_path):
    p = tmp_path / "atlas.py"
    p.write_text("class Pseudogroup:\n"
                 "    def refute(self, message, witness):\n"
                 "        raise NoSuchCellError(message, witness)\n"
                 "def square(cl):\n"
                 "    raise NoSuchCellError('no square', ('C', (0,)))\n"
                 "def cancel(cl):\n"
                 "    raise reports.NoSuchCellError\n"
                 "class Other:\n"
                 "    def f(self):\n"
                 "        raise ValueError('not a refutation')\n"
                 "    def g(self):\n"
                 "        raise NoSuchCellError('m', None)\n")
    assert _no_such_cell_raised_outside(p, "Pseudogroup") == ["atlas.py:5", "atlas.py:7",
                                                              "atlas.py:12"]

