import ast
import builtins
from pathlib import Path

from orbatlas import cli
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
    # `cli.run` calls the handler `cmd_<name>` of each command in `cli.COMMANDS` by that name
    handlers = {f"cmd_{name.replace('-', '_')}" for name in cli.COMMANDS}
    assert all(callable(getattr(cli, h, None)) for h in handlers)
    found = [w for w in _unreferenced(SRC, files) if w.removeprefix("cli.py:") not in handlers]
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


def _level_parameters(path):
    """Functions and lambdas with a parameter named `level`: each level of a
    functor is its own function (`fred0`/`fred1`/`fred2`), so an integer
    level would only be a dispatcher."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if any(p is not None and p.arg == "level" for p in params):
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_level_parameters_in_src():
    found = [hit for path in sorted(SRC.rglob("*.py")) for hit in _level_parameters(path)]
    assert found == [], f"give each level its own function: {found}"


def test_guard_sees_a_level_parameter(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("def f(level, data):\n    pass\n"
                 "def g(ops, cell, level=1):\n    pass\n"
                 "def h(x, *, level):\n    pass\n"
                 "k = lambda level: level\n"
                 "def fred1(m, bound):\n    return m.level\n"
                 "x = run(level=2), f.level\n")
    assert _level_parameters(p) == ["m.py:1", "m.py:3", "m.py:5", "m.py:7"]


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


def _key_sorts(path):
    """Sorts (`sorted(..., key=...)`, `.sort(key=...)`) whose key reads
    `.key`: a canonical sort compares `order()`, which orders as `key()`
    does with its rationals compared in C."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if not (isinstance(f, ast.Name) and f.id == "sorted"
                or isinstance(f, ast.Attribute) and f.attr == "sort"):
            continue
        for kw in node.keywords:
            if kw.arg == "key" and any(isinstance(n, ast.Attribute) and n.attr == "key"
                                       for n in ast.walk(kw.value)):
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_sort_by_key_in_src():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _key_sorts(path)]
    assert found == [], f"sort by order(), not by key(): {found}"


def test_guard_sees_a_sort_by_key(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("a = sorted(xs, key=lambda v: v.key())\n"
                 "xs.sort(key=lambda v: (v[0].key(), 1))\n"
                 "b = sorted(xs, key=V.key)\n"
                 "c = sorted(xs, key=V.order)\n"
                 "d = sorted(x.key() for x in xs)\n"
                 "e = sorted(xs, key=lambda v: repr(content_key(v)))\n")
    assert _key_sorts(p) == ["m.py:1", "m.py:2", "m.py:3"]


def _is_key_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "key" and not node.args)


def _key_reprs(path):
    """`repr(<expr>.key())` and `f"{<expr>.key()!r}"`: a value builds its
    key text once, as `key_text()`, from the key texts of its fields."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "repr" and node.args and _is_key_call(node.args[0])
                or isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
                and _is_key_call(node.value)):
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_key_repr_in_src():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _key_reprs(path)]
    assert found == [], f"read key_text(), not repr(key()): {found}"


def test_guard_sees_a_key_repr(tmp_path):
    p = tmp_path / "geometry.py"
    p.write_text("a = repr(v.key())\n"
                 "b = f'({m.key()!r}, {n})'\n"
                 "c = repr(v.key_text()), repr(key(v)), f'{v.key()}'\n"
                 "class Interval:\n    def key_text(self):\n        return repr(self.key())\n"
                 "class Region:\n    def key_text(self):\n        return repr(self.key())\n")
    assert _key_reprs(p) == ["geometry.py:1", "geometry.py:2", "geometry.py:6", "geometry.py:9"]


KEY_FORMS = {"key", "order", "key_text"}


def _own_key_forms(path):
    """Classes that define `key`, `order` or `key_text`, by a method or a
    class attribute: `memo.interned` builds and caches the three derived
    forms of every value."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        for part in node.body:
            if isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {part.name}
            elif isinstance(part, (ast.Assign, ast.AnnAssign)):
                targets = part.targets if isinstance(part, ast.Assign) else [part.target]
                elts = [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
                names = {e.id for e in elts if isinstance(e, ast.Name)}
            else:
                continue
            out += [f"{path.name}:{node.name}.{n}" for n in sorted(names & KEY_FORMS)]
    return out


def test_no_class_defines_a_key_form_in_src():
    found = [hit for path in sorted(SRC.rglob("*.py")) for hit in _own_key_forms(path)]
    assert found == [], f"let memo.interned build the key forms: {found}"


def test_guard_sees_a_key_form(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("class A:\n    def key(self):\n        return 1\n"
                 "    @property\n    def order(self):\n        return 2\n"
                 "class B:\n    key_text, n = str, 1\n"
                 "    class C:\n        order: int = 0\n"
                 "    def _form(self, name):\n        return self.key()\n"
                 "def interned(cls):\n    def key(self):\n        return 0\n"
                 "    cls.key = key\n")
    assert _own_key_forms(p) == ["m.py:A.key", "m.py:A.order", "m.py:B.key_text", "m.py:C.order"]


# A witness may hold a list (a violation's witness is any data), so
# violations compare their fields; every other value is interned.
OWN_EQUALITY = {"reports.py:Violation"}


def _own_equality(path):
    """Classes that define `__eq__` or `__hash__`, by a method or a class
    attribute: a value is interned, so equality and the hash are
    identity's."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        names = set()
        for part in node.body:
            if isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(part.name)
            elif isinstance(part, (ast.Assign, ast.AnnAssign)):
                targets = part.targets if isinstance(part, ast.Assign) else [part.target]
                for t in targets:
                    elts = t.elts if isinstance(t, ast.Tuple) else [t]
                    names |= {e.id for e in elts if isinstance(e, ast.Name)}
        if names & {"__eq__", "__hash__"}:
            out.append((node.lineno, f"{path.name}:{node.name}"))
    return [hit for _, hit in sorted(out)]


def test_no_own_equality_in_src():
    found = [hit for path in sorted(SRC.rglob("*.py")) for hit in _own_equality(path)]
    assert set(found) == OWN_EQUALITY, f"intern the value instead: {found}"


def test_guard_sees_own_equality(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("class A:\n    def __eq__(self, other):\n        return True\n"
                 "class B:\n    __hash__ = None\n"
                 "class C:\n    def key(self):\n        return 1\n"
                 "    class D:\n        def __hash__(self):\n            return 0\n"
                 "class E:\n    __eq__, x = object.__eq__, 1\n"
                 "def f(cls):\n    cls.__eq__ = object.__eq__\n")
    assert _own_equality(p) == ["m.py:A", "m.py:B", "m.py:D", "m.py:E"]


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


def _foreign_caches(path):
    """Uses of `functools.lru_cache` and `functools.cache`: `orbatlas.memo`
    is the one caching mechanism, the one that `memo.clear()` empties and
    whose counters every memo publishes."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            hit = any(a.name in ("lru_cache", "cache") for a in node.names)
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "lru_cache" or (node.attr == "cache"
                                               and _name(node.value) == "functools")
        elif isinstance(node, ast.Name):
            hit = node.id == "lru_cache"
        else:
            continue
        if hit:
            out.append(node.lineno)
    return [f"{path.name}:{n}" for n in sorted(set(out))]


CACHE_MODULE = SRC / "memo.py"   # the one module that builds caches


def test_no_foreign_caches_in_src():
    found = [hit for path in sorted(SRC.rglob("*.py")) if path != CACHE_MODULE
             for hit in _foreign_caches(path)]
    assert found == [], f"memoize through orbatlas.memo: {found}"


def test_memo_is_the_only_exemption():
    """`memo.py` builds the caches, and the guard sees it do so; every other
    module of the package, and a module named `memo.py` anywhere else, is
    checked."""
    with_caches = [path for path in sorted(SRC.rglob("*.py")) if _foreign_caches(path)]
    assert with_caches == [CACHE_MODULE]
    assert [p for p in SRC.rglob("*.py") if p.name == "memo.py"] == [CACHE_MODULE]


def test_guard_sees_a_foreign_cache(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("from functools import lru_cache, wraps\n"
                 "import functools\n"
                 "@functools.cache\ndef f(): pass\n"
                 "@lru_cache(maxsize=None)\ndef g(): pass\n"
                 "@functools.lru_cache\ndef h(): pass\n"
                 "from functools import cached_property, partial\n"
                 "x = store.cache, functools.wraps\n")
    assert _foreign_caches(p) == ["m.py:1", "m.py:3", "m.py:5", "m.py:7"]


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



def _pointer_joins(path):
    """Strings that join a name to a child pointer, `f"{path}/{key}"` or
    `path + "/" + key`, outside the function `_at`: the pointer format, with
    its RFC 6901 escapes, lives in one function."""
    tree = ast.parse(path.read_text())
    inside = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "_at" for n in ast.walk(f)}
    out = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.JoinedStr):
            pairs = [(v.value, w) for v, w in zip(node.values, node.values[1:])
                     if isinstance(v, ast.FormattedValue)]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            pairs = [(node.left, node.right)]
        else:
            continue
        if any(isinstance(a, ast.Name) and isinstance(b, ast.Constant)
               and isinstance(b.value, str) and b.value.startswith("/") for a, b in pairs):
            out.append(node.lineno)
    return [f"{path.name}:{n}" for n in sorted(set(out))]


def test_only_at_joins_a_pointer_in_cli():
    cli = SRC / "cli.py"
    assert "_at" in {n.name for n in ast.parse(cli.read_text()).body
                     if isinstance(n, ast.FunctionDef)}
    found = _pointer_joins(cli)
    assert found == [], f"extend a schema pointer through cli._at: {found}"


def test_guard_sees_a_pointer_joined_outside_at(tmp_path):
    p = tmp_path / "cli.py"
    p.write_text('def _at(path, key):\n    return f"{path}/{key}"\n'
                 'def parse(doc, path):\n    return f"{path}/kind"\n'
                 'x = f"{at}/{i}/0"\n'
                 'y = path + "/" + key\n'
                 'z = f"{x.numerator}/{x.denominator}"\n'
                 "w = f\"schema error at {path or '/'}: {m}\"\n"
                 'v = "/kind", f"cannot read {path}: {e}"\n')
    assert _pointer_joins(p) == ["cli.py:4", "cli.py:5", "cli.py:6"]
