import ast
from pathlib import Path

import pytest

from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas import groupoid as gpd
from orbatlas import memo as memo_mod
from orbatlas.atlas import classify_morphism
from orbatlas.fixtures import ATLASES, MORPHISMS, TRIV_SHIFTED
from orbatlas.memo import memo

SRC = Path(memo_mod.__file__).parent


def _counting(results):
    """A memoized function returning results[x], and the list of the
    arguments it was really called with."""
    seen = []

    @memo(lambda x: x)
    def f(x):
        seen.append(x)
        return results[x]
    return f, seen


def test_false_and_none_are_hits():
    f, seen = _counting({0: False, 1: None, 2: 0})
    for _ in range(3):
        assert [f(0), f(1), f(2)] == [False, None, 0]
    assert seen == [0, 1, 2]


def test_counters_count():
    f, seen = _counting({0: "a", 1: "b"})
    for x in (0, 1, 0, 0, 1):
        f(x)
    assert (f.hits, f.misses) == (3, 2)


def test_key_function_sees_defaults_and_keywords():
    calls = []

    @memo(lambda x, k=1: (x, k))
    def g(x, k=1):
        calls.append((x, k))
        return x * k
    assert g(2) == g(2, 1) == g(2, k=1) == 2
    assert g(2, k=3) == 6
    assert calls == [(2, 1), (2, 3)]


def test_exceptions_are_not_stored():
    calls = []

    @memo(lambda x: x)
    def h(x):
        calls.append(x)
        raise ValueError(x)
    for _ in range(2):
        with pytest.raises(ValueError):
            h(1)
    assert calls == [1, 1]


def test_clear_empties_every_memo():
    f, seen = _counting({0: "a"})
    f(0)
    f(0)
    classify_morphism(MORPHISMS["flip_M"])
    assert f.table and classify_morphism.table
    memo_mod.clear()
    assert not f.table and not classify_morphism.table
    assert (f.hits, f.misses) == (0, 0) == (classify_morphism.hits, classify_morphism.misses)
    f(0)
    assert seen == [0, 0]


def _module_level_empty_dicts(path):
    tree = ast.parse(path.read_text())
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            value = node.value
        else:
            continue
        empty_literal = isinstance(value, ast.Dict) and not value.keys
        empty_call = (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                      and value.func.id == "dict" and not value.args and not value.keywords)
        if empty_literal or empty_call:
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_ad_hoc_module_level_memo_dicts():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _module_level_empty_dicts(path)]
    assert found == [], f"module-level memo dicts; use orbatlas.memo instead: {found}"


def test_guard_sees_a_memo_dict(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("_x_memo = {}\n_y: dict = dict()\nTABLE = {1: 2}\n")
    assert _module_level_empty_dicts(p) == ["m.py:1", "m.py:2"]


def test_groupoid_is_w_matches_is_morita():
    gops = frc.groupoid_ops()
    objects = [(n, frd.fred0(a)) for n, a in sorted(ATLASES.items())]
    objects.append(("TRIV_SHIFTED", frd.fred0(TRIV_SHIFTED)))
    cells = [(n, frd.fred1(m)) for n, m in sorted(MORPHISMS.items())]
    uni = frc.depth2_universe(gops, objects, cells)
    for name, m in uni.cells:
        expected = gpd.is_morita(m)[0]
        assert gops.is_w(m) is expected, name
        assert gops.is_w(m) is expected, name
