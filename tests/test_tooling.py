"""Static checks over the package source."""

import ast
import importlib
import io
import json
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import jfkernel
from jfkernel import series
from jfkernel.cyclotomic import imag_unit
from jfkernel.jacobi import JacobiSeries, recompose, theta_j
from jfkernel.sl2 import LETTER_SPELLINGS

SOURCES = sorted(Path(jfkernel.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ROOT = Path(jfkernel.__file__).parents[2]


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _private_functions(tree):
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.endswith("__")}


def _references(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _uncalled_helpers(sources):
    """(module, line, name) of each private top-level function that no code
    in ``sources`` (a {module name: text} dict) refers to."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    used = _references(trees.values())
    return sorted((name, line, fn) for name, tree in trees.items()
                  for fn, line in _private_functions(tree).items() if fn not in used)


def _unreferenced_functions(modules, others=()):
    """(module, line, name) of each function or method defined in ``modules``
    (a {module name: text} dict), dunders excepted, whose name no code in
    ``modules`` or ``others`` (texts) refers to."""
    trees = {name: ast.parse(text, name) for name, text in modules.items()}
    used = _references([*trees.values(), *(ast.parse(text) for text in others)])
    return sorted((name, node.lineno, node.name) for name, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and node.name not in used)


def _constants(tree):
    """{name: line} of the upper-case names a module assigns at top level."""
    out = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        out.update({t.id: node.lineno for t in targets
                    if isinstance(t, ast.Name) and t.id.isupper()})
    return out


def _unread_constants(modules, others=()):
    """(module, line, name) of each top-level upper-case name assigned in
    ``modules`` (a {module name: text} dict) that no code in ``modules`` or
    ``others`` (texts) reads."""
    trees = {name: ast.parse(text, name) for name, text in modules.items()}
    used = _references([*trees.values(), *(ast.parse(text) for text in others)])
    return sorted((name, line, const) for name, tree in trees.items()
                  for const, line in _constants(tree).items() if const not in used)


def _function_level_imports(tree):
    """(line, module) of each import of a package module (a relative import,
    or one of ``jfkernel``) inside a function body."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found.update((node.lineno, name) for name in names
                         if name.startswith(".") or name.split(".")[0] == "jfkernel")
    return sorted(found)


def test_modules_are_found():
    assert {"cyclotomic.py", "verify.py", "cli.py"} <= {p.name for p in MODULES}


def test_no_module_imports_a_name_it_never_uses():
    unused = {p.name: _unused_imports(ast.parse(p.read_text(), str(p))) for p in MODULES}
    assert {k: v for k, v in unused.items() if v} == {}


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom math import gcd, lcm\nprint(gcd(1, 2))\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "lcm")]


def test_import_loads_neither_dataclasses_nor_inspect():
    # every command starts cold, so what the import loads is paid each time
    code = ("import sys, jfkernel, jfkernel.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_loads_neither_json_nor_argparse():
    # setup_s is mostly what the import pays; only writing, reading and the
    # command line need these
    code = ("import sys, jfkernel\n"
            "print(sorted({'json', 'argparse'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_function_imports_a_package_module():
    inner = {p.name: _function_level_imports(ast.parse(p.read_text(), str(p))) for p in MODULES}
    assert {k: v for k, v in inner.items() if v} == {}


def test_function_level_import_is_reported():
    tree = ast.parse("import os\nfrom . import a\n\ndef f():\n    import json\n"
                     "    from .sl2 import SL2Mat\n\n    def g():\n        import jfkernel.weil\n"
                     "    return SL2Mat\n\nclass C:\n    def m(self):\n        from ..x import y\n")
    assert _function_level_imports(tree) == [(6, ".sl2"), (9, "jfkernel.weil"), (14, "..x")]


def test_every_private_function_is_referenced_somewhere_in_the_package():
    assert _uncalled_helpers({p.name: p.read_text() for p in SOURCES}) == []


def test_uncalled_helper_is_reported():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _left():\n    pass\n\ndef __getattr__(n):\n    pass\n",
        "b.py": "from .a import _used\n\nclass C:\n    def _method(self):\n        return _used()\n",
        "c.py": "import a\n\nx = a._used\n_left = 1\n",
    }
    assert _uncalled_helpers(sources) == [("a.py", 4, "_left")]


def test_every_function_and_method_is_referenced_in_the_package_or_its_tests():
    tests = [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))]
    assert _unreferenced_functions({p.name: p.read_text() for p in SOURCES}, tests) == []


def test_unreferenced_function_is_reported():
    modules = {
        "a.py": ("class C:\n    def __len__(self):\n        return 0\n\n"
                 "    def used(self):\n        return 1\n\n"
                 "    def left(self):\n        return 2\n\n"
                 "def tested():\n    def inner():\n        pass\n    return C().used()\n"),
    }
    assert _unreferenced_functions(modules, ["from a import tested\ntested()\n"]) == [
        ("a.py", 8, "left"), ("a.py", 12, "inner")]


def test_every_module_constant_is_read_somewhere():
    others = [p.read_text() for d in ("tests", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    assert _unread_constants({p.name: p.read_text() for p in SOURCES}, others) == []


def test_unread_constant_is_reported():
    modules = {
        "a.py": "USED = 1\nLEFT = 2\nTYPED: int = 3\n_PRIVATE = 4\nlower = 5\n",
        "b.py": "from .a import LEFT\nprint(USED, _PRIVATE)\n",
    }
    assert _unread_constants(modules, ["import a\nx = a.TYPED\n"]) == [("a.py", 2, "LEFT")]


def _attribute_reads(tree, attr):
    """Lines that read the attribute ``attr`` of any object."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == attr
                  and isinstance(node.ctx, ast.Load))


def test_only_the_cyclotomic_module_reads_the_dense_view():
    """``CycNumber.num`` is a dense vector built on each access; the rest of
    the package reads the coordinate tuples ``xs``."""
    reads = {p.name: _attribute_reads(ast.parse(p.read_text(), str(p)), "num")
             for p in SOURCES if p.name != "cyclotomic.py"}
    assert {k: v for k, v in reads.items() if v} == {}


def test_dense_view_read_is_reported():
    tree = ast.parse("def f(c, field):\n    ys = c.xs\n    num = [v for v in c.num if v]\n"
                     "    c.num = ys\n    return field.num_terms, getattr(c, 'num')\n")
    assert _attribute_reads(tree, "num") == [3]


def test_recompose_runs_no_series_product(monkeypatch):
    """A theta sum relabels each component onto the theta lattice straight
    into one series: no call of the general product kernel or of ``+``, and
    one normalisation per sum, wherever a module binds them."""
    rng = random.Random(19)
    cases = []
    for m in (1, 2, 3, 6):
        comps = {}
        for r in rng.sample(range(2 * m), rng.randint(1, 2 * m)):
            terms = {Fraction(rng.randint(-4, 40), rng.choice((1, 2, 4))):
                     rng.randint(-3, 3) + rng.randint(-1, 1) * imag_unit() for _ in range(6)}
            comps[r] = series.PuiseuxSeries(terms, rng.randint(8, 16))
        cases.append((comps, m, rng.randint(6, 12)))
    calls = dict.fromkeys(("_product", "_normalised", "__add__"), 0)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in ("_product", "_normalised"):
        fn = getattr(series, name)
        for module in MODULES:
            mod = importlib.import_module(f"jfkernel.{module.stem}")
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    for cls in (series.PuiseuxSeries, JacobiSeries):
        monkeypatch.setattr(cls, "__add__", counting("__add__", cls.__add__))
    for comps, m, order in cases:
        assert not recompose(comps, m, order).is_zero()
    assert calls == {"_product": 0, "_normalised": len(cases), "__add__": 0}
    # the counters see the product and the sum that recompose no longer runs
    r, h = next(iter(comps.items()))
    (h * theta_j(6, r, 6)) + theta_j(6, r, 6)
    assert calls["_product"] and calls["__add__"]


def _definitions(sources, names):
    """{name: [module, ...]} of every function or method named in ``names``
    that ``sources`` (a {module name: text} dict) defines, nested ones too."""
    out = {name: [] for name in names}
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text, module)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in out:
                out[node.name].append(module)
    return out


def test_coordinate_tuple_helpers_are_defined_once_in_the_field_module():
    names = ("_times", "_scaled", "_dense", "_content")
    found = _definitions({p.name: p.read_text() for p in SOURCES}, names)
    assert found == {name: ["cyclotomic.py"] for name in names}


def test_second_definition_is_reported():
    sources = {"a.py": "def _scaled(xs, s):\n    return xs\n",
               "b.py": "class C:\n    def _scaled(self):\n        def _dense():\n            pass\n"}
    assert _definitions(sources, ("_scaled", "_dense", "_times")) == {
        "_scaled": ["a.py", "b.py"], "_dense": ["b.py"], "_times": []}


def _letter_copies(text):
    """(line, what) of each mention of the name GENERATOR_MATRICES in
    ``text``, imported or read, and of each string, or tuple or list of
    strings, that spells a letter of :data:`jfkernel.sl2.LETTER_SPELLINGS`
    (what is then the letter: "S S" or ("S", "S") for -I)."""
    spelled = {tuple(word): name for name, word in LETTER_SPELLINGS.items()}
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name == "GENERATOR_MATRICES"]
        elif (isinstance(node, ast.Name) and node.id == "GENERATOR_MATRICES"
              or isinstance(node, ast.Attribute) and node.attr == "GENERATOR_MATRICES"):
            found.append((node.lineno, "GENERATOR_MATRICES"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            word = tuple(node.value.split())
            if word in spelled:
                found.append((node.lineno, spelled[word]))
        elif isinstance(node, (ast.Tuple, ast.List)) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
            word = tuple(e.value for e in node.elts)
            if word in spelled:
                found.append((node.lineno, spelled[word]))
    return sorted(found)


def test_weil_spells_no_letter_and_names_no_generator_matrices():
    """-I = S S and ST2S = S T T S are spelled once, in the sl2 table, and
    weil reads them there and takes its SL2 powers from letter_matrix."""
    spellings = {p.name: [what for _, what in _letter_copies(p.read_text())
                          if what != "GENERATOR_MATRICES"] for p in SOURCES}
    assert {name: found for name, found in spellings.items() if found} == {
        "sl2.py": ["-I", "ST2S"]}
    weil = next(p for p in SOURCES if p.name == "weil.py")
    assert _letter_copies(weil.read_text()) == []


def test_a_planted_letter_copy_is_reported():
    text = ('from .sl2 import GENERATOR_MATRICES, I2\n'
            'spellings = {"-I": "S S", "ST2S": ["S", "T", "T", "S"], "T": "T"}\n'
            'g = sl2.GENERATOR_MATRICES["S"] ** 2\n'
            'doc = "-I = S S"\n')
    assert _letter_copies(text) == [(1, "GENERATOR_MATRICES"), (2, "-I"), (2, "ST2S"),
                                    (3, "GENERATOR_MATRICES")]


def _is_one(node):
    return isinstance(node, ast.Constant) and node.value == 1


def _square_and_multiply_loops(sources):
    """(module, function) of each function or method in ``sources`` (a
    {module name: text} dict) with a loop that tests a bit with ``& 1`` and
    shifts with ``>>= 1``; a function around a nested one is reported too."""
    found = set()
    for module, text in sources.items():
        for fn in ast.walk(ast.parse(text, module)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for loop in ast.walk(fn):
                if not isinstance(loop, (ast.While, ast.For)):
                    continue
                nodes = list(ast.walk(loop))
                if (any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.BitAnd)
                        and _is_one(n.right) for n in nodes)
                        and any(isinstance(n, ast.AugAssign) and isinstance(n.op, ast.RShift)
                                and _is_one(n.value) for n in nodes)):
                    found.add((module, fn.name))
    return sorted(found)


def test_one_square_and_multiply_serves_every_power():
    assert _square_and_multiply_loops({p.name: p.read_text() for p in SOURCES}) == [
        ("_value.py", "power")]


def test_second_square_and_multiply_is_reported():
    sources = {
        "a.py": "def power(x, e, mul):\n    while e:\n        if e & 1:\n            pass\n"
                "        e >>= 1\n",
        "b.py": ("class M:\n    def __pow__(self, n):\n        out = 1\n        while n:\n"
                 "            out = out * self if n & 1 else out\n            n >>= 1\n"
                 "        return out\n\n    def halve(self, n):\n        while n & 3:\n"
                 "            n >>= 1\n\n    def odd(self, n):\n        return n & 1\n"),
    }
    assert _square_and_multiply_loops(sources) == [("a.py", "power"), ("b.py", "__pow__")]


def _pair_value(loop):
    """The second name a ``for a, b in ...`` loop binds, else None."""
    target = loop.target if isinstance(loop, ast.For) else None
    if (isinstance(target, ast.Tuple) and len(target.elts) == 2
            and all(isinstance(e, ast.Name) for e in target.elts)):
        return target.elts[1].id
    return None


def _convolution_loops(sources):
    """(module, function) of each entry-convolution loop in ``sources`` (a
    {module name: text} dict), once per loop: a ``for p, x`` loop with a
    ``for q, y`` loop among its statements, under which a product of x and
    y is added into a subscript."""
    found = []
    for module, text in sources.items():
        stack = [(node, None) for node in ast.parse(text, module).body]
        while stack:
            node, function = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            x = _pair_value(node)
            if x is not None:
                for inner in node.body:
                    y = _pair_value(inner)
                    if y is not None and any(
                            isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Subscript)
                            and isinstance(n.value, ast.BinOp) and isinstance(n.value.op, ast.Mult)
                            and {x, y} <= {name.id for name in ast.walk(n.value)
                                           if isinstance(name, ast.Name)}
                            for n in ast.walk(inner)):
                        found.append((module, function))
            stack.extend((child, function) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_one_convolution_loop_serves_every_weil_product():
    weil = next(p for p in SOURCES if p.name == "weil.py")
    assert _convolution_loops({weil.name: weil.read_text()}) == [("weil.py", "_product")]


def test_second_convolution_loop_is_reported():
    sources = {
        "a.py": ("def product(xs, ys, acc):\n    for p, x in xs:\n        for q, y in ys:\n"
                 "            k = p + q\n            if k < 4:\n                acc[k] += x * y\n"),
        "b.py": ("class M:\n    def kron(self, xs, ys, acc):\n        for p, x in xs:\n"
                 "            for q, y in ys:\n                acc[p + q] += 2 * x * y\n"
                 "        for i, v in xs:\n            for j, w in ys:\n"
                 "                acc[i + j] += v * w\n\n"
                 "    def shift(self, xs, acc):\n        for i, v in xs:\n            acc[i] += v * v\n\n"
                 "    def pairs(self, xs, ys, acc):\n        for p, x in xs:\n"
                 "            for q, y in ys:\n                acc[p] += x * q\n"),
    }
    assert _convolution_loops(sources) == [("a.py", "product"), ("b.py", "kron"), ("b.py", "kron")]


# The caches with no bound, each with the reason its keys are finite.
UNBOUNDED_CACHES = {
    ("cyclotomic.py", "cyclotomic_field"): "fields are compared by identity, so an order "
                                          "must keep its one instance",
    ("cyclotomic.py", "cyclotomic_poly"): "the orders of the fields built and their divisors",
    ("weil.py", "_root"): "d is squarefree with sqrt(d) in Q(zeta_n), so d <= n",
    ("weil.py", "u_gen"): "the seven displayed generator matrices; any other key raises",
    ("weil.py", "_step_signs"): "a generator name and a direction of +-1",
    ("cli.py", "build_parser"): "no arguments: the one parser",
}


def _unbounded_caches(sources):
    """(module, function) of each function in ``sources`` (a {module name:
    text} dict) wrapped by a functools cache with no bound given: ``cache``,
    or ``lru_cache`` with no ``maxsize`` or with ``maxsize=None``, whether as
    a decorator or called on the function."""
    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def unbounded(wrapper):
        if not isinstance(wrapper, ast.Call):
            return name(wrapper) in ("cache", "lru_cache")
        size = ([kw.value for kw in wrapper.keywords if kw.arg == "maxsize"] + wrapper.args)[:1]
        return name(wrapper.func) == "lru_cache" and (
            not size or isinstance(size[0], ast.Constant) and size[0].value is None)

    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text, module)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(module, node.name) for d in node.decorator_list if unbounded(d)]
            elif (isinstance(node, ast.Call) and node.args and unbounded(node.func)
                  and (isinstance(node.func, ast.Call) or name(node.func) == "cache")):
                found.append((module, name(node.args[0])))
    return sorted(found)


def test_every_cache_is_bounded_or_says_why_its_keys_are_finite():
    found = _unbounded_caches({p.name: p.read_text() for p in MODULES})
    assert found == sorted(UNBOUNDED_CACHES)
    assert all(UNBOUNDED_CACHES.values())


def test_a_planted_unbounded_cache_is_reported():
    sources = {
        "a.py": ("import functools\nfrom functools import cache, lru_cache\n\n"
                 "@lru_cache(maxsize=64)\ndef bounded(n):\n    return n\n\n"
                 "@lru_cache(64)\ndef also_bounded(n):\n    return n\n\n"
                 "@lru_cache(maxsize=None)\ndef grows(n):\n    return n\n\n"
                 "@functools.cache\ndef grows_too(n):\n    return n\n\n"
                 "@lru_cache\ndef default_bound(n):\n    return n\n\n"
                 "def plain(n):\n    return n\n\n"
                 "wrapped = lru_cache(None)(plain)\nkept = lru_cache(maxsize=8)(plain)\n"
                 "memo = cache(plain)\n"),
    }
    assert _unbounded_caches(sources) == [
        ("a.py", "default_bound"), ("a.py", "grows"), ("a.py", "grows_too"),
        ("a.py", "plain"), ("a.py", "plain")]


def _stale_exports(package):
    """The names in ``package.__all__`` that the package does not bind, in
    the order listed: ``from package import *`` fails on the first."""
    return [name for name in package.__all__ if not hasattr(package, name)]


def test_every_exported_name_resolves_on_the_package():
    assert _stale_exports(jfkernel) == []


def test_stale_export_is_reported():
    package = types.ModuleType("pkg")
    package.kept = 1
    package.__all__ = ["kept", "gone", "also_gone"]
    assert _stale_exports(package) == ["gone", "also_gone"]


def _tracer_tables():
    """The name tables of ``bench/tracer.py``, read from its source without
    running it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    return {t.id: ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)
            and t.id in ("METHODS", "JSON_METHODS", "JSON_FUNCTIONS", "TOTALS")}


def test_every_name_the_bench_tracer_wraps_exists():
    """The tracer wraps ``cls.__dict__[name]``, so each class must bind every
    method it lists in its own body, not only inherit it."""
    tables = _tracer_tables()
    assert len(tables) == 4
    missing = []
    for table in (tables["METHODS"], tables["JSON_METHODS"]):
        for layer, classes in table.items():
            module = importlib.import_module(f"jfkernel.{layer}")
            for cls_name, attrs in classes.items():
                own = vars(getattr(module, cls_name))
                missing += [f"{layer}.{cls_name}.{a}" for a in attrs if a not in own]
    functions = [f"{layer}.{name}" for layer, names in tables["JSON_FUNCTIONS"].items()
                 for name in names] + list(tables["TOTALS"])
    for name in functions:
        layer, attr = name.split(".")
        if not hasattr(importlib.import_module(f"jfkernel.{layer}"), attr):
            missing.append(name)
    assert missing == []
    assert callable(importlib.import_module("jfkernel.jacobi")._theta_component_terms.cache_info)


def test_weil_commands_print_the_same_bytes_from_a_warm_block_cache():
    """Each command run twice in one process, the first time after the
    Weil block cache is cleared: the second run reads every block from the
    cache and prints the bytes of the first."""
    from jfkernel import cli, weil

    for argv in (["verify", "--suite", "weil", "--seed", "7"],
                 ["weil", "--m", "5", "--word", "S T S T^-1 S", "--resolve"]):
        weil._block.cache_clear()
        outs, misses = [], []
        for _ in range(2):
            out = io.StringIO()
            assert cli.run(argv, out=out) == 0
            outs.append(out.getvalue())
            misses.append(weil._block.cache_info().misses)
        assert misses[0] == misses[1] > 0, argv
        assert outs[0] == outs[1] and outs[0], argv


@pytest.mark.parametrize("workload", ["weil-deep", "kernel-deep", "verify-all"])
def test_bench_outputs_match_their_recorded_digests(workload):
    """Every output of a benchmark workload at seed 3, hashed per job by
    ``bench/child.py``, against ``bench/digests.json``: the child fails a job
    whose digest differs, and the digests it prints are the recorded ones."""
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text())[workload]["3"]
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"),
                           "--workload", workload, "--seed", "3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["failed"] == [], out["errors"]
    assert out["digests"] == recorded
