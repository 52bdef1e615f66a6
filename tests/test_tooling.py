"""Static checks over the package source."""

import ast
from pathlib import Path

import jfkernel

MODULES = sorted(p for p in Path(jfkernel.__file__).parent.glob("*.py") if p.name != "__init__.py")


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


def test_modules_are_found():
    assert {"cyclotomic.py", "verify.py", "cli.py"} <= {p.name for p in MODULES}


def test_no_module_imports_a_name_it_never_uses():
    unused = {p.name: _unused_imports(ast.parse(p.read_text(), str(p))) for p in MODULES}
    assert {k: v for k, v in unused.items() if v} == {}


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom math import gcd, lcm\nprint(gcd(1, 2))\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "lcm")]
