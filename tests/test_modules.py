import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import linkimm

MODULES = sorted(Path(linkimm.__file__).parent.glob("*.py"))


def test_no_import_inside_a_function():
    # a function-level import is how an import cycle hides; every module
    # imports what it needs at the top
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert MODULES and not found


def test_linalg_does_not_import_fractions():
    # the signature runs on integer numerators over row denominators
    tree = ast.parse((Path(linkimm.__file__).parent / "linalg.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "fractions" not in imported and "Fraction" not in {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names}


def test_only_record_stores_fields():
    # linkimm.record compiles each record class's store and trusted
    # constructor; no other module writes an instance's fields itself
    store = re.compile(r"__dict__\.update|object\.__new__|object\.__setattr__")
    found = [f"{path.name}:{number}" for path in MODULES if path.name != "record.py"
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if store.search(line)]
    assert MODULES and not found


def test_no_module_imports_dataclasses():
    # records share linkimm.record; dataclasses would load inspect, ast,
    # dis and tokenize into every process
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name and name.split(".")[0] == "dataclasses"]
    assert not found


def test_cli_import_loads_no_introspection_modules():
    code = ("import sys, linkimm.cli; print(' '.join(sorted(m for m in "
            "('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') if m in sys.modules)))")
    src = str(Path(linkimm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == []


def test_oracles_import_no_computational_path():
    # tests/oracles.py is the reference the library is checked against, so
    # it may take the library's error type and Dynkin label and nothing else
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {f"{node.module}.{alias.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if name.split(".")[0] == "linkimm"} == {
        "linkimm.errors.NotSymmetric", "linkimm.plumbing.DynkinLabel"}


def test_init_holds_only_a_docstring_imports_and_assignments():
    # the package root only re-exports: every computation lives in a
    # module of its own, which the root imports
    doc, *rest = ast.parse(Path(linkimm.__file__).read_text(encoding="utf-8")).body
    assert isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str)
    assert rest and all(isinstance(node, (ast.Import, ast.ImportFrom, ast.Assign)) for node in rest)
