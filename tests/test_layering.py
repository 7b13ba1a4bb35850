"""The library keeps no name for the tests alone and no import or parameter
it never reads, and the test helpers load no heavy package.

Every module-level function and class of src/qclass must be read by code in
src/ or bench/ outside its own definition; a name only the tests call
belongs in tests/helpers.py.  Docstrings, strings and imports do not count,
so the re-exports of qclass/__init__.py keep nothing alive.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "qclass").glob("*.py") if p.name != "__init__.py")
USERS = LIBRARY + [p for p in sorted((ROOT / "bench").glob("*.py"))
                   if not p.name.startswith("test_")]
# (top-level statement, names it reads) of every module in USERS
READS = {path: [(top, {getattr(node, "id", None) or getattr(node, "attr", None)
                       for node in ast.walk(top)})
                for top in ast.parse(path.read_text(), filename=str(path)).body]
         for path in USERS}


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_definition_is_used_outside_the_tests(path):
    everywhere = [read for module in READS.values() for read in module]
    unused = [node.name for node, _ in READS[path]
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not any(node.name in names for top, names in everywhere if top is not node)]
    assert unused == [], f"{path.name} defines names only the tests use: {unused}"


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    """No module of src/qclass imports a name it never reads: a leftover
    import costs start-up time and hides what the module depends on."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == [], f"{path.name} imports names it never reads"


def test_helpers_load_no_heavy_package():
    """bench/child.py imports tests/helpers.py in every benchmark child, so
    whatever it imports counts in the peak RSS of every workload."""
    code = ("import sys, helpers; print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'hypothesis', 'scipy', 'mpmath'}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "tests"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# every command takes (cfg, args), since _COMMANDS dispatches them alike;
# these two read only the config
_UNREAD_BY_DESIGN = {("cli.py", "cmd_report", "args"), ("cli.py", "cmd_sweep", "args")}


def test_every_parameter_is_read():
    """No function of src/qclass takes a parameter its body never reads: a
    dead parameter makes callers compute and pass what changes nothing."""
    unread = []
    for path in LIBRARY + [ROOT / "src" / "qclass" / "__init__.py"]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      *filter(None, (a.vararg, a.kwarg)))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [(path.name, name, p) for p in params if p not in read]
    assert sorted(set(unread) - _UNREAD_BY_DESIGN) == []
