import ast
import os
import pathlib
import subprocess
import sys

import qsegre

PACKAGE = pathlib.Path(qsegre.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so invariants must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in {found}"


def test_runtime_imports_only_the_standard_library():
    # the tests lean on sympy and hypothesis; the package itself must not
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, f"non-stdlib imports in {found}"


def _unreferenced_public_definitions(package) -> list[str]:
    """Public functions, classes and methods of the package that no name or
    attribute in it references outside their own definition and
    __init__.py, found again after each round so that a helper used only by
    another such helper is caught too.  Dunder methods are exempt: the
    language calls them."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    definitions = {}  # "file:line qualified name" -> (name, node)
    for filename, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            definitions[f"{filename}:{node.lineno} {node.name}"] = (node.name, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        key = f"{filename}:{item.lineno} {node.name}.{item.name}"
                        definitions[key] = (item.name, item)
    references = [(n.id if isinstance(n, ast.Name) else n.attr, n)
                  for filename, tree in trees.items() if filename != "__init__.py"
                  for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]
    inside = {key: {id(n) for n in ast.walk(node)}
              for key, (_, node) in definitions.items()}
    dead: set = set()
    while True:
        excluded = set().union(*(inside[key] for key in dead))
        found = {key for key, (name, _) in definitions.items()
                 if not name.startswith("_")
                 and not any(ref == name and id(n) not in excluded
                             and id(n) not in inside[key]
                             for ref, n in references)}
        if found == dead:
            return sorted(found)
        dead = found


def test_every_public_definition_is_used_by_the_package():
    # a helper that only tests call is dead weight in the package; oracles
    # and fixtures live in tests/oracles.py
    found = _unreferenced_public_definitions(PACKAGE)
    assert not found, f"public definitions only tests reach: {found}"


def test_the_suite_and_frobenius_run_without_fractions():
    # every quantity is an integer; a lazy `fractions` import in any path of
    # the suite or of frobenius would bring rationals back
    code = ("import io, sys, contextlib\n"
            "from qsegre.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = (main(['verify', 'all', '--max-n', '2']),\n"
            "              main(['frobenius', '--n', '3']))\n"
            "print(status, 'fractions' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "(0, 0) False\n", "")
