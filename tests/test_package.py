import ast
import os
import pathlib
import subprocess
import sys

import pytest

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


def _evident_receivers(trees, classes) -> dict[int, str]:
    """The class each attribute reference evidently refers to, by the id of
    its node: self.x in a method of C, C.x (or module.C.x), and p.x for a
    parameter p annotated with C."""
    def class_of(node):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        return name if name in classes else None

    bound: dict[int, dict[str, str]] = {}  # function node id -> name -> class
    for tree in trees.values():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    if isinstance(item, ast.FunctionDef) and item.args.args:
                        bound[id(item)] = {item.args.args[0].arg: cls.name}
    owner: dict[int, str] = {}
    for tree in trees.values():
        # outer functions come first, so a nested one rebinds what it shadows
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            names = dict(bound.get(id(func), {}))
            for arg in func.args.args + func.args.kwonlyargs:
                if arg.annotation is not None and class_of(arg.annotation):
                    names[arg.arg] = class_of(arg.annotation)
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in names):
                    owner[id(node)] = names[node.value.id]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and class_of(node.value):
                owner[id(node)] = class_of(node.value)
    return owner


def _unreferenced_public_definitions(package, private=False) -> list[str]:
    """Public functions, classes, methods and module-level constants of the
    package that nothing in it references outside their own definition and
    __init__.py, found again
    after each round so that a helper used only by another such helper is
    caught too.  With private, _-prefixed ones are searched as well.
    Dunder methods are exempt: the language calls them.

    A top-level definition counts every name and attribute spelled like it.
    A method x of class C counts only attributes: x of a receiver that
    evidently is C (see _evident_receivers), or of one whose class is not
    evident.  So a local variable or another class's attribute named x does
    not keep C.x alive."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    definitions = {}  # "file:line qualified name" -> (name, class, node)
    for filename, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        definitions[f"{filename}:{node.lineno} {target.id}"] = (
                            target.id, None, node)
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            definitions[f"{filename}:{node.lineno} {node.name}"] = (
                node.name, None, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        key = f"{filename}:{item.lineno} {node.name}.{item.name}"
                        definitions[key] = (item.name, node.name, item)
    classes = {name for name, cls, node in definitions.values()
               if cls is None and isinstance(node, ast.ClassDef)}
    owner = _evident_receivers(trees, classes)
    # (spelling, node, class): None for a bare name, "" for an attribute
    # whose receiver's class is not evident
    references = [(n.id, n, None) if isinstance(n, ast.Name)
                  else (n.attr, n, owner.get(id(n), ""))
                  for filename, tree in trees.items() if filename != "__init__.py"
                  for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]
    inside = {key: {id(n) for n in ast.walk(node)}
              for key, (_, _, node) in definitions.items()}

    def refers(ref_class, def_class) -> bool:
        if def_class is None:
            return ref_class in (None, "")
        return ref_class in ("", def_class)

    dead: set = set()
    while True:
        excluded = set().union(*(inside[key] for key in dead))
        found = {key for key, (name, cls, _) in definitions.items()
                 if (not name.startswith("_") or private
                     and not (name.startswith("__") and name.endswith("__")))
                 and not any(ref == name and refers(ref_cls, cls)
                             and id(n) not in excluded
                             and id(n) not in inside[key]
                             for ref, n, ref_cls in references)}
        if found == dead:
            return sorted(found)
        dead = found


def test_every_public_definition_is_used_by_the_package():
    # a helper that only tests call is dead weight in the package; oracles
    # and fixtures live in tests/oracles.py
    found = _unreferenced_public_definitions(PACKAGE)
    assert not found, f"public definitions only tests reach: {found}"


def test_every_private_definition_is_used_by_the_package():
    # a private helper whose last caller went away, or that only tests
    # reach through the module, is dead weight too
    found = _unreferenced_public_definitions(PACKAGE, private=True)
    assert not found, f"definitions only tests reach: {found}"


_FIELD_SLOTS = ('    __slots__ = ("p", "k", "order", "modulus", "_add", "_mul", '
                '"_neg", "_inv")\n')


def _plant(package, filename, anchor, body) -> tuple[pathlib.Path, int]:
    """A copy of the package with body inserted after a blank line that
    follows anchor, a text found once in filename, and the line body starts
    on."""
    for path in PACKAGE.glob("*.py"):
        (package / path.name).write_text(path.read_text())
    source = (package / filename).read_text()
    assert source.count(anchor) == 1
    at = source.index(anchor) + len(anchor)
    (package / filename).write_text(source[:at] + "\n" + body + source[at:])
    return package, source[:at].count("\n") + 2


# (file, a line of the class, dead method, its body): `less` is a local in
# poset, the table of label order that _label_ids returns; `add` is a local
# of FiniteField.__init__ and an attribute of subspace._Lanes, and `neg` is
# a local in subspace._Lanes.joins and _Lanes.labels
@pytest.mark.parametrize("filename, anchor, method, body", [
    ("poset.py",
     "    def __len__(self) -> int:\n        return len(self.names)\n",
     "GradedPoset.less",
     "    def less(self, a: int, b: int) -> bool:\n"
     "        return bool(self._below_masks()[b] >> a & 1)\n"),
    ("subspace.py", _FIELD_SLOTS, "FiniteField.add",
     "    def add(self, a: int, b: int) -> int:\n"
     "        return self._add[a][b]\n"),
    ("subspace.py", _FIELD_SLOTS, "FiniteField.neg",
     "    def neg(self, a: int) -> int:\n        return self._neg[a]\n"),
])
def test_a_dead_method_named_like_a_live_name_is_found(
        tmp_path, filename, anchor, method, body):
    package, line = _plant(tmp_path, filename, anchor, body)
    assert _unreferenced_public_definitions(package) == [
        f"{filename}:{line} {method}"]


# (file, a line before it, dead constant, its definition): Q is the
# polynomial q that only the tests use; SEGRE_FACE_COUNT_BOUND is named
# like nothing else
@pytest.mark.parametrize("filename, anchor, constant, body", [
    ("exactalg.py", "ONE = QPolynomial([1])\n", "Q", "Q = QPolynomial([0, 1])\n"),
    ("poset.py", "FACE_COUNT_BOUND = 500_000\n", "SEGRE_FACE_COUNT_BOUND",
     "SEGRE_FACE_COUNT_BOUND = 2 * FACE_COUNT_BOUND\n"),
])
def test_a_dead_constant_is_found(tmp_path, filename, anchor, constant, body):
    package, line = _plant(tmp_path, filename, anchor, body)
    assert _unreferenced_public_definitions(package) == [
        f"{filename}:{line} {constant}"]


# (file, a line before them, the dead private definitions by their offset
# from the line body starts on, body): a recursive helper whose only caller
# is itself dead, and a method named like a live one but for its prefix
_DEGREES = ('    mu, lam = next(iter(table))\n'
            '    return sum(mu), sum(lam)\n')


@pytest.mark.parametrize("filename, anchor, dead, body", [
    ("symfrob.py", _DEGREES, {1: "_beta_walk", 7: "_beta_start"},
     "\ndef _beta_walk(beta: tuple, t: int) -> int:\n"
     "    if not beta:\n"
     "        return 1\n"
     "    return _beta_walk(beta[1:], t) + beta[0] // t\n"
     "\n\n"
     "def _beta_start(lam: tuple) -> int:\n"
     "    return _beta_walk(lam, 1)\n\n"),
    ("poset.py",
     "    def __len__(self) -> int:\n        return len(self.names)\n",
     {0: "GradedPoset._less"},
     "    def _less(self, a: int, b: int) -> bool:\n"
     "        return bool(self._below_masks()[b] >> a & 1)\n"),
])
def test_a_dead_private_helper_is_found(tmp_path, filename, anchor, dead, body):
    package, line = _plant(tmp_path, filename, anchor, body)
    assert _unreferenced_public_definitions(package) == []
    assert _unreferenced_public_definitions(package, private=True) == sorted(
        f"{filename}:{line + offset} {name}" for offset, name in dead.items())


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
