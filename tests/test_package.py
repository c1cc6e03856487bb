import ast
import pathlib

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
