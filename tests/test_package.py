"""The package holds only what it or a script uses: a name that only tests
call belongs in tests/."""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def parsed(pattern):
    trees = []
    for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
        with open(path, encoding="utf-8") as fh:
            trees.append(ast.parse(fh.read(), path))
    return trees


def test_every_top_level_name_is_used_by_the_package_or_a_script():
    package = parsed("src/smibctrl/*.py")
    defined = set()
    for tree in package:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    used = set()
    for tree in package + parsed("scripts/*.py"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert len(defined) > 50
    assert sorted(name for name in defined - used if not name.startswith("__")) == []
