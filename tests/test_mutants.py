"""The mutation list of ``tests/mutants.py`` still fits the tree: a
refactor that makes an old text stale, or renames a guarding test, fails
here instead of only in the mutation run, which is made by hand."""

import ast

from mutants import MUTANTS, ROOT


def test_every_mutant_old_text_occurs_once_and_its_guards_exist():
    problems = []
    for mutant in MUTANTS:
        found = (ROOT / mutant.path).read_text().count(mutant.old)
        if found != 1:
            problems.append(f"{mutant.name}: old text found {found} times")
        for guard in mutant.guards:
            path, _, name = guard.partition("::")
            tree = ast.parse((ROOT / path).read_text())
            if name and name not in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}:
                problems.append(f"{mutant.name}: no test function {guard}")
    assert problems == []
