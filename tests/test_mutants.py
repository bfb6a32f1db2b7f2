"""The committed mutants stay current: each one's old text is in the
source once, and each killer is a deterministic test that exists. Running
them is ``python tests/mutants.py``."""

import ast

from mutants import MUTANTS, ROOT


def test_each_mutant_replaces_text_found_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.new != m.old and m.killers, m.name


def _decorators(path: str) -> dict:
    """Test function name -> the names of its decorators, in ``path``."""
    tree = ast.parse((ROOT / path).read_text())
    return {
        node.name: {ast.unparse(d).split("(")[0] for d in node.decorator_list}
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def test_each_killer_is_a_deterministic_test():
    # a Hypothesis test kills a mutant in some runs and not in others
    for m in MUTANTS:
        for killer in m.killers:
            path, name = killer.split("::")
            found = _decorators(path)
            assert name in found, killer
            assert "given" not in found[name], killer
