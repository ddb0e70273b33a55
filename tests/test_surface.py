"""Every public name in the library is reached by the library or the
benchmark, not by the tests alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "f2lab"
PERFBENCH = ROOT / "perfbench"

ALLOWED = {
    # the independent brute-force oracle for the exact rank search
    "rank.decompositions",
    # the asymptotic MRRW rank bound, to be reported next to the finite ones
    "rank.mrrw_rank_lb",
}


def _public_definitions(tree, module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree):
    # the benchmark's tracer names the functions it wraps in strings
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def test_every_public_name_is_used_outside_the_tests():
    defined = {}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update(_public_definitions(tree, path.stem))
        if path.name != "__init__.py":  # re-exports are not uses
            used.update(_references(tree))
    for path in sorted(PERFBENCH.glob("*.py")):
        used.update(_references(ast.parse(path.read_text(), str(path))))
    unused = {qualified for qualified, name in defined.items() if name not in used}
    assert unused == ALLOWED
