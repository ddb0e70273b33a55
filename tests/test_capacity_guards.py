"""Every capacity guard reports what it needed and what it was allowed."""

import ast
from pathlib import Path

import f2lab

SRC = Path(f2lab.__file__).resolve().parent


def _capacity_raises():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "CapacityError":
                    yield f"{path.name}:{node.lineno}", node.exc


def test_every_capacity_error_carries_required_and_budget():
    raises = list(_capacity_raises())
    assert len(raises) >= 24  # the guards in the tree when this check was written
    for where, call in raises:
        given = {kw.arg: kw.value for kw in call.keywords}
        for key in ("required", "budget"):
            assert key in given, f"{where}: CapacityError without {key}="
            value = given[key]
            assert not (isinstance(value, ast.Constant) and value.value is None), \
                f"{where}: {key}=None"
