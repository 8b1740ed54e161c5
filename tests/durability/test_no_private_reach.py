"""The durability package reads no other object's private state and walks
no middleware chain: each stateful component serializes itself with
``state_dict()`` / ``load_state()``, and a snapshot visits the components
``build_stack`` registered on the stack."""

import ast
from pathlib import Path

import repro.durability

PACKAGE = Path(repro.durability.__file__).parent


def _forbidden(name):
    return name == "inner" or name.startswith("_")


def reaches(package=PACKAGE):
    """``file:line expression`` for every ``obj._name`` / ``obj.inner``
    whose ``obj`` is not ``self``, including the ``getattr``-family
    spelling with a literal name."""
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                owner = node.value
                if _forbidden(node.attr) and not (isinstance(owner, ast.Name) and owner.id == "self"):
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr", "hasattr", "delattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
                and _forbidden(node.args[1].value)
            ):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return found


def test_durability_reads_no_private_state_and_walks_no_chain():
    assert reaches() == []
