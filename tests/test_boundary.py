"""Module boundaries of the package, read from its source with `ast`.

The oracle is the tests' reference for the decision pipeline, so it must not
share a kernel with it: it imports only `core` and the standard library. The
width-1 reduction steps through the pipeline's `StepTables`, not the oracle.
No module stores data in an object's `__dict__`.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nwaq"
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def _imports(tree: ast.Module) -> set[str]:
    """Imported modules, package-relative ones as '.name'."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if node.module is None:
                out.update(base + alias.name for alias in node.names)
            else:
                out.add(base)
    return out


def _dict_writes(tree: ast.Module) -> list[int]:
    """Lines that store into, delete from or mutate some `x.__dict__`."""

    def is_dict(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "__dict__"

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_dict(node.value) and not isinstance(node.ctx, ast.Load):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATORS and is_dict(node.func.value):
                lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            lines.extend(t.lineno for t in targets if is_dict(t))
    return lines


def test_oracle_imports_only_core_and_the_standard_library():
    imported = _imports(_tree("oracle.py"))
    local = {m for m in imported if m.startswith(".") or m.split(".")[0] == "nwaq"}
    assert local == {".core"}, local
    outside = {m for m in imported - local if m.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, outside


def test_reduce_does_not_import_the_oracle():
    imported = _imports(_tree("reduce.py"))
    assert not {m for m in imported if m.rsplit(".", 1)[-1] == "oracle"}, imported


def test_no_module_writes_to_dict():
    writes = {path.name: _dict_writes(_tree(path.name)) for path in sorted(SRC.glob("*.py"))}
    assert len(writes) > 10
    assert not {name: lines for name, lines in writes.items() if lines}


def test_the_checks_catch_what_they_forbid():
    tree = ast.parse(
        "from . import determinize\nfrom .oracle import x\nimport numpy\n"
        "nwa.__dict__['t'] = 1\nobj.__dict__.update(t=1)\nobj.__dict__ = {}\nd = nwa.__dict__.get('t')\n"
    )
    assert _imports(tree) == {".determinize", ".oracle", "numpy"}
    assert sorted(_dict_writes(tree)) == [4, 5, 6]
