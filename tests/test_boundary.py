"""Module boundaries of the package, read from its source with `ast`.

The oracle is the tests' reference for the decision pipeline, so it must not
share a kernel with it: it imports only `core` and the standard library, and
it alone takes cartesian products of moves. The pipeline's one step rule is
`StepTables.step`, which only the explorer and the width check call. The
width-1 reduction and the MCA translation read the pipeline's explored
configuration graph, so neither imports the separate width check (`width`),
the reduction does not import the oracle, and the translation does not
import `StepTables`. Only the explorer raises the width error, so every
configuration graph is complete; its witness comes from the width check,
which keeps no edges and so does not explore. The shared graph routines
(`graphs`) import nothing from the package, and the mean-payoff solver only
`core`. Only `determinize` and the width check import the breadth-first
search (`graphs.shortest_path`): every closed walk a certificate prints is
found by the configuration graph's one search. No module imports another's
private (underscore) names or stores data in an object's `__dict__`. Only
the four automaton classes, whose `cached_property` tables need an instance
dict, are dataclasses: the value records are named tuples, which cost a
fraction of a dataclass to define at import.
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


def _private_imports(tree: ast.Module) -> list[str]:
    """Underscore-prefixed names imported from a package module."""
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "nwaq")
        for alias in node.names
        if alias.name.startswith("_")
    ]


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


def _dataclasses(tree: ast.Module) -> list[str]:
    """Classes decorated with `dataclass` or `dataclasses.dataclass`, called or not."""

    def is_dataclass(node) -> bool:
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", None) == "dataclass" or getattr(node, "attr", None) == "dataclass"

    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(is_dataclass(d) for d in node.decorator_list)
    ]


def _package_imports(name: str) -> set[str]:
    """The package modules that module `name` imports, after checking that
    everything else it imports is in the standard library."""
    imported = _imports(_tree(name))
    local = {m for m in imported if m.startswith(".") or m.split(".")[0] == "nwaq"}
    outside = {m for m in imported - local if m.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, outside
    return local


def test_oracle_imports_only_core_and_the_standard_library():
    assert _package_imports("oracle.py") == {".core"}


def test_graphs_imports_only_the_standard_library():
    assert _package_imports("graphs.py") == set()


def test_only_determinize_and_the_width_check_import_the_breadth_first_search():
    # every other search runs through the configuration graph's own methods:
    # `access` and `closed_walk`, its one closed-walk search
    importers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "graphs"
        and any(alias.name == "shortest_path" for alias in node.names)
    }
    assert importers == {"determinize.py", "width.py"}


def test_meanpayoff_imports_only_core_and_the_standard_library():
    assert _package_imports("meanpayoff.py") == {".core"}


def test_no_module_imports_a_private_name():
    private = {path.name: _private_imports(_tree(path.name)) for path in sorted(SRC.glob("*.py"))}
    assert len(private) > 10
    assert not {name: names for name, names in private.items() if names}


def test_reduce_does_not_import_the_oracle():
    imported = _imports(_tree("reduce.py"))
    assert not {m for m in imported if m.rsplit(".", 1)[-1] == "oracle"}, imported


def test_reduce_does_not_import_the_width_check():
    # nor does the MCA translation: both read the explored graph
    for module in ("reduce.py", "mca.py"):
        imported = _imports(_tree(module))
        assert not {m for m in imported if m.rsplit(".", 1)[-1] == "width"}, (module, imported)


def _calls(tree: ast.AST) -> set[str]:
    """Names of the functions and methods called anywhere in `tree`."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def _takes_products(tree: ast.Module) -> bool:
    """Whether the module imports `itertools.product` or reads it off `itertools`."""
    return any(
        isinstance(node, ast.ImportFrom) and node.module == "itertools" and any(a.name == "product" for a in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "product" and getattr(node.value, "id", None) == "itertools"
        for node in ast.walk(tree)
    )


def test_explorers_step_by_the_step_tables():
    # the oracle's `step` calls are its own rule: it imports only `core`
    functions = {
        (path.name, node.name): node
        for path in sorted(SRC.glob("*.py"))
        if path.name != "oracle.py"
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.FunctionDef) and "step" in _calls(node)
    }
    assert set(functions) == {("determinize.py", "explore"), ("width.py", "has_width")}
    assert all("StepTables" in _calls(function) for function in functions.values())
    tree = _tree("mca.py")
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "StepTables" not in imported, imported


def _callers(name: str) -> set[tuple[str, str]]:
    """(module, function) of every function in the package that calls `name`."""
    return {
        (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.FunctionDef) and name in _calls(node)
    }


def test_only_the_explorer_raises_the_width_error():
    # every configuration graph is complete: its readers have no width check
    assert _callers("width_error") == {("determinize.py", "explore")}


def test_one_loop_values_lasso_runs():
    # the oracle and the MCA evaluator keep their own step rules and share the periodic window
    assert _callers("limavg_periodic") == {("core.py", "lasso_run_value")}
    assert _callers("lasso_run_value") == {("oracle.py", "run_value"), ("mca.py", "evaluate_lasso_mca")}


def test_the_width_search_does_not_explore():
    # it keeps no edges: `explore` calls it for its witness, not the other way
    tree = _tree("width.py")
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "explore" not in imported | _calls(tree), imported


def test_decisions_build_no_automaton():
    # universality negates the weights in the step tables, not in a second automaton
    builders = {"Nwa", "WeightedAutomaton", "LabeledAutomaton"}
    for module in ("decide.py", "starcond.py"):
        assert not builders & _calls(_tree(module)), module
    assert "min_effective_weight" not in _calls(_tree("starcond.py"))


def test_only_the_oracle_takes_products():
    assert _takes_products(ast.parse("import itertools\nitertools.product(a, b)\n"))
    assert _takes_products(ast.parse("from itertools import chain, product as p\n"))
    assert not _takes_products(ast.parse("from itertools import accumulate\nproduct = 1\n"))
    users = {path.name for path in sorted(SRC.glob("*.py")) if _takes_products(_tree(path.name))}
    assert users == {"oracle.py"}


def test_no_module_writes_to_dict():
    writes = {path.name: _dict_writes(_tree(path.name)) for path in sorted(SRC.glob("*.py"))}
    assert len(writes) > 10
    assert not {name: lines for name, lines in writes.items() if lines}


def test_only_the_automata_are_dataclasses():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py")) for name in _dataclasses(_tree(path.name))}
    assert found == {("core.py", "Alphabet"), ("core.py", "LabeledAutomaton"), ("core.py", "Nwa"), ("mca.py", "Mca")}


def test_the_checks_catch_what_they_forbid():
    tree = ast.parse(
        "from . import determinize\nfrom .oracle import x\nimport numpy\n"
        "nwa.__dict__['t'] = 1\nobj.__dict__.update(t=1)\nobj.__dict__ = {}\nd = nwa.__dict__.get('t')\n"
        "from .meanpayoff import _sccs, infimum_ratio\nfrom __future__ import annotations\n"
    )
    assert _imports(tree) == {".determinize", ".oracle", "numpy", ".meanpayoff", "__future__"}
    assert sorted(_dict_writes(tree)) == [4, 5, 6]
    assert _private_imports(tree) == ["_sccs"]
    tree = ast.parse(
        "@dataclass\nclass A: pass\n@dataclass(frozen=True)\nclass B: pass\n"
        "@dataclasses.dataclass(order=True)\nclass C: pass\n@cache\nclass D(NamedTuple): pass\n"
    )
    assert _dataclasses(tree) == ["A", "B", "C"]
