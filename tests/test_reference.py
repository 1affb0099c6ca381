"""The split between the product modules and ``gonalgeo.reference``.

The reference oracles live in one module that only ``oracle-check`` and
the package's top level import; the product modules compute every answer
without the labeled world.  ``oracle-check`` compares the walk with the
census it has already priced, so one process computes each census once.
"""

import ast
import importlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

import gonalgeo
import gonalgeo.cli
import gonalgeo.degeneration
from gonalgeo import reference
from gonalgeo.cli import main
from gonalgeo.degeneration import full_census
from gonalgeo.errors import InvariantViolation
from gonalgeo.reference import cross_check_walk

PRODUCT_MODULES = ("asymptotics", "cache", "characters", "covers", "degeneration", "digits", "errors", "invariants")
LABELED_WORLD = {"reference", "tables", "perm"}

# the names the benchmark binds or calls where they lived before the move
BENCHMARK_NAMES = (
    ("gonalgeo.tables", "group_tables"),
    ("gonalgeo.degeneration", "group_tables"),
    ("gonalgeo.degeneration", "verify_twist_orbits"),
    ("gonalgeo.covers", "class_representatives"),
    ("gonalgeo.covers", "count_tuples"),
    ("gonalgeo.characters", "character_table"),
    ("gonalgeo.cli", "class_count"),
)


def _load_time_imports(name):
    """``(imported module, imported names)`` for every import that runs when
    module ``name`` is loaded: the bodies of its functions are skipped."""
    tree = ast.parse(Path(gonalgeo.__file__).with_name(f"{name}.py").read_text())
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module in (None, "gonalgeo"):  # from . import reference
                yield from ((module, set()) for module in names)
            else:
                yield node.module.rpartition(".")[2], names
        elif isinstance(node, ast.Import):
            yield from ((alias.name.rpartition(".")[2], set()) for alias in node.names)
        else:
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("name", PRODUCT_MODULES)
def test_no_product_module_loads_the_labeled_world(name):
    modules = {module for module, _names in _load_time_imports(name)}
    assert not modules & LABELED_WORLD, name


def test_cli_imports_only_the_walk_comparison_from_reference():
    imported = [names for module, names in _load_time_imports("cli") if module in LABELED_WORLD]
    assert imported and all(imported)  # no bare module import
    assert set().union(*imported) == {"cross_check_walk", "class_count"}


@pytest.mark.parametrize("module, name", BENCHMARK_NAMES)
def test_the_benchmark_names_are_the_reference_objects(module, name):
    assert getattr(importlib.import_module(module), name) is getattr(reference, name)


def test_census_then_oracle_check_compute_one_census(tmp_path, monkeypatch, capsys):
    calls = []
    for module in (gonalgeo.cli, gonalgeo.degeneration):
        monkeypatch.setattr(module, "full_census", lambda k, b, compute=module.full_census: calls.append((k, b)) or compute(k, b))
    gonalgeo.cli._census_of.cache_clear()
    assert main(["census", "--k", "4", "--b", "10", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["oracle-check", "--k", "4", "--b", "10", "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True
    assert calls == [(4, 10)]


# each census field, perturbed alone, and the tally the comparison names;
# N1 counts the split classes too, so a split cell moves with it and the
# central tally stays put
PERTURBED = {
    "central": lambda cen: {"type_one": cen.type_one + 1},
    "overlap": lambda cen: {"type_three": cen.type_three + 3},
    "split size j = 1": lambda cen: {
        "type_one": cen.type_one + 1,
        "split_table": {**cen.split_table, (1, 0): cen.split_table[1, 0] + 1},
    },
    "disjoint": lambda cen: {"type_two_two": cen.type_two_two + 1},
}


@pytest.mark.parametrize("field", PERTURBED)
def test_a_perturbed_census_field_breaks_the_walk_comparison(field):
    counts, census = full_census(4, 10)
    assert cross_check_walk(4, 10, census) == counts
    skewed = replace(census, **PERTURBED[field](census))
    with pytest.raises(InvariantViolation, match=f"disagree on the {field} tally at \\(4, 10\\)"):
        cross_check_walk(4, 10, skewed)
