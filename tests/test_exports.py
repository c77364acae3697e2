"""Public names: every ``__all__`` entry exists, the package root
re-exports only names its modules declare public, and no module imports a
name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import transferopt

_MODULES = sorted(m.name for m in pkgutil.iter_modules(transferopt.__path__)
                  if m.name != "__main__")


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"transferopt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _root_reexports():
    tree = ast.parse(Path(transferopt.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


def test_root_reexports_are_declared_public():
    pairs = list(_root_reexports())
    assert pairs
    undeclared = []
    for module_name, name in pairs:
        module = importlib.import_module(f"transferopt.{module_name}")
        if name not in getattr(module, "__all__", ()):
            undeclared.append(f"{module_name}.{name}")
        assert getattr(transferopt, name) is getattr(module, name)
    assert undeclared == []


_SOURCES = sorted(Path(transferopt.__file__).parent.glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["__all__"]):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for name, node in _imported_names(tree):
        reexport = path.stem == "__init__" and isinstance(node, ast.ImportFrom)
        if name not in used and name not in exported and not reexport:
            unused.append(f"{name} (line {node.lineno})")
    assert unused == []


@pytest.mark.parametrize("owner, name", [
    ("transferopt", "SourceBlock"),
    ("transferopt", "WeightedDataset"),
    ("transferopt.weighted_mle", "SourceBlock"),
    ("transferopt.weighted_mle", "WeightedDataset"),
    ("transferopt.weighted_mle", "_active_blocks"),
    ("transferopt.kl", "_whole_count"),
    ("transferopt.harness", "_unit_direction"),
    ("transferopt.planner", "direction_gram"),
    ("transferopt.harness", "_ensemble_gram"),
    ("transferopt", "ScaleError"),
    ("transferopt.errors", "ScaleError"),
    ("transferopt.kl", "_divergence"),
    *(("transferopt.harness", name) for name in (
        "build_ensemble", "verify_claim", "config_family", "config_params",
        "config_ensemble", "config_sweep", "resolve_grid", "_check_grid",
        "_check_source_index")),
])
def test_removed_names_stay_removed(owner, name):
    """The block classes gave the weighted MLE a second data form beside
    the trainer's ``(target, sources, weights)``; the count rule now lives
    in ``families.whole_count``. ``brute_force_simplex`` refuses K > 4
    with ValueError, as it refuses any other bad input, and ``mc_fits``
    is the one gate of a Monte Carlo estimate. The config readers moved
    from ``harness`` to ``config``."""
    assert not hasattr(importlib.import_module(owner), name)


def test_harness_binds_no_config_name():
    """``config`` turns configs into library objects; ``harness`` reads
    none and raises no ConfigError."""
    harness = importlib.import_module("transferopt.harness")
    config = importlib.import_module("transferopt.config")
    tree = ast.parse(Path(config.__file__).read_text(encoding="utf-8"))
    imported = {name for name, _ in _imported_names(tree)}
    own = {n for n in vars(config) if not n.startswith("__")} - imported
    assert own and not own & set(vars(harness))
    assert "ConfigError" not in vars(harness)


def test_softmax_has_no_second_score_projection():
    # projected_gram takes score_batch(...) @ directions for every family
    assert not hasattr(transferopt.SoftmaxRegression, "score_project_batch")


def test_categorical_has_one_simplex_check():
    # validate and kl_divergence share _simplex_probs, which takes the floor
    assert not hasattr(transferopt.Categorical, "_interior_probs")
