"""Every module under ``src/lmtrees`` and ``tests`` uses what it imports, and
the package exports exactly its user API."""

import ast
import types
from pathlib import Path

import pytest

import lmtrees

ROOT = Path(__file__).resolve().parent.parent
# the package __init__ imports names only to re-export them
MODULES = [
    path
    for folder in (ROOT / "src" / "lmtrees", ROOT / "tests")
    for path in sorted(folder.glob("*.py"))
    if path != ROOT / "src" / "lmtrees" / "__init__.py"
]


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as np.zeros roots at a Name node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_plain_aliased_and_exported_names():
    source = (
        "import os\nimport numpy as np\nfrom a.b import c, d as e\nfrom f import g\n"
        "__all__ = ['g']\nnp.zeros(e)\n"
    )
    assert unused_imports(source) == ["c", "os"]


# the package's user API; a change here is a change of the public surface
PUBLIC_NAMES = [
    "CsvSchema", "DataError", "Dataset", "DegenerateRegressorError",
    "GofMatrix", "GrowControl", "InsufficientDataError", "LinearFit", "PruneResult",
    "ReplicationRecord", "RngStream", "STRATEGIES", "ScenarioConfig", "Split", "SplitColumn",
    "StrategyConfig", "TestOutcome", "TreeNode", "adjusted_rand_index", "aggregate_records",
    "best_split_point", "cost_complexity_path", "cv_prune", "fit_ols", "generate", "grow",
    "ic_prune", "leaves", "load_csv", "make_gof", "parse_strategy", "partition_labels", "predict",
    "predict_tree", "prune_at", "run_strategy", "run_study", "select_variable", "suplm_pvalue",
    "tree_from_json", "tree_to_json", "true_partition", "write_csv",
]


def test_package_exports_exactly_its_user_api():
    exported = sorted(
        name for name, value in vars(lmtrees).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == sorted(PUBLIC_NAMES)
