"""The SciPy functions that the package's modules import."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "oclust"

# the functions that moving SciPy out of the runtime must port (ROADMAP.md);
# a module that imports another one adds it here and to that list
SCIPY_FUNCTIONS = {"scipy.special.betainc", "scipy.special.betaincinv",
                   "scipy.special.gammaincinv"}


def _is_scipy(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "scipy"


def test_runtime_imports_only_the_listed_scipy_functions():
    imported = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                # ``import scipy...`` reaches any function by attribute, so name them instead
                assert not any(_is_scipy(alias.name) for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom) and _is_scipy(node.module):
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert imported == SCIPY_FUNCTIONS
