"""The combinatorial and spectral halves of the library meet only in errors and
weights; verify and cli are the only modules that read both."""

import ast
from pathlib import Path

import torsionlab

PACKAGE = Path(torsionlab.__file__).parent
COMBINATORIAL = {"complexes", "hodge", "torsion"}
SPECTRAL = {"zetas", "models", "boundary"}
SHARED = {"errors", "weights"}


def _imports(module: str) -> set[str]:
    """The package modules that `module` imports, by their short names; the
    package imports itself only relatively."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert not any(name.startswith("torsionlab") for name in names), module
    return found


def test_the_module_list_is_complete():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert modules == COMBINATORIAL | SPECTRAL | SHARED | {"verify", "cli", "__init__"}


def test_each_half_imports_only_itself_and_the_shared_modules():
    for half in (COMBINATORIAL, SPECTRAL):
        for module in sorted(half):
            assert _imports(module) <= half | SHARED, module
    assert _imports("weights") == {"errors"} and _imports("errors") == set()


def test_only_verify_and_cli_read_both_halves():
    both = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"
            and _imports(p.stem) & COMBINATORIAL and _imports(p.stem) & SPECTRAL}
    assert both == {"verify", "cli"}
