"""Every name a module lists in ``__all__`` exists, so its star import works,
every module-level import is used, and no module imports scipy."""

import ast
import importlib
import pkgutil
from pathlib import Path

import urnoverflow

MODULES = ["urnoverflow"] + [f"urnoverflow.{m.name}"
                             for m in pkgutil.iter_modules(urnoverflow.__path__)]


def test_every_exported_name_resolves():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", [])
                    if not hasattr(module, attr)]
    assert not missing, f"names in __all__ that do not resolve: {missing}"


def _unused_imports(path):
    """Module-level imports of the file that are neither used nor listed in
    its __all__."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_no_unused_module_imports():
    src = Path(urnoverflow.__file__).parent
    unused = [u for path in sorted(src.glob("*.py")) if path.name != "__init__.py"
              for u in _unused_imports(path)]
    assert not unused, f"unused module-level imports: {unused}"


def _scipy_imports(path):
    """'<file>:<line>' for every import of scipy in the file, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.partition(".")[0] == "scipy" for name in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_imports_scipy():
    # the package runs on numpy and the standard library, on every path,
    # including the ones no CLI command reaches
    src = Path(urnoverflow.__file__).parent
    found = [f for path in sorted(src.glob("*.py")) for f in _scipy_imports(path)]
    assert found == []
