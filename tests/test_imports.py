"""No module of the package, its scripts or its tests imports a name it
never uses; ``dirquant/__init__.py`` is exempt, since its imports are the
package's re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in ("src/dirquant", "scripts", "tests")
    for path in (ROOT / folder).glob("*.py")
    if path != ROOT / "src" / "dirquant" / "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no other node reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nprint(np.pi, sep)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: path"]
