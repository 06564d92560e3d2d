"""numpy is the one runtime dependency: of the package's imports and of its declared dependencies."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_the_standard_library_and_numpy():
    foreign = []
    for path in sorted((ROOT / "src" / "tmnovelty").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert foreign == []


def test_declared_dependencies_name_only_numpy():
    # A text match: tomllib is not in the standard library before Python 3.11.
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    declared = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert declared is not None
    names = [re.match(r"[A-Za-z0-9_.-]+", item).group() for item in re.findall(r'"([^"]*)"', declared.group(1))]
    assert names == ["numpy"]
