"""No module of the package imports a name it never uses.

No linter ships with the toolchain, so this scan stands in for one: it
parses each module under ``src/instanceid/`` except ``__init__.py``, which
imports to re-export, and lists each imported name that no expression or
annotation of the module reads. ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "instanceid"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports at any level and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        getattr(node, field, None) for node in ast.walk(tree) for field in ("annotation", "returns")
    ]
    for annotation in filter(None, annotations):  # quoted ones too, such as -> "KeyPair"
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {name.id for name in ast.walk(quoted) if isinstance(name, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = "import json\nimport os.path\nfrom typing import Any, Optional\nx: Optional[int]\n"
    assert unused_imports(source) == ["json", "os", "Any"]
    assert unused_imports("from a import B, C\ndef f(c: 'C') -> 'list[B]': pass\n") == []
    assert unused_imports("from a import B\nx = 'B'\n") == ["B"]
