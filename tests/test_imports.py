"""No module of the package imports a name it never uses, no private
helper outlives its last reader, and no field is stored that nothing reads.

No linter ships with the toolchain, so three scans stand in for one. The
first parses each module under ``src/instanceid/`` except ``__init__.py``,
which imports to re-export, and lists each imported name that no expression
or annotation of the module reads. ``from __future__`` imports are exempt.
The second lists each single-underscore function, class, method and
module-level name of the package that no module reads outside its own
definition. The third lists each attribute stored on ``self`` and each
dataclass or ``NamedTuple`` field that no module of the package reads.
"""

import ast
import importlib
from pathlib import Path

import pytest

from instanceid.service import ENDPOINTS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "instanceid"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# RegistryServer.handle looks each endpoint's handler up by this name
DISPATCHED = {"_do_" + endpoint.replace("-", "_") for endpoint in ENDPOINTS}
# perfbench/gate_mixed.py builds a RequestContext with its fields by position
UNREAD_FIELDS_KEPT = {("gatekeeper", "RequestContext", "unit")}


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


def private_definitions(tree: ast.Module) -> list:
    """(class, name, node) of each single-underscore function, class, method
    and module-level name ``tree`` defines; ``class`` names a method's class
    and is ``None`` otherwise, and ``node`` is the whole definition."""
    found = []
    for parent in ast.walk(tree):
        owner = parent.name if isinstance(parent, ast.ClassDef) else None
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((owner, child.name, child))
            elif parent is tree and isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                found += [(None, t.id, child) for t in targets if isinstance(t, ast.Name)]
    return [entry for entry in found if entry[1][:1] == "_" and entry[1][:2] != "__"]


def unread_private_names(sources: dict[str, str]) -> list:
    """(module, class, name) of each private definition in ``sources``
    (module name -> source) that no module reads outside the definition
    itself. A read is a loaded name or attribute, or an imported name, and
    is matched by name alone, whatever it is read from."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: dict[str, list] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((module, id(node)))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((module, id(node)))
            elif isinstance(node, ast.alias):
                reads.setdefault(node.name, []).append((module, id(node)))
    unread = []
    for module, tree in trees.items():
        for owner, name, definition in private_definitions(tree):
            inside = {(module, id(node)) for node in ast.walk(definition)}
            if all(read in inside for read in reads.get(name, [])):
                unread.append((module, owner, name))
    return unread


def overrides(module: str, owner, name: str) -> bool:
    """Whether ``owner.name`` in ``instanceid.<module>`` replaces a base
    class's method, which the base class's own code reads."""
    cls = getattr(importlib.import_module(f"instanceid.{module}"), owner or "", None)
    return cls is not None and any(name in vars(base) for base in cls.__mro__[1:])


def test_every_private_definition_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    unread = [
        ".".join(filter(None, entry))
        for entry in unread_private_names(sources)
        if entry[2] not in DISPATCHED and not overrides(*entry)
    ]
    assert unread == []


def test_the_scan_finds_an_unread_private_name():
    source = (
        "_X = 1\n_Y: int = 2\nprint(_Y)\n"
        "def _dead(n):\n    return _dead(n - 1)\n"
        "class _C:\n    def _m(self):\n        return self._n()\n"
        "    def _n(self):\n        pass\n"
    )
    dead = [("m", None, "_X"), ("m", None, "_dead"), ("m", None, "_C"), ("m", "_C", "_m")]
    assert unread_private_names({"m": source}) == dead
    assert unread_private_names({"m": source, "n": "from m import _X, _C\n"}) == [
        ("m", None, "_dead"), ("m", "_C", "_m")
    ]
    assert overrides("incidents", "IncidentReport", "_make")
    assert not overrides("registry", "Registry", "_apply")


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether ``cls`` is a dataclass or a ``NamedTuple``."""
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return any(getattr(base, "id", None) == "NamedTuple" for base in cls.bases)


def unread_fields(sources: dict[str, str]) -> list:
    """(module, class, name) of each attribute a method in ``sources``
    (module name -> source) stores on ``self``, and of each dataclass or
    ``NamedTuple`` field, that no module reads. A read is a loaded
    attribute, matched by name alone, whatever it is read from."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, tree in trees.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            fields = [
                statement.target.id for statement in cls.body
                if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
            ] if _is_record(cls) else []
            fields += [
                node.attr for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            ]
            unread += [(module, cls.name, name) for name in dict.fromkeys(fields)
                       if name not in reads]
    return unread


def test_every_stored_field_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert [entry for entry in unread_fields(sources) if entry not in UNREAD_FIELDS_KEPT] == []


def test_the_scan_finds_an_unread_field():
    source = (
        "from dataclasses import dataclass\nfrom typing import NamedTuple\n"
        "@dataclass(frozen=True)\nclass D:\n    a: int\n    b: int = 0\n    C = 1\n"
        "class T(NamedTuple):\n    t: int\n"
        "class S:\n    def __init__(self, x):\n        self.x = x\n        self.y = x\n"
        "        self.n = 0\n    def bump(self):\n        self.n += 1\n        return self.y\n"
    )
    dead = [("m", "D", "a"), ("m", "D", "b"), ("m", "T", "t"), ("m", "S", "x"), ("m", "S", "n")]
    assert unread_fields({"m": source}) == dead
    assert unread_fields({"m": source, "n": "def f(d, t):\n    return d.a + t.t + t.x\n"}) == [
        ("m", "D", "b"), ("m", "S", "n")
    ]
