"""The docs name only live code.

Every backticked dotted name in ``docs/*.md`` whose head is ``repro`` or
a class defined in the ``repro`` package must resolve: to a module
attribute, a class attribute, a dataclass field, or an attribute the
class (or one of its bases) assigns as ``self.<name>``.  A name that
reaches a value of unknown type (a function, an instance attribute)
resolves there; the docs' prose covers the rest.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import textwrap
from functools import lru_cache
from pathlib import Path

import repro

DOCS = sorted((Path(__file__).parent.parent / "docs").glob("*.md"))
PACKAGE = Path(repro.__file__).parent

#: A backticked dotted name, optionally called: `Class.attr`,
#: `repro.module.function(...)`.
NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


@lru_cache(maxsize=1)
def _classes() -> dict[str, list[str]]:
    """Class name -> the modules that define a class of that name."""
    classes: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(module)
    return classes


@lru_cache(maxsize=None)
def _instance_attributes(cls) -> frozenset:
    """Attributes *cls* and its ``repro`` bases give their instances:
    dataclass fields, annotations and ``self.<name>`` assignments."""
    names = set()
    if dataclasses.is_dataclass(cls):
        names.update(f.name for f in dataclasses.fields(cls))
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro"):
            continue
        names.update(vars(klass).get("__annotations__", {}))
        tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                names.add(node.attr)
    return frozenset(names)


def _resolves(obj, attrs) -> bool:
    for attr in attrs:
        if inspect.ismodule(obj) and not hasattr(obj, attr):
            try:
                importlib.import_module(f"{obj.__name__}.{attr}")
            except ModuleNotFoundError:
                return False
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
            continue
        return inspect.isclass(obj) and attr in _instance_attributes(obj)
    return True


def _resolve(name: str) -> bool:
    head, *attrs = name.split(".")
    if head == "repro":
        return _resolves(repro, attrs)
    return any(_resolves(getattr(importlib.import_module(module), head),
                         attrs)
               for module in _classes()[head])


def _cited_names():
    for doc in DOCS:
        for number, line in enumerate(
                doc.read_text(encoding="utf-8").splitlines(), 1):
            for match in NAME.finditer(line):
                name = match.group(1)
                head = name.split(".", 1)[0]
                if head == "repro" or head in _classes():
                    yield f"{doc.name}:{number}", name


def test_every_cited_name_resolves():
    cited = list(_cited_names())
    assert cited
    stale = [f"{where}: `{name}`" for where, name in cited
             if not _resolve(name)]
    assert not stale, "docs name code that does not exist:\n" + \
        "\n".join(stale)
