"""The package holds no API that only the tests use, and its layers re-check no config.

Each public top-level function and class of ``src/hypermoe/``, and each
public method of such a class, must be named by code in ``src/`` or
``perfbench/`` outside its own definition. A name counts when an identifier,
an attribute, an import, or a dotted string (as in the benchmark's table of
traced functions) spells it. Dunder methods are exempt. The benchmark's files
are only parsed, never imported. A reference implementation that only tests
compare against lives in the tests, as ``tests/test_hyper.py``'s per-token
generated expert does.

``moe.py`` and ``hyper.py`` neither raise nor import ``ConfigurationError``:
``ModelConfig`` and ``Model`` check every value the layers receive.

``hyper.py`` defines no class: the HyperExpert's tables, selection MLP,
projector and generator are plain tensors and tuples, as the expert banks are.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypermoe"


def public_definitions():
    """(path, qualified name, node) of each public top-level function and class and its public methods."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, f"{node.name}.{item.name}", item


def references():
    """(path, line, name) of every name that code in src/ or perfbench/ spells."""
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")])
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = node.name.split(".")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if not re.fullmatch(r"[\w.]+", node.value):
                    continue  # prose, not a dotted name
                names = node.value.split(".")
            else:
                continue
            for name in names:
                yield path, node.lineno, name


def test_every_public_name_is_used_outside_the_tests():
    sites: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path, line, name in references():
        sites.setdefault(name, []).append((path, line))
    unused = []
    for path, qualname, node in public_definitions():
        own = range(node.lineno, node.end_lineno + 1)
        name = qualname.rsplit(".", 1)[-1]
        if all(p == path and line in own for p, line in sites.get(name, [])):
            unused.append(f"{path.relative_to(ROOT)}: {qualname}")
    assert not unused, "public names that nothing in src/ or perfbench/ uses: " + ", ".join(unused)


def test_layers_raise_no_configuration_error():
    """A value is checked where it enters: a config by ``ModelConfig``, the tasks' pool bounds and
    ``Model``. The layers that ``Model`` builds trust what it hands them and raise no config error."""
    offenders = []
    for name in ("moe.py", "hyper.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id == "ConfigurationError":
                offenders.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.alias) and node.name == "ConfigurationError":
                offenders.append(f"{name}: imports ConfigurationError")
    assert not offenders, "layers that raise or import ConfigurationError: " + ", ".join(offenders)


def test_hyper_defines_no_class():
    path = PACKAGE / "hyper.py"
    classes = [f"hyper.py:{node.lineno} {node.name}" for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    assert not classes, "classes that wrap HyperExpert parameters, which stay plain tuples: " + ", ".join(classes)
