"""The package holds no API that only the tests use, and its layers re-check no config.

Each public top-level function and class of ``src/hypermoe/``, and each
public method of such a class, must be named by code in ``src/`` or
``perfbench/`` outside its own definition. A name counts when an identifier,
an attribute, an import, or a dotted string (as in the benchmark's table of
traced functions) spells it. Dunder methods are exempt. The benchmark's files
are only parsed, never imported. A reference implementation that only tests
compare against lives in the tests, as ``tests/oracles.py``'s central
difference and ``tests/test_hyper.py``'s per-token generated expert do.

``moe.py`` and ``hyper.py`` neither raise nor import ``ConfigurationError``:
``ModelConfig`` and ``Model`` check every value the layers receive.

``hyper.py`` defines no class: the HyperExpert's tables, selection MLP,
projector and generator are plain tensors and tuples, as the expert banks are.
``moe.py`` defines one, ``GateDecision``, a gate call's routing result; every
weight pair a block holds (its gate, bank, shared FFN or dense FFN) is a plain
tuple of two tensors.

``training.py`` and ``cli.py`` name no task kind or metric: each task in
``tasks.py`` says how its outputs are shaped, trained and scored, and
``Model`` alone reads the kind, for its scalar input.

No backward rule of a training graph closes over a ``Tensor``: a rule reaches
its parents only through its node's arguments, and keeps only the arrays it
reads, so the graph holds no op output's data. The fused expert rules keep
``x``'s own data and no gathered copy of it, and the generated expert's rule
keeps no per-group D or U stack: their backwards gather and rebuild those.
"""

import ast
import pathlib
import re

import numpy as np
import pytest

from hypermoe import tensor as T
from hypermoe.config import LAYER_KINDS, TASKS, ModelConfig
from hypermoe.model import Model
from hypermoe.tasks import generate_task_batch
from hypermoe.tensor import Rng, Tensor
from hypermoe.training import combined_loss

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


def test_task_kind_stays_behind_the_task():
    """Each task says how its outputs are shaped, trained and scored, so neither the training loop
    nor the CLI spells a task kind or metric; ``Model`` alone reads the kind, for its scalar input."""
    spelled = re.compile(r"\b(?:classification|regression|accuracy|mse)\b|\.kind\b")
    offenders = [f"{name}:{lineno} {match.group()}"
                 for name in ("training.py", "cli.py")
                 for lineno, line in enumerate((PACKAGE / name).read_text(encoding="utf-8").splitlines(), 1)
                 for match in spelled.finditer(line)]
    assert not offenders, "task kinds or metrics named outside tasks.py: " + ", ".join(offenders)


def test_moe_defines_only_the_gate_decision():
    path = PACKAGE / "moe.py"
    classes = [node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    assert classes == ["GateDecision"], "moe.py's classes, where only the per-call routing result belongs: " + ", ".join(classes)


@pytest.mark.parametrize("layer_kind", LAYER_KINDS)
def test_block_weights_are_tensor_pairs(layer_kind):
    model = Model(ModelConfig(h=8, d_ff=8, n_experts=3, n_layers=2, moduli=[3, 4], train_size=16,
                          eval_size=16, layer_kind=layer_kind))
    pairs = {"dense": ("ffn",), "moe": ("gate", "bank"), "moe_share": ("gate", "bank", "shared"),
             "hypermoe": ("gate", "bank")}[layer_kind]
    for i, blk in enumerate(model.blocks):
        for key in pairs:
            pair = blk[key]
            assert type(pair) is tuple and len(pair) == 2 and all(type(w) is Tensor for w in pair), (i, key)


def captured_tensors(rule) -> list[str]:
    """The closure cells of ``rule`` that hold a Tensor, directly or inside a tuple or list."""

    def holds_tensor(value) -> bool:
        if isinstance(value, (tuple, list)):
            return any(holds_tensor(v) for v in value)
        return isinstance(value, Tensor)

    cells = zip(rule.__code__.co_freevars, rule.__closure__ or ())
    return [f"{rule.__qualname__}: {name}" for name, cell in cells if holds_tensor(cell.cell_contents)]


def test_captured_tensors_finds_a_tensor_in_a_tuple():
    held = (np.zeros(2), [Tensor(np.zeros(2))])
    plain = np.zeros(2)
    assert captured_tensors(lambda g: held) == ["test_captured_tensors_finds_a_tensor_in_a_tuple.<locals>.<lambda>: held"]
    assert captured_tensors(lambda g: plain) == []


GRAPH_CONFIGS = [(kind, task, "learned") for kind in LAYER_KINDS for task in TASKS] + [
    ("hypermoe", task, "compressed") for task in TASKS]


@pytest.mark.parametrize("layer_kind,task,source", GRAPH_CONFIGS)
def test_no_rule_closes_over_a_tensor(layer_kind, task, source):
    cfg = ModelConfig(h=8, d_ff=8, n_experts=3, top_k=2, n_layers=2, t=4, t_prime=4, t_k=4, b=2, moduli=[3, 4],
                      train_size=16, eval_size=16, batch_size=4, layer_kind=layer_kind, task=task,
                      embedding_source=source)
    model = Model(cfg)
    inputs, targets = generate_task_batch(model.task, Rng(0), cfg.batch_size)
    result = model.forward(inputs, training=True, noise_rng=Rng(1))
    loss, _, _ = combined_loss(result, targets, model.task, cfg)
    rules, stack, seen = [], [loss.node], set()
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen or not node.parents:  # a leaf, or an input needing no gradient
            continue
        seen.add(id(node))
        rules.append(node.rule)
        stack.extend(node.parents)
    assert len(rules) > 20
    offenders = [site for rule in rules for site in captured_tensors(rule)]
    assert not offenders, "rules that close over a Tensor: " + ", ".join(sorted(set(offenders)))


def captured_arrays(rule) -> list[np.ndarray]:
    """The arrays ``rule`` closes over: in a cell, inside a tuple or list, or in a function it closes over."""
    found, seen = [], set()

    def walk(value) -> None:
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (tuple, list)):
            for v in value:
                walk(v)
        elif getattr(value, "__closure__", None):
            for cell in value.__closure__:
                walk(cell.cell_contents)

    walk(rule)
    return found


@pytest.mark.parametrize("layer_kind,source", [("moe", "learned"), ("moe_share", "learned"),
                                               ("hypermoe", "learned"), ("hypermoe", "compressed")])
def test_fused_rules_keep_no_gathered_copy(monkeypatch, layer_kind, source):
    """A ``routed_experts`` or ``generated_expert`` rule holds no (T, h) or (T*K, h) array but
    ``x``'s own data, and a ``generated_expert`` rule no 3-D array with one row per group.
    d_ff, b and t_k differ from h, so no kept array shares a gathered copy's shape by chance."""
    calls = []
    for name in ("routed_experts", "generated_expert"):
        def recording(x, *args, op=getattr(T, name)):
            out = op(x, *args)
            calls.append((op.__name__, x.data, args, out.node.rule))
            return out

        monkeypatch.setattr(T, name, recording)
    cfg = ModelConfig(h=8, d_ff=12, n_experts=4, top_k=2, n_layers=2, t=4, t_prime=4, t_k=5, b=2, moduli=[3, 4],
                      train_size=16, eval_size=16, batch_size=4, layer_kind=layer_kind, embedding_source=source)
    model = Model(cfg)
    inputs, targets = generate_task_batch(model.task, Rng(0), cfg.batch_size)
    result = model.forward(inputs, training=True, noise_rng=Rng(1))
    combined_loss(result, targets, model.task, cfg)

    per_layer = ["routed_experts", "generated_expert"] if layer_kind == "hypermoe" else ["routed_experts"]
    assert [c[0] for c in calls] == per_layer * cfg.n_layers
    for name, xd, args, rule in calls:
        arrays = captured_arrays(rule)
        assert any(a is xd for a in arrays), name  # the walk sees the rule's arrays
        slots = args[2].size if name == "routed_experts" else len(xd)  # top_k 2: T*K slots, not T
        copies = [a.shape for a in arrays if a.shape in ((len(xd), cfg.h), (slots, cfg.h)) and a is not xd]
        assert not copies, f"{name} keeps gathered copies of x: {copies}"
        if name == "generated_expert":
            n_groups = len(args[0].data)
            stacks = [a.shape for a in arrays if a.ndim == 3 and a.shape[0] == n_groups]
            assert not stacks, f"generated_expert keeps per-group stacks: {stacks}"
