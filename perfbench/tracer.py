"""Timing hooks installed into hypermoe from outside the package.

``StepTimer`` is the only hook of an untraced run: it notes the time of each
call into ``tasks.generate_task_batch`` made by ``training.train_model``, so
successive calls delimit the training steps.

``Tracer`` wraps the public function of each layer in every hypermoe
namespace that binds it (``moe_forward`` is bound in ``moe``, ``model`` and
``hyper``, for instance), records one span per call (name, start, end,
parent) in memory, and counts the records of each ``Tape`` a step or an
evaluation opens. Leaving either one's ``with`` block puts every original back.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
import tracemalloc
from collections import defaultdict
from statistics import median

STEP = "step"

# span name -> (module, attribute); "Class.method" patches the class.
TRACED = {
    "tasks.generate_task_batch": ("tasks", "generate_task_batch"),
    "model.forward": ("model", "Model.forward"),
    "moe.noisy_topk_gate": ("moe", "noisy_topk_gate"),
    "moe.load_balance_loss": ("moe", "load_balance_loss"),
    "moe.moe_forward": ("moe", "moe_forward"),
    "moe.expert_forward": ("moe", "expert_forward"),
    "hyper.hypermoe_forward": ("hyper", "hypermoe_forward"),
    "hyper.selection_embedding": ("hyper", "selection_embedding"),
    "hyper.combine_embeddings": ("hyper", "combine_embeddings"),
    "conv.compress_expert_weights": ("conv", "compress_expert_weights"),
    "tensor.backward": ("tensor", "backward"),
    "training.Adam.step": ("training", "Adam.step"),
    "training.combined_loss": ("training", "combined_loss"),
    "training.train_model": ("training", "train_model"),
    "training.evaluate": ("training", "evaluate"),
    "checkpoint.save_checkpoint": ("checkpoint", "save_checkpoint"),
    "checkpoint.load_checkpoint": ("checkpoint", "load_checkpoint"),
    "cli.gradcheck_model": ("cli", "gradcheck_model"),
}
GRAPH_NODES = "tensor.graph_nodes"


def _module(name: str):
    return sys.modules[f"hypermoe.{name}"]


def _namespaces():
    return [m for n, m in sorted(sys.modules.items()) if n == "hypermoe" or n.startswith("hypermoe.")]


class _Patches:
    """Replaces a callable in every hypermoe namespace that binds it, and restores it."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module: str, attr: str, make_wrapper) -> None:
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(_module(module), owner_name)
            original = owner.__dict__[method]
            self._set(owner, method, make_wrapper(original))
            return
        original = getattr(_module(module), attr)
        wrapper = make_wrapper(original)
        for ns in _namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._set(ns, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()


class StepTimer:
    """Times each step of ``train_model`` from its ``generate_task_batch`` calls.

    It also records the process's peak RSS at each step boundary, and with
    ``track_memory`` the tracemalloc peak of each step (tracemalloc must
    already be running).
    """

    def __init__(self, track_memory: bool = False) -> None:
        self.marks: list[float] = []
        self.rss_mb: list[float] = []
        self.peaks: list[int] = []
        self._track_memory = track_memory
        self._patches = _Patches()

    def _mark(self) -> None:
        if self._track_memory:
            if self.marks:
                self.peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        self.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        self.marks.append(time.perf_counter())

    def __enter__(self) -> "StepTimer":
        def make_wrapper(original):
            @functools.wraps(original)
            def timed(*args, **kwargs):
                self._mark()
                return original(*args, **kwargs)

            return timed

        # train_model looks the function up in its own module; patch only there
        training = _module("training")
        original = training.generate_task_batch
        self._patches._set(training, "generate_task_batch", make_wrapper(original))
        return self

    def __exit__(self, *exc) -> None:
        self._mark()
        self._patches.restore()

    def step_seconds(self) -> list[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


class Tracer:
    """Span recorder wrapping every function in ``TRACED``; use as a context manager."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[tuple[str, int, int]] = []  # (name, value, enclosing span)
        self._stack: list[int] = []
        self._patches = _Patches()
        self._default_tape_base = 0

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def _close_to(self, idx: int) -> None:
        """Close ``idx`` and any span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.ends[top] = now
            if top == idx:
                return

    def count(self, name: str, value: int) -> None:
        self.counts.append((name, value, self._stack[-1] if self._stack else -1))

    def _wrap(self, name: str):
        def make_wrapper(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                idx = self._open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close_to(idx)

            return traced

        return make_wrapper

    def _wrap_step_source(self, name: str):
        """generate_task_batch: inside train_model each call also starts a new step span."""

        def make_wrapper(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                top = self.names[self._stack[-1]] if self._stack else None
                if top == STEP:
                    self._close_to(self._stack[-1])
                    top = self.names[self._stack[-1]] if self._stack else None
                if top == "training.train_model":
                    self._open(STEP)
                idx = self._open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close_to(idx)

            return traced

        return make_wrapper

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        tensor = _module("tensor")
        for name, (module, attr) in TRACED.items():
            wrap = self._wrap_step_source if name == "tasks.generate_task_batch" else self._wrap
            self._patches.replace(module, attr, wrap(name))
        tracer = self

        class CountingTape(tensor.Tape):
            def __exit__(self, *exc):
                tracer.count(GRAPH_NODES, len(self.records))
                return super().__exit__(*exc)

        self._patches.replace("tensor", "Tape", lambda original: CountingTape)
        self._default_tape_base = len(tensor._TLS.stack[0].records)
        return self

    def __exit__(self, *exc) -> None:
        while self._stack:
            self._close_to(self._stack[-1])
        self._patches.restore()

    def default_tape_growth(self) -> int:
        """Records left on the thread's default tape (ops run outside any Tape) since install."""
        return len(_module("tensor")._TLS.stack[0].records) - self._default_tape_base

    # -- analysis ------------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def step_seconds(self) -> list[float]:
        """The duration of each training step, as ``StepTimer.step_seconds`` gives it."""
        dur = self.durations()
        return [dur[i] for i in self.roots(STEP)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def roots(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def per_root(self, root_name: str) -> list[dict]:
        """For each span named ``root_name``: totals of its subtree, keyed per span name.

        Each entry maps ``<span>.ms`` (inclusive), ``<span>.self_ms`` and
        ``<span>.calls`` for every span name in the subtree (the root too),
        and ``<count name>`` to the sum of counts taken inside it.
        """
        owner = [-1] * len(self.names)
        for i, name in enumerate(self.names):  # parents precede children
            if name == root_name:
                owner[i] = i
            elif self.parents[i] >= 0:
                owner[i] = owner[self.parents[i]]
        dur, own = self.durations(), self.self_times()
        tables: dict[int, dict] = {i: defaultdict(float) for i in self.roots(root_name)}
        for i, root in enumerate(owner):
            if root < 0:
                continue
            table = tables[root]
            name = self.names[i]
            table[f"{name}.ms"] += dur[i] * 1e3
            table[f"{name}.self_ms"] += own[i] * 1e3
            table[f"{name}.calls"] += 1
        for name, value, span in self.counts:
            if span >= 0 and owner[span] >= 0:
                tables[owner[span]][name] += value
        return [dict(tables[i]) for i in sorted(tables)]

    def dump(self) -> dict:
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [
                [index[n], round(s, 7), round(e, 7), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": [list(c) for c in self.counts],
        }


def median_of(tables: list[dict], key: str) -> float:
    """Median over roots of one key; a root without the key counts as 0."""
    return median(t.get(key, 0.0) for t in tables)
