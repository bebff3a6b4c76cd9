"""One measured process of the benchmark.

Usage: ``python3 perfbench/child.py '<json job>'`` from the repository root,
where the job is ``{"job": "measure" | "traced" | "gradcheck", "workload",
"seed", "out_dir"}`` with ``"kinds"`` and ``"seconds"`` for a measure job
and ``"kind"`` for a traced one. A measure job sets up its layer kinds and
times them untraced (see ``measure_job``); a traced job builds, trains and
evaluates one kind under the tracer; a gradcheck job runs one traced
``cli.gradcheck_model`` audit. The last line of stdout is one JSON object with
the raw timings, the output checks and their failures.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import sys
import time
import tracemalloc
from statistics import median

from tracer import GRAPH_NODES, STEP, StepTimer, Tracer, median_of
from workloads import CKPT_KIND, GRADCHECK_CONFIG, RSS_STEPS, config_seed, kind_config

# Relative tolerance on task_loss against reference.json. Summing the routed
# experts in reverse order moved wide hypermoe by 2e-16; scaling the aux loss
# by 1.001 moved small by 6e-3 and the gradcheck config by 1.4e-6, and a
# layer-norm eps of 2e-5 for 1e-5 moved them by 7e-3 and 3e-5.
LOSS_RTOL = 1e-6
GRADCHECK_TOL = 1e-4
SETUP_REPEATS = 3
TRACED_CALLS = 3
OVERHEAD_S = 1.0
TURN_S = 0.2
TURN_CALLS = 4
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def import_program():
    """Import numpy and hypermoe from ./src; returns (modules, seconds)."""
    t0 = time.perf_counter()
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import numpy as np
    import hypermoe
    from hypermoe import checkpoint, cli, config, model, training

    if not os.path.abspath(hypermoe.__file__).startswith(src + os.sep):
        raise SystemExit(f"hypermoe imported from {hypermoe.__file__}, not from {src}")
    mods = dict(np=np, checkpoint=checkpoint, cli=cli, config=config, model=model, training=training)
    return mods, time.perf_counter() - t0


def versions(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


class Checks:
    """Counts attempted operations and failed ones, keeping each failure's name."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{self.label}: {what}")
        return ok


def load_reference(workload: str, kind: str, seed: int) -> list[float] | None:
    try:
        with open(REFERENCE, encoding="utf-8") as f:
            return json.load(f)[workload][kind][str(seed)]
    except (OSError, KeyError):
        return None


def check_rows(rows: list[dict], reference: list[float] | None, checks: Checks, rep: int) -> None:
    if reference is None or len(reference) != len(rows):
        checks.op(False, f"no reference trajectory of {len(rows)} steps")
    for i, row in enumerate(rows):
        task_l, total = row["task_loss"], row["total_loss"]
        what = f"rep {rep} step {i}: task_loss {task_l!r}"
        if not (math.isfinite(task_l) and math.isfinite(total)):
            checks.op(False, what + " is not finite")
        elif reference is not None and i < len(reference):
            ref = reference[i]
            checks.op(abs(task_l - ref) <= LOSS_RTOL * abs(ref), what + f" vs reference {ref!r}")
        else:
            checks.op(True, what)


def train_rep(m, cfg, checks, reference, rep, out, timer):
    """Build and train one model under ``timer``; returns the model, or None on an exception."""
    t = time.perf_counter()
    model = m["model"].build_model(cfg)
    out["build_s"].append(time.perf_counter() - t)
    try:
        with timer:
            rows = m["training"].train_model(model)
    except Exception as e:  # any exception is a failed step; the run goes on to report it
        checks.op(False, f"rep {rep}: {type(e).__name__}: {e}")
        return None
    check_rows(rows, reference, checks, rep)
    gc.collect()  # free this repetition's graphs (reference cycles) before the next one
    return model


def eval_once(m, model, n, checks, first: dict | None, what: str):
    try:
        result = m["training"].evaluate(model, n)
    except Exception as e:
        checks.op(False, f"{what}: {type(e).__name__}: {e}")
        return None
    finite = all(math.isfinite(v) for v in (result.get("accuracy", result.get("mse")), result["util_entropy"]))
    if not finite:
        checks.op(False, f"{what}: non-finite result {result}")
    elif first is not None:
        checks.op(result == first, f"{what}: result differs from the first call")
    else:
        checks.op(True, what)
    return result


def ckpt_once(m, model, cfg, path, checks, expected_eval, eval_n, rep):
    what = f"checkpoint rep {rep}"
    t = time.perf_counter()
    try:
        m["checkpoint"].save_checkpoint(model, path, step=cfg.steps)
        loaded, step = m["checkpoint"].load_checkpoint(path)
    except Exception as e:
        checks.op(False, f"{what}: {type(e).__name__}: {e}")
        return None
    took = time.perf_counter() - t
    same = sorted(loaded.params) == sorted(model.params) and all(
        p.data.dtype == loaded.params[k].data.dtype
        and p.data.shape == loaded.params[k].data.shape
        and p.data.tobytes() == loaded.params[k].data.tobytes()
        for k, p in model.params.items()
    )
    # bit-identical parameters give the same evaluate() result, so only a
    # process's first round trip pays for checking it
    if not checks.op(same and step == cfg.steps, f"{what}: parameters or step not bit-identical after load") or rep:
        return took
    result = m["training"].evaluate(loaded, eval_n)
    checks.op(result == expected_eval, f"{what}: evaluate after load gives {result}, before {expected_eval}")
    return took


class KindRun:
    """One kind's measurement, advanced one turn at a time.

    ``train`` runs one repetition under a step timer (the first one is
    set-up, and gives the peak RSS after RSS_STEPS steps); ``eval_call`` and
    ``ckpt_call`` time one ``evaluate`` call or checkpoint round trip inside a
    context (nothing, or a ``Tracer``). ``eval`` and ``ckpt`` are the untraced
    turns: at least TURN_CALLS calls, for at least TURN_S. Each returns
    whether it succeeded.
    """

    def __init__(self, m: dict, import_s: float, job: dict, kind: str) -> None:
        self.m = m
        self.kind = kind
        self.cfg = self.m["config"].ModelConfig.from_dict(
            kind_config(job["workload"], self.kind, config_seed(job["seed"])))
        self.eval_n = self.cfg.eval_size
        self.reference = load_reference(job["workload"], self.kind, self.cfg.seed)
        self.checks = Checks(f"{job['workload']}/{self.kind}")
        self.path = os.path.join(job["out_dir"], f"ckpt-{os.getpid()}.bin")
        self.out = {"kind": self.kind, "import_s": import_s, "build_s": [], "batch": self.cfg.batch_size,
                    "eval_n": self.eval_n, "versions": versions(self.m["np"]),
                    "train_step_s": [], "eval_call_s": [], "ckpt_s": []}
        self.reps = 0
        self.model = None
        self.first = None  # the first evaluate() result, which later calls must repeat

    def build(self, times: int) -> None:
        """Extra set-up samples: build the model ``times`` times, untrained."""
        for _ in range(times):
            t = time.perf_counter()
            self.m["model"].build_model(self.cfg)
            self.out["build_s"].append(time.perf_counter() - t)

    def train(self, timer=None) -> bool:
        timer = timer or StepTimer()
        model = train_rep(self.m, self.cfg, self.checks, self.reference, self.reps, self.out, timer)
        durations = timer.step_seconds()
        if self.reps == 0:
            self.out["warmup_s"] = sum(durations)
            if len(getattr(timer, "rss_mb", [])) > RSS_STEPS:
                self.out["rss_mb"] = timer.rss_mb[RSS_STEPS]
            durations = []
        self.reps += 1
        self.out["train_step_s"] += durations
        self.model = model or self.model
        return model is not None

    def start_eval(self) -> bool:
        """The first, untimed evaluate() call of the trained model; later calls must repeat it."""
        if self.first is None and self.model is not None:
            t = time.perf_counter()
            self.first = eval_once(self.m, self.model, self.eval_n, self.checks, None, "eval call 0")
            self.out["eval_warmup_s"] = time.perf_counter() - t
        return self.first is not None

    def eval_call(self, context) -> float | None:
        calls = self.out["eval_call_s"]
        with context:
            t = time.perf_counter()
            result = eval_once(self.m, self.model, self.eval_n, self.checks, self.first,
                               f"eval call {len(calls) + 1}")
            took = time.perf_counter() - t
        calls.append(took)
        return None if result is None else took

    def ckpt_call(self, context) -> float | None:
        with context:
            took = ckpt_once(self.m, self.model, self.cfg, self.path, self.checks, self.first,
                             self.eval_n, len(self.out["ckpt_s"]))
        if took is not None:
            self.out["ckpt_s"].append(took)
        return took

    def _turn(self, call) -> bool:
        turn = time.perf_counter()
        calls = 0
        while call(contextlib.nullcontext()) is not None:
            calls += 1
            if calls >= TURN_CALLS and time.perf_counter() - turn >= TURN_S:
                return True
        return False

    def eval(self) -> bool:
        return self.start_eval() and self._turn(self.eval_call)

    def ckpt(self) -> bool:
        return self.kind == CKPT_KIND and self.start_eval() and self._turn(self.ckpt_call)

    def close(self) -> dict:
        if os.path.exists(self.path):
            os.remove(self.path)
        return finish(self.out, self.checks)


def measure_job(job: dict) -> dict:
    """Untraced timing of the job's ``kinds`` in one fresh process.

    Each kind is first set up: built, trained for one repetition and
    evaluated once, untimed. The first kind's set-up, import included, and
    its peak RSS are those of a fresh process and are marked ``fresh``. Then
    the kinds take turns in rounds, at least one, for the job's ``seconds``.
    A round gives each kind one train repetition, a turn of evaluate() calls
    and, for CKPT_KIND, a turn of checkpoint round trips.
    """
    m, import_s = import_program()
    runs = [KindRun(m, import_s, job, kind) for kind in job["kinds"]]
    runs[0].out["fresh"] = True
    ok = True
    for run in runs:
        run.build(SETUP_REPEATS - 1)  # the train repetition adds the last build sample
        ok = ok and run.train() and run.start_eval()
    t0 = time.perf_counter()
    while ok:
        ok = all([run.train() and run.eval() and (run.kind != CKPT_KIND or run.ckpt()) for run in runs])
        if time.perf_counter() - t0 >= job["seconds"]:
            break
    outs = {run.kind: run.close() for run in runs}
    return {"kinds": outs, "attempted": sum(o["attempted"] for o in outs.values()),
            "failures": [f for o in outs.values() for f in o["failures"]]}


def traced_kind_job(job: dict) -> dict:
    """A warm-up repetition under tracemalloc, then a traced one; then evaluate() calls,
    untraced and traced in turn so that drift of the host cancels in the tracing
    overhead; then traced checkpoint round trips."""
    m, import_s = import_program()
    run = KindRun(m, import_s, job, job["kind"])
    tracemalloc.start()
    memory = StepTimer(track_memory=True)
    run.train(memory)
    tracemalloc.stop()
    tracer = Tracer()
    trained = run.train(tracer)
    steps = tracer.per_root(STEP)
    spans = {"train": tracer.dump()}

    layer = {}
    if trained and steps and run.start_eval():
        layer["train"] = {key: median_of(steps, key) for key in sorted(set().union(*steps))}
        layer["train"]["tensor.step_alloc_peak_mb"] = median(memory.peaks) / 2**20 if memory.peaks else float("nan")

        tr = Tracer()
        took = {False: [], True: []}
        t0 = time.perf_counter()
        while len(took[True]) < TRACED_CALLS or time.perf_counter() - t0 < OVERHEAD_S:
            for traced in (False, True):
                took[traced].append(run.eval_call(tr if traced else contextlib.nullcontext()))
            if None in took[False] + took[True]:
                break
        else:
            layer["trace_overhead_pct"] = (median(took[True]) / median(took[False]) - 1.0) * 100.0
            calls = tr.per_root("training.evaluate")
            layer["eval"] = {key: median_of(calls, key) for key in sorted(set().union(*calls))}
        spans["eval"] = tr.dump()

        if run.kind == CKPT_KIND:
            tr = Tracer()
            if all(run.ckpt_call(tr) is not None for _ in range(TRACED_CALLS)):
                layer["ckpt"] = {
                    name: median(tr.durations()[i] * 1e3 for i in tr.roots(name))
                    for name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint")
                }
            spans["ckpt"] = tr.dump()
    run.out["layer"] = layer
    write_spans(job, spans)
    return run.close()


def gradcheck_job(job: dict) -> dict:
    m, import_s = import_program()
    cfg = m["config"].ModelConfig.from_dict(GRADCHECK_CONFIG)
    checks = Checks(f"{job['workload']}/gradcheck")
    out = {"import_s": import_s, "versions": versions(m["np"])}
    tracer = Tracer()
    try:
        with tracer:
            rows = m["cli"].gradcheck_model(cfg, tol=GRADCHECK_TOL)
            default_tape = tracer.default_tape_growth()
    except Exception as e:
        checks.op(False, f"audit: {type(e).__name__}: {e}")
        return finish(out, checks)
    for row in rows:
        checks.op(row["passed"], f"group {row['group']} max_rel_error {row['max_rel_error']:.3e} >= {GRADCHECK_TOL}")
    (audit,) = tracer.per_root("cli.gradcheck_model")
    forwards = audit.get("model.forward.calls", 0.0)
    audit["tensor.graph_nodes_per_forward"] = (audit.get(GRAPH_NODES, 0.0) + default_tape) / max(forwards, 1.0)
    out["layer"] = {"gradcheck": audit}
    write_spans(job, {"gradcheck": tracer.dump()})
    return finish(out, checks)


def write_spans(job: dict, spans: dict) -> None:
    name = f"spans-{job['workload']}-{job.get('kind', 'gradcheck')}.json"
    with open(os.path.join(job["out_dir"], name), "w", encoding="utf-8") as f:
        json.dump(spans, f)


def finish(out: dict, checks: Checks) -> dict:
    out["attempted"] = checks.attempted
    out["failures"] = checks.failures
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    run = {"measure": measure_job, "traced": traced_kind_job, "gradcheck": gradcheck_job}[job["job"]]
    print(json.dumps(run(job)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
