"""Benchmark of the hypermoe reproduction: training and eval throughput, memory,
set-up and checkpoint time of the FFN-slot kinds, and their per-layer times.

Run from the repository root:

    python3 perfbench/run.py --workload wide|small --seed N --seconds S --trace 0|1

Child processes run one after another. Each of the workload's measuring
processes sets up its layer kinds, which gives the set-up time and peak RSS
of the kind it starts with, and then times them for its share of
``--seconds``, the kinds taking turns and, within each, train turns and eval
turns alternating. A child drives the library's public entry points (``build_model``, ``train_model``,
``evaluate``, ``save_checkpoint``, ``load_checkpoint``) and checks their
outputs. With ``--trace 0`` the run prints the end-to-end metrics; each
timing is the median of its samples over the run. With ``--trace 1`` the
run wraps every layer's public functions from outside, adds one traced
``gradcheck_model`` audit, and prints per-layer times and counts. The last
line of stdout is the JSON result; details and spans go to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from statistics import median, quantiles

from metrics import END_TO_END, per_layer
from workloads import CKPT_KIND, KINDS, RSS_KINDS, RSS_STEPS, TIMED_KINDS, WORKLOADS, config_seed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, ".work")
# a run is killed after its --seconds twice over plus this, and reports what is left as failures
SETUP_ALLOWANCE_S = 60.0
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def provenance() -> dict:
    digest = hashlib.sha256()
    src = os.path.join("src", "hypermoe")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or None,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "loadavg_start": os.getloadavg(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def child_cmd(job: dict) -> list[str]:
    return [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)]


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def spawn(job: dict, deadline: float) -> tuple[dict | None, str | None]:
    """Run one child to completion; returns (result, error)."""
    try:
        proc = subprocess.run(child_cmd(job), stdout=subprocess.PIPE, text=True, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    result = last_json(proc.stdout)
    if proc.returncode != 0 or result is None:
        return None, f"exit code {proc.returncode}"
    return result, None


def run_jobs(args) -> tuple[dict, list[str], int]:
    """All children of one run, one after another; returns (results, failures, attempted).

    ``results`` maps each kind, and "gradcheck", to the list of its results,
    one per process that measured it.
    """
    deadline = time.monotonic() + SETUP_ALLOWANCE_S + 2 * args.seconds
    base = {"workload": args.workload, "seed": args.seed, "out_dir": OUT_DIR}
    results: dict[str, list[dict]] = {}
    failures: list[str] = []
    attempted = 0

    def record(name: str, result: dict | None, error: str | None) -> None:
        nonlocal attempted
        if error:
            failures.append(f"{args.workload}/{name}: child process {error}")
            attempted += 1
            return
        results.setdefault(name, []).append(result)
        failures.extend(result["failures"])
        attempted += result["attempted"]

    if args.trace:
        for kind in KINDS:
            record(kind, *spawn(dict(base, job="traced", kind=kind), deadline))
        record("gradcheck", *spawn(dict(base, job="gradcheck"), deadline))
        return results, failures, attempted

    processes = WORKLOADS[args.workload]["processes"]
    for kinds in processes:
        job = dict(base, job="measure", kinds=list(kinds), seconds=args.seconds / len(processes))
        measured, error = spawn(job, deadline)
        if error:
            record("measure " + "+".join(kinds), None, error)
            continue
        for kind, out in measured["kinds"].items():
            record(kind, out, None)
    return results, failures, attempted


def tail(values: list[float]) -> str:
    """Quartiles and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 2:
        return f"n={n}"
    q1, q2, q3 = quantiles(values, n=4)
    out = f"n={n} q1={q1 * 1e3:.2f}ms median={q2 * 1e3:.2f}ms q3={q3 * 1e3:.2f}ms"
    fitting = [p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10]
    if fitting:
        p = fitting[-1]
        ordered = sorted(values)
        out += f" p{p:g}={ordered[math.ceil(p / 100 * n) - 1] * 1e3:.2f}ms"
    else:
        out += " (too few samples for a tail percentile)"
    return out


def setup_seconds(child: dict) -> float:
    """A kind process's set-up: import, median build, first train repetition and eval call."""
    return child["import_s"] + median(child["build_s"]) + child["warmup_s"] + child["eval_warmup_s"]


def pooled(children: list[dict], key: str) -> list[float]:
    return [x for c in children for x in c.get(key, [])]


def end_to_end(results: dict) -> tuple[dict, dict]:
    """Metric values and a detail string for each, from untraced results."""
    values, detail = {}, {}
    setup = []
    for kind in TIMED_KINDS:
        children = results.get(kind, [])
        if not children:
            continue
        batch, eval_n = children[0]["batch"], children[0]["eval_n"]
        steps, calls, ckpt = (pooled(children, k) for k in ("train_step_s", "eval_call_s", "ckpt_s"))
        if steps:
            values[f"train_sps.{kind}"] = batch / median(steps)
            detail[f"train_sps.{kind}"] = f"batch {batch}, step time " + tail(steps)
        if calls:
            values[f"eval_sps.{kind}"] = eval_n / median(calls)
            detail[f"eval_sps.{kind}"] = f"{eval_n} samples per call, call time " + tail(calls)
        if kind == CKPT_KIND and ckpt:
            values["ckpt_roundtrip_s"] = median(ckpt)
            detail["ckpt_roundtrip_s"] = "save+load " + tail(ckpt)
    for kind in TIMED_KINDS:
        children = [c for c in results.get(kind, []) if c.get("fresh")]
        if kind in RSS_KINDS and children and all("rss_mb" in c for c in children):
            values[f"peak_rss_mb.{kind}"] = max(c["rss_mb"] for c in children)
            detail[f"peak_rss_mb.{kind}"] = f"ru_maxrss of a fresh process after {RSS_STEPS} training steps"
        if children and all("eval_warmup_s" in c for c in children):
            setup.append(median(setup_seconds(c) for c in children))
    if len(setup) == len(TIMED_KINDS):
        values["setup_s"] = sum(setup)
        detail["setup_s"] = ("per kind, the median over the processes it came first in of import + median "
                             "build_model + first train repetition and eval call; summed over kinds")
    return values, detail


def layer_values(results: dict) -> dict:
    values = {}
    for name, _, path in per_layer():
        node = results.get(path[0], [{}])[0].get("layer", {})
        for key in path[1:]:
            node = node.get(key, {}) if isinstance(node, dict) else {}
        if isinstance(node, (int, float)):
            values[name] = float(node)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hypermoe", "__init__.py")):
        print("perfbench: run from the repository root; src/hypermoe is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    info = provenance()
    results, failures, attempted = run_jobs(args)
    info["loadavg_end"] = os.getloadavg()
    if results:
        info.update(next(iter(results.values()))[0]["versions"])

    if args.trace:
        catalogue = [(name, unit) for name, unit, _ in per_layer()]
        values, detail = layer_values(results), {}
    else:
        catalogue = [(name, unit) for name, unit, _, _ in END_TO_END]
        values, detail = end_to_end(results)
    missing = [name for name, _ in catalogue if name not in values or not math.isfinite(values[name])]
    failures += [f"{args.workload}: metric {name} was not measured" for name in missing]
    attempted = max(attempted, 1)

    print(f"workload {args.workload}  seed {args.seed} (config seed {config_seed(args.seed)})  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("provenance " + json.dumps(info))
    for name, unit in catalogue:
        if name in values:
            extra = f"  {detail[name]}" if name in detail else ""
            print(f"{name:<48} {values[name]:>14.4f} {unit}{extra}")
    print(f"{'error_rate':<48} {len(failures) / attempted:>14.6f} ratio  ({len(failures)} failed / {attempted} attempted)")
    for failure in failures:
        print(f"FAILED {failure}")

    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as f:
        json.dump({"args": vars(args), "provenance": info, "results": results, "failures": failures}, f)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in catalogue if name in values},
    }))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
