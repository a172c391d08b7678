"""anomap benchmark: one workload per invocation, or all three in a row.

Usage, from the repository root::

    python3 perfbench/run.py --workload ablate_flair --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The workload's inputs come from ``--seed`` only (see ``workloads.py``).  Each
run writes its config (and a disk dataset where the workload needs one),
starts the program a few times only to time its set-up, then starts it once
more and calls ``pipeline.run`` / ``pipeline.ablate`` repeatedly for
``--seconds``.  Every call's ``report.csv`` / ``per_sample.csv`` rows are
checked fold by fold against ``references.json``.

With ``--trace 0`` the metrics are end to end and tracing is off.  With
``--trace 1`` calls alternate between traced and untraced, and the metrics
are per layer (``tracing.py``), plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, config_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"
# processes whose set-up is timed; the reported set-up is their median
SETUP_PROBES = 5
# every run, set-up included, ends within this many seconds
RUN_BUDGET_S = 170.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS/OpenMP thread per process: the pool's workers are the
    # parallelism, and none of them oversubscribes the cores
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env.pop("PYTHONPATH", None)
    # cached bytecode, as an installed program has: set-up times the imports,
    # not the compiler
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["ANOMAP_LOG"] = "warning"
    return env


def run_child(args, deadline: float) -> None:
    """Run child.py to completion; kill its whole process group on timeout."""
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        try:  # pool workers left behind by a failed child
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise BenchError(f"child {args[0]} exited with code {code}")


def measure_child(work: Path, wl, deadline: float, result: str, extra=()):
    path = work / result
    run_child(["measure", work / "run.cfg", wl.entry, wl.workers,
               repr(time.monotonic()), path, *extra], deadline)
    return json.loads(path.read_text(encoding="utf-8"))


def check_layout() -> None:
    missing = [p for p in ("src/anomap/pipeline.py", "configs/default.cfg",
                           "configs/ablate_flair.cfg")
               if not (ROOT / p).is_file()]
    if missing:
        raise BenchError(f"not an anomap checkout, missing: {', '.join(missing)}")


def prepare(name: str, seed: int, deadline: float):
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_child(["prepare", name, config_seed(seed), work], deadline)
    env = json.loads((work / "env.json").read_text(encoding="utf-8"))
    return work, env


def collect(name: str, seed: int, seconds: float, trace: bool,
            max_reps: int | None = None, probes: int = SETUP_PROBES) -> dict:
    """Run one workload; return its set-up times, calls and environment."""
    deadline = time.monotonic() + RUN_BUDGET_S
    wl = WORKLOADS[name]
    work, env = prepare(name, seed, deadline)
    setups = [measure_child(work, wl, deadline, f"probe{i}.json", ["--probe"])
              ["setup_s"] for i in range(probes)]
    extra = ["--seconds", seconds]
    if trace:
        extra.append("--trace")
    if max_reps is not None:
        extra += ["--max-reps", max_reps]
    res = measure_child(work, wl, deadline, "measure.json", extra)
    res["setups"] = setups + [res["setup_s"]]
    res["env"] = env
    return res


def check(name: str, seed: int, res: dict, refs: dict):
    """Compare every call's folds with the reference; return failures."""
    wl = WORKLOADS[name]
    ref = refs.get(name, {}).get(str(config_seed(seed)))
    attempted = failed = 0
    problems = []
    for i, rep in enumerate(res["reps"]):
        attempted += wl.folds_per_call
        for key, fold in sorted(rep["folds"].items()):
            want = ref["folds"].get(key) if ref else None
            if fold["dice"] is None or want != fold["digest"]:
                failed += 1
                problems.append(f"call {i} fold {key}: "
                                + ("error" if fold["dice"] is None
                                   else "differs from reference"))
        failed += max(0, wl.folds_per_call - len(rep["folds"]))
    if ref is None:
        problems.append(f"no reference for config seed {config_seed(seed)}")
    elif res["reps"][0]["digest"] != ref["digest"]:
        problems.append(f"report digest differs from reference {ref['digest']}")
    digests = {rep["digest"] for rep in res["reps"]}
    if len(digests) != 1:
        problems.append("reports differ between calls (traced vs untraced "
                        "or run to run)")
    return attempted, failed, problems


def e2e_metrics(res: dict) -> dict:
    timed = res["reps"][1:]
    return {
        "setup_s": statistics.median(res["setups"]),
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "cpu_s": statistics.median(r["cpu_s"] for r in timed),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def quality(res: dict, attempted: int, failed: int) -> dict:
    """Printed with every run but not bounded metrics: Dice and AUPRC are
    fixed by the seed and pinned fold by fold by the reference check, and
    their spread across seeds is wider than any bound could allow."""
    folds = [f for f in res["reps"][0]["folds"].values() if f["dice"] is not None]
    return {
        "fail_frac": (failed / attempted, "ratio"),
        "dice_mean": (statistics.fmean(f["dice"] for f in folds) if folds
                      else float("nan"), "ratio"),
        "auprc_mean": (statistics.fmean(f["auprc"] for f in folds) if folds
                       else float("nan"), "ratio"),
    }


def trace_metrics(res: dict, problems: list):
    traced = [r for r in res["reps"] if r["traced"]]
    untraced = [r["wall_s"] for r in res["reps"][1:] if not r["traced"]]
    exact = tracing.exact_keys(traced[0]["layers"])
    metrics = {}
    for key in traced[0]["layers"]:
        values = [r["layers"][key] for r in traced]
        if key not in exact:
            metrics[key] = statistics.median(values)
            continue
        metrics[key] = values[0]
        if len(set(values)) != 1:
            problems.append(f"{key} differs between traced calls: {values}")
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(untraced))
    return metrics, traced[-1]["shares"]


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run, check and print one workload; return its result object."""
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    print(f"workload {name}: seed {seed} -> config seed {config_seed(seed)}, "
          f"{seconds:g} s, trace {int(trace)}", flush=True)
    res = collect(name, seed, seconds, trace)
    print("env " + json.dumps(res["env"], sort_keys=True))
    attempted, failed, problems = check(name, seed, res, refs)
    print(f"digest {res['reps'][0]['digest']} ({len(res['reps'])} calls)")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in res['setups'])}")
    if trace:
        metrics, shares = trace_metrics(res, problems)
        units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
        print("self-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items()))
        n = metrics["evalkit.score_calls"]
        print(f"evalkit.score_tail_ms is the p{tracing.tail_percentile(n)} "
              f"of {n} maps per call")
    else:
        metrics = e2e_metrics(res)
        units = E2E_UNITS
    for p in problems:
        print(f"FAIL {p}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:14.6g} {units[key]}")
    for key, (value, unit) in quality(res, attempted, failed).items():
        print(f"  {key:34s} {value:14.6g} {unit}")
    print(f"  ({failed} of {attempted} folds failed, {len(res['reps'])} calls)")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        check_layout()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        out = results[args.workload]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{k}": v for n, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
