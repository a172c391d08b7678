"""The benchmark's child process: prepares inputs, or times anomap calls.

Run by ``run.py``, never by hand::

    child.py prepare <workload> <config seed> <work dir>
    child.py measure <config file> <entry> <workers> <spawn time> <result.json>
                     [--probe] [--seconds S] [--trace] [--max-reps N]

``prepare`` writes the run's config file (and, for a disk workload, its
dataset) and records the environment.  ``measure`` imports anomap, parses
the config, and records the set-up time up to its first call into
``pipeline``; with ``--probe`` it stops there.  Otherwise it repeats the call
for ``--seconds``, recording wall time, CPU time, the outputs' digests and,
with ``--trace``, per-layer metrics from alternating traced calls.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

def _import_anomap():
    import anomap
    if Path(anomap.__file__).resolve().parent != ROOT / "src" / "anomap":
        raise SystemExit(f"anomap imported from {anomap.__file__}, "
                         f"not from {ROOT / 'src'}")


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "bytecode_cache": not sys.dont_write_bytecode,
    }


def prepare(workload_name: str, cseed: int, work: Path) -> dict:
    from dataclasses import replace

    from workloads import WORKLOADS

    _import_anomap()
    from anomap import config, datasetio, phantom

    wl = WORKLOADS[workload_name]
    cfg = config.parse_file(ROOT / wl.base_config)
    overrides = dict(wl.overrides, seed=cseed, out=str(work / "out"))
    if wl.disk is not None:
        d = wl.disk
        ds = phantom.gen_dataset(cseed, d.size, phantom.PROFILES[d.profile],
                                 d.n_train, d.n_val, d.n_test)
        datasetio.save_dataset(ds, work / "data")
        overrides["dataset_path"] = str(work / "data")
    cfg = replace(cfg, **overrides).validate()
    (work / "run.cfg").write_text(config.render(cfg), encoding="utf-8")
    return environment()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fold_outputs(out: Path, entry: str) -> dict:
    """Per-fold digests and scores read back from the written CSVs.

    A fold's digest covers its ``report.csv`` row and its ``per_sample.csv``
    rows; a fold whose report says ``error`` has no scores.
    """
    variants = ["l1", "ssim", "fq", "fq_air"] if entry == "ablate" else [""]
    files = []
    folds = {}
    for v in variants:
        d = out / v if v else out
        report = (d / "report.csv").read_bytes()
        per_sample = (d / "per_sample.csv").read_bytes()
        files += [report, per_sample]
        samples = {}
        for line in per_sample.decode().splitlines()[1:]:
            samples.setdefault(line.split(",", 1)[0], []).append(line)
        for line in report.decode().splitlines()[1:]:
            fold, dice, area, _ = line.split(",")
            if fold in ("mean", "std"):
                continue
            key = f"{v}/{fold}" if v else fold
            text = "\n".join([line, *samples.get(fold, [])])
            ok = dice != "error"
            folds[key] = {"digest": _sha(text.encode()),
                          "dice": float(dice) if ok else None,
                          "auprc": float(area) if ok else None}
    if entry == "ablate":
        files.append((out / "ablate.csv").read_bytes())
    return {"digest": _sha(b"\0".join(files)), "folds": folds}


def _cpu_s() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def measure(args) -> dict:
    _import_anomap()
    from anomap import config, pipeline

    cfg = config.parse_file(args.config)
    t_first = time.monotonic()
    result = {"setup_s": t_first - args.spawn_time}
    if args.probe:
        return result

    out = Path(cfg.out)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(Path(args.result).parent / "spool")

    reps = []
    window = time.perf_counter()
    while True:
        i = len(reps)
        # rep 0 warms caches untimed; traced runs then alternate traced and
        # untraced calls so that drift affects both sides alike
        traced = tracer is not None and i % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            tracer.run_id = f"rep{i}"
            tracing.install(tracer)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        getattr(pipeline, args.entry)(cfg, workers=args.workers)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        rep = {"wall_s": wall, "cpu_s": cpu, "traced": traced,
               **fold_outputs(out, args.entry)}
        if traced:
            tracer.uninstall()
            spans = tracer.collect()
            rep["layers"] = tracing.layer_metrics(spans, args.workers,
                                                  tracer.main_pid)
            rep["shares"] = tracing.layer_shares(spans)
            with open(Path(args.result).parent / "spans.jsonl", "a",
                      encoding="utf-8") as f:
                for s in spans:
                    f.write(json.dumps(s) + "\n")
        reps.append(rep)
        print(f"  rep {i}{' traced' if traced else ''}: wall {wall:.3f} s, "
              f"cpu {cpu:.3f} s, digest {rep['digest'][:16]}", flush=True)

        elapsed = time.perf_counter() - window
        timed = [r["wall_s"] for r in reps[1:]]
        if len(reps) >= args.max_reps:
            break
        enough = (sum(r["traced"] for r in reps) >= 2
                  and sum(not r["traced"] for r in reps[1:]) >= 2
                  if tracer else len(timed) >= 3)
        if enough and elapsed + statistics.median(timed) > args.seconds:
            break

    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(reps=reps, peak_rss_mb=max(s, c) / 1024.0)
    return result


def main():
    mode = sys.argv[1]
    if mode == "prepare":
        _, _, name, cseed, work = sys.argv
        env = prepare(name, int(cseed), Path(work))
        (Path(work) / "env.json").write_text(json.dumps(env), encoding="utf-8")
        return
    p = argparse.ArgumentParser()
    p.add_argument("mode")
    p.add_argument("config")
    p.add_argument("entry", choices=("run", "ablate"))
    p.add_argument("workers", type=int)
    p.add_argument("spawn_time", type=float)
    p.add_argument("result")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--max-reps", type=int, default=10 ** 6)
    args = p.parse_args()
    result = measure(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
