"""End-to-end cost of the paper's experiment: ``anomap run`` and
``anomap ablate`` on ``configs/default.cfg`` at one and two workers.

Each case starts the command line as its own process and records its wall
time, its CPU time (user plus system, its pool workers included) and its
peak RSS (the largest single process of the tree, not the sum of the
workers), all from ``wait4``.  The children get one BLAS/OpenMP thread
each, as in perfbench.  The JSON result holds perfbench's ``env`` record
and, per case, a digest of ``report.csv`` (``ablate.csv`` for an ablate),
so that two trees' runs can be checked for equal results.  Run from the
repository root::

    python3 bench/end_to_end.py --out e2e.json
    python3 bench/end_to_end.py --command run --workers 1

A run at one worker takes about 2.5 minutes on a 2-core host and an ablate
about 9, so this is run by hand: it is neither a test nor a
pytest-benchmark file.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = "configs/default.cfg"
THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """perfbench's environment record, for this process's settings."""
    path = ROOT / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.environment()


def measure(command: str, workers: int) -> dict:
    """One ``anomap <command>`` process: its cost and its report's digest."""
    with tempfile.TemporaryDirectory(prefix="anomap-e2e-") as out:
        cmd = [sys.executable, "-m", "anomap.cli", command, "--config", CONFIG,
               "--workers", str(workers), "--out", out]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                                stdout=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.monotonic() - start
        # reaped by wait4 above: tell Popen, which would wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = Path(out) / ("report.csv" if command == "run"
                              else "ablate.csv")
        digest = (hashlib.sha256(report.read_bytes()).hexdigest()
                  if report.exists() else None)
    return {"command": command, "workers": workers, "config": CONFIG,
            "returncode": proc.returncode, "wall_s": round(wall, 3),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "report_sha256": digest}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--command", choices=("run", "ablate"), action="append",
                   help="repeat to time both (default: run, then ablate)")
    p.add_argument("--workers", type=int, action="append",
                   help="repeat for several counts (default: 1, then 2)")
    p.add_argument("--out", help="write the JSON result here too")
    args = p.parse_args(argv)
    for key in THREAD_CAPS:
        os.environ[key] = "1"
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    runs = []
    for command in args.command or ["run", "ablate"]:
        for workers in args.workers or [1, 2]:
            runs.append(measure(command, workers))
            print(json.dumps(runs[-1]), flush=True)
    result = {"env": env, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if all(r["returncode"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
