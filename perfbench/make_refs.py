"""Regenerate ``references.json``: the expected outputs of every workload.

Usage, from the repository root::

    python3 perfbench/make_refs.py [workload ...]

Runs each workload once per config seed in the pool and stores, per fold,
the digest of its ``report.csv`` row plus its ``per_sample.csv`` rows.  Only
regenerate when a change is meant to alter anomap's outputs, and say so.
"""

import json
import statistics
import sys

import run
from workloads import SEED_POOL, WORKLOADS


def main(names):
    refs = (json.loads(run.REFERENCES.read_text(encoding="utf-8"))
            if run.REFERENCES.exists() else {})
    for name in names or WORKLOADS:
        for cseed in range(SEED_POOL):
            res = run.collect(name, cseed, 0.0, False, max_reps=1, probes=0)
            rep = res["reps"][0]
            folds = rep["folds"].values()
            if any(f["dice"] is None for f in folds):
                raise SystemExit(f"{name} seed {cseed}: a fold failed")
            refs.setdefault(name, {})[str(cseed)] = {
                "digest": rep["digest"],
                "folds": {k: f["digest"] for k, f in sorted(rep["folds"].items())},
                "dice_mean": statistics.fmean(f["dice"] for f in folds),
                "auprc_mean": statistics.fmean(f["auprc"] for f in folds),
            }
            print(f"{name} seed {cseed}: {rep['digest'][:16]} "
                  f"dice {refs[name][str(cseed)]['dice_mean']:.4f}", flush=True)
            run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                      + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
