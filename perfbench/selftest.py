"""Self-tests of the benchmark itself.

Usage, from the repository root::

    python3 perfbench/selftest.py [workload ...]

For each workload this runs the benchmark once untraced and twice traced on
the default seed, and checks that

* ``BENCHMARK.json`` names exactly the metrics the benchmark prints;
* every run is correct, and the traced runs' ``report.csv`` /
  ``per_sample.csv`` are byte-identical to the untraced run's;
* every per-layer count repeats exactly across the two traced runs.

Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys

import run
import tracing
from workloads import DEFAULT_SEED, WORKLOADS

SECONDS = 5


def bench(name: str, trace: int):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name,
         "--seed", str(DEFAULT_SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
        timeout=200).stdout.splitlines()
    digest = next(line.split()[1] for line in out if line.startswith("digest "))
    return digest, json.loads(out[-1])


def check_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert ({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
            == tracing.PER_LAYER)


def check_workload(name: str):
    plain, result = bench(name, 0)
    assert result["correct"] and result["failed"] == 0, result
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    runs = [bench(name, 1) for _ in range(2)]
    for digest, traced in runs:
        assert traced["correct"] and traced["failed"] == 0, traced
        assert digest == plain, f"traced report {digest} != untraced {plain}"
        assert set(traced["metrics"]) == set(tracing.PER_LAYER)
    (_, a), (_, b) = runs
    values = {k: v["value"] for k, v in a["metrics"].items()}
    for key in tracing.exact_keys(values):
        assert a["metrics"][key] == b["metrics"][key], (
            f"{key}: {a['metrics'][key]} != {b['metrics'][key]}")
    print(f"{name}: ok (digest {plain[:16]})", flush=True)


def main(names):
    check_spec()
    print("BENCHMARK.json: ok", flush=True)
    for name in names or WORKLOADS:
        check_workload(name)


if __name__ == "__main__":
    main(sys.argv[1:])
