"""Smoke test of the benchmark at minimal length (one pass per run).

    python3 perfbench/smoke.py

For every workload (also paper-serve, which BENCHMARK.json leaves out) it
runs seed 11 untraced twice and traced once, and a held-out seed 12 untraced
once, and checks that:
- every metric BENCHMARK.json names is printed, with its unit, and no other;
- every run passes its correctness gate;
- the seed is honoured: seed 11 repeats its output digest across runs and
  between traced and untraced runs, and seed 12 gives a different digest.
Exits non-zero on the first failure. Takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED, HELD_OUT = 11, 12


def run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: exit {done.returncode}\n"
                         f"{done.stdout[-3000:]}\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads(
        (BENCH / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, report["digest"]


def check_metrics(spec, result, key, where):
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"FAIL {where}: metrics differ from BENCHMARK.json {key}: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {[k for k in want if k in got and got[k] != want[k]]}")
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float)) or v["value"] != v["value"]]
    if bad:
        raise SystemExit(f"FAIL {where}: non-numeric values for {bad}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOAD_NAMES:
        digests = {}
        for seed, trace in ((SEED, 0), (SEED, 0), (SEED, 1), (HELD_OUT, 0)):
            where = f"{name} seed {seed} trace {trace}"
            result, digest = run(name, seed, trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"FAIL {where}: correctness gate: {result}")
            check_metrics(spec, result, "per_layer" if trace else "end_to_end", where)
            digests.setdefault(seed, set()).add(digest)
            print(f"ok {where} digest {digest[:16]}", flush=True)
        if len(digests[SEED]) != 1:
            raise SystemExit(f"FAIL {name}: seed {SEED} digests differ: {digests[SEED]}")
        if digests[HELD_OUT] & digests[SEED]:
            raise SystemExit(f"FAIL {name}: seeds {SEED} and {HELD_OUT} give the same output")
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
