"""Golden digests: a tiny toy experiment writes the same bytes from one
change to the next.

tests/golden.json pins the sha256 of every file that run_experiment(mode=
"all") writes for a small copy of the toy profile, in float64 and in float32:
the four method CSVs and the meta checkpoint of each seed. A change that alters
an output byte on purpose replaces golden.json in the same change; the failure
message prints the replacement. The file also records the numpy and BLAS
builds it was made with, because another build may round differently.

The experiment runs in a child interpreter pinned to AVX2 code paths, so that
any x86-64 machine with AVX2 writes the recorded bytes. Left to choose, OpenBLAS
and numpy take AVX-512 kernels where the CPU has them, and those round
differently. PINS selects OpenBLAS's Haswell kernels, turns numpy's AVX-512
dispatch off (the group names are numpy 2.4's) and runs one BLAS thread.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from metaran import harness

GOLDEN = Path(__file__).with_name("golden.json")
PINS = {
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_NUM_THREADS": "1",
}
# The child imports the metaran this test imported.
SOURCE = str(Path(harness.__file__).resolve().parents[1])
CHILD = ("import sys; from metaran import harness; "
         "harness.run_experiment(harness.load_config(sys.argv[1]), mode='all')")


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "pins": PINS,
    }


def _tiny_config(out_dir, dtype: str) -> harness.ExperimentConfig:
    # Small enough to run in seconds, large enough that train steps and meta
    # steps happen: the buffer passes its warm-up within the first iterations.
    cfg = harness.default_config("toy", out_dir=str(out_dir))
    return dataclasses.replace(
        cfg,
        schedule=dataclasses.replace(cfg.schedule, outer_iters=10),
        agent=dataclasses.replace(
            cfg.agent, batch_size=16, buffer_capacity=2_000, warmup_transitions=64,
            hidden_sizes=(16, 16), dtype=dtype,
        ),
        seeds=(0, 1),
        donor_budget=5,
    )


def _run_pinned(config: harness.ExperimentConfig, config_path: Path) -> None:
    harness.save_config(config_path, config)
    path = os.pathsep.join(p for p in (SOURCE, os.environ.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", CHILD, str(config_path)], check=True,
                   env={**os.environ, **PINS, "PYTHONPATH": path})


def _digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def test_tiny_toy_run_writes_the_golden_bytes(tmp_path):
    got = {}
    for dtype in ("float64", "float32"):
        out = tmp_path / dtype
        _run_pinned(_tiny_config(out, dtype), tmp_path / f"{dtype}.json")
        got[dtype] = _digests(out)
    golden = json.loads(GOLDEN.read_text())
    if got != golden["digests"]:
        replacement = json.dumps({"environment": _environment(), "digests": got}, indent=2)
        raise AssertionError(
            "output bytes differ from tests/golden.json\n"
            f"  recorded with: {golden['environment']}\n"
            f"  running with:  {_environment()}\n"
            "If the change alters these bytes on purpose, replace tests/golden.json "
            f"with:\n{replacement}"
        )
