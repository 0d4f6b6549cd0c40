"""metaran benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload toy-meta --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run repeats passes of the workload (see workloads.py) until --seconds have
passed, checks every pass, prints a table of its metrics and, as its last
line, one JSON object: with --trace 0 the end-to-end metrics, measured with
no tracing installed; with --trace 1 the per-layer metrics of traced passes,
which alternate with untraced passes so that the tracing overhead is their
ratio. `--workload all` runs every workload both ways in child processes and
prints the metrics of each. The package is imported from src/ of the
checkout this file sits in; nothing is installed.
"""

import time

T0 = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("toy-meta", "paper-learn", "paper-serve")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
# Self times are reported by name for the spans both toy-meta and paper-learn
# call; a span a workload never calls would read exactly 0 s on every run.
# The spans only toy-meta calls are in the per-layer table and results file.
TOY_ONLY_SPANS = ("meta.inner_adapt", "harness.MetricsLog.write_csvs", "meta.save_meta_model")
LAYER_TOTALS = ("cell", "mdp", "episode", "nets", "ddpg", "meta")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path, with BLAS capped at nproc."""
    pkg = ROOT / "src" / "metaran"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no metaran package at {pkg}")
    nproc = str(os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    import metaran

    if Path(metaran.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported metaran from {metaran.__file__}, not {pkg}")


def percentile(values, pct):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), pct))


def run_dir(args):
    return OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"


def probe_setup(args):
    """Median set-up time of fresh interpreters: imports plus the workload's
    objects, measured inside each child from its first line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def run_one(wl, tracing, traced):
    """One pass; returns (PassResult or None if it raised, Tracer or None).
    Garbage left by the previous pass is collected first, outside the pass."""
    gc.collect()
    tracer = None
    try:
        if not traced:
            return wl.run_pass(), None
        tracer = tracing.Tracer()
        tracer.keep = {"ddpg.DdpgAgent.train_step"}
        with tracing.traced(tracer):
            return wl.run_pass(), tracer
    except Exception:  # a failed operation is counted, reported and ends the run
        traceback.print_exc(file=sys.stderr)
        return None, tracer


def traced_checks(wl, tracer, res, digest):
    checks = []
    for name in wl.gated_counts:
        got, want = tracer.calls(name), wl.counts[name]
        checks.append((f"count:{name}", got == want, f"{got} vs {want}"))
    checks.append(("traced_digest_matches_untraced", res.digest == digest, res.digest))
    if wl.trains:
        checks.append(("update_ratio_positive", tracer.calls("ddpg.DdpgAgent.train_step") > 0, ""))
        losses = tracer.results.get("ddpg.DdpgAgent.train_step", [])
        bad = sum(not all(map(math.isfinite, pair)) for pair in losses)
        checks.append(("train_losses_finite", bad == 0, f"{bad} of {len(losses)} non-finite"))
    return checks


def layer_table(wl, tracer, wall_s):
    from tracer import LAYER, SPAN_NAMES

    rows = {}
    for name in SPAN_NAMES:
        st = tracer.stats.get(name, [0, 0.0, 0.0])
        rows[name] = {"calls": st[0], "incl_s": st[1], "self_s": st[1] - st[2],
                      "expected_calls": wl.counts[name], "layer": LAYER[name]}
    totals = {}
    for r in rows.values():
        totals[r["layer"]] = totals.get(r["layer"], 0.0) + r["self_s"]
    return {"spans": rows, "layer_self_s": totals, "top_level_s": tracer.top_level_s,
            "wall_s": wall_s, "raised": dict(tracer.raised), "nones": dict(tracer.nones)}


def _ratio(num, den):
    return num / den if den else 0.0


def measure(args):
    import facts
    import tracer as tracing
    import workloads

    load_start = os.getloadavg()
    setup_s, setup_samples = probe_setup(args)
    out_dir = run_dir(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    wl.warm_up()

    passes, traced_passes, checks = [], [], []
    failed_ops = attempted_ops = 0
    digest = None
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            attempted_ops += 1
            res, tracer = run_one(wl, tracing, traced)
            if res is None:
                failed_ops += 1
                break
            digest = digest or res.digest
            checks += [(f"pass:{n}", ok, d) for n, ok, d in res.checks]
            checks.append(("digest_repeats", res.digest == digest, res.digest))
            if traced:
                checks += traced_checks(wl, tracer, res, digest)
                traced_passes.append((res, layer_table(wl, tracer, res.wall_s)))
            else:
                passes.append(res)
                if len(passes) == 1:  # set-up, warm-up and one pass, as in every run
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if failed_ops or time.perf_counter() - start >= args.seconds:
            break
    measured_s = time.perf_counter() - start
    load_end = os.getloadavg()

    failed_checks = sum(not ok for _, ok, _ in checks)
    attempted = attempted_ops + len(checks)
    failed = failed_ops + failed_checks
    machine = facts.machine(ROOT)
    nproc = machine["nproc"] or 1
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "measured_s": measured_s,
        "machine": {**machine, "loadavg_start": load_start, "loadavg_end": load_end,
                    "loaded_at_start": load_start[0] > nproc},
        "kernel_counts_computed": kernel_counts(workloads),
        "setup_samples_s": setup_samples, "digest": digest,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failed_checks": [c for c in checks if not c[1]],
    }
    if passes:
        report["end_to_end"] = end_to_end(passes, setup_s, peak_rss_mb, wl)
        report["named_metrics"] = named_metrics(wl, passes, report["end_to_end"],
                                                failed / attempted)
    if traced_passes and passes:
        report["per_layer"] = per_layer(wl, passes, traced_passes)
        report["layers"] = traced_passes[0][1]
        report["claims"] = claims(wl, traced_passes)
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    shutil.rmtree(out_dir, ignore_errors=True)

    print_report(report)
    metrics = report.get("per_layer" if args.trace else "end_to_end", {})
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def kernel_counts(workloads):
    import facts
    from metaran import harness

    out = {}
    for profile in ("toy", "paper"):
        cfg = harness.default_config(profile)
        task = cfg.new_task_spec()
        obs_dim, act_dim = workloads.dims(task)
        h = cfg.hyper()
        out[profile] = facts.kernel_counts(obs_dim, act_dim, h.hidden_sizes, h.batch_size)
    return out


def end_to_end(passes, setup_s, peak_rss_mb, wl):
    walls = [p.wall_s for p in passes]
    iters = [t for p in passes for t in p.iter_s]
    steps = wl.counts["episode.TaskEnv.step"]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "env_steps_per_s": (steps * len(passes) / sum(walls), "1/s"),
        "iter_p95_ms": (percentile(iters, 95) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def named_metrics(wl, passes, e2e, fail_ratio):
    """The metrics under the names the workloads define, with units and the
    sample count behind each percentile."""
    import workloads

    walls = [p.wall_s for p in passes]
    iters = [t for p in passes for t in p.iter_s]
    n = len(iters)
    rows = [("setup_s", e2e["setup_s"][0], "s", f"median of {SETUP_REPEATS} fresh interpreters"),
            ("wall_s", e2e["wall_s"][0], "s", f"median of {len(passes)} passes"),
            ("env_steps_per_s", e2e["env_steps_per_s"][0], "1/s", "")]
    if wl.trains:
        updates = wl.counts["ddpg.DdpgAgent.train_step"]
        rows.append(("updates_per_s", updates * len(passes) / sum(walls), "1/s",
                     f"{updates} train_step calls per pass"))
    label, tail = wl.iter_label, wl.tail_pct
    p50_s = percentile(iters, 50)
    rows.append((f"{label}_p50_ms", p50_s * 1e3, "ms", f"n={n}"))
    rows.append((f"{label}_p{tail}_ms", percentile(iters, tail) * 1e3, "ms", f"n={n}"))
    if "adapt_s" in passes[0].extra:
        rows.append(("adapt_s", statistics.median(p.extra["adapt_s"] for p in passes), "s",
                     "meta_adapt_new"))
    if wl.name == "paper-learn":
        per_iter_steps = wl.schedule.num_tasks * wl.schedule.eval_episodes * wl.hyper.horizon
        step_s = p50_s / per_iter_steps
        rows.append(("paper_seed_projected_h", step_s * workloads.PAPER_SEED_STEPS / 3600,
                     "h", f"p50 outer iteration / {per_iter_steps} steps x 1.2M steps"))
    rows.append(("peak_rss_mb", e2e["peak_rss_mb"][0], "MB", ""))
    rows.append(("fail_ratio", fail_ratio, "ratio", "failed ops+checks / attempted"))
    return rows


def per_layer(wl, passes, traced_passes):
    tables = [t for _, t in traced_passes]
    first = tables[0]["spans"]
    med = statistics.median
    out = {}
    for name, row in first.items():
        out[f"{name}.calls"] = (row["calls"], "count")
    for name in (n for n in first if n not in TOY_ONLY_SPANS):
        out[f"{name}.self_s"] = (med(t["spans"][name]["self_s"] for t in tables), "s")
    for layer in LAYER_TOTALS:
        out[f"{layer}.self_s"] = (med(t["layer_self_s"].get(layer, 0.0) for t in tables), "s")
    steps = first["episode.TaskEnv.step"]["calls"]
    out["ddpg.update_ratio"] = (_ratio(first["ddpg.DdpgAgent.train_step"]["calls"], steps),
                                "ratio")
    raised, nones = tables[0]["raised"], tables[0]["nones"]
    out["ddpg.sample_batch.not_ready_ratio"] = (
        _ratio(raised.get("ddpg.sample_batch", 0), first["ddpg.sample_batch"]["calls"]), "ratio")
    out["meta.query_gradients.none_ratio"] = (
        _ratio(nones.get("meta.query_gradients", 0), first["meta.query_gradients"]["calls"]),
        "ratio")
    traced_wall = med(r.wall_s for r, _ in traced_passes)
    out["trace.overhead_ratio"] = (traced_wall / med(p.wall_s for p in passes), "ratio")
    out["trace.coverage_ratio"] = (med(t["top_level_s"] / t["wall_s"] for t in tables), "ratio")
    return out


def claims(wl, traced_passes):
    """What the traced run shows about the layer each workload stresses."""
    res, t = traced_passes[0]
    spans, layers, wall = t["spans"], t["layer_self_s"], t["wall_s"]
    out = [("top-level spans cover >= 95% of wall", t["top_level_s"] / wall, 0.95)]
    if wl.name == "paper-learn":
        out.append(("nets+ddpg self time >= 90% of wall",
                    (layers.get("nets", 0) + layers.get("ddpg", 0)) / wall, 0.90))
    elif wl.name == "paper-serve":
        env = layers.get("cell", 0) + layers.get("mdp", 0) + layers.get("episode", 0)
        out.append(("cell+mdp+episode self time >= 60% of decision time",
                    env / res.extra["decision_s"], 0.60))
    else:
        for name in ("episode.TaskEnv.step", "ddpg.DdpgAgent.train_step"):
            out.append((f"{name} >= 10% of wall", spans[name]["incl_s"] / wall, 0.10))
    return [(text, share, share >= need) for text, share, need in out]


def print_report(r):
    m = r["machine"]
    print(f"perfbench workload={r['workload']} seed={r['seed']} seconds={r['seconds']} "
          f"trace={r['trace']} measured={r['measured_s']:.1f}s")
    print(f"machine: nproc={m['nproc']} usable={m['usable_cpus']} "
          f"load={m['loadavg_start'][0]:.2f}->{m['loadavg_end'][0]:.2f} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']} blas_threads={m['blas_threads']} "
          f"git={m['git_sha']}")
    if m["loaded_at_start"]:
        print(f"WARNING: load average {m['loadavg_start'][0]:.2f} above nproc at start")
    for profile, kc in r["kernel_counts_computed"].items():
        print(f"computed kernel counts ({profile}): "
              + " ".join(f"{k}={v}" for k, v in kc.items()))
    print(f"output digest: {r['digest']}")
    for name, value, unit, note in r.get("named_metrics", []):
        print(f"  {name:<26} {value:>14.6g} {unit:<6} {note}")
    if "layers" in r:
        t = r["layers"]
        print(f"  {'span':<34} {'calls':>8} {'expected':>8} {'self_s':>10} {'incl_s':>10}")
        for name, row in t["spans"].items():
            print(f"  {name:<34} {row['calls']:>8} {row['expected_calls']:>8} "
                  f"{row['self_s']:>10.4f} {row['incl_s']:>10.4f}")
        for name, (value, unit) in r["per_layer"].items():
            if not name.endswith(".calls"):
                print(f"  {name:<40} {value:>12.6g} {unit}")
        for text, share, ok in r["claims"]:
            print(f"  claim: {text}: {share:.3f} {'met' if ok else 'NOT MET'}")
    for name, _, detail in r["failed_checks"]:
        print(f"  FAILED check {name}: {detail}")
    print(f"  attempted={r['attempted']} failed={r['failed']} fail_ratio={r['fail_ratio']:.4g}")


def run_all(args):
    """Every workload untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            status |= subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S + 60).returncode
    if status:
        return status
    print("== summary ==")
    for name in WORKLOAD_NAMES:
        base = json.loads((OUT / f"result-{name}-seed{args.seed}-trace0.json").read_text())
        traced = json.loads((OUT / f"result-{name}-seed{args.seed}-trace1.json").read_text())
        overhead = traced["per_layer"]["trace.overhead_ratio"][0]
        print(f"{name}: digest {base['digest']} "
              f"(traced {'same' if traced['digest'] == base['digest'] else 'DIFFERENT'}), "
              f"trace.overhead_ratio={overhead:.4f}")
        for row in base["named_metrics"]:
            print(f"  {row[0]:<26} {row[1]:>14.6g} {row[2]}")
    return status


def main(argv=None):
    args = parse_args(argv)
    import_program()
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, run_dir(args))
        setup_s = time.perf_counter() - T0
        shutil.rmtree(run_dir(args), ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
