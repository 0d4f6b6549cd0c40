"""Command-line entry point.

Subcommands: meta-train, adapt, baseline, eval, summarize. Configuration
comes from a built-in profile (--profile toy|paper) or a JSON file
(--config), with --seed/--out overriding the config's values.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from . import ddpg, meta as meta_mod
from .episode import TaskEnv
from .harness import MetricsLog, _record_trace, default_config, load_config
from .harness import run_experiment, summarize
from .seeding import derive_rng


def _resolve_config(args):
    if args.config:
        config = load_config(args.config)
    else:
        config = default_config(args.profile)
    changes = {}
    if args.seed is not None:
        changes["seeds"] = (args.seed,)
    if args.out is not None:
        changes["out_dir"] = args.out
    if changes:
        config = dataclasses.replace(config, **changes)
    return config


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH", help="JSON experiment config")
    parser.add_argument(
        "--profile", choices=("toy", "paper"), default="toy",
        help="built-in config profile (ignored with --config)",
    )
    parser.add_argument("--seed", type=int, metavar="N", help="run a single seed")
    parser.add_argument("--out", metavar="DIR", help="output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="metaran",
        description="Meta-RL resource-block and power allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("meta-train", help="meta-train and adapt on the new task")
    _add_common(p)

    p = sub.add_parser("adapt", help="adapt a saved meta model to the new task")
    _add_common(p)
    p.add_argument("--checkpoint", metavar="PATH", help="meta model .npz")

    p = sub.add_parser("baseline", help="run a baseline method on the new task")
    _add_common(p)
    p.add_argument("--kind", choices=("scratch", "tl", "mtl"), required=True)

    p = sub.add_parser("eval", help="evaluate a saved agent on the new task")
    _add_common(p)
    p.add_argument("--checkpoint", metavar="PATH", required=True, help="agent .npz")
    p.add_argument("--episodes", type=int, default=5)

    p = sub.add_parser("summarize", help="summarize metric CSVs in a directory")
    p.add_argument("--out", metavar="DIR", required=True)

    args = parser.parse_args(argv)

    if args.command == "summarize":
        log = MetricsLog.read_csvs(args.out)
        print(summarize(log))
        return 0

    config = _resolve_config(args)
    out = Path(config.out_dir)

    if args.command == "meta-train":
        log = run_experiment(config, mode="meta")
        print(f"wrote {len(log.records)} records to {out}")
        return 0

    if args.command == "adapt":
        out.mkdir(parents=True, exist_ok=True)
        schedule = config.meta_schedule()
        hyper = config.hyper()
        new_task = config.new_task_spec()
        for seed in config.seeds:
            ckpt = args.checkpoint or out / f"meta_model_seed{seed}.npz"
            model = meta_mod.load_meta_model(ckpt)
            agent, trace = meta_mod.meta_adapt_new(model, new_task, schedule, hyper, seed)
            ddpg.save_agent(out / f"adapted_agent_seed{seed}.npz", agent)
            log = MetricsLog()
            _record_trace(log, "meta", new_task.task_id, seed, trace)
            log.write_csvs(out)
            print(f"seed {seed}: final return {trace[-1]['episode_return']:.4f}")
        return 0

    if args.command == "baseline":
        log = run_experiment(config, mode=args.kind)
        print(f"wrote {len(log.records)} records to {out}")
        return 0

    if args.command == "eval":
        agent = ddpg.load_agent(args.checkpoint)
        new_task = config.new_task_spec()
        hyper = config.hyper()
        seed = config.seeds[0]
        env = TaskEnv(new_task, derive_rng(seed, "cli-eval", "env"))
        ret = ddpg.evaluate_policy(agent, env, args.episodes, hyper.horizon)["episode_return"]
        print(f"mean discounted return over {args.episodes} episodes: {ret:.6f}")
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
