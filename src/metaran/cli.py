"""Command-line entry point.

Subcommands: meta-train, adapt, baseline, eval, summarize. Configuration
comes from a built-in profile (--profile toy|paper) or a JSON file
(--config), with --seed/--out overriding the config's values.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from . import meta as meta_mod
from .ddpg import evaluate_policy, layer_sizes
from .errors import ConfigurationError
from .harness import METHODS, MetricsLog, default_config, final_return, load_config
from .harness import run_experiment, summarize
from .nets import num_params


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


def _load_model(path, new_task, hyper) -> meta_mod.MetaModel:
    """The model checkpoint at path, checked against the networks the config
    builds for the new task; ConfigurationError naming the file otherwise."""
    model = meta_mod.load_meta_model(path)
    sizes = layer_sizes(*meta_mod.task_dims(new_task), hyper)
    for name, layers in zip(("actor_vec", "critic_vec"), sizes):
        if getattr(model, name).shape != (num_params(layers),):
            raise ConfigurationError(f"{path}: {name} does not fit the config's networks")
    return model


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
    p.set_defaults(mode="meta")

    p = sub.add_parser("adapt", help="adapt a saved meta model to the new task")
    _add_common(p)
    p.add_argument("--checkpoint", metavar="PATH", help="model .npz")

    p = sub.add_parser("baseline", help="run a baseline method on the new task")
    _add_common(p)
    p.add_argument("--kind", dest="mode", choices=METHODS[1:], required=True)

    p = sub.add_parser("eval", help="evaluate a model checkpoint greedily on the new task")
    _add_common(p)
    p.add_argument("--checkpoint", metavar="PATH", required=True, help="model .npz")
    p.add_argument("--episodes", type=int, default=5)

    p = sub.add_parser("summarize", help="summarize metric CSVs in a directory")
    p.add_argument("--out", metavar="DIR", required=True)

    args = parser.parse_args(argv)
    if args.command == "eval" and args.episodes < 1:
        parser.error(f"argument --episodes: must be an integer >= 1, got {args.episodes}")

    if args.command == "summarize":
        log = MetricsLog.read_csvs(args.out)
        print(summarize(log))
        return 0

    config = _resolve_config(args)
    out = Path(config.out_dir)

    if args.command in ("meta-train", "baseline"):
        log = run_experiment(config, mode=args.mode)
        print(f"wrote {sum(map(len, log.runs.values()))} records to {out}")
        return 0

    if args.command == "adapt":
        out.mkdir(parents=True, exist_ok=True)
        schedule = config.meta_schedule()
        hyper = config.hyper()
        new_task = config.new_task_spec()
        for seed in config.seeds:
            ckpt = args.checkpoint or out / f"meta_model_seed{seed}.npz"
            model = _load_model(ckpt, new_task, hyper)
            agent, trace = meta_mod.meta_adapt_new(model, new_task, schedule, hyper, seed)
            meta_mod.save_meta_model(out / f"adapted_agent_seed{seed}.npz",
                                     meta_mod.agent_model(agent))
            log = MetricsLog()
            log.add_trace("meta", seed, trace)
            log.write_csvs(out)
            final = final_return([e["episode_return"] for e in trace])
            print(f"seed {seed}: final return {final:.4f}")
        return 0

    # eval: the agent at the model's parameters, on the methods' evaluation world
    new_task = config.new_task_spec()
    hyper = config.hyper()
    seed = config.seeds[0]
    model = _load_model(args.checkpoint, new_task, hyper)
    agent, _ = meta_mod.inner_adapt(model, new_task, 0, hyper, seed)
    ret, _ = evaluate_policy(agent, meta_mod.eval_env(new_task, seed), args.episodes)
    print(f"mean discounted return over {args.episodes} episodes: {ret:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
