"""Smoke tests for the command-line interface."""

import dataclasses
import json
import re

import numpy as np
import pytest

from metaran import cli, meta
from metaran.ddpg import DdpgAgent, evaluate_policy
from metaran.errors import ConfigurationError
from metaran.harness import MetricsLog, default_config


def write_small_config(tmp_path, outer_iters=10, hidden_sizes=(8,), name="config.json"):
    cfg = default_config("toy", out_dir=str(tmp_path / "out"))
    cfg = dataclasses.replace(
        cfg,
        schedule=dataclasses.replace(cfg.schedule, outer_iters=outer_iters),
        agent=dataclasses.replace(
            cfg.agent, batch_size=8, horizon=6, hidden_sizes=hidden_sizes,
            warmup_transitions=0,
        ),
        seeds=(0,),
        donor_budget=1,
    )
    path = tmp_path / name
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    return path, cfg


def test_baseline_scratch_and_summarize(tmp_path, capsys):
    config_path, cfg = write_small_config(tmp_path)
    rc = cli.main(["baseline", "--kind", "scratch", "--config", str(config_path)])
    assert rc == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "scratch_seed0.csv").exists()

    # summarize needs two methods; add a second one.
    rc = cli.main(["baseline", "--kind", "mtl", "--config", str(config_path)])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["summarize", "--out", str(out_dir)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "Final mean discounted return" in text


def test_readme_quick_start_on_a_tiny_config(tmp_path, capsys):
    # meta-train, then a baseline, then summarize over the same directory:
    # the files meta-train writes besides its CSV must not break summarize.
    config_path, _ = write_small_config(tmp_path)
    out_dir = str(tmp_path / "out")
    assert cli.main(["meta-train", "--config", str(config_path), "--out", out_dir]) == 0
    assert cli.main(["baseline", "--kind", "scratch", "--config", str(config_path),
                     "--out", out_dir]) == 0
    capsys.readouterr()
    assert cli.main(["summarize", "--out", out_dir]) == 0
    text = capsys.readouterr().out
    assert "  meta  " in text and "  scratch  " in text
    assert "Relative gain of meta over best baseline (scratch)" in text


def test_seed_and_out_overrides(tmp_path):
    config_path, _ = write_small_config(tmp_path)
    other = tmp_path / "elsewhere"
    rc = cli.main([
        "baseline", "--kind", "scratch", "--config", str(config_path),
        "--seed", "7", "--out", str(other),
    ])
    assert rc == 0
    assert (other / "scratch_seed7.csv").exists()


def _eval_line(config_args, ckpt, capsys):
    capsys.readouterr()
    assert cli.main(["eval", *config_args, "--checkpoint", str(ckpt), "--episodes", "2"]) == 0
    return capsys.readouterr().out.strip()


def _greedy_line(agent, cfg):
    """What eval prints for an agent with these parameters: its greedy return
    on the new task's evaluation world."""
    ret, _ = evaluate_policy(agent, meta.eval_env(cfg.new_task_spec(), 0), 2)
    return f"mean discounted return over 2 episodes: {ret:.6f}"


def test_meta_train_then_eval(tmp_path, capsys):
    # 30 outer iterations give 3 adaptation episodes of 6 steps, so the
    # adapted agent takes Adam steps once its buffer holds 2 * 8 transitions.
    config_path, cfg = write_small_config(tmp_path, outer_iters=30)
    assert cli.main(["meta-train", "--config", str(config_path)]) == 0
    out_dir = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["adapt", "--config", str(config_path)]) == 0
    returns = [row[1] for row in MetricsLog.read_csvs(out_dir).runs["meta", 0]]
    assert len(returns) == 3
    assert capsys.readouterr().out.strip() == f"seed 0: final return {np.mean(returns):.4f}"
    ckpt = out_dir / "adapted_agent_seed0.npz"

    model = meta.load_meta_model(out_dir / "meta_model_seed0.npz")
    agent, _ = meta.meta_adapt_new(model, cfg.new_task_spec(), cfg.meta_schedule(),
                                   cfg.hyper(), 0)
    saved = meta.load_meta_model(ckpt)
    assert np.array_equal(saved.actor_vec, agent.actor.flat)
    assert np.array_equal(saved.critic_vec, agent.critic.flat)
    assert agent.actor_opt.step_count > 0  # the saved agent did train
    assert _eval_line(["--config", str(config_path)], ckpt, capsys) == _greedy_line(agent, cfg)


def test_eval_of_a_meta_checkpoint(tmp_path, capsys):
    config_path, cfg = write_small_config(tmp_path)
    assert cli.main(["meta-train", "--config", str(config_path)]) == 0
    ckpt = tmp_path / "out" / "meta_model_seed0.npz"
    # A zero-budget adaptation is the agent at the meta parameters.
    agent, _ = meta.inner_adapt(meta.load_meta_model(ckpt), cfg.new_task_spec(), 0,
                                cfg.hyper(), 0)
    assert _eval_line(["--config", str(config_path)], ckpt, capsys) == _greedy_line(agent, cfg)


def test_eval_of_a_checkpoint_on_a_built_in_profile(tmp_path, capsys):
    cfg = default_config("toy")
    model = meta.init_meta_model(*meta.task_dims(cfg.new_task_spec()), cfg.hyper(), seed=0)
    ckpt = tmp_path / "toy.npz"
    meta.save_meta_model(ckpt, model)
    agent, _ = meta.inner_adapt(model, cfg.new_task_spec(), 0, cfg.hyper(), 0)
    assert _eval_line(["--profile", "toy"], ckpt, capsys) == _greedy_line(agent, cfg)


def test_eval_scores_on_the_evaluation_world_of_every_method(tmp_path, monkeypatch):
    # Paired evaluation: eval's first greedy episode starts from the same env
    # stream state as the first evaluation of meta, scratch, tl and mtl.
    config_path, cfg = write_small_config(tmp_path)
    new_task, donors, hyper = cfg.new_task_spec(), cfg.donor_task_specs(), cfg.hyper()
    model = meta.init_meta_model(*meta.task_dims(new_task), hyper, seed=0)
    ckpt = tmp_path / "model.npz"
    meta.save_meta_model(ckpt, model)
    states = {}
    method = "eval"

    def recording(evaluate):
        def wrapped(agent, env, *args):
            states.setdefault(method, repr(env.rng.bit_generator.state))
            return evaluate(agent, env, *args)
        return wrapped

    monkeypatch.setattr(cli, "evaluate_policy", recording(cli.evaluate_policy))
    monkeypatch.setattr(meta, "evaluate_policy", recording(meta.evaluate_policy))
    assert cli.main(["eval", "--config", str(config_path), "--checkpoint", str(ckpt)]) == 0
    method = "meta"
    meta.meta_adapt_new(model, new_task, cfg.meta_schedule(), hyper, 0)
    for method in ("scratch", "tl", "mtl"):
        meta.run_baseline(method, new_task, donors, 1, hyper, 0, donor_budget=1)
    assert list(states) == ["eval", "meta", "scratch", "tl", "mtl"]
    assert len(set(states.values())) == 1


def _commands(config_path, ckpt):
    return [["adapt", "--config", str(config_path), "--checkpoint", str(ckpt)],
            ["eval", "--config", str(config_path), "--checkpoint", str(ckpt)]]


def test_a_checkpoint_from_another_config_names_the_file(tmp_path):
    other_path, _ = write_small_config(tmp_path, hidden_sizes=(16,), name="other.json")
    assert cli.main(["meta-train", "--config", str(other_path)]) == 0
    ckpt = tmp_path / "out" / "meta_model_seed0.npz"
    config_path, _ = write_small_config(tmp_path)
    for argv in _commands(config_path, ckpt):
        with pytest.raises(ConfigurationError, match=f"{re.escape(str(ckpt))}: actor_vec"):
            cli.main(argv)


def test_eval_of_an_unreadable_checkpoint_names_the_file(tmp_path):
    config_path, _ = write_small_config(tmp_path)
    ckpt = tmp_path / "truncated.npz"
    ckpt.write_bytes(b"PK\x03\x04")
    with pytest.raises(ConfigurationError) as info:
        cli.main(["eval", "--config", str(config_path), "--checkpoint", str(ckpt)])
    assert str(ckpt) in str(info.value)


def test_eval_of_a_checkpoint_with_a_nan_weight_names_the_file(tmp_path):
    config_path, cfg = write_small_config(tmp_path)
    model = meta.init_meta_model(*meta.task_dims(cfg.new_task_spec()), cfg.hyper(), seed=0)
    model.actor_vec[0] = np.nan
    ckpt = tmp_path / "nan.npz"
    meta.save_meta_model(ckpt, model)
    with pytest.raises(ConfigurationError,
                       match=f"{re.escape(str(ckpt))}: actor_vec has non-finite entries"):
        cli.main(["eval", "--config", str(config_path), "--checkpoint", str(ckpt)])


def test_an_old_agent_checkpoint_names_the_file(tmp_path):
    # The agent schema that adapt wrote before it saved a model record:
    # online and target networks, optimizer states, dims, noise and hyper.
    config_path, cfg = write_small_config(tmp_path)
    agent = DdpgAgent(*meta.task_dims(cfg.new_task_spec()), cfg.hyper(),
                      np.random.default_rng(0))
    ckpt = tmp_path / "adapted_agent_seed0.npz"
    np.savez(
        ckpt,
        header=json.dumps({"format_version": 3, "obs_dim": agent.obs_dim,
                           "act_dim": agent.act_dim, "hyper": dataclasses.asdict(agent.hyper),
                           "noise_std": agent.noise_std}),
        actor=agent.actor.flat, critic=agent.critic.flat,
        # A fresh agent's target networks equal its online ones.
        target_actor=agent.actor.flat, target_critic=agent.critic.flat,
        actor_opt_m=agent.actor_opt.m, actor_opt_v=agent.actor_opt.v,
        critic_opt_m=agent.critic_opt.m, critic_opt_v=agent.critic_opt.v,
    )
    for argv in _commands(config_path, ckpt):
        with pytest.raises(ConfigurationError,
                           match=f"{re.escape(str(ckpt))}: not a model checkpoint"):
            cli.main(argv)


@pytest.mark.parametrize("episodes", ["0", "-2", "two"])
def test_eval_rejects_a_count_of_episodes_below_one_before_any_work(tmp_path, capsys, episodes):
    # The checkpoint does not exist: the arguments are rejected before it is read.
    config_path, _ = write_small_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "--config", str(config_path), "--checkpoint",
                  str(tmp_path / "missing.npz"), "--episodes", episodes])
    assert info.value.code == 2
    assert "--episodes" in capsys.readouterr().err


def test_profile_and_config_together_are_rejected_at_parse_time(tmp_path, capsys):
    # The checkpoint does not exist: the arguments are rejected before any work.
    config_path, _ = write_small_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "--config", str(config_path), "--profile", "toy",
                  "--checkpoint", str(tmp_path / "missing.npz")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--config" in err and "--profile" in err


def test_summarize_of_a_missing_directory_names_it(tmp_path):
    missing = tmp_path / "no_such_run"
    with pytest.raises(ConfigurationError, match=f"{re.escape(str(missing))}: no such directory"):
        cli.main(["summarize", "--out", str(missing)])


def test_adapt_rejects_a_schedule_without_an_adaptation_episode(tmp_path):
    config_path, _ = write_small_config(tmp_path)
    data = json.loads(config_path.read_text())
    data["schedule"]["outer_iters"] = 4  # (4 + 5) // 10 = 0 adaptation episodes
    config_path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError, match="schedule: outer_iters"):
        cli.main(["adapt", "--config", str(config_path)])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
