"""Smoke tests for the command-line interface."""

import dataclasses
import json

import pytest

from metaran import cli
from metaran.errors import ConfigurationError
from metaran.harness import MetricsLog, default_config


def write_small_config(tmp_path):
    cfg = default_config("toy", out_dir=str(tmp_path / "out"))
    cfg = dataclasses.replace(
        cfg,
        schedule=dataclasses.replace(cfg.schedule, outer_iters=10),
        agent=dataclasses.replace(
            cfg.agent, batch_size=8, horizon=6, hidden_sizes=(8,),
            warmup_transitions=0,
        ),
        seeds=(0,),
        donor_budget=1,
    )
    path = tmp_path / "config.json"
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


def test_meta_train_then_eval(tmp_path, capsys):
    config_path, cfg = write_small_config(tmp_path)
    rc = cli.main(["meta-train", "--config", str(config_path)])
    assert rc == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "meta_model_seed0.npz").exists()

    rc = cli.main(["adapt", "--config", str(config_path)])
    assert rc == 0
    ckpt = out_dir / "adapted_agent_seed0.npz"
    assert ckpt.exists()

    capsys.readouterr()
    rc = cli.main([
        "eval", "--config", str(config_path),
        "--checkpoint", str(ckpt), "--episodes", "2",
    ])
    assert rc == 0
    assert "mean discounted return" in capsys.readouterr().out


def test_adapt_rejects_a_schedule_without_an_adaptation_episode(tmp_path):
    config_path, _ = write_small_config(tmp_path)
    data = json.loads(config_path.read_text())
    data["schedule"]["outer_iters"] = 5  # round(0.1 * 5) = 0 adaptation episodes
    config_path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError, match="schedule: outer_iters"):
        cli.main(["adapt", "--config", str(config_path)])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
