"""Tests for the experiment harness: configs, metrics, analysis, summaries."""

import dataclasses
import json
import re

import numpy as np
import pytest

from metaran import meta
from metaran.cell import dbm_to_mw
from metaran.errors import ConfigurationError
from metaran.ddpg import Hyper
from metaran.harness import (
    CellBlock,
    ExperimentConfig,
    MetricsLog,
    ScheduleBlock,
    TaskBlock,
    default_config,
    five_number_summary,
    load_config,
    relative_gain,
    run_experiment,
    save_config,
    summarize,
)


def small_config(out_dir, **kw):
    base = dict(
        profile="test",
        cell=CellBlock(num_ues=2, cell_radius_m=100.0, num_neighbors=1),
        tasks=(TaskBlock(num_rbs=4, demand_min=1e5, demand_max=1e6),),
        new_task=TaskBlock(num_rbs=4, demand_min=2e5, demand_max=1e6),
        schedule=ScheduleBlock(outer_iters=10, eval_episodes=1),
        agent=Hyper(
            gamma=0.9, lr=1e-3, batch_size=8, buffer_capacity=256,
            horizon=6, hidden_sizes=(8,),
        ),
        seeds=(0,),
        out_dir=str(out_dir),
        donor_budget=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# -- configuration -----------------------------------------------------------


def test_default_profiles_are_valid():
    paper = default_config("paper")
    assert len(paper.tasks) == 6
    assert {t.num_rbs for t in paper.tasks} == {60, 80, 100}
    assert {t.demand_min for t in paper.tasks} == {1e6, 3e6}
    assert paper.new_task == TaskBlock(num_rbs=80, demand_min=2e6, demand_max=10e6)
    assert paper.meta_schedule().adapt_budget == 10

    toy = default_config("toy")
    assert toy.cell.num_ues == 5
    assert {t.num_rbs for t in toy.tasks} == {8, 10, 12}
    assert len(toy.seeds) == 5

    with pytest.raises(ConfigurationError):
        default_config("huge")


def test_derived_objects_convert_units():
    cfg = default_config("paper")
    cc = cfg.cell_config(num_rbs=60)
    assert cc.num_rbs == 60 and cc.num_ues == 30
    assert np.isclose(cc.p_min, dbm_to_mw(3.0))
    assert np.isclose(cc.p_max, dbm_to_mw(6.0))
    donors = cfg.donor_task_specs()
    assert [t.task_id for t in donors] == list(range(6))
    assert cfg.new_task_spec().task_id == 6
    h = cfg.hyper()
    assert h.gamma == 0.99 and h.hidden_sizes == (300, 400, 400)


def test_config_json_round_trip(tmp_path):
    cfg = default_config("toy", out_dir=str(tmp_path))
    path = tmp_path / "config.json"
    save_config(path, cfg)
    back = load_config(path)
    assert back == cfg


def test_config_rejects_unknown_keys(tmp_path):
    cfg = default_config("toy", out_dir=str(tmp_path))
    data = dataclasses.asdict(cfg)
    data["agent"]["momentum"] = 0.9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError, match="momentum"):
        load_config(path)


def test_config_rejects_bad_schema_version(tmp_path):
    cfg = default_config("toy", out_dir=str(tmp_path))
    data = dataclasses.asdict(cfg)
    data["schema_version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError, match="schema_version"):
        load_config(path)


def test_a_schema_1_config_with_tau_names_the_key(tmp_path):
    # Schema 2 dropped agent.tau with the target networks.
    data = dataclasses.asdict(default_config("toy", out_dir=str(tmp_path)))
    data["schema_version"] = 1
    data["agent"]["tau"] = 0.005
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError, match=re.escape("config.agent: unknown keys ['tau']")):
        load_config(path)
    del data["agent"]["tau"]
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError, match="schema_version: expected 2, got 1"):
        load_config(path)


def test_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        load_config(path)


@pytest.mark.parametrize(
    "text", [b"\xff{}", b'{"seeds": [' + b"9" * 5000 + b"]}"],
    ids=["not-utf8", "int-of-5000-digits"],
)
def test_config_rejects_json_text_that_python_cannot_read(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    with pytest.raises(ConfigurationError, match="bad.json: invalid JSON"):
        load_config(path)


def test_config_validation():
    with pytest.raises(ConfigurationError, match="seeds"):
        small_config("out", seeds=())
    with pytest.raises(ConfigurationError, match="demand"):
        small_config("out", new_task=TaskBlock(num_rbs=4, demand_min=2e6, demand_max=1e6))
    with pytest.raises(ConfigurationError, match="tasks"):
        small_config("out", tasks=())


@pytest.mark.parametrize("name, value, message", [
    ("seeds", (0.5,), "seeds[0] must be an integer, got 0.5"),  # derive_rng would run seed 0
    ("seeds", (1, True), "seeds[1] must be an integer, got True"),  # would write *_seedTrue.csv
    # tl would raise TypeError once meta had finished training.
    ("donor_budget", 2.5, "donor_budget must be an integer, got 2.5"),
])
def test_config_rejects_a_count_that_is_not_an_integer(name, value, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        dataclasses.replace(default_config("toy"), **{name: value})


def test_a_task_with_a_fractional_rb_count_fails_before_any_training():
    # Built, such a config would meta-train on the donors to the end and only
    # then fail, in adaptation on the new task, with a bare TypeError.
    with pytest.raises(ConfigurationError, match=re.escape("num_rbs must be an integer, got 10.5")):
        dataclasses.replace(default_config("toy"),
                            new_task=TaskBlock(num_rbs=10.5, demand_min=0.4e6, demand_max=2e6))


# -- metrics log -------------------------------------------------------------


def fake_log():
    log = MetricsLog()
    rng = np.random.default_rng(0)
    for method, base in (("meta", -2.0), ("scratch", -4.0)):
        for seed in (0, 1):
            for shot in (1, 2, 3):
                log.add(
                    method, 1, seed, shot,
                    base + 0.1 * shot + 0.01 * rng.normal(),
                    2e6, 1e6, 3e6,
                )
    return log


def test_metrics_selection_helpers():
    log = fake_log()
    assert log.methods() == ["meta", "scratch"]
    assert {seed for _, seed in log.runs} == {0, 1}
    assert len(log.runs["meta", 0]) == 3


def test_metrics_csv_round_trip_preserves_floats(tmp_path):
    log = fake_log()
    written = log.write_csvs(tmp_path)
    assert sorted(p.name for p in written) == [
        "meta_seed0.csv", "meta_seed1.csv", "scratch_seed0.csv", "scratch_seed1.csv",
    ]
    back = MetricsLog.read_csvs(tmp_path)
    want = [(m, s, row[0], row[1]) for (m, s), rows in log.runs.items() for row in rows]
    got = [(m, s, row[0], row[1]) for (m, s), rows in back.runs.items() for row in rows]
    assert sorted(got) == sorted(want)  # repr round-trips doubles exactly


def test_read_csvs_reads_only_method_csvs(tmp_path):
    fake_log().write_csvs(tmp_path)
    (tmp_path / "adaptation_meta_seed0.csv").write_text("shot,episode_return\n1,-1.5\n")
    (tmp_path / "notes_seed0.csv").write_text("x\n1\n")
    # A negative seed and a leading zero, neither of which run_experiment writes.
    for name in ("meta_seed-1.csv", "meta_seed00.csv"):
        (tmp_path / name).write_text("episode,return,q_avg,q_min,q_max\n1,0.5,1,1,1\n")
    (tmp_path / "run.json").write_text("{}")
    (tmp_path / "events.jsonl").write_text("{}\n")
    (tmp_path / "meta_model_seed0.npz").write_bytes(b"")
    back = MetricsLog.read_csvs(tmp_path)
    assert back.methods() == ["meta", "scratch"]
    assert sum(map(len, back.runs.values())) == sum(map(len, fake_log().runs.values()))


def test_read_csvs_missing_column_names_the_file(tmp_path):
    (tmp_path / "meta_seed0.csv").write_text("episode,return,q_avg,q_min\n1,0.5,1.0,1.0\n")
    with pytest.raises(ConfigurationError, match=r"meta_seed0\.csv.*missing columns \['q_max'\]"):
        MetricsLog.read_csvs(tmp_path)


def test_read_csvs_undecodable_header_names_the_file(tmp_path):
    (tmp_path / "meta_seed0.csv").write_bytes(b"\xff\xfeepisode,return,q_avg,q_min,q_max\n")
    with pytest.raises(ConfigurationError, match=r"meta_seed0\.csv: .*can't decode"):
        MetricsLog.read_csvs(tmp_path)


def test_read_csvs_header_field_over_the_size_limit_names_the_file(tmp_path):
    (tmp_path / "meta_seed0.csv").write_text("episode," + "9" * 200_000 + "\n")
    with pytest.raises(ConfigurationError,
                       match=r"meta_seed0\.csv: field larger than field limit"):
        MetricsLog.read_csvs(tmp_path)


def test_read_csvs_non_numeric_cell_names_the_file(tmp_path):
    fake_log().write_csvs(tmp_path)
    path = tmp_path / "scratch_seed1.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(lines[2].split(",")[1], "oops", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=r"scratch_seed1\.csv, line 3: .*'oops'"):
        MetricsLog.read_csvs(tmp_path)


def test_read_csvs_cell_over_the_size_limit_names_the_line(tmp_path):
    rows = "1,-1.5,1.0,1.0,1.0\n" + "2,-" + "1" * 200_000 + ",1.0,1.0,1.0\n"
    (tmp_path / "meta_seed0.csv").write_text("episode,return,q_avg,q_min,q_max\n" + rows)
    with pytest.raises(ConfigurationError,
                       match=r"meta_seed0\.csv, line 3: field larger than field limit"):
        MetricsLog.read_csvs(tmp_path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_read_csvs_non_finite_cell_names_the_file(tmp_path, cell):
    # float() parses these, and summarize would print "nan +- nan".
    fake_log().write_csvs(tmp_path)
    path = tmp_path / "meta_seed0.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(lines[2].split(",")[1], cell, 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=rf"meta_seed0\.csv, line 3: .*'{cell}'"):
        MetricsLog.read_csvs(tmp_path)


@pytest.mark.parametrize("episodes, line", [("3,1,2", 2), ("1,1,5", 3), ("1,2,4", 4),
                                             ("0,1,2", 2)])
def test_read_csvs_episodes_out_of_order_name_the_line(tmp_path, episodes, line):
    # summarize takes the last rows in file order as the last shots.
    rows = "".join(f"{e},-1.5,1.0,1.0,1.0\n" for e in episodes.split(","))
    (tmp_path / "tl_seed2.csv").write_text("episode,return,q_avg,q_min,q_max\n" + rows)
    with pytest.raises(ConfigurationError, match=rf"tl_seed2\.csv, line {line}: episode"):
        MetricsLog.read_csvs(tmp_path)


# -- analysis ----------------------------------------------------------------


def test_five_number_summary_fixture():
    assert five_number_summary([5, 1, 4, 2, 3]) == (1.0, 2.0, 3.0, 4.0, 5.0)
    with pytest.raises(ConfigurationError):
        five_number_summary([])


def test_relative_gain():
    assert relative_gain(1.198, 1.0) == pytest.approx(0.198)
    assert relative_gain(-2.0, -2.5) == pytest.approx(0.2)


def test_summarize_reports_gain_and_warns_on_partial_logs():
    text = summarize(fake_log())
    assert "Relative gain of meta over best baseline (scratch)" in text
    assert "19.8%" in text
    assert "WARNING: no records for ['tl', 'mtl']" in text
    assert "Mean return per adaptation shot" in text

    solo = MetricsLog()
    solo.add("meta", 0, 0, 1, -1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        summarize(solo)


def test_summarize_ranks_on_the_mean_of_the_last_five_shots():
    # By the last shot alone the ranking is scratch > tl > meta; by the mean
    # of the last five it is meta > tl > scratch. Shot 1 lies outside both.
    shots = {
        "meta": [-100.0, -1.0, -1.0, -1.0, -1.0, -5.0],  # last-5 mean -1.8
        "scratch": [-100.0, -9.0, -9.0, -9.0, -9.0, -2.0],  # last-5 mean -7.6
        "tl": [-100.0, -3.0, -3.0, -3.0, -3.0, -3.0],  # last-5 mean -3
    }
    log = MetricsLog()
    for method, returns in shots.items():
        for shot, ret in enumerate(returns, start=1):
            log.add(method, 1, 0, shot, ret, 1.0, 1.0, 1.0)
    text = summarize(log)
    assert "last min(5, shots) shots" in text
    assert "  meta        -1.800000 +- " in text
    assert "  scratch     -7.600000 +- " in text
    assert "Relative gain of meta over best baseline (tl): 40.0%" in text


def test_zero_baseline_gain_is_undefined():
    assert np.isnan(relative_gain(0.5, 0.0))
    log = MetricsLog()
    log.add("meta", 0, 0, 1, 0.5, 1.0, 1.0, 1.0)
    log.add("scratch", 0, 0, 1, 0.0, 1.0, 1.0, 1.0)
    text = summarize(log)
    assert (
        "Relative gain of meta over best baseline (scratch): "
        "undefined (scratch final return is 0)"
    ) in text


def test_summarize_flags_single_seed():
    log = MetricsLog()
    for method in ("meta", "scratch"):
        log.add(method, 0, 0, 1, -1.0, 1.0, 1.0, 1.0)
    assert "single seed" in summarize(log)


def pinned_log():
    """Three methods on seeds 10 and 2, added in that order; tl's seed 10 has
    4 shots and the others 6 or 7, so shot 7 has meta alone."""
    log = MetricsLog()
    rng = np.random.default_rng(19)
    shots = {("meta", 10): 7, ("meta", 2): 7, ("scratch", 10): 6, ("scratch", 2): 6,
             ("tl", 10): 4, ("tl", 2): 6}
    base = {"meta": -2.0, "scratch": -3.5, "tl": -2.5}
    for (method, seed), n in shots.items():
        for shot in range(1, n + 1):
            q = rng.uniform(1e5, 2e6, size=3)
            log.add(method, 6, seed, shot, base[method] + 0.1 * shot + rng.normal(0, 0.3),
                    float(q.mean()), float(q.min()), float(q.max()))
    return log


PINNED_REPORT = "\n".join((
    "WARNING: no records for ['mtl']; partial report",
    "",
    "== Final mean discounted return (per method; per seed the mean of the last "
    "min(5, shots) shots) ==",
    "  meta        -1.470676 +- 0.032476",
    "  scratch     -2.913128 +- 0.105077",
    "  tl          -2.275476 +- 0.007921",
    "",
    "Relative gain of meta over best baseline (tl): 35.4%",
    "(reported figure for the evaluation-scale setup in the source study: 19.8%)",
    "",
    "== Min-QoS five-number summary (bits/s) ==",
    "  meta     min=1.701e+05 q1=3.637e+05 med=6.911e+05 q3=9.116e+05 max=9.775e+05",
    "  scratch  min=1.293e+05 q1=2.125e+05 med=7.591e+05 q3=1.075e+06 max=1.599e+06",
    "  tl       min=1.439e+05 q1=2.995e+05 med=4.784e+05 q3=5.387e+05 max=9.106e+05",
    "",
    "== Mean return per adaptation shot ==",
    "  shot        meta     scratch          tl",
    "     1     -2.1856     -3.6164     -2.5695",
    "     2     -1.9617     -3.2144     -2.2940",
    "     3     -1.5767     -3.0086     -2.3433",
    "     4     -1.3158     -2.8380     -2.2995",
    "     5     -1.2211     -2.9609     -1.7238",
    "     6     -1.8801     -2.5439     -1.9666",
    "     7     -1.3596" + " " * 24,
))


def test_summarize_prints_the_pinned_report(tmp_path):
    log = pinned_log()
    assert summarize(log) == PINNED_REPORT
    written = log.write_csvs(tmp_path)
    assert [p.name for p in written] == [
        "meta_seed2.csv", "meta_seed10.csv", "scratch_seed2.csv", "scratch_seed10.csv",
        "tl_seed2.csv", "tl_seed10.csv",
    ]
    assert summarize(MetricsLog.read_csvs(tmp_path)) == PINNED_REPORT


# -- driver ------------------------------------------------------------------


def test_run_experiment_rejects_unknown_mode(tmp_path):
    with pytest.raises(ConfigurationError):
        run_experiment(small_config(tmp_path), mode="everything")


def test_run_experiment_scratch_writes_csvs(tmp_path):
    cfg = small_config(tmp_path)
    log = run_experiment(cfg, mode="scratch")
    assert log.methods() == ["scratch"]
    # adapt budget = 10% of 10 outer iterations = 1 shot.
    assert sum(map(len, log.runs.values())) == 1
    assert (tmp_path / "scratch_seed0.csv").exists()


def test_run_experiment_keeps_the_csvs_of_seeds_before_a_failure(tmp_path, monkeypatch):
    run_baseline = meta.run_baseline

    def fail_on_seed_1(kind, new_task, donors, budget, hyper, seed, **kw):
        if seed == 1:
            raise RuntimeError("seed 1 fails")
        return run_baseline(kind, new_task, donors, budget, hyper, seed, **kw)

    monkeypatch.setattr(meta, "run_baseline", fail_on_seed_1)
    with pytest.raises(RuntimeError, match="seed 1 fails"):
        run_experiment(small_config(tmp_path, seeds=(0, 1)), mode="scratch")
    assert (tmp_path / "scratch_seed0.csv").exists()
    assert not (tmp_path / "scratch_seed1.csv").exists()


def test_run_experiment_writes_each_seeds_csvs_once(tmp_path, monkeypatch):
    written = []
    write_csvs = MetricsLog.write_csvs

    def recording(log, out_dir):
        paths = write_csvs(log, out_dir)
        written.extend(paths)
        return paths

    monkeypatch.setattr(MetricsLog, "write_csvs", recording)
    log = run_experiment(small_config(tmp_path, seeds=(0, 1)), mode="scratch")
    assert sorted(p.name for p in written) == ["scratch_seed0.csv", "scratch_seed1.csv"]
    assert list(log.runs) == [("scratch", 0), ("scratch", 1)]


def test_run_experiment_meta_writes_checkpoints(tmp_path):
    cfg = small_config(tmp_path)
    log = run_experiment(cfg, mode="meta")
    assert (tmp_path / "meta_model_seed0.npz").exists()
    assert (tmp_path / "meta_seed0.csv").exists()
    assert [row[0] for rows in log.runs.values() for row in rows] == [1]
