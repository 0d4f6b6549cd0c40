"""Contracts other code relies on: the names the benchmark tracer wraps, the
allocation form its serve gate reads, the config file format, the single
versioned checkpoint format, and the package's numpy-only imports."""

import ast
import copy
import dataclasses
import importlib
import importlib.util
import inspect
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metaran import ddpg, harness, mdp, meta, nets
from metaran.cell import CellConfig
from metaran.episode import TaskEnv
from metaran.errors import ConfigurationError, ContractViolation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "metaran"


def _load_perfbench(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_on_the_package():
    tracer = _load_perfbench("tracer")
    assert tracer.SPANS
    for name, _, module_name, path in tracer.SPANS:
        owner = importlib.import_module(f"metaran.{module_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: metaran.{module_name}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), name
    # The outer-iteration span hooks into meta_train's public callback, which
    # the tracer's wrapper passes through with exactly three positional
    # arguments, once per outer iteration.
    assert "on_outer_start" in inspect.signature(meta.meta_train).parameters
    cfg = CellConfig(num_rbs=4, num_ues=2, num_neighbors=1, cell_radius_m=100.0)
    tasks = [mdp.TaskSpec(1e5, 1e6, cfg, task_id) for task_id in (0, 1)]
    hyper = ddpg.Hyper(batch_size=4, buffer_capacity=64, horizon=3, hidden_sizes=(4,))
    calls = []
    meta.meta_train(tasks, meta.MetaSchedule(outer_iters=3, eval_episodes=1, num_tasks=2),
                    hyper, seed=0, on_outer_start=lambda *args, **kw: calls.append((args, kw)))
    assert [(len(args), kw) for args, kw in calls] == [(3, {})] * 3
    assert [args[0] for args, _ in calls] == [1, 2, 3]


def test_the_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    seen, bad = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a package-relative one
            for name in names:
                seen.add(name.split(".")[0])
                if name.split(".")[0] not in allowed:
                    bad.append(f"{path.name}:{node.lineno} imports {name}")
    assert "numpy" in seen
    assert not bad, bad


@pytest.mark.parametrize("name", ["toy-meta", "paper-learn", "paper-serve"])
def test_benchmark_workload_builds_and_warms_up(tmp_path, name):
    # Set-up and warm-up call the package as a timed pass does: DdpgAgent,
    # select_action(explore=), TaskEnv.step's 3-tuple, ReplayBuffer.add,
    # sample_batch, train_step, init_meta_model and load_vectors.
    workloads = _load_perfbench("workloads")
    workloads.WORKLOADS[name](1, tmp_path).warm_up()


def _traced_toy_episode(train, **hyper_overrides):
    """Calls of one traced toy-donor episode, and CountModel's expectation."""
    tracer, workloads = _load_perfbench("tracer"), _load_perfbench("workloads")
    cfg = harness.default_config("toy")
    task = cfg.donor_task_specs()[0]
    h = dataclasses.replace(cfg.hyper(), **hyper_overrides)
    agent = ddpg.DdpgAgent(*meta.task_dims(task), h, np.random.default_rng(0))
    env = TaskEnv(task, np.random.default_rng(1))
    with tracer.traced(tracer.Tracer()) as t:
        ddpg.run_episode(agent, env, train=train)
    model = workloads.CountModel(h)
    model.episode(0, train=train)
    return t, model.expected()


def test_traced_episode_counts_match_the_benchmark_count_model():
    t, expected = _traced_toy_episode(train=False)
    # mdp.compute_penalties is left out: CountModel expects 2 calls per step
    # and the step makes 1; the model is mended with the next benchmark change.
    for name in ("episode.TaskEnv.step", "episode.TaskEnv.reset", "cell.step_mobility",
                 "cell.step_traffic", "cell.sample_channel", "cell.compute_rates",
                 "mdp.decode_action", "mdp.compute_reward", "mdp.encode_state"):
        assert t.calls(name) == expected[name], name


def test_traced_training_episode_counts_match_the_benchmark_count_model():
    # Updates start at 2 * batch_size = 16 of the 40 steps. ddpg.sample_batch
    # is left out: CountModel still counts a call on every step from the
    # warm-up on, where run_episode samples only once an update is made.
    t, expected = _traced_toy_episode(train=True, batch_size=8, warmup_transitions=0)
    assert expected["ddpg.DdpgAgent.train_step"] == 40 - 16 + 1
    for name in ("episode.TaskEnv.step", "episode.TaskEnv.reset",
                 "ddpg.DdpgAgent.select_action", "ddpg.DdpgAgent.train_step"):
        assert t.calls(name) == expected[name], name


def test_traced_meta_train_counts_match_the_benchmark_count_model():
    # 3 transitions per task per outer iteration: each buffer first holds
    # 2 * batch_size = 8 in iteration 3, so the query side turns ready mid-run
    # and two of the four iterations take a meta Adam step. ddpg.sample_batch
    # is left out: CountModel counts a query call on every iteration, where
    # query_gradients samples only once its buffer is ready.
    tracer, workloads = _load_perfbench("tracer"), _load_perfbench("workloads")
    cfg = harness.default_config("toy")
    tasks = cfg.donor_task_specs()[:2]
    h = dataclasses.replace(cfg.hyper(), batch_size=4, warmup_transitions=0, horizon=3)
    schedule = meta.MetaSchedule(outer_iters=4, eval_episodes=1, num_tasks=2)
    with tracer.traced(tracer.Tracer()) as t:
        meta.meta_train(tasks, schedule, h, seed=0)
    model = workloads.CountModel(h)
    model.meta_train(len(tasks), schedule)
    expected = model.expected()
    assert expected["meta_adam_updates"] == 2
    for name in ("episode.TaskEnv.step", "episode.TaskEnv.reset",
                 "ddpg.DdpgAgent.select_action", "ddpg.DdpgAgent.train_step",
                 "meta.outer_iter", "meta.query_gradients", "meta.apply_meta_update",
                 "nets.adam_step"):
        assert t.calls(name) == expected[name], name


def test_benchmark_owner_vector_reads_the_decoded_owners():
    owner_vector = _load_perfbench("workloads").owner_vector
    rng = np.random.default_rng(5)
    for n, k in ((5, 10), (30, 80)):
        cfg = CellConfig(num_ues=n, num_rbs=k)
        for _ in range(50):
            idle = rng.uniform(size=n) < 0.3
            alloc = mdp.decode_action(rng.uniform(-1, 1, size=2 * n), cfg, idle_mask=idle)
            got = owner_vector(alloc, n, k)
            assert got.dtype == np.int64
            assert np.array_equal(got, alloc.rb_owner.astype(np.int64))


# -- config files ------------------------------------------------------------


@pytest.mark.parametrize("profile", ["toy", "paper"])
def test_config_save_load_reproduces_default_profiles(tmp_path, profile):
    cfg = harness.default_config(profile, out_dir=str(tmp_path))
    path = tmp_path / "config.json"
    harness.save_config(path, cfg)
    assert harness.load_config(path) == cfg


def _edited_config(tmp_path, block, key, value):
    """The toy config file with one key changed; block None is the top level."""
    data = dataclasses.asdict(harness.default_config("toy"))
    (data[block] if block else data)[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_config_naming_subcarrier_spacing_is_rejected(tmp_path):
    path = _edited_config(tmp_path, "cell", "subcarrier_spacing", 15e3)
    with pytest.raises(ConfigurationError, match="subcarrier_spacing"):
        harness.load_config(path)


@pytest.mark.parametrize(
    "key, value",
    [("gamma", 1.0), ("buffer_capacity", 101), ("dtype", "float16"),
     ("buffer_capacity", 0), ("buffer_capacity", -2), ("batch_size", 0),
     ("horizon", -1), ("hidden_sizes", [0]),
     ("buffer_capacity", 200),  # below 2 * batch_size (128): no batch is ever drawn
     ("warmup_transitions", 20_002),  # above buffer_capacity: the gate never opens
     ("warmup_transitions", -600),  # a second spelling of 0
     ("lr", 0.0), ("lr", -1e-3),  # nothing trains, or gradient ascent
     ("actor_lr", -1e-3),  # would silently fall back to lr
     ("noise_decay", 0.0), ("noise_decay", 1.5),
     ("noise_std", -0.1), ("noise_std", float("nan")), ("noise_floor", -0.1)],
)
def test_config_agent_block_is_checked_at_load(tmp_path, key, value):
    with pytest.raises(ConfigurationError, match=f"config.agent: {key}"):
        harness.load_config(_edited_config(tmp_path, "agent", key, value))


@pytest.mark.parametrize(
    "block, key, value, field",
    [
        ("cell", "num_ues", 0, "num_ues"),
        ("cell", "neighbor_occupancy", 2.0, "neighbor_occupancy"),
        ("cell", "path_loss_exp", -1.0, "path_loss_exp"),
        ("cell", "rb_bandwidth", 0.0, "rb_bandwidth"),
        ("cell", "cell_radius_m", -5.0, "cell_radius"),  # CellConfig.cell_radius_m
        ("cell", "cell_radius_m", 5.0, "cell_radius_m"),  # below SPEED_MAX / 2
        ("cell", "p_min_dbm", 9.0, "p_min"),  # above p_max_dbm
        ("schedule", "outer_iters", 0, "outer_iters"),
        ("schedule", "meta_actor_lr", -1.0, "meta_actor_lr"),
        # The conversions to mW overflow: a power to a float error, the
        # per-RB noise power to inf.
        ("cell", "p_min_dbm", 4000.0, "p_min_dbm"),
        ("cell", "p_max_dbm", 4000.0, "p_max_dbm"),
        ("cell", "noise_psd_dbm_hz", 4000.0, "noise_psd"),
        # Counts whose arrays would not fit in memory: a replay buffer with
        # 2e30 columns, one of 1e12 rows, and a channel draw of 1e12 neighbours.
        pytest.param("cell", "num_ues", 10**30, "num_ues", id="cell-num_ues-10**30"),
        pytest.param("agent", "buffer_capacity", 10**12, "buffer_capacity",
                     id="agent-buffer_capacity-10**12"),
        pytest.param("cell", "num_neighbors", 10**12, "num_neighbors",
                     id="cell-num_neighbors-10**12"),
    ],
)
def test_config_blocks_are_checked_at_load(tmp_path, block, key, value, field):
    with pytest.raises(ConfigurationError) as info:
        harness.load_config(_edited_config(tmp_path, block, key, value))
    assert f"{block}: " in str(info.value) and field in str(info.value)


def test_size_check_covers_the_actor(tmp_path, monkeypatch):
    # 8 GiB of memory. Hidden sizes [1, 3e8] give a float32 actor of 14.4 GB
    # and a critic of 3.6 GB: only the actor does not fit.
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(ConfigurationError, match=r"hidden_sizes .*one actor's parameters"):
        harness.load_config(_edited_config(tmp_path, "agent", "hidden_sizes", [1, 300_000_000]))
    for profile in ("toy", "paper"):
        harness.save_config(tmp_path / "config.json", harness.default_config(profile))
        assert harness.load_config(tmp_path / "config.json") == harness.default_config(profile)


def test_size_check_is_skipped_where_the_memory_size_is_unknown(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "sysconf")  # as on Windows
    cfg = harness.load_config(_edited_config(tmp_path, "agent", "buffer_capacity", 10**12))
    assert cfg.agent.buffer_capacity == 10**12


@pytest.mark.parametrize(
    "block, key, value",
    [
        (None, "seeds", "01"),  # would load as the seeds '0' and '1'
        (None, "seeds", [True]),
        ("schedule", "outer_iters", 2.5),
        ("cell", "num_ues", 2.5),
        ("new_task", "num_rbs", 4.5),
        ("agent", "batch_size", 8.0),
        (None, "tasks", 5),
        (None, "out_dir", 5),
        (None, "profile", None),
        # json.load reads NaN, Infinity and 1e400 as non-finite floats, and
        # the int 10**400 fits no float.
        ("cell", "noise_psd_dbm_hz", float("nan")),
        ("cell", "cell_radius_m", float("inf")),
        ("new_task", "demand_max", float("-inf")),
        ("agent", "lr", float("nan")),
        ("schedule", "meta_actor_lr", float("inf")),
        pytest.param("cell", "rb_bandwidth", 10**400, id="cell-rb_bandwidth-10**400"),
        (None, "donor_budget", -5),  # an int, but tl would skip its pre-training
    ],
)
def test_config_values_of_the_wrong_type_are_rejected_at_load(tmp_path, block, key, value):
    with pytest.raises(ConfigurationError) as info:
        harness.load_config(_edited_config(tmp_path, block, key, value))
    where = f"config.{block}" if block else "config"
    assert f"{where}: {key} must be" in str(info.value)


def test_config_number_written_as_1e400_is_rejected_at_load(tmp_path):
    # Valid JSON that json.load reads as inf.
    path = _edited_config(tmp_path, "cell", "cell_radius_m", 1.0)
    path.write_text(path.read_text().replace('"cell_radius_m": 1.0', '"cell_radius_m": 1e400'))
    with pytest.raises(ConfigurationError,
                       match="config.cell: cell_radius_m must be a finite number, got inf"):
        harness.load_config(path)


def test_config_without_an_adaptation_episode_is_rejected_at_load(tmp_path):
    # The adaptation budget is (outer_iters + 5) // 10: 0 episodes at 4.
    with pytest.raises(ConfigurationError, match="schedule: outer_iters"):
        harness.load_config(_edited_config(tmp_path, "schedule", "outer_iters", 4))
    cfg = harness.load_config(_edited_config(tmp_path, "schedule", "outer_iters", 5))
    assert cfg.meta_schedule().adapt_budget == 1


def test_config_with_a_repeated_seed_is_rejected_at_load(tmp_path):
    with pytest.raises(ConfigurationError, match="seeds: "):
        harness.load_config(_edited_config(tmp_path, None, "seeds", [0, 1, 0]))


@pytest.mark.parametrize("seeds", [[0, 2**32], [-1]])
def test_config_with_a_seed_outside_32_bits_is_rejected_at_load(tmp_path, seeds):
    # Streams are keyed on a seed's low 32 bits: 2**32 would run seed 0 again,
    # and -1 would run 2**32 - 1.
    with pytest.raises(ConfigurationError, match=r"seeds: each seed must be in \[0, 2\*\*32\)"):
        harness.load_config(_edited_config(tmp_path, None, "seeds", seeds))
    cfg = harness.load_config(_edited_config(tmp_path, None, "seeds", [0, 2**32 - 1]))
    assert cfg.seeds == (0, 2**32 - 1)


@pytest.mark.parametrize("block", ["tasks", "new_task"])
def test_task_blocks_are_checked_at_load(tmp_path, block):
    data = dataclasses.asdict(harness.default_config("toy"))
    task = data[block][1] if block == "tasks" else data[block]
    task["num_rbs"] = 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    name = "tasks[1]" if block == "tasks" else block
    with pytest.raises(ConfigurationError, match=rf"{re.escape(name)}: num_rbs"):
        harness.load_config(path)


def _keys_of(data, block):
    """The object of a config file that holds block's keys: None is the top
    level, "tasks[0]" the first donor task."""
    return data if block is None else data["tasks"][0] if block == "tasks[0]" else data[block]


TOY_CONFIG = dataclasses.asdict(harness.default_config("toy"))
CONFIG_VALUE_KEYS = [(block, key)
                     for block in (None, "cell", "schedule", "agent", "new_task", "tasks[0]")
                     for key in _keys_of(TOY_CONFIG, block)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(place=st.sampled_from(CONFIG_VALUE_KEYS), value=JSON_VALUES)
@example(place=(None, "tasks"), value=5)  # once a raw TypeError
@example(place=("cell", "p_min_dbm"), value=4000)  # once a raw OverflowError
def test_any_one_config_value_loads_or_raises_configuration_error(tmp_path_factory, place,
                                                                   value):
    data = copy.deepcopy(TOY_CONFIG)
    block, key = place
    _keys_of(data, block)[key] = value
    path = tmp_path_factory.getbasetemp() / "one_value_replaced.json"
    path.write_text(json.dumps(data))
    try:
        harness.load_config(path)
    except ConfigurationError:
        pass


CONFIG_FILE_KEYS = {
    "cell": ["num_ues", "rb_bandwidth", "p_min_dbm", "p_max_dbm", "path_loss_exp",
             "noise_psd_dbm_hz", "cell_radius_m", "num_neighbors", "neighbor_occupancy"],
    "schedule": ["outer_iters", "eval_episodes", "meta_actor_lr", "meta_critic_lr"],
    "new_task": ["num_rbs", "demand_min", "demand_max"],
}


@pytest.mark.parametrize("profile", ["toy", "paper"])
def test_config_file_keeps_its_block_keys(tmp_path, profile):
    path = tmp_path / "config.json"
    harness.save_config(path, harness.default_config(profile))
    data = json.loads(path.read_text())
    for block, keys in CONFIG_FILE_KEYS.items():
        assert list(data[block]) == keys, block
    assert data["tasks"] and all(list(t) == CONFIG_FILE_KEYS["new_task"] for t in data["tasks"])


@pytest.mark.parametrize("dtype", ["float16", "double", "", None])
def test_hyper_rejects_unknown_dtypes(dtype):
    with pytest.raises(ConfigurationError, match="dtype"):
        ddpg.Hyper(dtype=dtype)


def test_agent_block_without_dtype_loads_as_float64(tmp_path):
    data = dataclasses.asdict(harness.default_config("paper"))
    del data["agent"]["dtype"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert harness.load_config(path).agent.dtype == "float64"


def test_both_profiles_run_in_float32_against_a_float64_reference():
    assert harness.default_config("paper").agent.dtype == "float32"
    assert harness.default_config("toy").agent.dtype == "float32"
    assert ddpg.Hyper().dtype == "float64"


# -- checkpoints -------------------------------------------------------------


def _model(seed=0):
    return meta.init_meta_model(3, 2, ddpg.Hyper(hidden_sizes=(8,)), seed=seed)


def _meta_checkpoint(path):
    meta.save_meta_model(path, _model())


def _rewrite_header(path, edit):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(str(arrays["header"]))
    edit(header)
    arrays["header"] = json.dumps(header)
    np.savez(path, **arrays)
    return header


def _version_one(header):
    header["format_version"] = 1


def _version_two(header):  # its files also held the Adam states
    header["format_version"] = 2


def _no_version(header):
    del header["format_version"]


@pytest.mark.parametrize("edit", [_version_one, _version_two, _no_version])
def test_loaders_reject_other_checkpoint_versions(tmp_path, edit):
    path = tmp_path / "ckpt.npz"
    _meta_checkpoint(path)
    meta.load_meta_model(path)  # the unedited file loads
    version = _rewrite_header(path, edit).get("format_version")
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{path}: checkpoint format version {version!r} ")):
        meta.load_meta_model(path)


def _list_header(header, arrays):
    return [header]


def _stray_array(header, arrays):  # such as a version-2 file's Adam moment
    arrays["actor_opt_m"] = np.zeros_like(arrays["actor_vec"])
    return header


def _no_critic_vec(header, arrays):
    del arrays["critic_vec"]
    return header


@pytest.mark.parametrize("edit", [_list_header, _stray_array, _no_critic_vec])
def test_loaders_reject_malformed_checkpoints(tmp_path, edit):
    # Files whose header is not a JSON object, or whose arrays are not
    # exactly a model record's two vectors.
    path = tmp_path / "ckpt.npz"
    _meta_checkpoint(path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = edit(json.loads(str(arrays.pop("header"))), arrays)
    np.savez(path, header=json.dumps(header), **arrays)
    with pytest.raises(ConfigurationError,
                       match=f"{re.escape(str(path))}: not a (readable|model) checkpoint"):
        meta.load_meta_model(path)


def test_meta_checkpoint_header_has_no_layer_sizes(tmp_path):
    path = tmp_path / "meta.npz"
    _meta_checkpoint(path)
    with np.load(path, allow_pickle=False) as data:
        assert json.loads(str(data["header"])) == {"format_version": 3}
        assert data.files == ["header", "actor_vec", "critic_vec"]  # no optimizer state


def _npy_bytes(data):
    # What np.save writes: one bare array, which np.load returns unwrapped.
    buf = io.BytesIO()
    np.save(buf, np.arange(3.0))
    return buf.getvalue()


@pytest.mark.parametrize(
    "damage",
    [lambda data: data[: len(data) // 2], lambda data: b"", lambda data: b"not npz\n" * 8,
     _npy_bytes],
    ids=["truncated", "empty", "arbitrary-bytes", "npy"],
)
def test_unreadable_checkpoint_names_the_file(tmp_path, damage):
    path = tmp_path / "meta.npz"
    _meta_checkpoint(path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ConfigurationError,
                       match=f"{re.escape(str(path))}: not a readable checkpoint"):
        meta.load_meta_model(path)


@pytest.mark.parametrize("name", ["actor_vec", "critic_vec"])
def test_checkpoint_with_non_finite_parameters_names_the_file(tmp_path, name):
    m = _model()
    getattr(m, name)[1] = np.nan
    path = tmp_path / "meta.npz"
    meta.save_meta_model(path, m)
    with pytest.raises(ConfigurationError,
                       match=f"{re.escape(str(path))}: {name} has non-finite entries"):
        meta.load_meta_model(path)


@pytest.mark.parametrize("dtype", ["U32", "complex128"])  # neither needs pickle to load
@pytest.mark.parametrize("name", ["actor_vec", "critic_vec"])
def test_checkpoint_with_parameters_that_are_not_real_floats_names_the_file(tmp_path, name,
                                                                            dtype):
    m = _model()
    setattr(m, name, getattr(m, name).astype(dtype))
    path = tmp_path / "meta.npz"
    meta.save_meta_model(path, m)
    with pytest.raises(ConfigurationError,
                       match=f"{re.escape(str(path))}: {name} is not a floating-point array"):
        meta.load_meta_model(path)


@pytest.mark.parametrize("shape", [(-1, 1), ()], ids=["column", "scalar"])
@pytest.mark.parametrize("name", ["actor_vec", "critic_vec"])
def test_checkpoint_with_parameters_that_are_not_vectors_names_the_file(tmp_path, name, shape):
    # Either shape would otherwise fail later, in the network, without the file's name.
    m = _model()
    vec = getattr(m, name)
    setattr(m, name, (vec if shape else vec[:1]).reshape(shape))
    path = tmp_path / "meta.npz"
    meta.save_meta_model(path, m)
    with pytest.raises(ConfigurationError,
                       match=f"{re.escape(str(path))}: {name} is not a 1-D array"):
        meta.load_meta_model(path)


def test_loaders_reject_headerless_version_one_layout(tmp_path):
    # Version-1 files stored format_version as an array and had no header.
    path = tmp_path / "old.npz"
    np.savez(path, format_version=1, actor_vec=np.zeros(3), critic_vec=np.zeros(3))
    with pytest.raises(ConfigurationError):
        meta.load_meta_model(path)


@pytest.mark.parametrize(
    "value",
    [{"a": 1}, nets.init_adam(np.zeros(3)), np.array([1.0, None], dtype=object)],
    ids=["dict", "adam-state", "object-array"],
)
def test_checkpoint_refuses_values_that_need_pickling(tmp_path, value):
    # load_meta_model reads without pickle, so such a file could not be read back.
    m = _model()
    m.critic_vec = value
    with pytest.raises(ContractViolation, match="critic_vec"):
        meta.save_meta_model(tmp_path / "ckpt.npz", m)
    assert list(tmp_path.iterdir()) == []


def test_interrupted_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.npz"
    _meta_checkpoint(path)
    before = path.read_bytes()

    def torn_savez(fh, **arrays):  # a write cut short, as by a full disk
        fh.write(b"PK\x03\x04 torn")
        raise OSError("No space left on device")

    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError, match="No space"):
        meta.save_meta_model(path, _model(seed=1))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]


def test_checkpoint_file_has_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.npz"
    with open(plain, "wb"):
        pass
    path = tmp_path / "model.npz"
    _meta_checkpoint(path)
    assert path.stat().st_mode == plain.stat().st_mode
