"""Contracts other code relies on: the names the benchmark tracer wraps, the
allocation form its serve gate reads, the config file format, and the single
versioned checkpoint format."""

import dataclasses
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from metaran import ddpg, harness, mdp, meta
from metaran.cell import CellConfig
from metaran.errors import ConfigurationError

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    # The outer-iteration span hooks into meta_train's public callback.
    assert "on_outer_start" in inspect.signature(meta.meta_train).parameters


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
    data = dataclasses.asdict(harness.default_config("toy"))
    data[block][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_config_naming_subcarrier_spacing_is_rejected(tmp_path):
    path = _edited_config(tmp_path, "cell", "subcarrier_spacing", 15e3)
    with pytest.raises(ConfigurationError, match="subcarrier_spacing"):
        harness.load_config(path)


@pytest.mark.parametrize(
    "key, value", [("gamma", 1.0), ("buffer_capacity", 101), ("dtype", "float16")]
)
def test_config_agent_block_is_checked_at_load(tmp_path, key, value):
    with pytest.raises(ConfigurationError, match="config.agent"):
        harness.load_config(_edited_config(tmp_path, "agent", key, value))


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


def test_only_the_paper_profile_runs_in_float32():
    assert harness.default_config("paper").agent.dtype == "float32"
    assert harness.default_config("toy").agent.dtype == "float64"


# -- checkpoint versions -----------------------------------------------------


def _agent_checkpoint(path):
    hyper = ddpg.Hyper(batch_size=4, buffer_capacity=64, horizon=5, hidden_sizes=(8,))
    ddpg.save_agent(path, ddpg.DdpgAgent(3, 2, hyper, np.random.default_rng(0)))


def _meta_checkpoint(path):
    hyper = ddpg.Hyper(hidden_sizes=(8,))
    meta.save_meta_model(path, meta.init_meta_model(3, 2, hyper, seed=0))


def _rewrite_header(path, edit):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(str(arrays["header"]))
    edit(header)
    arrays["header"] = json.dumps(header)
    np.savez(path, **arrays)


def _version_one(header):
    header["format_version"] = 1


def _no_version(header):
    del header["format_version"]


@pytest.mark.parametrize("edit", [_version_one, _no_version])
@pytest.mark.parametrize(
    "save, load",
    [(_agent_checkpoint, ddpg.load_agent), (_meta_checkpoint, meta.load_meta_model)],
)
def test_loaders_reject_other_checkpoint_versions(tmp_path, save, load, edit):
    path = tmp_path / "ckpt.npz"
    save(path)
    load(path)  # the unedited file loads
    _rewrite_header(path, edit)
    with pytest.raises(ConfigurationError):
        load(path)


@pytest.mark.parametrize("load", [ddpg.load_agent, meta.load_meta_model])
def test_loaders_reject_headerless_version_one_layout(tmp_path, load):
    # Version-1 files stored format_version as an array and had no header.
    path = tmp_path / "old.npz"
    np.savez(path, format_version=1, actor_vec=np.zeros(3), critic_vec=np.zeros(3))
    with pytest.raises(ConfigurationError):
        load(path)
