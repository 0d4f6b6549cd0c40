"""Contracts other code relies on: the names the benchmark tracer wraps, and
the single versioned checkpoint format."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from metaran import ddpg, meta
from metaran.errors import ConfigurationError

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_on_the_package():
    tracer = _load_tracer()
    assert tracer.SPANS
    for name, _, module_name, path in tracer.SPANS:
        owner = importlib.import_module(f"metaran.{module_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: metaran.{module_name}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), name
    # The outer-iteration span hooks into meta_train's public callback.
    assert "on_outer_start" in inspect.signature(meta.meta_train).parameters


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
