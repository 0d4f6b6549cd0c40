"""The float32 contract: an agent or meta model built with Hyper(dtype=
"float32") keeps every array in float32, matches float64 gradients closely,
and keeps its dtype through a model checkpoint."""

import dataclasses

import numpy as np
import pytest

from metaran import meta as meta_mod, nets
from metaran.cell import CellConfig
from metaran.ddpg import (
    DdpgAgent,
    Hyper,
    Transition,
    sample_batch,
)
from metaran.mdp import TaskSpec
from metaran.meta import (
    MetaSchedule,
    init_meta_model,
    load_meta_model,
    meta_train,
    query_gradients,
    save_meta_model,
)


def hyper(dtype, **kw):
    defaults = dict(
        gamma=0.9, lr=1e-3, batch_size=8, buffer_capacity=256,
        horizon=6, hidden_sizes=(16, 16), noise_std=0.3, dtype=dtype,
    )
    defaults.update(kw)
    return Hyper(**defaults)


def tiny_task(num_rbs, task_id):
    cfg = CellConfig(num_rbs=num_rbs, num_ues=2, num_neighbors=1, cell_radius_m=100.0)
    return TaskSpec(demand_min=1e5, demand_max=1e6, cell_config=cfg, task_id=task_id)


def random_batch(obs_dim, act_dim, b=32, seed=3):
    rng = np.random.default_rng(seed)
    return Transition(
        state=rng.normal(size=(b, obs_dim)),
        action=rng.uniform(-1, 1, size=(b, act_dim)),
        reward=rng.normal(size=b),
        next_state=rng.normal(size=(b, obs_dim)),
    )


def as_float32(batch):
    return Transition(*(a.astype(np.float32) for a in dataclasses.astuple(batch)))


def agent_arrays(agent):
    """Every array an agent learns with, by name."""
    arrays = {}
    for name in ("actor", "critic", "target_actor", "target_critic"):
        arrays[name] = getattr(agent, name).flat
    for name in ("actor_opt", "critic_opt"):
        opt = getattr(agent, name)
        arrays[f"{name}.m"], arrays[f"{name}.v"] = opt.m, opt.v
    for name in ("states", "actions", "rewards", "next_states"):
        arrays[f"buffer.{name}"] = getattr(agent.buffer, name)
    return arrays


def assert_float32(arrays):
    wrong = {k: a.dtype for k, a in arrays.items() if a.dtype != np.float32}
    assert not wrong, wrong


def test_train_step_keeps_every_array_float32():
    agent = DdpgAgent(3, 2, hyper("float32"), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    state = rng.normal(size=3)
    for _ in range(20):
        action = agent.select_action(state, explore=True)
        assert action.dtype == np.float32 and np.abs(action).max() <= 1.0
        next_state = rng.normal(size=3)
        agent.buffer.add(Transition(state, action, float(rng.normal()), next_state))
        state = next_state
    batch = sample_batch(agent.buffer, 8, "support", agent.rng)
    before = agent.critic.flat.copy()
    agent.train_step(batch)
    assert not np.array_equal(agent.critic.flat, before)
    _, c_grads = agent.critic_gradients(batch)
    _, a_grads = agent.actor_gradients(batch)
    assert_float32({**agent_arrays(agent), **vars(batch), "c_grads": c_grads,
                    "a_grads": a_grads})


def test_meta_outer_iteration_keeps_every_array_float32(monkeypatch):
    tasks = [tiny_task(4, 0), tiny_task(6, 1)]
    schedule = MetaSchedule(outer_iters=1, eval_episodes=4, num_tasks=2)
    seen, states = [], []

    class RecordedState(meta_mod.TaskState):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

    monkeypatch.setattr(meta_mod, "TaskState", RecordedState)
    meta = meta_train(tasks, schedule, hyper("float32"), seed=0,
                      on_outer_start=lambda it, m, learner: seen.append(learner))
    assert meta.actor_opt.step_count == 1  # the iteration made a meta step
    assert_float32({"actor_vec": meta.actor_vec, "critic_vec": meta.critic_vec,
                    "actor_opt.m": meta.actor_opt.m, "critic_opt.v": meta.critic_opt.v})
    (learner,) = seen
    assert learner.critic_opt.step_count > 0
    grads = query_gradients(learner, np.random.default_rng(2))
    assert_float32({**agent_arrays(learner), "query_actor": grads[0],
                    "query_critic": grads[1]})
    assert len(states) == 2
    for state in states:
        assert state.buffer.insert_count > 0
        assert_float32({name: getattr(state.buffer, name)
                        for name in ("states", "actions", "rewards", "next_states")})


def test_float32_gradients_match_float64():
    agent64 = DdpgAgent(6, 4, hyper("float64"), np.random.default_rng(0))
    agent32 = DdpgAgent(6, 4, hyper("float32"), np.random.default_rng(0))
    agent32.load_vectors(agent64.actor.flat, agent64.critic.flat)
    batch = random_batch(6, 4)
    for which in ("critic_gradients", "actor_gradients"):
        loss64, g64 = getattr(agent64, which)(batch)
        loss32, g32 = getattr(agent32, which)(as_float32(batch))
        assert g64.dtype == np.float64 and g32.dtype == np.float32
        assert np.linalg.norm(g32 - g64) / np.linalg.norm(g64) < 1e-4, which
        assert loss32 == pytest.approx(loss64, rel=1e-4)


def test_load_vectors_casts_float64_vectors_into_a_float32_agent():
    model = init_meta_model(3, 2, hyper("float64"), seed=0)
    agent = DdpgAgent(3, 2, hyper("float32"), np.random.default_rng(0))
    agent.load_vectors(model.actor_vec, model.critic_vec)
    assert_float32(agent_arrays(agent))
    assert np.array_equal(agent.actor.flat, model.actor_vec.astype(np.float32))


def test_meta_checkpoint_keeps_float32(tmp_path):
    model = init_meta_model(3, 2, hyper("float32"), seed=0)
    path = tmp_path / "meta.npz"
    save_meta_model(path, model)
    back = load_meta_model(path)
    assert_float32({"actor_vec": back.actor_vec, "critic_vec": back.critic_vec})
    assert np.array_equal(back.critic_vec, model.critic_vec)


def test_float64_is_the_default():
    agent = DdpgAgent(3, 2, Hyper(hidden_sizes=(8,), batch_size=8, buffer_capacity=64),
                      np.random.default_rng(0))
    assert all(a.dtype == np.float64 for a in agent_arrays(agent).values())
    assert nets.init_network((2, 3), seed=0).flat.dtype == np.float64
