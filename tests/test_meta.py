"""Tests for meta-training, few-shot adaptation, and the baseline methods."""

import numpy as np
import pytest

from metaran import mdp, nets
from metaran.cell import CellConfig
from metaran.ddpg import DdpgAgent, Hyper, run_episode
from metaran.episode import TaskEnv
from metaran.errors import ConfigurationError
from metaran.mdp import TaskSpec
from metaran.meta import (
    MetaSchedule,
    accumulate,
    apply_meta_update,
    init_meta_model,
    inner_adapt,
    load_meta_model,
    meta_adapt_new,
    meta_train,
    mtl_schedule,
    query_gradients,
    random_init_model,
    run_baseline,
    save_meta_model,
)
from metaran.seeding import derive_rng, derive_seed


def tiny_hyper(**kw):
    defaults = dict(
        gamma=0.9, lr=1e-3, batch_size=8, buffer_capacity=256,
        horizon=6, hidden_sizes=(8,), noise_std=0.3,
    )
    defaults.update(kw)
    return Hyper(**defaults)


def tiny_task(num_rbs=4, task_id=0):
    cfg = CellConfig(
        num_rbs=num_rbs, num_ues=2, num_neighbors=1, cell_radius=100.0
    )
    return TaskSpec(demand_min=1e5, demand_max=1e6, cell_config=cfg, task_id=task_id)


# -- schedule ----------------------------------------------------------------


def test_schedule_validation_and_budget():
    assert MetaSchedule(outer_iters=100).adapt_budget == 10
    assert MetaSchedule(outer_iters=47).adapt_budget == 5
    with pytest.raises(ConfigurationError):
        MetaSchedule(outer_iters=0)
    with pytest.raises(ConfigurationError):
        MetaSchedule(outer_iters=10, eval_episodes=0)
    with pytest.raises(ConfigurationError):
        MetaSchedule(outer_iters=10, meta_actor_lr=-1.0)


def test_meta_model_shapes_and_step_sizes():
    h = tiny_hyper(actor_lr=2e-4)
    m = init_meta_model(7, 4, h, seed=0)
    assert m.actor_vec.shape == (7 * 8 + 8 + 8 * 4 + 4,)
    assert m.critic_vec.shape == (11 * 8 + 8 + 8 * 1 + 1,)
    # Defaults reuse the inner step sizes; explicit values override them.
    assert m.actor_opt.lr == 2e-4 and m.critic_opt.lr == 1e-3
    m2 = init_meta_model(7, 4, h, seed=0, actor_lr=5e-5, critic_lr=7e-3)
    assert m2.actor_opt.lr == 5e-5 and m2.critic_opt.lr == 7e-3


# -- meta update algebra -----------------------------------------------------


def test_empty_update_is_a_noop():
    h = tiny_hyper()
    m = init_meta_model(5, 2, h, seed=1)
    before = m.actor_vec.copy()
    apply_meta_update(m, None, None)
    assert np.array_equal(m.actor_vec, before)
    assert m.actor_opt.step_count == 0


def test_single_task_update_equals_plain_adam_step():
    h = tiny_hyper()
    m = init_meta_model(5, 2, h, seed=1)
    rng = np.random.default_rng(0)
    ga = rng.normal(size=m.actor_vec.shape)
    gc = rng.normal(size=m.critic_vec.shape)

    ref = init_meta_model(5, 2, h, seed=1)
    nets.adam_step(ref.actor_vec, ga.copy(), ref.actor_opt)
    nets.adam_step(ref.critic_vec, gc.copy(), ref.critic_opt)

    apply_meta_update(m, ga, gc)
    assert np.allclose(m.actor_vec, ref.actor_vec, atol=0)
    assert np.allclose(m.critic_vec, ref.critic_vec, atol=0)


def test_multi_task_update_sums_gradients():
    h = tiny_hyper()
    m = init_meta_model(5, 2, h, seed=2)
    rng = np.random.default_rng(1)
    g1a, g2a = rng.normal(size=(2, *m.actor_vec.shape))
    g1c, g2c = rng.normal(size=(2, *m.critic_vec.shape))

    ref = init_meta_model(5, 2, h, seed=2)
    apply_meta_update(ref, g1a + g2a, g1c + g2c)
    apply_meta_update(m, accumulate(accumulate(None, g1a), g2a),
                      accumulate(accumulate(None, g1c), g2c))
    assert np.allclose(m.actor_vec, ref.actor_vec, atol=0)
    assert np.allclose(m.critic_vec, ref.critic_vec, atol=0)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_running_sum_is_bitwise_the_stacked_sum(dtype):
    rng = np.random.default_rng(11)
    for tasks in range(1, 9):
        grads = [rng.normal(size=1001).astype(dtype) for _ in range(tasks)]
        expected = np.sum(grads, axis=0)
        total = None
        for g in grads:
            total = accumulate(total, g.copy())
        assert total.dtype == expected.dtype
        assert total.tobytes() == expected.tobytes(), tasks


# -- meta-training loop ------------------------------------------------------


def test_meta_train_requires_matching_tasks():
    h = tiny_hyper()
    with pytest.raises(ConfigurationError):
        meta_train([tiny_task()], MetaSchedule(outer_iters=2, num_tasks=2), h, seed=0)
    mixed_ue = TaskSpec(
        demand_min=1e5, demand_max=1e6,
        cell_config=CellConfig(num_rbs=4, num_ues=3), task_id=1,
    )
    with pytest.raises(ConfigurationError):
        meta_train(
            [tiny_task(), mixed_ue],
            MetaSchedule(outer_iters=2, num_tasks=2), h, seed=0,
        )


def test_agents_restart_from_meta_params_every_iteration():
    h = tiny_hyper()
    tasks = [tiny_task(4, 0), tiny_task(6, 1)]
    seen = []

    def hook(it, meta_model, agents):
        for agent in agents:
            assert np.array_equal(agent.actor_vector(), meta_model.actor_vec)
            assert np.array_equal(agent.critic_vector(), meta_model.critic_vec)
        seen.append(meta_model.actor_vec.copy())

    meta_train(
        tasks, MetaSchedule(outer_iters=3, eval_episodes=2, num_tasks=2),
        h, seed=0, on_outer_start=hook,
    )
    assert len(seen) == 3
    # Once buffers warm up the meta parameters actually move.
    assert not np.array_equal(seen[0], seen[-1])


def reference_meta_train(tasks, schedule, hyper, seed):
    """The meta loop with T independent agents, each with its own learner,
    and the query gradients summed at the end of the iteration."""
    n = tasks[0].cell_config.num_ues
    obs_dim, act_dim = mdp.observation_dim(n), mdp.action_dim(n)
    meta = init_meta_model(
        obs_dim, act_dim, hyper, derive_seed(seed, "meta-init"),
        actor_lr=schedule.meta_actor_lr, critic_lr=schedule.meta_critic_lr,
    )
    envs = [TaskEnv(t, derive_rng(seed, "meta-train", "env", t.task_id)) for t in tasks]
    agents = [DdpgAgent(obs_dim, act_dim, hyper,
                        derive_rng(seed, "meta-train", "agent", t.task_id)) for t in tasks]
    qrngs = [derive_rng(seed, "meta-train", "query", t.task_id) for t in tasks]
    for _ in range(schedule.outer_iters):
        for agent in agents:
            agent.load_vectors(meta.actor_vec, meta.critic_vec)
        actor_grads, critic_grads = [], []
        for env, agent, qrng in zip(envs, agents, qrngs):
            for _ in range(schedule.eval_episodes):
                run_episode(agent, env, hyper.horizon, explore=True, train=True)
            grads = query_gradients(agent, qrng)
            if grads is not None:
                actor_grads.append(grads[0])
                critic_grads.append(grads[1])
        if actor_grads:
            nets.adam_step(meta.actor_vec, np.sum(actor_grads, axis=0), meta.actor_opt)
            nets.adam_step(meta.critic_vec, np.sum(critic_grads, axis=0), meta.critic_opt)
    return meta


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_shared_learner_equals_independent_agents_bytewise(dtype):
    h = tiny_hyper(dtype=dtype)
    tasks = [tiny_task(4, 0), tiny_task(6, 1), tiny_task(8, 2)]
    sched = MetaSchedule(outer_iters=4, eval_episodes=2, num_tasks=3)
    got = meta_train(tasks, sched, h, seed=9)
    ref = reference_meta_train(tasks, sched, h, seed=9)
    assert got.actor_opt.step_count == ref.actor_opt.step_count >= 2
    for name in ("actor_vec", "critic_vec"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    for name in ("actor_opt", "critic_opt"):
        for moment in ("m", "v"):
            a, b = getattr(getattr(got, name), moment), getattr(getattr(ref, name), moment)
            assert a.tobytes() == b.tobytes(), (name, moment)


def test_hook_agents_share_one_learner_and_own_their_state():
    h = tiny_hyper()
    tasks = [tiny_task(4, 0), tiny_task(6, 1), tiny_task(8, 2)]
    seen = []
    meta_train(tasks, MetaSchedule(outer_iters=2, eval_episodes=1, num_tasks=3),
               h, seed=0, on_outer_start=lambda it, m, agents: seen.append(list(agents)))
    for agents in seen:
        assert len(agents) == 3
        for name in ("actor", "critic", "target_actor", "target_critic",
                     "actor_opt", "critic_opt"):
            assert len({id(getattr(a, name)) for a in agents}) == 1, name
        for name in ("buffer", "rng"):
            assert len({id(getattr(a, name)) for a in agents}) == 3, name
    assert all(a is b for a, b in zip(seen[0], seen[1]))


def test_meta_train_is_deterministic():
    h = tiny_hyper()
    tasks = [tiny_task(4, 0), tiny_task(6, 1)]
    sched = MetaSchedule(outer_iters=2, eval_episodes=2, num_tasks=2)
    a = meta_train(tasks, sched, h, seed=5)
    b = meta_train(tasks, sched, h, seed=5)
    c = meta_train(tasks, sched, h, seed=6)
    assert np.array_equal(a.actor_vec, b.actor_vec)
    assert np.array_equal(a.critic_vec, b.critic_vec)
    assert not np.array_equal(a.actor_vec, c.actor_vec)


# -- adaptation --------------------------------------------------------------


def test_zero_budget_returns_meta_parameters_exactly():
    h = tiny_hyper()
    task = tiny_task()
    model = random_init_model(task, h, seed=3)
    agent, trace = inner_adapt(model, task, budget=0, hyper=h, seed=3)
    assert trace == []
    assert np.array_equal(agent.actor_vector(), model.actor_vec)
    assert np.array_equal(agent.critic_vector(), model.critic_vec)


def test_adaptation_trace_shape_and_determinism():
    h = tiny_hyper()
    task = tiny_task()
    model = random_init_model(task, h, seed=4)
    _, t1 = inner_adapt(model, task, budget=3, hyper=h, seed=4)
    _, t2 = inner_adapt(model, task, budget=3, hyper=h, seed=4)
    assert t1 == t2
    assert [e["shot"] for e in t1] == [1, 2, 3]
    for e in t1:
        assert set(e) == {"shot", "episode_return", "q_avg", "q_min", "q_max"}


def test_longer_budget_extends_the_same_trace():
    h = tiny_hyper()
    task = tiny_task()
    model = random_init_model(task, h, seed=5)
    _, short = inner_adapt(model, task, budget=2, hyper=h, seed=5)
    _, long = inner_adapt(model, task, budget=4, hyper=h, seed=5)
    assert long[:2] == short


def test_scratch_equals_adaptation_from_untrained_model():
    # With an untrained model and the same seed, the scratch baseline is the
    # adaptation code path verbatim: traces must agree bit for bit.
    h = tiny_hyper()
    task = tiny_task(task_id=3)
    model = random_init_model(task, h, seed=6)
    agent_a, trace_a = inner_adapt(model, task, budget=3, hyper=h, seed=6)
    agent_b, trace_b = run_baseline("scratch", task, [tiny_task(6, 0)], 3, h, seed=6)
    assert trace_a == trace_b
    assert np.array_equal(agent_a.actor_vector(), agent_b.actor_vector())


def test_meta_adapt_new_uses_schedule_budget():
    h = tiny_hyper()
    task = tiny_task()
    model = random_init_model(task, h, seed=7)
    sched = MetaSchedule(outer_iters=30, num_tasks=1)
    _, trace = meta_adapt_new(model, task, sched, h, seed=7)
    assert len(trace) == sched.adapt_budget == 3


# -- baselines ---------------------------------------------------------------


def test_mtl_schedule_split_and_order():
    plan = mtl_schedule(10)
    assert plan.count("new") == 5 and plan.count("donor") == 5
    assert plan[-1] == "new"
    assert plan[-2] == "donor"
    assert mtl_schedule(1) == ["new"]
    assert mtl_schedule(3) == ["new", "donor", "new"]


def test_baselines_validate_inputs():
    h = tiny_hyper()
    task = tiny_task()
    with pytest.raises(ConfigurationError):
        run_baseline("tl", task, [], 2, h, seed=0)
    with pytest.raises(ConfigurationError):
        run_baseline("mtl", task, [], 2, h, seed=0)
    with pytest.raises(ConfigurationError):
        run_baseline("nope", task, [tiny_task()], 2, h, seed=0)


def test_tl_and_mtl_produce_full_traces():
    h = tiny_hyper()
    new = tiny_task(4, task_id=2)
    donors = [tiny_task(6, 0), tiny_task(8, 1)]
    _, tl_trace = run_baseline("tl", new, donors, 2, h, seed=0, donor_budget=2)
    _, mtl_trace = run_baseline("mtl", new, donors, 2, h, seed=0)
    assert [e["shot"] for e in tl_trace] == [1, 2]
    assert [e["shot"] for e in mtl_trace] == [1, 2]


def test_tl_differs_from_scratch():
    # Pre-training on a donor task must leave a footprint in the parameters.
    h = tiny_hyper()
    new = tiny_task(4, task_id=2)
    donors = [tiny_task(6, 0)]
    agent_tl, _ = run_baseline("tl", new, donors, 1, h, seed=1, donor_budget=3)
    agent_sc, _ = run_baseline("scratch", new, donors, 1, h, seed=1)
    assert not np.array_equal(agent_tl.actor_vector(), agent_sc.actor_vector())


# -- checkpointing -----------------------------------------------------------


def test_save_load_meta_model_round_trip(tmp_path):
    h = tiny_hyper()
    m = init_meta_model(5, 2, h, seed=8, actor_lr=2e-4, critic_lr=3e-3)
    rng = np.random.default_rng(0)
    apply_meta_update(
        m,
        rng.normal(size=m.actor_vec.shape),
        rng.normal(size=m.critic_vec.shape),
    )
    path = tmp_path / "meta.npz"
    save_meta_model(path, m)
    back = load_meta_model(path)
    assert back.critic_vec.shape == (7 * 8 + 8 + 8 * 1 + 1,)
    assert np.array_equal(back.actor_vec, m.actor_vec)
    assert np.array_equal(back.critic_vec, m.critic_vec)
    assert back.actor_opt.step_count == 1
    assert back.actor_opt.lr == 2e-4 and back.critic_opt.lr == 3e-3
    assert np.array_equal(back.critic_opt.m, m.critic_opt.m)


def test_save_load_meta_model_path_without_suffix(tmp_path):
    m = init_meta_model(5, 2, tiny_hyper(), seed=8)
    path = tmp_path / "ckpt"
    save_meta_model(path, m)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]  # no ".npz" added
    assert np.array_equal(load_meta_model(path).actor_vec, m.actor_vec)
