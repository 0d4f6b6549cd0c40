"""Tests for meta-training, few-shot adaptation, and the baseline methods."""

import re
from dataclasses import replace

import numpy as np
import pytest

from metaran import mdp, meta as meta_mod, nets
from metaran.cell import CellConfig
from metaran.ddpg import DdpgAgent, Hyper, run_episode
from metaran.episode import TaskEnv
from metaran.errors import ConfigurationError, TrainingDivergence
from metaran.mdp import TaskSpec
from metaran.meta import (
    MetaSchedule,
    ScheduleBlock,
    TaskState,
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
    task_dims,
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
        num_rbs=num_rbs, num_ues=2, num_neighbors=1, cell_radius_m=100.0
    )
    return TaskSpec(demand_min=1e5, demand_max=1e6, cell_config=cfg, task_id=task_id)


def with_meta_adam(m, hyper, schedule=MetaSchedule(outer_iters=1)):
    """m with the meta optimizer that meta_train builds for it."""
    m.actor_opt = nets.init_adam(m.actor_vec,
                                 lr=schedule.meta_actor_lr or hyper.effective_actor_lr)
    m.critic_opt = nets.init_adam(m.critic_vec, lr=schedule.meta_critic_lr or hyper.lr)
    return m


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
    for name in ("meta_actor_lr", "meta_critic_lr"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match=name):
                MetaSchedule(outer_iters=10, **{name: value})


@pytest.mark.parametrize("cls, name, value", [
    (MetaSchedule, "outer_iters", 2.5), (ScheduleBlock, "outer_iters", 2.5),
    (ScheduleBlock, "outer_iters", 10.0), (MetaSchedule, "eval_episodes", float("nan")),
    (ScheduleBlock, "eval_episodes", True), (MetaSchedule, "num_tasks", 1.5),
])
def test_schedule_rejects_a_count_that_is_not_an_integer(cls, name, value):
    # Built, such a schedule would reach range() in meta_train and fail there
    # with a bare TypeError, after the learner and every task's buffer exist.
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{name} must be an integer, got {value!r}")):
        cls(**{"outer_iters": 10, name: value})


def test_adapt_budget_rounds_every_half_up():
    budgets = [MetaSchedule(outer_iters=n).adapt_budget for n in range(5, 100, 10)]
    assert budgets == list(range(1, 11))


def test_meta_model_shapes_and_step_sizes():
    h = tiny_hyper(actor_lr=2e-4)
    m = init_meta_model(7, 4, h, seed=0)
    assert m.actor_vec.shape == (7 * 8 + 8 + 8 * 4 + 4,)
    assert m.critic_vec.shape == (11 * 8 + 8 + 8 * 1 + 1,)
    # The record carries no optimizer; meta_train builds it at a schedule's
    # nonzero meta step sizes, and 0 keeps the inner ones.
    assert m.actor_opt is None and m.critic_opt is None
    sched = MetaSchedule(outer_iters=1, eval_episodes=1, num_tasks=1)
    m2 = meta_train([tiny_task()], replace(sched, meta_actor_lr=5e-5, meta_critic_lr=7e-3),
                    h, seed=0)
    assert m2.actor_opt.lr == 5e-5 and m2.critic_opt.lr == 7e-3
    m3 = meta_train([tiny_task()], sched, h, seed=0)
    assert m3.actor_opt.lr == 2e-4 and m3.critic_opt.lr == 1e-3


def test_meta_model_and_agent_share_one_initializer():
    # Both draw the actor's seed, then the critic's, from one stream.
    h = tiny_hyper()
    rng = np.random.default_rng(9)
    actor_seed, critic_seed = int(rng.integers(2**31)), int(rng.integers(2**31))
    actor = nets.init_network((5, 8, 2), actor_seed, "tanh", h.dtype)
    critic = nets.init_network((7, 8, 1), critic_seed, "identity", h.dtype)
    m = init_meta_model(5, 2, h, seed=9)
    agent_rng = np.random.default_rng(9)
    agent = DdpgAgent(5, 2, h, agent_rng)
    assert agent_rng.bit_generator.state == rng.bit_generator.state
    for actor_vec, critic_vec in ((m.actor_vec, m.critic_vec),
                                  (agent.actor.flat, agent.critic.flat)):
        assert actor_vec.tobytes() == actor.flat.tobytes()
        assert critic_vec.tobytes() == critic.flat.tobytes()


# -- meta update algebra -----------------------------------------------------


def test_empty_update_is_a_noop():
    h = tiny_hyper()
    m = with_meta_adam(init_meta_model(5, 2, h, seed=1), h)
    before = m.actor_vec.copy()
    apply_meta_update(m, None, None)
    assert np.array_equal(m.actor_vec, before)
    assert m.actor_opt.step_count == 0


def test_single_task_update_equals_plain_adam_step():
    h = tiny_hyper()
    m = with_meta_adam(init_meta_model(5, 2, h, seed=1), h)
    rng = np.random.default_rng(0)
    ga = rng.normal(size=m.actor_vec.shape)
    gc = rng.normal(size=m.critic_vec.shape)

    ref = with_meta_adam(init_meta_model(5, 2, h, seed=1), h)
    nets.adam_step(ref.actor_vec, ga.copy(), ref.actor_opt)
    nets.adam_step(ref.critic_vec, gc.copy(), ref.critic_opt)

    apply_meta_update(m, ga, gc)
    assert np.allclose(m.actor_vec, ref.actor_vec, atol=0)
    assert np.allclose(m.critic_vec, ref.critic_vec, atol=0)


@pytest.mark.parametrize("bad", ["actor", "critic"])
def test_non_finite_meta_gradient_raises_and_changes_nothing(bad):
    h = tiny_hyper()
    m = with_meta_adam(init_meta_model(5, 2, h, seed=3), h)
    rng = np.random.default_rng(2)
    # One good step first, so that the moments and step counts are not zero.
    apply_meta_update(m, rng.normal(size=m.actor_vec.shape), rng.normal(size=m.critic_vec.shape))
    grads = {"actor": rng.normal(size=m.actor_vec.shape),
             "critic": rng.normal(size=m.critic_vec.shape)}
    grads[bad][1] = np.nan

    def state():
        opts = (m.actor_opt, m.critic_opt)
        return ([m.actor_vec.tobytes(), m.critic_vec.tobytes()]
                + [a.tobytes() for o in opts for a in (o.m, o.v)]
                + [o.step_count for o in opts])

    before = state()
    with pytest.raises(TrainingDivergence):
        apply_meta_update(m, grads["actor"], grads["critic"])
    assert state() == before


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


def test_agents_restart_from_meta_params_every_iteration(monkeypatch):
    h = tiny_hyper()
    tasks = [tiny_task(4, 0), tiny_task(6, 1)]
    sched = MetaSchedule(outer_iters=3, eval_episodes=2, num_tasks=2)
    seen, episodes = [], []

    def hook(it, meta_model, learner):
        assert np.array_equal(learner.actor.flat, meta_model.actor_vec)
        assert np.array_equal(learner.critic.flat, meta_model.critic_vec)
        seen.append((meta_model.actor_vec.copy(), meta_model.critic_vec.copy()))

    def checked_episode(agent, env, *args, **kwargs):
        # Each task's first episode of an iteration starts at the meta
        # parameters, which change only after the last task's turn.
        if len(episodes) % sched.eval_episodes == 0:
            assert np.array_equal(agent.actor.flat, seen[-1][0])
            assert np.array_equal(agent.critic.flat, seen[-1][1])
        episodes.append(env)
        return run_episode(agent, env, *args, **kwargs)

    monkeypatch.setattr(meta_mod, "run_episode", checked_episode)
    meta_train(tasks, sched, h, seed=0, on_outer_start=hook)
    assert len(seen) == 3
    assert len(episodes) == 3 * 2 * 2
    # Once buffers warm up the meta parameters actually move.
    assert not np.array_equal(seen[0][0], seen[-1][0])


def reference_meta_train(tasks, schedule, hyper, seed):
    """The meta loop with T independent agents, each with its own learner,
    and the query gradients summed at the end of the iteration."""
    n = tasks[0].cell_config.num_ues
    obs_dim, act_dim = mdp.observation_dim(n), mdp.action_dim(n)
    meta = with_meta_adam(
        init_meta_model(obs_dim, act_dim, hyper, derive_seed(seed, "meta-init")), hyper, schedule)
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
                run_episode(agent, env, train=True)
            grads = query_gradients(agent, qrng)
            if grads is not None:
                actor_grads.append(grads[0])
                critic_grads.append(grads[1])
        if actor_grads:
            nets.adam_step(meta.actor_vec, np.sum(actor_grads, axis=0), meta.actor_opt)
            nets.adam_step(meta.critic_vec, np.sum(critic_grads, axis=0), meta.critic_opt)
    return meta


@pytest.mark.parametrize("num_tasks", [1, 3, 6])  # 6: the paper's donor count
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_shared_learner_equals_independent_agents_bytewise(dtype, num_tasks):
    # meta_train sums the query gradients as it goes; the reference stacks
    # them and takes np.sum, so this also checks the running sum bytewise.
    h = tiny_hyper(dtype=dtype)
    tasks = [tiny_task(4 + 2 * i, i) for i in range(num_tasks)]
    sched = MetaSchedule(outer_iters=4, eval_episodes=2, num_tasks=num_tasks)
    got = meta_train(tasks, sched, h, seed=9)
    ref = reference_meta_train(tasks, sched, h, seed=9)
    assert got.actor_opt.step_count == ref.actor_opt.step_count >= 2
    for name in ("actor_vec", "critic_vec"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    for name in ("actor_opt", "critic_opt"):
        for moment in ("m", "v"):
            a, b = getattr(getattr(got, name), moment), getattr(getattr(ref, name), moment)
            assert a.tobytes() == b.tobytes(), (name, moment)


def test_meta_train_builds_one_learner_and_a_state_per_task(monkeypatch):
    h = tiny_hyper()
    tasks = [tiny_task(4, 0), tiny_task(6, 1), tiny_task(8, 2)]
    built, turns = [], []

    class CountedAgent(DdpgAgent):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def recorded_episode(agent, env, *args, **kwargs):
        turns.append((agent, agent.buffer, agent.rng, env))
        return run_episode(agent, env, *args, **kwargs)

    monkeypatch.setattr(meta_mod, "DdpgAgent", CountedAgent)
    monkeypatch.setattr(meta_mod, "run_episode", recorded_episode)
    meta_train(tasks, MetaSchedule(outer_iters=2, eval_episodes=1, num_tasks=3), h, seed=0)
    assert len(built) == 1
    assert all(agent is built[0] for agent, *_ in turns)
    assert len(turns) == 2 * 3
    # Each task brings its own buffer, rng and env, the same ones every iteration.
    for k in (1, 2, 3):
        assert len({id(turn[k]) for turn in turns}) == 3
        assert [id(turn[k]) for turn in turns[:3]] == [id(turn[k]) for turn in turns[3:]]


def test_task_state_rng_equals_a_fresh_agents_on_the_same_stream():
    h = tiny_hyper()
    task = tiny_task(6, 1)
    state = TaskState(task, h, seed=4)
    agent = DdpgAgent(*task_dims(task), h, derive_rng(4, "meta-train", "agent", task.task_id))
    assert state.rng.bit_generator.state == agent.rng.bit_generator.state
    assert state.noise_std == agent.noise_std
    for name in ("states", "actions", "rewards"):
        mine, theirs = getattr(state.buffer, name), getattr(agent.buffer, name)
        assert (mine.shape, mine.dtype) == (theirs.shape, theirs.dtype), name
    assert state.buffer.insert_count == 0


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
    assert np.array_equal(agent.actor.flat, model.actor_vec)
    assert np.array_equal(agent.critic.flat, model.critic_vec)


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
    assert np.array_equal(agent_a.actor.flat, agent_b.actor.flat)


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
    assert not np.array_equal(agent_tl.actor.flat, agent_sc.actor.flat)


def test_tl_pretrains_without_evaluations(monkeypatch):
    # Only the new task's shots are evaluated; the donor's 5 episodes are not.
    calls = []
    evaluate = meta_mod.evaluate_policy

    def counting(agent, env, *args):
        calls.append(env)
        return evaluate(agent, env, *args)

    monkeypatch.setattr(meta_mod, "evaluate_policy", counting)
    new = tiny_task(4, task_id=2)
    run_baseline("tl", new, [tiny_task(6, 0)], 2, tiny_hyper(), seed=0, donor_budget=5)
    assert len(calls) == 2
    assert {env.task.task_id for env in calls} == {2}


def test_every_method_is_scored_on_one_evaluation_world(monkeypatch):
    # Paired evaluation: each method's first greedy evaluation starts from the
    # same env stream state, so the methods are scored on the same draws.
    states = {}
    evaluate = meta_mod.evaluate_policy
    method = None

    def recording(agent, env, *args):
        states.setdefault(method, repr(env.rng.bit_generator.state))
        return evaluate(agent, env, *args)

    monkeypatch.setattr(meta_mod, "evaluate_policy", recording)
    h, new, donors = tiny_hyper(), tiny_task(4, task_id=2), [tiny_task(6, 0)]
    method = "meta"
    inner_adapt(init_meta_model(*task_dims(new), h, seed=9), new, 2, h, seed=5)
    for method in ("scratch", "tl", "mtl"):
        run_baseline(method, new, donors, 2, h, seed=5, donor_budget=1)
    assert list(states) == ["meta", "scratch", "tl", "mtl"]
    assert len(set(states.values())) == 1


def test_tl_equals_pretraining_through_inner_adapt():
    # Reference: the donor trained as inner_adapt trains, on the tl-donor
    # streams with a greedy evaluation after every shot (the evaluations draw
    # only from their own env stream), then fine-tuned.
    h = tiny_hyper()
    new, donor = tiny_task(4, task_id=2), tiny_task(6, 0)
    init = random_init_model(donor, h, seed=3)
    donor_agent, env = meta_mod._task_agent(init, donor, h, 3, "tl-donor")
    meta_mod._shots(donor_agent, [env] * 5, donor, 3)
    donor_model = replace(init, actor_vec=donor_agent.actor.flat,
                          critic_vec=donor_agent.critic.flat)
    ref_agent, ref_trace = inner_adapt(donor_model, new, 2, h, seed=3)
    assert donor_agent.actor_opt.step_count > 0  # the donor did train

    agent, trace = run_baseline("tl", new, [donor], 2, h, seed=3, donor_budget=5)
    assert repr(trace) == repr(ref_trace)
    assert agent.actor.flat.tobytes() == ref_agent.actor.flat.tobytes()
    assert agent.critic.flat.tobytes() == ref_agent.critic.flat.tobytes()


# -- checkpointing -----------------------------------------------------------


def test_save_load_meta_model_round_trip(tmp_path):
    h = tiny_hyper()
    m = with_meta_adam(init_meta_model(5, 2, h, seed=8), h)
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
    assert back.actor_opt is None and back.critic_opt is None  # not stored


def test_save_load_meta_model_path_without_suffix(tmp_path):
    m = init_meta_model(5, 2, tiny_hyper(), seed=8)
    path = tmp_path / "ckpt"
    save_meta_model(path, m)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]  # no ".npz" added
    assert np.array_equal(load_meta_model(path).actor_vec, m.actor_vec)
