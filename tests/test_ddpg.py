"""Tests for the DDPG learner: buffer, gradients, episode loop."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from metaran import harness, nets
from metaran.ddpg import (
    DdpgAgent,
    Hyper,
    ReplayBuffer,
    Transition,
    evaluate_policy,
    run_episode,
    sample_batch,
)
from metaran.episode import TaskEnv
from metaran.errors import ConfigurationError, ContractViolation, TrainingDivergence
from metaran.meta import task_dims


def tiny_hyper(**kw):
    defaults = dict(
        gamma=0.9, lr=1e-3, batch_size=4, buffer_capacity=64,
        horizon=5, hidden_sizes=(8, 8),
    )
    defaults.update(kw)
    return Hyper(**defaults)


def make_agent(obs_dim=3, act_dim=2, seed=0, **kw):
    return DdpgAgent(obs_dim, act_dim, tiny_hyper(**kw), np.random.default_rng(seed))


def fill_buffer(agent, n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        agent.buffer.add(
            Transition(
                state=rng.normal(size=agent.obs_dim),
                action=rng.uniform(-1, 1, size=agent.act_dim),
                reward=float(rng.normal()),
                next_state=rng.normal(size=agent.obs_dim),
            )
        )


class ConstantRewardEnv:
    """Fixed observation, reward 1 every step; for return bookkeeping tests."""

    def __init__(self, obs_dim):
        self.obs = np.zeros(obs_dim)

    def reset(self):
        return self.obs

    def step(self, action):
        return self.obs, 1.0, np.array([2.0, 1.0, 3.0])  # (q_avg, q_min, q_max)


# -- hyperparameters ---------------------------------------------------------


def test_hyper_defaults_match_reference_values():
    h = Hyper()
    assert (h.gamma, h.lr) == (0.99, 1e-4)
    assert h.batch_size == 128 and h.buffer_capacity == 100_000
    assert h.horizon == 200 and h.hidden_sizes == (300, 400, 400)


def test_hyper_validation():
    with pytest.raises(ConfigurationError):
        Hyper(gamma=1.0)
    with pytest.raises(ConfigurationError):
        Hyper(buffer_capacity=101)  # must be even
    for name in ("lr", "actor_lr", "noise_std", "noise_floor"):
        with pytest.raises(ConfigurationError, match=name):
            Hyper(**{name: float("inf")})
    assert tiny_hyper(batch_size=np.int64(4)).batch_size == 4  # a numpy integer is a count


@pytest.mark.parametrize("name, value", [
    ("batch_size", 4.5), ("buffer_capacity", 64.0), ("horizon", "5"),
    ("warmup_transitions", float("nan")), ("batch_size", True),
    ("hidden_sizes", (8, 2.5)),
])
def test_hyper_rejects_a_count_that_is_not_an_integer(name, value):
    where = "hidden_sizes[1]" if name == "hidden_sizes" else name
    with pytest.raises(ConfigurationError, match=rf"{re.escape(where)} must be an integer"):
        tiny_hyper(**{name: value})


def test_effective_actor_lr_defaults_to_critic_lr():
    assert Hyper(lr=1e-3).effective_actor_lr == 1e-3
    assert Hyper(lr=1e-3, actor_lr=1e-5).effective_actor_lr == 1e-5


# -- replay buffer -----------------------------------------------------------


def test_buffer_len_and_wraparound():
    buf = ReplayBuffer(4, 2, 1)
    tr = lambda i: Transition(np.full(2, i), np.full(1, i), float(i), np.full(2, i))
    for i in range(6):
        buf.add(tr(i))
    assert len(buf) == 4
    # Slots 0..3 now hold transitions 4, 5, 2, 3 (FIFO overwrite).
    assert buf.rewards.tolist() == [4.0, 5.0, 2.0, 3.0]
    for capacity in (5, 0):  # the parity split needs a positive even capacity
        with pytest.raises(ConfigurationError, match="capacity"):
            ReplayBuffer(capacity, 2, 1)


def test_partitions_are_disjoint_and_cover():
    buf = ReplayBuffer(16, 2, 1)
    for i in range(11):  # reward i sits in slot i
        buf.add(Transition(np.zeros(2), np.zeros(1), float(i), np.zeros(2)))
    rng = np.random.default_rng(0)
    sup, qry = set(), set()
    for _ in range(20):
        sup |= set(sample_batch(buf, 5, "support", rng).reward.astype(int))
        qry |= set(sample_batch(buf, 5, "query", rng).reward.astype(int))
    assert sup == set(range(0, 11, 2))  # support draws the even slots
    assert qry == set(range(1, 11, 2))  # query draws the odd slots
    with pytest.raises(ContractViolation):
        sample_batch(buf, 5, "extra", rng)


@pytest.mark.parametrize("size", [256, 257, 599, 20_000])
@pytest.mark.parametrize("partition, parity", [("support", 0), ("query", 1)])
def test_sample_batch_draws_like_a_choice_over_the_partition(size, partition, parity):
    # The draw must keep the RNG stream of rng.choice(pool, b, replace=False)
    # over the explicit pool of slots with that parity.
    buf = ReplayBuffer(20_000, 1, 1)
    buf.insert_count = size
    buf.rewards[:] = np.arange(20_000)
    rng, ref = np.random.default_rng(size), np.random.default_rng(size)
    got = sample_batch(buf, 128, partition, rng).reward.astype(int)
    pool = np.arange(size)[np.arange(size) % 2 == parity]
    assert np.array_equal(got, ref.choice(pool, size=128, replace=False))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_sample_batch_requires_twice_batch_size():
    agent = make_agent()
    fill_buffer(agent, 7)
    with pytest.raises(ContractViolation):
        sample_batch(agent.buffer, 4, "support", agent.rng)
    fill_buffer(agent, 1)
    batch = sample_batch(agent.buffer, 4, "support", agent.rng)
    assert batch.state.shape == (4, 3)


def test_sample_batch_respects_partition_and_uniqueness():
    buf = ReplayBuffer(32, 1, 1)
    for i in range(20):
        buf.add(Transition(np.array([float(i)]), np.zeros(1), 0.0, np.zeros(1)))
    rng = np.random.default_rng(0)
    for _ in range(20):
        sup = sample_batch(buf, 8, "support", rng)
        qry = sample_batch(buf, 8, "query", rng)
        assert (sup.state[:, 0].astype(int) % 2 == 0).all()
        assert (qry.state[:, 0].astype(int) % 2 == 1).all()
        assert len(set(sup.state[:, 0])) == 8  # without replacement


# -- acting ------------------------------------------------------------------


def test_greedy_action_is_deterministic_and_bounded():
    agent = make_agent()
    s = np.array([0.1, -0.2, 0.3])
    a1 = agent.select_action(s, explore=False)
    a2 = agent.select_action(s, explore=False)
    assert np.array_equal(a1, a2)
    assert (np.abs(a1) <= 1.0).all()


def test_exploration_noise_perturbs_and_clips():
    agent = make_agent(noise_std=5.0)
    s = np.zeros(3)
    greedy = agent.select_action(s, explore=False)
    noisy = agent.select_action(s, explore=True)
    assert not np.array_equal(greedy, noisy)
    assert (np.abs(noisy) <= 1.0).all()


def test_noise_decay_respects_floor():
    agent = make_agent(noise_std=0.1, noise_decay=0.5, noise_floor=0.04)
    agent.decay_noise()
    assert np.isclose(agent.noise_std, 0.05)
    agent.decay_noise()
    assert agent.noise_std == 0.04
    agent.decay_noise()
    assert agent.noise_std == 0.04


def test_select_action_rejects_wrong_state_dim():
    agent = make_agent()
    with pytest.raises(ContractViolation):
        agent.select_action(np.zeros(5), explore=False)


# -- gradient oracles --------------------------------------------------------


def random_batch(agent, b=4, seed=3):
    rng = np.random.default_rng(seed)
    return Transition(
        state=rng.normal(size=(b, agent.obs_dim)),
        action=rng.uniform(-1, 1, size=(b, agent.act_dim)),
        reward=rng.normal(size=b),
        next_state=rng.normal(size=(b, agent.obs_dim)),
    )


def critic_loss(agent, batch):
    """The one-step critic's loss: Q(s, a) regressed on the step's reward, y = r."""
    y = batch.reward
    q, _ = nets.forward(
        agent.critic, np.concatenate([batch.state, batch.action], axis=1)
    )
    return float(np.mean((q[:, 0] - y) ** 2))


def actor_objective(agent, batch):
    mu, _ = nets.forward(agent.actor, batch.state)
    q, _ = nets.forward(agent.critic, np.concatenate([batch.state, mu], axis=1))
    return float(-np.mean(q))


def finite_diff(params, loss_fn, eps=1e-6):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            orig = p[i]
            p[i] = orig + eps
            up = loss_fn()
            p[i] = orig - eps
            dn = loss_fn()
            p[i] = orig
            g[i] = (up - dn) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def test_critic_gradients_match_finite_differences():
    agent = make_agent(obs_dim=2, act_dim=1, hidden_sizes=(4,))
    batch = random_batch(agent)
    loss, grads = agent.critic_gradients(batch)
    assert np.isclose(loss, critic_loss(agent, batch))
    fd = finite_diff([agent.critic.flat], lambda: critic_loss(agent, batch))
    assert np.allclose(grads, np.concatenate([f.ravel() for f in fd]), rtol=1e-5, atol=1e-8)


def test_actor_gradients_match_finite_differences():
    agent = make_agent(obs_dim=2, act_dim=1, hidden_sizes=(4,))
    batch = random_batch(agent)
    loss, grads = agent.actor_gradients(batch)
    assert np.isclose(loss, actor_objective(agent, batch))
    fd = finite_diff([agent.actor.flat], lambda: actor_objective(agent, batch))
    assert np.allclose(grads, np.concatenate([f.ravel() for f in fd]), rtol=1e-5, atol=1e-8)


# -- training mechanics ------------------------------------------------------


def test_train_step_moves_the_actor_and_the_critic():
    agent = make_agent()
    batch = random_batch(agent, b=agent.hyper.batch_size)
    a0 = agent.actor.flat.copy()
    c0 = agent.critic.flat.copy()
    agent.train_step(batch)
    assert not np.allclose(agent.actor.flat, a0)
    assert not np.allclose(agent.critic.flat, c0)
    assert not hasattr(agent, "target_actor") and not hasattr(agent, "target_critic")


def test_train_step_never_reads_next_state():
    # The critic is one-step: a batch whose next states are all NaN trains to
    # the same bytes as the same batch with finite next states.
    agent = make_agent()
    finite = random_batch(agent, b=agent.hyper.batch_size)
    nan = dataclasses.replace(finite, next_state=np.full_like(finite.next_state, np.nan))
    trained = []
    for batch in (finite, nan):
        agent = make_agent()
        losses = [agent.train_step(batch) for _ in range(3)]
        trained.append((losses, agent.actor.flat.tobytes(), agent.critic.flat.tobytes()))
    assert trained[0] == trained[1]


def test_divergent_batch_raises_before_any_adam_step():
    agent = make_agent()
    agent.train_step(random_batch(agent, b=agent.hyper.batch_size))
    batch = random_batch(agent, b=agent.hyper.batch_size, seed=4)
    batch.reward[1] = np.nan
    kept = [agent.critic.flat, agent.critic_opt.m, agent.critic_opt.v]
    before = [a.copy() for a in kept]
    steps = agent.critic_opt.step_count
    with pytest.raises(TrainingDivergence):
        agent.train_step(batch)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, before))
    assert agent.critic_opt.step_count == steps


def test_load_vectors_resets_networks_and_optimizers():
    agent = make_agent()
    other = make_agent(seed=99)
    agent.critic_opt.step_count = 17
    agent.load_vectors(other.actor.flat, other.critic.flat)
    assert np.array_equal(agent.actor.flat, other.actor.flat)
    assert np.array_equal(agent.critic.flat, other.critic.flat)
    assert agent.critic_opt.step_count == 0
    assert agent.actor_opt.lr == agent.hyper.effective_actor_lr


def test_load_vectors_reloads_in_place():
    agent = make_agent(actor_lr=5e-4, hidden_sizes=(64, 64))
    fill_buffer(agent, 16)
    for _ in range(3):
        agent.train_step(sample_batch(agent.buffer, 4, "support", agent.rng))
    agent.actor_opt.lr = agent.critic_opt.lr = 0.5
    arrays = [agent.actor.flat, agent.critic.flat, agent.actor_opt.m, agent.actor_opt.v,
              agent.critic_opt.m, agent.critic_opt.v]
    assert agent.critic_opt.m.any() and agent.actor_opt.step_count == 3
    other = make_agent(seed=99, hidden_sizes=(64, 64))
    vectors = other.actor.flat, other.critic.flat
    tracemalloc.start()
    agent.load_vectors(*vectors)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < agent.actor.flat.nbytes // 4  # no network-sized allocation
    now = [agent.actor.flat, agent.critic.flat, agent.actor_opt.m, agent.actor_opt.v,
           agent.critic_opt.m, agent.critic_opt.v]
    assert all(a is b for a, b in zip(arrays, now))
    assert np.array_equal(agent.actor.flat, other.actor.flat)
    assert np.array_equal(agent.critic.flat, other.critic.flat)
    for opt, lr in ((agent.actor_opt, 5e-4), (agent.critic_opt, 1e-3)):
        assert not opt.m.any() and not opt.v.any()
        assert opt.step_count == 0 and opt.lr == lr


def test_warmup_gate_blocks_updates():
    agent = make_agent(warmup_transitions=64, horizon=20)
    env = ConstantRewardEnv(3)
    before = agent.actor.flat.copy()
    run_episode(agent, env, train=True)
    assert len(agent.buffer) == 20
    assert np.array_equal(agent.actor.flat, before)


@pytest.mark.parametrize("warmup, start", [(0, 8), (10, 10)])
def test_updates_start_at_max_of_warmup_and_two_batches(warmup, start):
    # batch_size 4: support and query batches need 8 transitions between them.
    horizon = 20
    agent = make_agent(batch_size=4, warmup_transitions=warmup, horizon=horizon)
    run_episode(agent, ConstantRewardEnv(3), train=True)
    assert agent.critic_opt.step_count == horizon - start + 1
    assert agent.actor_opt.step_count == horizon - start + 1


def test_run_episode_return_and_qos_bookkeeping():
    agent = make_agent(horizon=3)
    env = ConstantRewardEnv(3)
    ret, qos = run_episode(agent, env, train=False)
    assert np.isclose(ret, 1 + 0.9 + 0.81)
    assert qos.tolist() == [2.0, 1.0, 3.0]  # (q_avg, q_min, q_max), in that order


def test_evaluate_policy_constant_reward():
    agent = make_agent(gamma=0.99, horizon=3)
    env = ConstantRewardEnv(3)
    ret, qos = evaluate_policy(agent, env, episodes=4)
    assert np.isclose(ret, 2.9701)
    assert tuple(qos) == (2.0, 1.0, 3.0)
    with pytest.raises(ContractViolation):
        evaluate_policy(agent, env, episodes=0)


@pytest.mark.parametrize("episodes", range(1, 11))
def test_evaluate_policy_means_are_the_per_key_episode_means(episodes):
    # From 8 episodes on, a mean over axis 0 of the stacked QoS vectors can
    # round differently from the 1-D mean of each key's values.
    cfg = harness.default_config("toy")
    task = cfg.donor_task_specs()[0]

    def agent_and_env():
        agent = DdpgAgent(*task_dims(task), cfg.hyper(), np.random.default_rng(3))
        return agent, TaskEnv(task, np.random.default_rng(4))

    agent, env = agent_and_env()
    rets, qoses = zip(*(run_episode(agent, env, train=False) for _ in range(episodes)))
    ret, qos = evaluate_policy(*agent_and_env(), episodes)
    assert ret == float(np.mean(np.array(rets)))
    assert isinstance(ret, float)
    for key in range(3):
        assert qos[key] == np.mean(np.array([q[key] for q in qoses]))


def test_training_episode_updates_once_buffer_is_ready():
    agent = make_agent(batch_size=4, horizon=20)
    env = ConstantRewardEnv(3)
    before = agent.critic.flat.copy()
    run_episode(agent, env, train=True)
    assert not np.array_equal(agent.critic.flat, before)
    assert agent.noise_std < agent.hyper.noise_std  # schedule advanced
