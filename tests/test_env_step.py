"""TaskEnv.step against the composition it had before the lean step.

`ReferenceEnv` below keeps the earlier implementation of every function the
step calls: the per-UE first-fit decode loop, norm-based mobility with
`rng.choice` headings, `dataclasses.replace` snapshots, per-scalar sigmoids,
`mean`/`min`/`max` QoS stats and a validating `compute_rates` with norm-based
distances. Stepped in lockstep with `TaskEnv` from equal seeds, the two must
agree to the byte, RNG state included.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaran import cell, harness, mdp
from metaran.cell import DIRECTIONS, SPEED_MAX, SPEED_MIN, TRAFFIC_LEVELS, CellConfig
from metaran.episode import TaskEnv, score
from metaran.errors import ContractViolation
from metaran.mdp import TaskSpec


# -- the earlier implementation ----------------------------------------------


def ref_reset(config, rng):
    n = config.num_ues
    radii = config.cell_radius_m * np.sqrt(rng.uniform(size=n))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    positions = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    speeds = rng.uniform(SPEED_MIN, SPEED_MAX, size=n)
    directions = rng.choice(DIRECTIONS, size=n)
    traffic = rng.integers(0, len(TRAFFIC_LEVELS), size=n)
    return cell.EnvSnapshot(positions, speeds, directions, traffic)


def ref_step_mobility(s, config, rng, crossings):
    step = s.ue_speeds[:, None] * np.stack(
        [np.cos(s.ue_directions), np.sin(s.ue_directions)], axis=1
    )
    pos = s.ue_positions + step
    dist = np.linalg.norm(pos, axis=1)
    out = dist > config.cell_radius_m
    speeds = s.ue_speeds.copy()
    directions = s.ue_directions.copy()
    if np.any(out):
        crossings.append(int(out.sum()))
        scale = (2.0 * config.cell_radius_m - dist[out]) / dist[out]
        pos[out] *= scale[:, None]
        directions[out] = rng.choice(DIRECTIONS, size=int(out.sum()))
        speeds[out] = rng.uniform(SPEED_MIN, SPEED_MAX, size=int(out.sum()))
    return replace(s, ue_positions=pos, ue_speeds=speeds, ue_directions=directions)


def ref_step_traffic(s, rng):
    n = len(s.traffic_levels)
    switch = rng.uniform(size=n) < cell.TRAFFIC_SWITCH_PROB
    offsets = rng.integers(1, len(TRAFFIC_LEVELS), size=n)
    levels = s.traffic_levels.copy()
    levels[switch] = (levels[switch] + offsets[switch]) % len(TRAFFIC_LEVELS)
    return replace(s, traffic_levels=levels)


class RefAllocation(NamedTuple):
    """The allocation record as first built, with per_rb_power stored."""

    rb_owner: np.ndarray
    rb_requested: np.ndarray
    per_rb_power: np.ndarray
    ue_power: np.ndarray


def first_fit_decode(raw, config, idle_mask=None):
    n, k = config.num_ues, config.num_rbs
    raw = np.clip(np.asarray(raw, dtype=float), -1.0, 1.0)
    requested = np.rint((raw[:n] + 1.0) / 2.0 * k).astype(int)
    ue_power = config.p_min + (raw[n:] + 1.0) / 2.0 * (config.p_max - config.p_min)
    if idle_mask is not None:
        requested = np.where(idle_mask, 0, requested)
    rb_owner = np.full(k, -1)
    per_rb_power = np.zeros(k)
    next_free = 0
    for u in range(n):
        take = min(requested[u], k - next_free)
        if take > 0:
            rb_owner[next_free : next_free + take] = u
            per_rb_power[next_free : next_free + take] = ue_power[u]
            next_free += take
    return RefAllocation(rb_owner, requested, per_rb_power, ue_power)


def ref_validate_alloc(alloc, config):
    owner, p = alloc.rb_owner, alloc.per_rb_power
    k, n = config.num_rbs, config.num_ues
    if owner.shape != (k,) or p.shape != (k,) or alloc.rb_requested.shape != (n,):
        raise ContractViolation("allocation arrays have the wrong shape")
    if owner.dtype.kind != "i" or (owner < -1).any() or (owner >= n).any():
        raise ContractViolation("rb_owner must hold UE indices in [-1, N)")
    assigned = owner >= 0
    eps = 1e-9
    if (p[assigned] < config.p_min - eps).any() or (p[assigned] > config.p_max + eps).any():
        raise ContractViolation("assigned RB power outside [p_min, p_max]")
    if (np.abs(p[~assigned]) > eps).any():
        raise ContractViolation("unassigned RB carries power")


def ref_compute_rates(alloc, ch, s, config):
    ref_validate_alloc(alloc, config)
    eta = config.path_loss_exp
    d_own = np.maximum(np.linalg.norm(s.ue_positions, axis=1), cell.MIN_DISTANCE)
    signal = alloc.per_rb_power[None, :] * d_own[:, None] ** (-eta) * ch.gain
    interference = 0.0
    if config.num_neighbors > 0:
        diff = s.ue_positions[None, :, :] - config.neighbor_positions()[:, None, :]
        d_nb = np.maximum(np.linalg.norm(diff, axis=2), cell.MIN_DISTANCE)
        interference = np.sum(
            ch.neighbor_power[:, None, :] * d_nb[:, :, None] ** (-eta) * ch.neighbor_gain,
            axis=0,
        )
    sinr = signal / (interference + config.noise_rb_mw)
    mask = alloc.rb_owner == np.arange(config.num_ues)[:, None]
    return config.rb_bandwidth * np.sum(mask * np.log2(1.0 + sinr), axis=1)


def ref_qos_stats(rates, active, task):
    rates = rates[active]
    if rates.size == 0:
        return np.full(3, task.demand_max)
    return np.array([rates.mean(), rates.min(), rates.max()])


def ref_sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def ref_penalties(alloc, config):
    mask = alloc.rb_owner == np.arange(config.num_ues)[:, None]
    consumed = float((mask * alloc.per_rb_power[None, :]).sum())
    p_c = consumed / (config.num_rbs * config.p_max)
    k_r = max(0, int(alloc.rb_requested.sum()) - config.num_rbs) / config.num_rbs
    return p_c, k_r


def ref_reward(qos, penalties, task):
    q_norm = (qos[1] - task.demand_min) / (task.demand_max - task.demand_min)
    p_c, k_r = penalties
    return float(ref_sigmoid(q_norm) - ref_sigmoid(p_c) - ref_sigmoid(k_r))


class ReferenceEnv:
    """TaskEnv as composed before the lean step; counts edge crossings."""

    def __init__(self, task, rng, stationary=False):
        self.task, self.config, self.rng = task, task.cell_config, rng
        self.stationary = stationary
        self.crossings = []

    def reset(self):
        self.snapshot = ref_reset(self.config, self.rng)
        if self.stationary:
            self.snapshot = replace(self.snapshot,
                                    traffic_levels=np.full(self.config.num_ues, 2))
        self.prev_alloc = mdp.zero_allocation(self.config)
        ch = cell.sample_channel(self.snapshot, self.config, self.rng)
        rates = ref_compute_rates(self.prev_alloc, ch, self.snapshot, self.config)
        qos = ref_qos_stats(rates, self.snapshot.active_mask, self.task)
        return mdp.encode_state(qos, self.prev_alloc, self.task)

    def step(self, raw):
        s = self.snapshot
        if not self.stationary:
            s = ref_step_mobility(s, self.config, self.rng, self.crossings)
            s = ref_step_traffic(s, self.rng)
        ch = cell.sample_channel(s, self.config, self.rng)
        alloc = first_fit_decode(raw, self.config, idle_mask=~s.active_mask)
        rates = ref_compute_rates(alloc, ch, s, self.config)
        qos = ref_qos_stats(rates, s.active_mask, self.task)
        penalties = ref_penalties(alloc, self.config)
        reward = ref_reward(qos, penalties, self.task)
        state = mdp.encode_state(qos, alloc, self.task)
        self.snapshot, self.prev_alloc, self.penalties = s, alloc, penalties
        return state, reward, qos


# -- lockstep comparison ------------------------------------------------------


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _assert_same_state(env, ref):
    for name in ("ue_positions", "ue_speeds", "ue_directions", "traffic_levels"):
        assert _bits(getattr(env.snapshot, name)) == _bits(getattr(ref.snapshot, name)), name
    for name in ("rb_owner", "rb_requested", "per_rb_power", "ue_power"):
        assert _bits(getattr(env.prev_alloc, name)) == _bits(getattr(ref.prev_alloc, name)), name


def _actions(rng, n, steps):
    """Uniform actions, out-of-range ones (clipped), greedy ones that
    over-request (sum K_req > K) and all-minimum ones, interleaved."""
    kinds = [
        lambda: rng.uniform(-1.0, 1.0, 2 * n),
        lambda: rng.uniform(-1.6, 1.6, 2 * n),
        lambda: np.concatenate([rng.uniform(0.5, 1.0, n), rng.uniform(-1, 1, n)]),
        lambda: -np.ones(2 * n),
    ]
    return [kinds[t % len(kinds)]() for t in range(steps)]


def _run_lockstep(task, seed, stationary, episodes=3, horizon=40, make_env=TaskEnv):
    env = make_env(task, np.random.default_rng(seed))
    ref = ReferenceEnv(task, np.random.default_rng(seed), stationary=stationary)
    acts = _actions(np.random.default_rng(seed + 1000), task.cell_config.num_ues,
                    episodes * horizon)
    n = task.cell_config.num_ues
    idle_steps = over_requests = 0
    for ep in range(episodes):
        obs, ref_obs = env.reset(), ref.reset()
        assert _bits(obs) == _bits(ref_obs)
        _assert_same_state(env, ref)
        if ep == 1 and not stationary:  # force an all-idle episode on both sides
            idle = np.zeros(n, dtype=env.snapshot.traffic_levels.dtype)
            env.snapshot = replace(env.snapshot, traffic_levels=idle)
            ref.snapshot = replace(ref.snapshot, traffic_levels=idle.copy())
        for t in range(horizon):
            raw = acts[ep * horizon + t]
            obs, reward, qos = env.step(raw)
            ref_obs, ref_reward_, ref_qos = ref.step(raw)
            assert _bits(obs) == _bits(ref_obs)
            assert _bits(np.float64(reward)) == _bits(np.float64(ref_reward_))
            assert type(reward) is type(ref_reward_) is float
            assert _bits(qos) == _bits(ref_qos)
            penalties = mdp.compute_penalties(env.prev_alloc, env.config)
            for got, want in zip(penalties, ref.penalties, strict=True):
                assert type(got) is type(want)
                assert _bits(np.float64(got)) == _bits(np.float64(want))
            _assert_same_state(env, ref)
            idle_steps += qos[1] == task.demand_max and not env.snapshot.active_mask.any()
            over_requests += int(env.prev_alloc.rb_requested.sum()) > task.cell_config.num_rbs
    assert env.rng.bit_generator.state == ref.rng.bit_generator.state
    return idle_steps, over_requests, len(ref.crossings)


@pytest.mark.parametrize("profile", ["toy", "paper"])
def test_step_equals_the_earlier_composition_bytewise(profile):
    tasks = harness.default_config(profile).donor_task_specs()
    idle = over = crossed = 0
    for i, task in enumerate(tasks):
        for seed in (i, 100 + i):
            a, b, c = _run_lockstep(task, seed, stationary=False)
            idle, over, crossed = idle + a, over + b, crossed + c
    # The inputs reached the branches this test is for.
    assert idle > 0 and over > 0 and crossed > 0


@pytest.mark.parametrize("profile", ["toy", "paper"])
def test_stationary_step_equals_the_earlier_composition_bytewise(profile, stationary_env):
    task = harness.default_config(profile).donor_task_specs()[0]
    _, over, crossed = _run_lockstep(task, seed=5, stationary=True, make_env=stationary_env)
    assert over > 0 and crossed == 0


@pytest.mark.parametrize("profile", ["toy", "paper"])
def test_scoring_on_advance_equals_step_and_draws_nothing(profile):
    """Twins on one seed: one steps; the other advances, then scores two other
    candidates and the chosen action on the same draw."""
    task = harness.default_config(profile).donor_task_specs()[0]
    n = task.cell_config.num_ues
    env, twin = (TaskEnv(task, np.random.default_rng(6)) for _ in range(2))
    episodes, horizon = 3, 40
    acts = _actions(np.random.default_rng(7), n, 3 * episodes * horizon)
    for ep in range(episodes):
        assert _bits(env.reset()) == _bits(twin.reset())
        for t in range(horizon):
            i = 3 * (ep * horizon + t)
            *others, raw = acts[i:i + 3]
            obs, reward, qos = env.step(raw)
            snapshot, channel = twin.advance()
            assert snapshot is twin.snapshot
            rng_state = twin.rng.bit_generator.state
            for action in [*others, raw]:
                alloc, t_obs, t_reward, t_qos = score(mdp.check_action(action, n), snapshot,
                                                      channel, task)
            assert twin.rng.bit_generator.state == rng_state
            assert _bits(obs) == _bits(t_obs)
            assert _bits(np.float64(reward)) == _bits(np.float64(t_reward))
            assert type(reward) is type(t_reward) is float
            assert _bits(qos) == _bits(t_qos)
            twin.prev_alloc = alloc  # the chosen action's allocation, as step keeps it
            _assert_same_state(env, twin)
    assert env.rng.bit_generator.state == twin.rng.bit_generator.state


def test_heading_draw_is_the_choice_stream():
    for size in range(30):
        a, b = np.random.default_rng(size), np.random.default_rng(size)
        got = DIRECTIONS[a.integers(0, len(DIRECTIONS), size=size)]
        assert _bits(got) == _bits(b.choice(DIRECTIONS, size=size))
        assert a.bit_generator.state == b.bit_generator.state


def test_compute_rates_equals_the_norm_based_rates():
    rng = np.random.default_rng(3)
    for _ in range(200):
        cfg = CellConfig(num_rbs=int(rng.integers(1, 12)), num_ues=int(rng.integers(1, 8)),
                         num_neighbors=int(rng.integers(0, 4)))
        snap = cell.reset(cfg, rng)
        ch = cell.sample_channel(snap, cfg, rng)
        alloc = mdp.decode_action(rng.uniform(-1, 1, 2 * cfg.num_ues), cfg)
        got = cell.compute_rates(alloc, ch, snap, cfg)
        want = ref_compute_rates(alloc, ch, snap, cfg)
        assert _bits(got) == _bits(want)


def test_lean_stats_and_reward_equal_the_earlier_ones():
    rng = np.random.default_rng(4)
    task = TaskSpec(demand_min=1e6, demand_max=5e6, cell_config=CellConfig(num_ues=4))
    for _ in range(2000):
        rates = rng.uniform(0, 1e7, 4) * rng.choice([1e-300, 1.0, 1e300])
        active = rng.uniform(size=4) < 0.7
        qos = mdp.qos_stats(rates, active, task)
        assert _bits(qos) == _bits(ref_qos_stats(rates, active, task))
        penalties = (float(rng.uniform(0, 1)), float(rng.uniform(0, 2)))
        assert _bits(np.float64(mdp.compute_reward(qos, penalties, task))) == _bits(
            np.float64(ref_reward(qos, penalties, task)))


# -- decode oracle -------------------------------------------------------------


@st.composite
def _decode_inputs(draw):
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 24))
    unit = st.floats(-1.5, 1.5, allow_nan=False)
    raw = np.array(draw(st.lists(unit, min_size=2 * n, max_size=2 * n)))
    idle = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
    return CellConfig(num_ues=n, num_rbs=k), raw, idle


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(_decode_inputs())
def test_vectorized_decode_equals_the_first_fit_loop(inputs):
    cfg, raw, idle = inputs
    got = mdp.decode_action(raw, cfg, idle_mask=idle)
    want = first_fit_decode(raw, cfg, idle_mask=idle)
    for name in ("rb_owner", "rb_requested", "per_rb_power", "ue_power"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name


# -- contract ------------------------------------------------------------------


@pytest.mark.parametrize("call", ["step", "advance"])
def test_step_before_reset_raises_contract_violation(call):
    task = harness.default_config("toy").donor_task_specs()[0]
    env = TaskEnv(task, np.random.default_rng(0))
    args = {"step": (np.zeros(mdp.action_dim(task.cell_config.num_ues)),), "advance": ()}
    with pytest.raises(ContractViolation, match="reset"):
        getattr(env, call)(*args[call])


def test_rejected_action_leaves_the_env_untouched():
    task = harness.default_config("toy").donor_task_specs()[0]
    n = task.cell_config.num_ues
    env, twin = (TaskEnv(task, np.random.default_rng(4)) for _ in range(2))
    env.reset()
    twin.reset()
    for t, bad in enumerate([np.full(2 * n, np.nan), np.zeros(9), np.zeros((2, n))]):
        rng_state, snapshot, prev_alloc = env.rng.bit_generator.state, env.snapshot, env.prev_alloc
        with pytest.raises(ContractViolation, match="raw action"):
            env.step(bad)
        assert env.rng.bit_generator.state == rng_state
        assert env.snapshot is snapshot and env.prev_alloc is prev_alloc
        good = np.random.default_rng(t).uniform(-1, 1, 2 * n)
        (obs, reward, qos), (t_obs, t_reward, t_qos) = env.step(good), twin.step(good)
        assert _bits(obs) == _bits(t_obs)
        assert _bits(np.float64(reward)) == _bits(np.float64(t_reward))
        assert _bits(qos) == _bits(t_qos)
        _assert_same_state(env, twin)
    assert env.rng.bit_generator.state == twin.rng.bit_generator.state


def test_equal_power_bounds_give_a_finite_observation_and_reward():
    # A fixed-power cell (p_min == p_max) is valid; its power channel reads -1.
    task = harness.default_config("toy").donor_task_specs()[0]
    cfg = replace(task.cell_config, p_max=task.cell_config.p_min)
    env = TaskEnv(replace(task, cell_config=cfg), np.random.default_rng(0))
    n = cfg.num_ues
    assert np.array_equal(env.reset()[3 + n:], np.full(n, -1.0))
    for t in range(5):
        obs, reward, _ = env.step(np.random.default_rng(t).uniform(-1, 1, 2 * n))
        assert np.isfinite(obs).all() and np.isfinite(reward)
        assert np.array_equal(obs[3 + n:], np.full(n, -1.0))


def test_allocation_mask_is_built_once_per_allocation():
    alloc = mdp.decode_action(np.zeros(6), CellConfig(num_ues=3, num_rbs=12))
    assert alloc.rb_indicator is alloc.rb_indicator
