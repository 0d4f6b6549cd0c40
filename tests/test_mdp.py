"""Tests for the MDP layer: encoding, decoding, penalties, reward."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaran.cell import CellConfig, dbm_to_mw
from metaran.errors import ConfigurationError, ContractViolation
from metaran.mdp import (
    TaskSpec,
    action_dim,
    compute_penalties,
    compute_reward,
    decode_action,
    encode_state,
    observation_dim,
    qos_info,
    qos_stats,
    sigmoid,
    zero_allocation,
)
from metaran import cell


def make_task(num_ues=3, num_rbs=60, demand_min=1e6, demand_max=10e6):
    cfg = CellConfig(num_ues=num_ues, num_rbs=num_rbs)
    return TaskSpec(demand_min=demand_min, demand_max=demand_max, cell_config=cfg)


def test_dims():
    assert observation_dim(30) == 63
    assert action_dim(30) == 60


def test_task_spec_validation():
    with pytest.raises(ConfigurationError):
        make_task(demand_min=5e6, demand_max=5e6)
    with pytest.raises(ConfigurationError):
        make_task(demand_min=-1.0)


# -- decoding ----------------------------------------------------------------


def test_decode_midpoint_requests_half_the_grid():
    cfg = CellConfig(num_ues=3, num_rbs=60)
    alloc = decode_action(np.zeros(6), cfg)
    # raw 0 on each RB coordinate means 30 requested blocks per UE; only the
    # first two UEs fit, the third is truncated to the empty remainder.
    assert alloc.rb_requested.tolist() == [30, 30, 30]
    assert alloc.rb_indicator.sum(axis=1).tolist() == [30, 30, 0]
    assert alloc.rb_indicator.sum() == 60


def test_decode_power_endpoints():
    cfg = CellConfig(num_ues=1, num_rbs=4)
    low = decode_action(np.array([1.0, -1.0]), cfg)
    high = decode_action(np.array([1.0, 1.0]), cfg)
    assert np.isclose(low.ue_power[0], cfg.p_min)
    assert np.isclose(high.ue_power[0], cfg.p_max)
    assert np.isclose(high.ue_power[0], dbm_to_mw(6.0))  # about 3.981 mW


def test_decode_clips_out_of_range_raw():
    cfg = CellConfig(num_ues=1, num_rbs=4)
    alloc = decode_action(np.array([5.0, -7.0]), cfg)
    assert alloc.rb_requested[0] == 4
    assert np.isclose(alloc.ue_power[0], cfg.p_min)


def test_decode_idle_mask_forces_zero_request():
    cfg = CellConfig(num_ues=3, num_rbs=12)
    idle = np.array([True, False, True])
    alloc = decode_action(np.ones(6), cfg, idle_mask=idle)
    assert alloc.rb_requested.tolist() == [0, 12, 0]
    assert alloc.rb_indicator[0].sum() == 0
    assert alloc.rb_indicator[2].sum() == 0


def test_decode_first_fit_order():
    cfg = CellConfig(num_ues=2, num_rbs=6)
    # UE0 asks for 3 => rint((raw+1)/2*6)=3 at raw 0; UE1 asks for 6.
    alloc = decode_action(np.array([0.0, 1.0, 0.0, 0.0]), cfg)
    assert alloc.rb_indicator[0, :3].all() and not alloc.rb_indicator[0, 3:].any()
    assert alloc.rb_indicator[1, 3:].all() and not alloc.rb_indicator[1, :3].any()
    assert alloc.rb_requested.tolist() == [3, 6]


def test_decode_wrong_length_rejected():
    cfg = CellConfig(num_ues=3, num_rbs=12)
    with pytest.raises(ContractViolation):
        decode_action(np.zeros(5), cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [1, 4])  # RB-request half, power half
def test_decode_rejects_non_finite_entries(bad, index):
    cfg = CellConfig(num_ues=3, num_rbs=12)
    raw = np.zeros(6)
    raw[index] = bad
    with pytest.raises(ContractViolation):
        decode_action(raw, cfg)


def test_decode_feasibility_invariants_random():
    rng = np.random.default_rng(0)
    cfg = CellConfig(num_ues=4, num_rbs=10)
    for _ in range(500):
        raw = rng.uniform(-1.5, 1.5, size=8)
        a = decode_action(raw, cfg)
        assert np.isin(a.rb_indicator, (0, 1)).all()
        assert a.rb_indicator.sum() <= cfg.num_rbs
        assert (a.rb_indicator.sum(axis=0) <= 1).all()
        assigned = a.rb_indicator.sum(axis=0) > 0
        assert (a.per_rb_power[assigned] >= cfg.p_min - 1e-12).all()
        assert (a.per_rb_power[assigned] <= cfg.p_max + 1e-12).all()
        assert (a.per_rb_power[~assigned] == 0).all()


@st.composite
def _decode_inputs(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 16))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    raw = np.array(draw(st.lists(unit, min_size=2 * n, max_size=2 * n)))
    idle = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return CellConfig(num_ues=n, num_rbs=k), raw, idle


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_decode_inputs())
def test_decode_owner_vector_properties(inputs):
    cfg, raw, idle = inputs
    n, k = cfg.num_ues, cfg.num_rbs
    a = decode_action(raw, cfg, idle_mask=idle)
    owner = a.rb_owner
    assert owner.shape == (k,)
    assert ((owner >= -1) & (owner < n)).all()
    assert not np.isin(owner, np.flatnonzero(idle)).any()  # idle UEs own nothing
    assigned = int((owner >= 0).sum())
    assert assigned == min(int(a.rb_requested.sum()), k)
    assert (owner[:assigned] >= 0).all() and (owner[assigned:] == -1).all()
    assert (np.diff(owner[:assigned]) >= 0).all()  # first fit, ascending UE order
    snap = cell.reset(cfg, seed=0)
    ch = cell.sample_channel(snap, cfg, np.random.default_rng(0))
    report = cell.compute_rates(a, ch, snap, cfg)  # every decode is accepted
    assert report.per_ue_rate.shape == (n,)


# -- penalties ---------------------------------------------------------------


def test_requested_excess_penalty():
    cfg = CellConfig(num_ues=2, num_rbs=60)
    # 40 + 30 = 70 requested against K = 60 -> excess 10/60.
    raw = np.array([40 / 60 * 2 - 1, 0.0, -1.0, -1.0])
    alloc = decode_action(raw, cfg)
    assert alloc.rb_requested.tolist() == [40, 30]
    p_c, k_r = compute_penalties(alloc, cfg)
    assert np.isclose(k_r, 10 / 60)


def test_full_grid_at_max_power_gives_unit_power_penalty():
    cfg = CellConfig(num_ues=1, num_rbs=8)
    alloc = decode_action(np.array([1.0, 1.0]), cfg)
    p_c, k_r = compute_penalties(alloc, cfg)
    assert np.isclose(p_c, 1.0)
    assert k_r == 0.0


def test_empty_allocation_has_zero_penalties():
    cfg = CellConfig(num_ues=2, num_rbs=8)
    p_c, k_r = compute_penalties(zero_allocation(cfg), cfg)
    assert p_c == 0.0 and k_r == 0.0


# -- reward ------------------------------------------------------------------


def _qos(task, rates, active):
    report = cell.RateReport(
        per_ue_rate=np.asarray(rates, dtype=float),
        active=np.asarray(active, dtype=bool),
    )
    return qos_stats(report, task)


def test_reward_at_demand_floor_is_minus_half():
    # Q_m = c_min with zero penalties: sigmoid(0) - sigmoid(0) - sigmoid(0).
    task = make_task(num_ues=1, num_rbs=8)
    cfg = task.cell_config
    qos = _qos(task, [task.demand_min], [True])
    penalties = compute_penalties(zero_allocation(cfg), cfg)
    assert compute_reward(qos, penalties, task) == pytest.approx(-0.5, abs=1e-12)


def test_reward_all_idle_uses_demand_ceiling():
    task = make_task(num_ues=2, num_rbs=8)
    cfg = task.cell_config
    qos = _qos(task, [0.0, 0.0], [False, False])
    got = compute_reward(qos, compute_penalties(zero_allocation(cfg), cfg), task)
    assert got == pytest.approx(sigmoid(1.0) - 1.0)


def test_reward_monotone_in_min_rate():
    task = make_task(num_ues=1, num_rbs=8)
    cfg = task.cell_config
    penalties = compute_penalties(zero_allocation(cfg), cfg)
    lo = compute_reward(_qos(task, [2e6], [True]), penalties, task)
    hi = compute_reward(_qos(task, [8e6], [True]), penalties, task)
    assert hi > lo


def test_reward_decreases_with_requested_excess():
    task = make_task(num_ues=2, num_rbs=10)
    cfg = task.cell_config
    qos = _qos(task, [5e6, 5e6], [True, True])
    modest = decode_action(np.array([0.0, 0.0, -1.0, -1.0]), cfg)  # 5 + 5 = K
    greedy = decode_action(np.array([1.0, 1.0, -1.0, -1.0]), cfg)  # 10 + 10 > K
    assert (compute_reward(qos, compute_penalties(greedy, cfg), task)
            < compute_reward(qos, compute_penalties(modest, cfg), task))


def test_reward_range_random_inputs():
    rng = np.random.default_rng(7)
    task = make_task(num_ues=3, num_rbs=12)
    cfg = task.cell_config
    for _ in range(2000):
        alloc = decode_action(rng.uniform(-1, 1, size=6), cfg)
        rates = rng.uniform(0, 3 * task.demand_max, size=3)
        active = rng.uniform(size=3) < 0.8
        r = compute_reward(_qos(task, rates, active), compute_penalties(alloc, cfg), task)
        assert -2.0 < r < 1.0


@st.composite
def _reward_inputs(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 16))
    p_min = draw(st.floats(1e-6, 1e6))
    p_max = p_min * draw(st.floats(1.0, 1e6))
    demand_min = draw(st.floats(0.0, 1e12))
    demand_max = demand_min + draw(st.floats(1e-3, 1e12))
    cfg = CellConfig(num_ues=n, num_rbs=k, p_min=p_min, p_max=p_max)
    task = TaskSpec(demand_min=demand_min, demand_max=demand_max, cell_config=cfg)
    finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    raw = np.array(draw(st.lists(finite, min_size=2 * n, max_size=2 * n)))
    rates = draw(st.lists(st.floats(0.0, 1e15), min_size=n, max_size=n))
    active = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return task, raw, rates, active


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_reward_inputs())
def test_reward_in_open_interval_for_extreme_inputs(inputs):
    task, raw, rates, active = inputs
    alloc = decode_action(raw, task.cell_config, idle_mask=~np.asarray(active))
    penalties = compute_penalties(alloc, task.cell_config)
    r = compute_reward(_qos(task, rates, active), penalties, task)
    assert -2.0 < r < 1.0


def test_extreme_reward_inputs_emit_no_runtime_warning():
    # A narrow demand band puts an unserved UE's normalized QoS near -1e15,
    # where exp(-x) overflows; sigmoid still reads 0 and stays silent.
    cfg = CellConfig(num_ues=1, num_rbs=4)
    task = TaskSpec(demand_min=1e12, demand_max=1e12 + 1e-3, cell_config=cfg)
    penalties = compute_penalties(zero_allocation(cfg), cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sigmoid(-1e308) == 0.0 and sigmoid(-710.0) == 0.0
        assert sigmoid(1e308) == 1.0
        r = compute_reward(_qos(task, [0.0], [True]), penalties, task)
    assert r == -sigmoid(penalties[0]) - sigmoid(penalties[1]) == -1.0
    for x in (-709.0, -3.5, 0.0, 0.25, 40.0):  # no overflow: the plain formula
        assert sigmoid(x) == 1.0 / (1.0 + np.exp(-x))


# -- state encoding ----------------------------------------------------------


def test_encode_state_normalizes_rates_by_demand_ceiling():
    task = make_task(num_ues=3, num_rbs=12, demand_max=10e6)
    cfg = task.cell_config
    qos = _qos(task, [1e6, 2e6, 3e6], [True, True, True])
    obs = encode_state(qos, zero_allocation(cfg), task)
    assert obs[0] == pytest.approx(0.2)  # q_avg
    assert obs[1] == pytest.approx(0.1)  # q_min
    assert obs[2] == pytest.approx(0.3)  # q_max


def test_encode_state_previous_action_channels():
    task = make_task(num_ues=2, num_rbs=10)
    cfg = task.cell_config
    prev = decode_action(np.array([0.0, 1.0, -1.0, 1.0]), cfg)
    qos = _qos(task, [1e6, 1e6], [True, True])
    obs = encode_state(qos, prev, task)
    assert np.allclose(obs[3:5], [0.5, 1.0])  # requested counts / K
    assert np.allclose(obs[5:7], [-1.0, 1.0])  # powers mapped to [-1, 1]


def test_encode_state_all_idle_reports_ceiling():
    task = make_task(num_ues=2, num_rbs=10)
    cfg = task.cell_config
    qos = _qos(task, [0.0, 0.0], [False, False])
    obs = encode_state(qos, zero_allocation(cfg), task)
    assert obs[0] == obs[1] == obs[2] == 1.0


def test_state_vector_layout():
    task = make_task(num_ues=2, num_rbs=10, demand_max=10e6)
    cfg = task.cell_config
    qos = _qos(task, [1e6, 2e6], [True, True])
    vec = encode_state(qos, zero_allocation(cfg), task)
    assert vec.shape == (observation_dim(2),)
    assert np.allclose(vec[:3], [0.15, 0.1, 0.2])  # q_avg, q_min, q_max
    assert np.allclose(vec[3:5], 0.0)  # previous requested counts / K
    assert np.allclose(vec[5:7], -1.0)  # previous powers at p_min


def test_qos_info_names_the_stats():
    task = make_task(num_ues=3, num_rbs=10)
    qos = _qos(task, [1e6, 2e6, 9e6], [True, True, False])
    info = qos_info(qos)
    assert list(info) == ["q_avg", "q_min", "q_max"]
    assert info == {"q_avg": 1.5e6, "q_min": 1e6, "q_max": 2e6}
    assert all(type(v) is float for v in info.values())
