"""Tests for the MDP layer: encoding, decoding, penalties, reward."""

import numpy as np
import pytest

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


def _report(cfg, rates, active):
    return cell.RateReport(
        per_ue_rate=np.asarray(rates, dtype=float),
        min_rate=float(np.asarray(rates)[np.asarray(active)].min()) if any(active) else 0.0,
        interference=np.zeros((cfg.num_ues, cfg.num_rbs)),
        sinr=np.zeros((cfg.num_ues, cfg.num_rbs)),
        active=np.asarray(active, dtype=bool),
    )


def test_reward_at_demand_floor_is_minus_half():
    # Q_m = c_min with zero penalties: sigmoid(0) - sigmoid(0) - sigmoid(0).
    task = make_task(num_ues=1, num_rbs=8)
    cfg = task.cell_config
    report = _report(cfg, [task.demand_min], [True])
    assert compute_reward(report, zero_allocation(cfg), task) == pytest.approx(-0.5, abs=1e-12)


def test_reward_all_idle_uses_demand_ceiling():
    task = make_task(num_ues=2, num_rbs=8)
    cfg = task.cell_config
    report = _report(cfg, [0.0, 0.0], [False, False])
    got = compute_reward(report, zero_allocation(cfg), task)
    assert got == pytest.approx(sigmoid(1.0) - 1.0)


def test_reward_monotone_in_min_rate():
    task = make_task(num_ues=1, num_rbs=8)
    cfg = task.cell_config
    alloc = zero_allocation(cfg)
    lo = compute_reward(_report(cfg, [2e6], [True]), alloc, task)
    hi = compute_reward(_report(cfg, [8e6], [True]), alloc, task)
    assert hi > lo


def test_reward_decreases_with_requested_excess():
    task = make_task(num_ues=2, num_rbs=10)
    cfg = task.cell_config
    report = _report(cfg, [5e6, 5e6], [True, True])
    modest = decode_action(np.array([0.0, 0.0, -1.0, -1.0]), cfg)  # 5 + 5 = K
    greedy = decode_action(np.array([1.0, 1.0, -1.0, -1.0]), cfg)  # 10 + 10 > K
    assert compute_reward(report, greedy, task) < compute_reward(report, modest, task)


def test_reward_range_random_inputs():
    rng = np.random.default_rng(7)
    task = make_task(num_ues=3, num_rbs=12)
    cfg = task.cell_config
    for _ in range(2000):
        alloc = decode_action(rng.uniform(-1, 1, size=6), cfg)
        rates = rng.uniform(0, 3 * task.demand_max, size=3)
        active = rng.uniform(size=3) < 0.8
        r = compute_reward(_report(cfg, rates, active), alloc, task)
        assert -2.0 < r < 1.0


# -- state encoding ----------------------------------------------------------


def test_encode_state_normalizes_rates_by_demand_ceiling():
    task = make_task(num_ues=3, num_rbs=12, demand_max=10e6)
    cfg = task.cell_config
    report = _report(cfg, [1e6, 2e6, 3e6], [True, True, True])
    st = encode_state(report, zero_allocation(cfg), task)
    assert st.q_avg == pytest.approx(0.2)
    assert st.q_min == pytest.approx(0.1)
    assert st.q_max == pytest.approx(0.3)


def test_encode_state_previous_action_channels():
    task = make_task(num_ues=2, num_rbs=10)
    cfg = task.cell_config
    prev = decode_action(np.array([0.0, 1.0, -1.0, 1.0]), cfg)
    report = _report(cfg, [1e6, 1e6], [True, True])
    st = encode_state(report, prev, task)
    assert np.allclose(st.prev_rb, [0.5, 1.0])
    assert np.allclose(st.prev_power, [-1.0, 1.0])


def test_encode_state_all_idle_reports_ceiling():
    task = make_task(num_ues=2, num_rbs=10)
    cfg = task.cell_config
    report = _report(cfg, [0.0, 0.0], [False, False])
    st = encode_state(report, zero_allocation(cfg), task)
    assert st.q_avg == st.q_min == st.q_max == 1.0


def test_state_vector_layout():
    task = make_task(num_ues=2, num_rbs=10)
    cfg = task.cell_config
    report = _report(cfg, [1e6, 2e6], [True, True])
    st = encode_state(report, zero_allocation(cfg), task)
    vec = st.as_vector()
    assert vec.shape == (observation_dim(2),)
    assert np.allclose(vec[:3], [st.q_avg, st.q_min, st.q_max])
    assert np.allclose(vec[3:5], st.prev_rb)
    assert np.allclose(vec[5:7], st.prev_power)
