"""Tests for the single-cell world model: geometry, dynamics, channel, rates."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaran import cell, harness
from metaran.cell import CellConfig, dbm_to_mw
from metaran.errors import ConfigurationError
from metaran.mdp import TaskSpec, decode_action, qos_stats, zero_allocation


def small_config(**kw):
    defaults = dict(num_rbs=4, num_ues=3, num_neighbors=2, cell_radius_m=100.0)
    defaults.update(kw)
    return CellConfig(**defaults)


# -- configuration -----------------------------------------------------------


def test_default_config_matches_reference_values():
    c = CellConfig()
    assert c.num_rbs == 60
    assert c.num_ues == 30
    assert c.rb_bandwidth == 200e3
    assert np.isclose(c.p_min, dbm_to_mw(3.0))
    assert np.isclose(c.p_max, dbm_to_mw(6.0))
    assert c.noise_psd_dbm_hz == -173.0
    assert c.cell_radius_m == 500.0


def test_power_conversions_round_trip():
    assert np.isclose(dbm_to_mw(0.0), 1.0)
    assert np.isclose(dbm_to_mw(6.0), 3.9810717055349722)


def test_noise_power_per_rb_matches_hand_formula():
    # PSD -173 dBm/Hz integrated over 200 kHz: 10^((-173 + 10*log10(2e5))/10) mW.
    c = CellConfig()
    assert np.isclose(c.noise_rb_mw, 1.002e-12, rtol=1e-3)
    by_hand = 10.0 ** ((-173.0 + 10.0 * np.log10(200e3)) / 10.0)
    assert np.isclose(c.noise_rb_mw, by_hand, rtol=1e-12)


@pytest.mark.parametrize(
    "kw",
    [
        dict(num_rbs=0),
        dict(num_ues=0),
        dict(cell_radius_m=0.0),
        dict(p_min_dbm=-4000.0),  # underflows to 0 mW
        dict(p_min_dbm=7.0, p_max_dbm=6.0),
        dict(path_loss_exp=0.0),
        dict(rb_bandwidth=0.0),
        dict(neighbor_occupancy=1.5),
        dict(num_neighbors=-1),
        dict(rb_bandwidth=float("nan")),
        dict(path_loss_exp=float("nan")),
        dict(cell_radius_m=float("nan")),
        dict(noise_psd_dbm_hz=float("nan")),
        dict(noise_psd_dbm_hz=4000.0),  # the per-RB noise power overflows to inf
        dict(noise_psd_dbm_hz=-4000.0),  # and here underflows to 0
        dict(cell_radius_m=5.0),  # below SPEED_MAX / 2: the edge mirror can leave the disc
        dict(p_max_dbm=float("inf")),  # reset's rng.uniform(p_min, p_max) would overflow
        dict(p_min_dbm=float("inf"), p_max_dbm=float("inf")),
        dict(p_max_dbm=4000.0),  # overflows as a power in mW
        dict(path_loss_exp=float("inf")),
        dict(cell_radius_m=float("inf")),
    ],
)
def test_invalid_configs_rejected(kw):
    with pytest.raises(ConfigurationError):
        small_config(**kw)


def test_neighbor_positions_on_ring():
    c = small_config(num_neighbors=3)
    pos = c.neighbor_positions()
    assert pos.shape == (3, 2)
    assert np.allclose(np.linalg.norm(pos, axis=1), cell.NEIGHBOR_DISTANCE)


# -- reset -------------------------------------------------------------------


def test_reset_places_ues_in_disc_with_valid_attributes():
    c = small_config(num_ues=50)
    s = cell.reset(c, np.random.default_rng(7))
    assert s.ue_positions.shape == (50, 2)
    assert (np.linalg.norm(s.ue_positions, axis=1) <= c.cell_radius_m).all()
    assert ((s.ue_speeds >= cell.SPEED_MIN) & (s.ue_speeds <= cell.SPEED_MAX)).all()
    assert np.isin(s.ue_directions, cell.DIRECTIONS).all()
    assert ((s.traffic_levels >= 0) & (s.traffic_levels < 4)).all()


def test_reset_is_deterministic_per_seed():
    c = small_config()
    a = cell.reset(c, np.random.default_rng(3))
    b = cell.reset(c, np.random.default_rng(3))
    other = cell.reset(c, np.random.default_rng(4))
    assert np.array_equal(a.ue_positions, b.ue_positions)
    assert np.array_equal(a.traffic_levels, b.traffic_levels)
    assert not np.array_equal(a.ue_positions, other.ue_positions)


def test_active_mask_excludes_idle():
    c = small_config()
    s = cell.reset(c, np.random.default_rng(0))
    assert np.array_equal(s.active_mask, s.traffic_levels != cell.IDLE)


# -- mobility ----------------------------------------------------------------


def test_straight_line_motion():
    c = small_config(cell_radius_m=1000.0)
    s = cell.reset(c, np.random.default_rng(0))
    s = cell.EnvSnapshot(
        ue_positions=np.zeros((3, 2)),
        ue_speeds=np.full(3, 10.0),
        ue_directions=np.zeros(3),
        traffic_levels=s.traffic_levels,
    )
    rng = np.random.default_rng(0)
    s2 = cell.step_mobility(s, c, rng)
    assert np.allclose(s2.ue_positions, [[10.0, 0.0]] * 3)


def test_positions_stay_inside_disc_for_long_rollouts():
    # 10 m is the smallest radius CellConfig accepts: a UE then ends a step
    # under 3R out, the farthest the edge mirror brings back inside.
    for radius in (10.0, 50.0):
        c = small_config(cell_radius_m=radius, num_ues=8)
        rng = np.random.default_rng(11)
        s = cell.reset(c, np.random.default_rng(11))
        for _ in range(1000):
            s = cell.step_mobility(s, c, rng)
            assert (np.linalg.norm(s.ue_positions, axis=1) <= c.cell_radius_m + 1e-9).all()


MOBILITY_FOUND = (
    "UE mobility in cell.step_mobility piles every UE up on the +x edge of the cell: "
    "DIRECTIONS are absolute headings in [-pi/3, pi/3], so every UE drifts toward +x, "
    "and a UE that crosses the edge is mirrored back and draws a new heading from the "
    "same set, which points outward again (CHANGES.md FOUND, ROADMAP item 3)"
)


@pytest.mark.xfail(strict=True, reason=MOBILITY_FOUND)
@pytest.mark.parametrize("profile", ["toy", "paper"])
def test_mobility_keeps_ues_spread_over_the_disc(profile):
    # A uniform disc puts 19% of UEs beyond 0.9R and has mean x = 0.
    cfg = harness.default_config(profile)
    horizon = cfg.hyper().horizon
    beyond, mean_x, samples = 0, 0.0, 0
    for c in (t.cell_config for t in cfg.donor_task_specs()):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            s = cell.reset(c, rng)
            for _ in range(horizon):  # one episode
                s = cell.step_mobility(s, c, rng)
                r = np.linalg.norm(s.ue_positions, axis=1) / c.cell_radius_m
                beyond += int((r > 0.9).sum())
                mean_x += float((s.ue_positions[:, 0] / c.cell_radius_m).sum())
                samples += c.num_ues
    assert 0.12 <= beyond / samples <= 0.30
    assert abs(mean_x / samples) <= 0.1


# -- traffic -----------------------------------------------------------------


def test_traffic_zero_probability_keeps_levels(monkeypatch):
    monkeypatch.setattr(cell, "TRAFFIC_SWITCH_PROB", 0.0)
    c = small_config(num_ues=20)
    s = cell.reset(c, np.random.default_rng(5))
    s2 = cell.step_traffic(s, np.random.default_rng(0))
    assert np.array_equal(s.traffic_levels, s2.traffic_levels)


def test_traffic_switch_always_changes_level(monkeypatch):
    monkeypatch.setattr(cell, "TRAFFIC_SWITCH_PROB", 1.0)
    c = small_config(num_ues=40)
    s = cell.reset(c, np.random.default_rng(5))
    s2 = cell.step_traffic(s, np.random.default_rng(0))
    assert (s.traffic_levels != s2.traffic_levels).all()


def test_traffic_switch_frequency_matches_rate():
    c = small_config(num_ues=100)
    s = cell.reset(c, np.random.default_rng(1))
    rng = np.random.default_rng(1)
    switches, steps = 0, 0
    for _ in range(1000):
        s2 = cell.step_traffic(s, rng)
        switches += int((s.traffic_levels != s2.traffic_levels).sum())
        steps += len(s.traffic_levels)
        s = s2
    assert abs(switches / steps - cell.TRAFFIC_SWITCH_PROB) < 0.002


# -- channel -----------------------------------------------------------------


def test_channel_shapes_and_domains():
    c = small_config(num_ues=3, num_rbs=4, num_neighbors=2)
    s = cell.reset(c, np.random.default_rng(0))
    ch = cell.sample_channel(s, c, np.random.default_rng(0))
    assert ch.gain.shape == (3, 4)
    assert ch.neighbor_gain.shape == (2, 3, 4)
    assert ch.neighbor_power.shape == (2, 4)
    assert (ch.gain >= 0).all() and (ch.neighbor_gain >= 0).all()
    busy = ch.neighbor_power > 0
    assert ((ch.neighbor_power[busy] >= c.p_min) & (ch.neighbor_power[busy] <= c.p_max)).all()


def test_channel_gain_is_unit_mean():
    c = small_config(num_ues=50, num_rbs=50)
    s = cell.reset(c, np.random.default_rng(0))
    rng = np.random.default_rng(123)
    draws = [cell.sample_channel(s, c, rng).gain.mean() for _ in range(40)]
    assert abs(np.mean(draws) - 1.0) < 0.01


def test_zero_occupancy_means_zero_interference():
    c = small_config(neighbor_occupancy=0.0)
    s = cell.reset(c, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    ch = cell.sample_channel(s, c, rng)
    assert (ch.neighbor_power == 0).all()
    alloc = decode_action(np.zeros(2 * c.num_ues), c)
    rates = cell.compute_rates(alloc, ch, s, c)
    # With every neighbor RB idle the rates equal a noise-only oracle.
    d = np.maximum(np.linalg.norm(s.ue_positions, axis=1), cell.MIN_DISTANCE)
    snr = alloc.per_rb_power * d[:, None] ** (-c.path_loss_exp) * ch.gain / c.noise_rb_mw
    expected = c.rb_bandwidth * (alloc.rb_indicator * np.log2(1.0 + snr)).sum(axis=1)
    assert np.allclose(rates, expected, rtol=1e-12, atol=0.0)


# -- rates -------------------------------------------------------------------


def test_empty_allocation_gives_zero_rates():
    c = small_config()
    s = cell.reset(c, np.random.default_rng(0))
    ch = cell.sample_channel(s, c, np.random.default_rng(0))
    rates = cell.compute_rates(zero_allocation(c), ch, s, c)
    assert (rates == 0).all()
    assert s.active_mask.any()
    task = TaskSpec(demand_min=1e6, demand_max=10e6, cell_config=c)
    assert qos_stats(rates, s.active_mask, task)[1] == 0.0  # q_min


@st.composite
def _rate_inputs(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 16))
    p_min_dbm = draw(st.floats(-60.0, 60.0))
    cfg = CellConfig(
        num_ues=n,
        num_rbs=k,
        rb_bandwidth=draw(st.floats(1.0, 1e9)),
        p_min_dbm=p_min_dbm,
        p_max_dbm=p_min_dbm + draw(st.floats(0.0, 60.0)),
        path_loss_exp=draw(st.floats(0.5, 8.0)),
        noise_psd_dbm_hz=draw(st.floats(-250.0, -100.0)),
        cell_radius_m=draw(st.floats(10.0, 1e5)),
        num_neighbors=draw(st.integers(0, 4)),
        neighbor_occupancy=draw(st.floats(0.0, 1.0)),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    # 0 puts every UE on the RU (the minimum distance applies), large values
    # far outside the cell.
    spread = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    unit = st.floats(-1.0, 1.0)
    raw = np.array(draw(st.lists(unit, min_size=2 * n, max_size=2 * n)))
    return cfg, seed, spread, raw


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_rate_inputs())
def test_rates_finite_nonnegative_and_zero_without_rbs(inputs):
    cfg, seed, spread, raw = inputs
    rng = np.random.default_rng(seed)
    snap = cell.reset(cfg, rng)
    snap = dataclasses.replace(snap, ue_positions=snap.ue_positions * spread)
    ch = cell.sample_channel(snap, cfg, rng)
    alloc = decode_action(raw, cfg, idle_mask=~snap.active_mask)
    rates = cell.compute_rates(alloc, ch, snap, cfg)
    assert rates.shape == (cfg.num_ues,)
    assert np.isfinite(rates).all() and (rates >= 0).all()
    unowned = ~np.isin(np.arange(cfg.num_ues), alloc.rb_owner)
    assert (rates[unowned] == 0).all()


def test_unit_sinr_gives_bandwidth_rate():
    # One UE, one RB, no interference, SINR forced to 1 => rate = B*log2(2) = B.
    c = CellConfig(num_rbs=1, num_ues=1, num_neighbors=0, cell_radius_m=100.0)
    s = cell.EnvSnapshot(
        ue_positions=np.array([[10.0, 0.0]]),
        ue_speeds=np.array([10.0]),
        ue_directions=np.array([0.0]),
        traffic_levels=np.array([2]),
    )
    # Pick the gain so that p * d^-eta * g / sigma2 == 1.
    g = c.noise_rb_mw / (c.p_min * 10.0 ** (-c.path_loss_exp))
    ch = cell.ChannelRealization(
        gain=np.array([[g]]),
        neighbor_gain=np.zeros((0, 1, 1)),
        neighbor_power=np.zeros((0, 1)),
    )
    alloc = decode_action(np.array([1.0, -1.0]), c)
    rates = cell.compute_rates(alloc, ch, s, c)
    assert np.isclose(rates[0], c.rb_bandwidth)  # 200 000 bits/s


def test_rates_match_scalar_oracle():
    c = small_config(num_ues=3, num_rbs=4, num_neighbors=2)
    rng = np.random.default_rng(42)
    s = cell.reset(c, np.random.default_rng(42))
    ch = cell.sample_channel(s, c, rng)
    alloc = decode_action(rng.uniform(-1, 1, size=2 * c.num_ues), c)
    rates = cell.compute_rates(alloc, ch, s, c)

    eta = c.path_loss_exp
    nb = c.neighbor_positions()
    for u in range(c.num_ues):
        d = max(np.hypot(*s.ue_positions[u]), cell.MIN_DISTANCE)
        total = 0.0
        for k in range(c.num_rbs):
            interf = 0.0
            for m in range(c.num_neighbors):
                dn = max(np.hypot(*(s.ue_positions[u] - nb[m])), cell.MIN_DISTANCE)
                interf += ch.neighbor_power[m, k] * dn ** (-eta) * ch.neighbor_gain[m, u, k]
            sinr = alloc.per_rb_power[k] * d ** (-eta) * ch.gain[u, k] / (interf + c.noise_rb_mw)
            total += c.rb_bandwidth * alloc.rb_indicator[u, k] * np.log2(1.0 + sinr)
        assert np.isclose(rates[u], total, rtol=1e-12)


def test_rate_monotone_in_power_and_interference():
    c = small_config(num_neighbors=0, num_ues=1, num_rbs=2)
    s = cell.EnvSnapshot(
        ue_positions=np.array([[20.0, 0.0]]),
        ue_speeds=np.array([10.0]),
        ue_directions=np.array([0.0]),
        traffic_levels=np.array([1]),
    )
    ch = cell.ChannelRealization(
        gain=np.ones((1, 2)),
        neighbor_gain=np.zeros((0, 1, 2)),
        neighbor_power=np.zeros((0, 2)),
    )
    low = decode_action(np.array([0.0, -1.0]), c)
    high = decode_action(np.array([0.0, 1.0]), c)
    r_low = cell.compute_rates(low, ch, s, c)
    r_high = cell.compute_rates(high, ch, s, c)
    assert r_high[0] > r_low[0]


def test_min_rate_over_active_ues_only():
    c = small_config(num_ues=2, num_rbs=4, num_neighbors=0)
    s = cell.EnvSnapshot(
        ue_positions=np.array([[10.0, 0.0], [20.0, 0.0]]),
        ue_speeds=np.full(2, 10.0),
        ue_directions=np.zeros(2),
        traffic_levels=np.array([cell.IDLE, 2]),  # UE0 idle
    )
    ch = cell.sample_channel(s, c, np.random.default_rng(0))
    alloc = decode_action(np.array([-1.0, 0.0, -1.0, -1.0]), c, idle_mask=~s.active_mask)
    rates = cell.compute_rates(alloc, ch, s, c)
    task = TaskSpec(demand_min=1e6, demand_max=10e6, cell_config=c)
    q_min = qos_stats(rates, s.active_mask, task)[1]
    assert q_min == rates[1]
    assert q_min > 0
