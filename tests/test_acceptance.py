"""End-to-end acceptance suite.

Each test states its tolerance and wall-clock budget inline. The expensive
directional checks (DDPG sanity, meta-vs-scratch) run real training on the
small built-in profiles, so this file dominates the suite's runtime.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from metaran import cell, harness, mdp, meta, nets
from metaran.cell import CellConfig
from metaran.ddpg import DdpgAgent, Hyper, run_episode
from metaran.episode import TaskEnv
from metaran.mdp import TaskSpec, decode_action
from metaran.seeding import derive_rng


# -- 1. gradient correctness (< 1e-4 relative, < 10 s) -----------------------


def test_gradients_match_finite_differences_on_20_networks():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        depth = int(rng.integers(1, 3))
        sizes = [int(rng.integers(2, 6))] + [
            int(rng.integers(2, 7)) for _ in range(depth)
        ] + [int(rng.integers(1, 4))]
        activation = "tanh" if trial % 2 == 0 else "identity"
        net = nets.init_network(sizes, seed=trial, output_activation=activation)
        x = rng.normal(size=sizes[0])
        w = rng.normal(size=sizes[-1])
        _, tape = nets.forward(net, x[None, :])
        analytic, _ = nets.backward(net, tape, w[None, :])

        eps = 1e-6
        p = net.flat
        f = np.zeros_like(p)
        for i in range(p.size):
            orig = p[i]
            p[i] = orig + eps
            up = float(w @ nets.forward(net, x[None, :])[0][0])
            p[i] = orig - eps
            dn = float(w @ nets.forward(net, x[None, :])[0][0])
            p[i] = orig
            f[i] = (up - dn) / (2 * eps)

        rel = np.linalg.norm(analytic - f) / max(np.linalg.norm(f), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
    assert time.perf_counter() - start < 10.0


# -- 2. rate-formula oracle (1e-9 relative, < 5 s) ----------------------------


def test_rates_match_scalar_oracle_on_100_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        cfg = CellConfig(
            num_rbs=int(rng.integers(1, 9)),
            num_ues=int(rng.integers(1, 6)),
            num_neighbors=int(rng.integers(0, 4)),
            cell_radius_m=float(rng.uniform(50, 500)),
            neighbor_occupancy=float(rng.uniform(0, 1)),
        )
        snap = cell.reset(cfg, rng)
        ch = cell.sample_channel(snap, cfg, rng)
        alloc = decode_action(rng.uniform(-1, 1, size=2 * cfg.num_ues), cfg)
        rates = cell.compute_rates(alloc, ch, snap, cfg)

        nb = cfg.neighbor_positions()
        eta = cfg.path_loss_exp
        for u in range(cfg.num_ues):
            d = max(np.hypot(*snap.ue_positions[u]), cell.MIN_DISTANCE)
            total = 0.0
            for k in range(cfg.num_rbs):
                interf = 0.0
                for m in range(cfg.num_neighbors):
                    dn = max(
                        np.hypot(*(snap.ue_positions[u] - nb[m])), cell.MIN_DISTANCE
                    )
                    interf += (
                        ch.neighbor_power[m, k] * dn ** (-eta) * ch.neighbor_gain[m, u, k]
                    )
                sinr = (
                    alloc.per_rb_power[k] * d ** (-eta) * ch.gain[u, k]
                    / (interf + cfg.noise_rb_mw)
                )
                total += cfg.rb_bandwidth * alloc.rb_indicator[u, k] * np.log2(1 + sinr)
            assert rates[u] == pytest.approx(total, rel=1e-9)
    assert time.perf_counter() - start < 5.0


# -- 3. constraint enforcement on 10^4 decodes (< 5 s) ------------------------


def _assert_owner_vector(owner, cfg):
    assert owner.shape == (cfg.num_rbs,)
    assert owner.dtype.kind == "i"
    assert ((owner >= -1) & (owner < cfg.num_ues)).all()


def test_decoded_allocations_always_feasible():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    configs = [
        CellConfig(num_rbs=k, num_ues=n, cell_radius_m=100.0)
        for k, n in ((4, 1), (8, 3), (12, 5), (60, 30))
    ]
    for cfg in configs:
        _assert_owner_vector(mdp.zero_allocation(cfg).rb_owner, cfg)
    for i in range(10_000):
        cfg = configs[i % len(configs)]
        raw = rng.uniform(-1.5, 1.5, size=2 * cfg.num_ues)
        idle = rng.uniform(size=cfg.num_ues) < 0.3 if i % 3 == 0 else None
        a = decode_action(raw, cfg, idle_mask=idle)
        _assert_owner_vector(a.rb_owner, cfg)
        e = a.rb_indicator
        assert e.sum() <= cfg.num_rbs
        assert (e.sum(axis=0) <= 1).all()
        assigned = e.sum(axis=0) > 0
        assert (a.per_rb_power[assigned] >= cfg.p_min - 1e-12).all()
        assert (a.per_rb_power[assigned] <= cfg.p_max + 1e-12).all()
        assert (a.per_rb_power[~assigned] == 0).all()
    assert time.perf_counter() - start < 5.0


# -- 4. reward contract on 10^5 inputs (< 5 s) --------------------------------


def _fake_qos(task, min_rate, active_any):
    n = task.cell_config.num_ues
    return mdp.qos_stats(np.full(n, min_rate), np.full(n, active_any, dtype=bool), task)


def test_reward_contract():
    start = time.perf_counter()
    cfg = CellConfig(num_rbs=8, num_ues=3, cell_radius_m=100.0)
    task = TaskSpec(demand_min=1e6, demand_max=10e6, cell_config=cfg)
    rng = np.random.default_rng(3)

    # Pool of decoded allocations reused across reward evaluations.
    pool = [decode_action(rng.uniform(-1, 1, size=6), cfg) for _ in range(512)]
    min_rates = rng.uniform(0, 3 * task.demand_max, size=100_000)
    actives = rng.uniform(size=100_000) < 0.9
    for i in range(100_000):
        r = mdp.compute_reward(
            _fake_qos(task, float(min_rates[i]), bool(actives[i])),
            mdp.compute_penalties(pool[i % 512], cfg),
            task,
        )
        assert -2.0 < r < 1.0

    # Exact anchor: Q_m at the demand floor with zero penalties.
    empty = mdp.compute_penalties(mdp.zero_allocation(cfg), cfg)
    r0 = mdp.compute_reward(_fake_qos(task, task.demand_min, True), empty, task)
    assert r0 == pytest.approx(-0.5, abs=1e-12)

    # Monotonicity: more min-rate helps; requesting beyond K hurts.
    lo = mdp.compute_reward(_fake_qos(task, 2e6, True), empty, task)
    hi = mdp.compute_reward(_fake_qos(task, 9e6, True), empty, task)
    assert hi > lo
    modest = decode_action(np.array([0.0, 0.0, -1.0, -1.0, -1.0, -1.0]), cfg)
    greedy = decode_action(np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]), cfg)
    rep = _fake_qos(task, 5e6, True)
    assert (mdp.compute_reward(rep, mdp.compute_penalties(greedy, cfg), task)
            < mdp.compute_reward(rep, mdp.compute_penalties(modest, cfg), task))
    assert time.perf_counter() - start < 5.0


# -- 5. Adam oracle (1e-12, < 1 s) --------------------------------------------


def test_adam_scalar_step_matches_hand_formula():
    start = time.perf_counter()
    p = np.array([0.0])
    state = nets.init_adam(p, lr=1e-4)
    nets.adam_step(p, np.array([1.0]), state)
    # t=1: m_hat = v_hat = 1, so the step is exactly lr / (1 + epsilon).
    assert abs(p[0] - (-1e-4 / (1.0 + 1e-8))) < 1e-12
    assert time.perf_counter() - start < 1.0


# -- 6. determinism: byte-identical CSVs (< 2 min) ----------------------------


def test_toy_profile_runs_are_byte_identical(tmp_path):
    # Same configuration as the toy profile, scaled down (fewer outer
    # iterations, one seed) to fit the runtime budget; determinism does not
    # depend on scale.
    start = time.perf_counter()
    logs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = dataclasses.replace(
            harness.default_config("toy", out_dir=str(out)),
            schedule=harness.ScheduleBlock(
                outer_iters=40, eval_episodes=1,
                meta_actor_lr=3e-4, meta_critic_lr=3e-3,
            ),
            seeds=(0,),
            donor_budget=20,
        )
        logs.append(harness.run_experiment(cfg, mode="all"))
    files_a = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    files_b = sorted(p.name for p in (tmp_path / "b").glob("*.csv"))
    assert files_a == files_b and files_a
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert time.perf_counter() - start < 120.0


# -- 7. DDPG sanity on a stationary toy task (< 10 min) -----------------------


@pytest.mark.slow
def test_ddpg_learns_on_stationary_single_ue_task(stationary_env):
    start = time.perf_counter()
    cfg = CellConfig(num_rbs=4, num_ues=1, cell_radius_m=60.0, num_neighbors=0)
    task = TaskSpec(demand_min=15e6, demand_max=25e6, cell_config=cfg)
    hyper = Hyper(
        gamma=0.9, lr=2e-4, batch_size=64, buffer_capacity=10_000,
        horizon=30, hidden_sizes=(32, 32), noise_std=0.4, noise_decay=0.999,
        noise_floor=0.15, warmup_transitions=1500,
    )
    episodes = 500
    passes = 0
    for seed in range(5):
        agent = DdpgAgent(5, 2, hyper, derive_rng(seed, "agent"))
        env = stationary_env(task, derive_rng(seed, "env"))
        eval_env = stationary_env(task, derive_rng(seed, "eval"))
        evals = []
        for _ in range(episodes):
            run_episode(agent, env, train=True)
            ret, _ = run_episode(agent, eval_env, train=False)
            evals.append(ret)
        evals = np.array(evals)
        head = evals[: episodes // 10].mean()
        tail = evals[-episodes // 10 :].mean()
        spread = evals.max() - evals.min()
        if tail >= head + 0.2 * spread:
            passes += 1
        print(f"ddpg-sanity seed {seed}: first10% {head:.3f} last10% {tail:.3f} "
              f"range {spread:.3f} {'pass' if tail >= head + 0.2 * spread else 'fail'}")
    assert passes >= 4, f"learning visible in only {passes}/5 seeds"
    assert time.perf_counter() - start < 600.0


# -- 8. meta-adaptation beats scratch on the toy profile (< 30 min) -----------


@pytest.mark.slow
def test_meta_adaptation_beats_scratch_on_toy_profile(tmp_path):
    start = time.perf_counter()
    cfg = dataclasses.replace(harness.default_config("toy"), out_dir=str(tmp_path))
    assert cfg.meta_schedule().adapt_budget == 20  # 10% of the toy profile's outer iterations
    runs = {**harness.run_experiment(cfg, mode="meta").runs,
            **harness.run_experiment(cfg, mode="scratch").runs}

    wins = 0
    gains = []
    for seed in cfg.seeds:
        m, s = (harness.final_return([row[1] for row in runs[method, seed]])
                for method in ("meta", "scratch"))
        wins += m >= s
        gains.append(harness.relative_gain(m, s))
        print(f"meta-vs-scratch seed {seed}: meta {m:.3f} scratch {s:.3f} "
              f"gain {gains[-1] * 100:+.1f}% {'win' if m >= s else 'loss'}")
    # The evaluation-scale study reports gains up to 19.8%; the toy-profile
    # figure below is reported for context, not asserted against that value.
    print(f"mean relative gain at toy scale: {np.mean(gains) * 100:+.1f}% "
          f"(reference figure at evaluation scale: +19.8%)")
    assert wins >= 4, f"meta initialization won in only {wins}/5 seeds"
    assert time.perf_counter() - start < 1800.0


# -- 9. structural checks on the meta loop (< 1 min) --------------------------


def _tiny_meta_setup():
    cfg = CellConfig(num_rbs=4, num_ues=2, num_neighbors=1, cell_radius_m=100.0)
    task = TaskSpec(demand_min=1e5, demand_max=1e6, cell_config=cfg, task_id=0)
    hyper = Hyper(
        gamma=0.9, lr=1e-3, batch_size=8, buffer_capacity=256,
        horizon=6, hidden_sizes=(8,), noise_std=0.3,
    )
    return task, hyper


def test_structural_properties_of_meta_loop():
    start = time.perf_counter()
    task, hyper = _tiny_meta_setup()

    # (a) Zero-budget adaptation hands back the meta parameters unchanged.
    model = meta.random_init_model(task, hyper, seed=0)
    agent, trace = meta.inner_adapt(model, task, budget=0, hyper=hyper, seed=0)
    assert trace == []
    assert np.array_equal(agent.actor.flat, model.actor_vec)
    assert np.array_equal(agent.critic.flat, model.critic_vec)

    # (b) The learner starts every outer iteration at the meta parameters.
    def hook(it, m, learner):
        assert np.array_equal(learner.actor.flat, m.actor_vec)
        assert np.array_equal(learner.critic.flat, m.critic_vec)

    schedule = meta.MetaSchedule(outer_iters=3, eval_episodes=3, num_tasks=1)
    meta.meta_train([task], schedule, hyper, seed=1, on_outer_start=hook)

    # (c) With a single task, one outer iteration is exactly one Adam step on
    # that task's query gradient. Replay the loop by hand on the same streams.
    one = meta.MetaSchedule(outer_iters=1, eval_episodes=3, num_tasks=1)
    trained = meta.meta_train([task], one, hyper, seed=2)

    from metaran.seeding import derive_seed

    ref = meta.init_meta_model(
        agent.obs_dim, agent.act_dim, hyper, derive_seed(2, "meta-init")
    )
    ref.actor_opt = nets.init_adam(ref.actor_vec, lr=hyper.effective_actor_lr)
    ref.critic_opt = nets.init_adam(ref.critic_vec, lr=hyper.lr)
    env = TaskEnv(task, derive_rng(2, "meta-train", "env", task.task_id))
    by_hand = DdpgAgent(
        agent.obs_dim, agent.act_dim, hyper,
        derive_rng(2, "meta-train", "agent", task.task_id),
    )
    by_hand.load_vectors(ref.actor_vec, ref.critic_vec)
    for _ in range(one.eval_episodes):
        run_episode(by_hand, env, train=True)
    qrng = derive_rng(2, "meta-train", "query", task.task_id)
    ga, gc = meta.query_gradients(by_hand, qrng)
    nets.adam_step(ref.actor_vec, ga, ref.actor_opt)
    nets.adam_step(ref.critic_vec, gc, ref.critic_opt)
    assert np.array_equal(trained.actor_vec, ref.actor_vec)
    assert np.array_equal(trained.critic_vec, ref.critic_vec)

    assert time.perf_counter() - start < 60.0


# -- 10. summary statistics (< 1 s) ------------------------------------------


def test_cdf_and_gain_fixtures():
    start = time.perf_counter()
    assert harness.five_number_summary([5, 1, 4, 2, 3]) == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert harness.relative_gain(1.198, 1.0) == pytest.approx(0.198)
    assert time.perf_counter() - start < 1.0
