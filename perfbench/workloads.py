"""The benchmark's workloads, each a closed loop in one process.

A workload object is its set-up: it is built from the workload seed alone.
`run_pass()` runs one pass of the workload from that seed and returns its
timings and output digest; every pass of one object is the same work on the
same inputs, so equal digests across passes show the run is repeatable.
Correctness checks run outside the timed intervals.

Calls into metaran go through module and class attributes (`meta.meta_train`,
`agent.select_action`) so that the span wrappers of tracer.py see them.
"""

import csv
import dataclasses
import hashlib
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

from metaran import ddpg, harness, mdp, meta
from metaran.ddpg import DdpgAgent, Transition
from metaran.episode import TaskEnv
from metaran.seeding import derive_rng, derive_seed

# toy-meta: the toy profile cut to 40 outer iterations (the toy profile runs
# 200). With 600 warm-up transitions at 40 steps per iteration, iterations
# 16..40 update on every step, so most of the pass is past the warm-up.
TOY_OUTER_ITERS = 40
# paper-learn: the paper profile's six donor cells and network sizes, one
# 16-step episode per task per outer iteration. Each agent needs 256
# transitions (2 x batch) before its first update, reached in iteration 16;
# iterations 17..22 then update on every step, 96 paper-size updates each,
# so the learner outweighs the env-only warm-up about ten to one.
LEARN_OUTER_ITERS = 22
LEARN_HORIZON = 16
# paper-serve: greedy episodes of the paper horizon (200 decisions) per pass.
SERVE_EPISODES = 2
# Full paper-profile meta-training: outer x tasks x episodes x horizon steps.
PAPER_SEED_STEPS = 100 * 6 * 10 * 200


@dataclasses.dataclass
class PassResult:
    wall_s: float
    iter_s: list  # latency samples of the workload's iteration
    digest: str
    checks: list  # (name, ok, detail)
    extra: dict = dataclasses.field(default_factory=dict)


def _check(checks, name, ok, detail=""):
    checks.append((name, bool(ok), detail))


def first_full_iteration(hyper, schedule):
    """First outer iteration (1-based) in which every step runs an update."""
    threshold = max(hyper.warmup_transitions, 2 * hyper.batch_size)
    per_iter = schedule.eval_episodes * hyper.horizon
    return math.ceil((threshold - 1) / per_iter) + 1


def _iteration_times(marks, first):
    """Durations of outer iterations first..T from hook times plus the end."""
    return [marks[k] - marks[k - 1] for k in range(first, len(marks))]


def dims(task):
    n = task.cell_config.num_ues
    return mdp.observation_dim(n), mdp.action_dim(n)


def warm_up(task, hyper, seed):
    """Untimed: run the acting and learning paths once at the workload's
    sizes, from streams of their own, so lazy set-up is done before timing."""
    obs_dim, act_dim = dims(task)
    agent = DdpgAgent(obs_dim, act_dim, hyper, derive_rng(seed, "perfbench", "warm-up"))
    env = TaskEnv(task, derive_rng(seed, "perfbench", "warm-up-env"))
    state = env.reset()
    for _ in range(2 * hyper.batch_size):
        action = agent.select_action(state, explore=True)
        next_state, reward, _ = env.step(action)
        agent.buffer.add(Transition(state, action, reward, next_state))
        state = next_state
    for _ in range(3):
        agent.train_step(ddpg.sample_batch(agent.buffer, hyper.batch_size, "support", agent.rng))


class CountModel:
    """Expected calls of the traced functions in one pass, from the schedule
    alone. It follows the control flow of ddpg.run_episode,
    meta.query_gradients, meta.meta_train and meta.inner_adapt."""

    def __init__(self, hyper):
        self.hyper = hyper
        self.c = Counter()

    def _sample(self, buffer_len, ready_name):
        self.c["ddpg.sample_batch"] += 1
        ready = buffer_len >= 2 * self.hyper.batch_size
        self.c[ready_name] += ready
        return ready

    def episode(self, buffer_len, train):
        h, c = self.hyper, self.c
        c["ddpg.run_episode"] += 1
        c["episode.TaskEnv.reset"] += 1
        for _ in range(h.horizon):
            c["ddpg.DdpgAgent.select_action"] += 1
            c["episode.TaskEnv.step"] += 1
            if train:
                c["ddpg.ReplayBuffer.add"] += 1
                buffer_len = min(buffer_len + 1, h.buffer_capacity)
                if buffer_len >= h.warmup_transitions:
                    self._sample(buffer_len, "ddpg.DdpgAgent.train_step")
        return buffer_len

    def meta_train(self, num_tasks, schedule):
        c = self.c
        c["meta.meta_train"] += 1
        c["nets.params_as_vector"] += 2  # init_meta_model
        lens = [0] * num_tasks
        for _ in range(schedule.outer_iters):
            c["meta.outer_iter"] += 1
            c["ddpg.DdpgAgent.load_vectors"] += num_tasks
            ready = False
            for i in range(num_tasks):
                for _ in range(schedule.eval_episodes):
                    lens[i] = self.episode(lens[i], train=True)
                c["meta.query_gradients"] += 1
                ready |= self._sample(lens[i], "query.ready")
            c["meta.apply_meta_update"] += 1
            c["meta_adam_updates"] += ready

    def inner_adapt(self, budget, eval_episodes=3):
        self.c["meta.inner_adapt"] += 1
        self.c["ddpg.DdpgAgent.load_vectors"] += 1
        buffer_len = 0
        for _ in range(budget):
            buffer_len = self.episode(buffer_len, train=True)
            for _ in range(eval_episodes):
                self.episode(0, train=False)

    def expected(self):
        c = Counter(self.c)
        steps, resets = c["episode.TaskEnv.step"], c["episode.TaskEnv.reset"]
        train = c["ddpg.DdpgAgent.train_step"]
        grads = train + c["query.ready"]
        c["cell.step_mobility"] = c["cell.step_traffic"] = steps
        c["cell.sample_channel"] = c["cell.compute_rates"] = steps + resets
        c["mdp.decode_action"] = c["mdp.compute_reward"] = steps
        c["mdp.encode_state"] = steps + resets
        c["mdp.compute_penalties"] = 2 * steps  # compute_reward and TaskEnv.step
        c["ddpg.DdpgAgent.critic_gradients"] = c["ddpg.DdpgAgent.actor_gradients"] = grads
        # select_action: 1 forward; critic_gradients: 3 forwards, 1 backward;
        # actor_gradients: 2 forwards, 2 backwards.
        c["nets.forward"] = c["ddpg.DdpgAgent.select_action"] + 5 * grads
        c["nets.backward"] = 3 * grads
        c["nets.soft_update"] = 2 * train
        c["nets.adam_step"] = 2 * train + 2 * c["meta_adam_updates"]
        c["nets.set_params_from_vector"] = 2 * c["ddpg.DdpgAgent.load_vectors"]
        return c


class ToyMeta:
    """The toy profile, one seed, as run_experiment runs modes meta then
    scratch: meta_train, save_meta_model, meta_adapt_new on the held-out
    cell, the scratch baseline, then write_csvs."""

    name = "toy-meta"
    iter_label = "outer_iter"
    tail_pct = 95
    trains = True
    # Counts a correct pass must reproduce exactly in the traced run.
    gated_counts = ("episode.TaskEnv.step", "episode.TaskEnv.reset",
                    "ddpg.DdpgAgent.select_action", "ddpg.DdpgAgent.train_step",
                    "meta.outer_iter")

    def __init__(self, seed, out_dir):
        cfg = harness.default_config("toy")
        cfg = dataclasses.replace(
            cfg, schedule=dataclasses.replace(cfg.schedule, outer_iters=TOY_OUTER_ITERS)
        )
        self.seed = seed
        self.donors = cfg.donor_task_specs()
        self.new_task = cfg.new_task_spec()
        self.schedule = cfg.meta_schedule()
        self.hyper = cfg.hyper()
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.model_path = self.out / f"meta_model_seed{seed}.npz"
        self.first_full = first_full_iteration(self.hyper, self.schedule)
        model = CountModel(self.hyper)
        model.meta_train(len(self.donors), self.schedule)
        model.inner_adapt(self.schedule.adapt_budget)  # meta adaptation
        model.c["nets.params_as_vector"] += 2  # scratch: random_init_model
        model.inner_adapt(self.schedule.adapt_budget)  # scratch baseline
        model.c["meta.save_meta_model"] += 1
        model.c["harness.MetricsLog.write_csvs"] += 1
        self.counts = model.expected()

    def warm_up(self):
        warm_up(self.new_task, self.hyper, self.seed)

    def run_pass(self):
        h, s, seed = self.hyper, self.schedule, self.seed
        marks = []
        log = harness.MetricsLog()
        start = time.perf_counter()
        model = meta.meta_train(
            self.donors, s, h, seed,
            on_outer_start=lambda it, m, agents: marks.append(time.perf_counter()),
        )
        marks.append(time.perf_counter())
        meta.save_meta_model(self.model_path, model)
        adapt_start = time.perf_counter()
        _, trace = meta.meta_adapt_new(model, self.new_task, s, h, seed)
        adapt_s = time.perf_counter() - adapt_start
        _record(log, "meta", self.new_task.task_id, seed, trace)
        _, trace = meta.run_baseline("scratch", self.new_task, self.donors,
                                     s.adapt_budget, h, seed)
        _record(log, "scratch", self.new_task.task_id, seed, trace)
        written = log.write_csvs(self.out)
        wall = time.perf_counter() - start

        checks = []
        digest = hashlib.sha256()
        for path in sorted(written):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        names = sorted(p.name for p in written)
        _check(checks, "csv_files", names == [f"meta_seed{seed}.csv", f"scratch_seed{seed}.csv"],
               str(names))
        bound = 2.0 * sum(h.gamma**t for t in range(h.horizon))
        for path in written:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            values = [float(r[k]) for r in rows for k in ("return", "q_avg", "q_min", "q_max")]
            ok = (
                [int(r["episode"]) for r in rows] == list(range(1, s.adapt_budget + 1))
                and all(math.isfinite(v) for v in values)
                and all(abs(float(r["return"])) < bound for r in rows)
                and all(float(r[k]) >= 0 for r in rows for k in ("q_avg", "q_min", "q_max"))
            )
            _check(checks, f"csv_rows:{path.name}", ok)
        loaded = meta.load_meta_model(self.model_path)
        _check(checks, "checkpoint_roundtrip",
               np.array_equal(loaded.actor_vec, model.actor_vec)
               and np.array_equal(loaded.critic_vec, model.critic_vec))
        return PassResult(
            wall_s=wall,
            iter_s=_iteration_times(marks, self.first_full),
            digest=digest.hexdigest(),
            checks=checks,
            extra={"adapt_s": adapt_s},
        )


def _record(log, method, task_id, seed, trace):
    for e in trace:
        log.add(method, task_id, seed, e["shot"], e["episode_return"],
                e["q_avg"], e["q_min"], e["q_max"])


class PaperLearn:
    """meta_train on the paper profile's six donor cells (N=30,
    K in {60, 80, 100}, hidden 300/400/400, B=128), shortened schedule."""

    name = "paper-learn"
    iter_label = "outer_iter"
    tail_pct = 95
    trains = True
    gated_counts = ToyMeta.gated_counts

    def __init__(self, seed, out_dir):
        cfg = harness.default_config("paper")
        self.seed = seed
        self.tasks = cfg.donor_task_specs()
        self.hyper = dataclasses.replace(cfg.hyper(), horizon=LEARN_HORIZON)
        self.schedule = dataclasses.replace(
            cfg.meta_schedule(), outer_iters=LEARN_OUTER_ITERS, eval_episodes=1
        )
        self.first_full = first_full_iteration(self.hyper, self.schedule)
        model = CountModel(self.hyper)
        model.meta_train(len(self.tasks), self.schedule)
        self.counts = model.expected()

    def warm_up(self):
        warm_up(self.tasks[0], self.hyper, self.seed)

    def run_pass(self):
        marks = []
        start = time.perf_counter()
        model = meta.meta_train(
            self.tasks, self.schedule, self.hyper, self.seed,
            on_outer_start=lambda it, m, agents: marks.append(time.perf_counter()),
        )
        marks.append(time.perf_counter())
        wall = time.perf_counter() - start

        checks = []
        _check(checks, "meta_params_finite",
               np.isfinite(model.actor_vec).all() and np.isfinite(model.critic_vec).all())
        updates = self.counts["meta_adam_updates"]
        _check(checks, "meta_update_count",
               model.actor_opt.step_count == updates == model.critic_opt.step_count,
               f"{model.actor_opt.step_count} vs {updates}")
        digest = hashlib.sha256(model.actor_vec.tobytes() + model.critic_vec.tobytes())
        return PassResult(
            wall_s=wall,
            iter_s=_iteration_times(marks, self.first_full),
            digest=digest.hexdigest(),
            checks=checks,
        )


def owner_vector(alloc, num_ues, num_rbs):
    """(K,) owning UE of each RB, -1 where unassigned, or None when the
    allocation is not a valid assignment. Accepts an allocation that carries
    the owner vector itself (`rb_owner`) or the N x K indicator."""
    owner = getattr(alloc, "rb_owner", None)
    if owner is None:
        e = np.asarray(alloc.rb_indicator)
        if e.shape != (num_ues, num_rbs) or not np.isin(e, (0, 1)).all():
            return None
        if (e.sum(axis=0) > 1).any():  # an RB with two owners
            return None
        owner = np.where(e.any(axis=0), e.argmax(axis=0), -1)
    owner = np.asarray(owner, dtype=np.int64)
    if owner.shape != (num_rbs,) or (owner < -1).any() or (owner >= num_ues).any():
        return None
    return owner


class PaperServe:
    """Greedy decisions at paper cell size (N=30, K=80, the new task) with a
    seeded, untrained paper-size actor loaded via DdpgAgent.load_vectors.
    One decision is select_action(explore=False) then TaskEnv.step, in the
    order run_episode uses."""

    name = "paper-serve"
    iter_label = "decision"
    tail_pct = 99
    trains = False
    gated_counts = ("episode.TaskEnv.step", "episode.TaskEnv.reset",
                    "ddpg.DdpgAgent.select_action", "nets.backward", "nets.adam_step")

    def __init__(self, seed, out_dir):
        cfg = harness.default_config("paper")
        self.seed = seed
        self.task = cfg.new_task_spec()
        self.hyper = cfg.hyper()
        obs_dim, act_dim = dims(self.task)
        init = meta.init_meta_model(obs_dim, act_dim, self.hyper,
                                    derive_seed(seed, "perfbench", "serve-actor"))
        self.agent = DdpgAgent(obs_dim, act_dim, self.hyper,
                               derive_rng(seed, "perfbench", "serve-agent"))
        self.agent.load_vectors(init.actor_vec, init.critic_vec)
        model = CountModel(self.hyper)
        for _ in range(SERVE_EPISODES):
            model.episode(0, train=False)
        self.counts = model.expected()

    def warm_up(self):
        self.run_pass()

    def run_pass(self):
        cfg = self.task.cell_config
        agent = self.agent
        env = TaskEnv(self.task, derive_rng(self.seed, "perfbench", "serve-env"))
        latencies, wall = [], 0.0
        digest = hashlib.sha256()
        infeasible = bad_rewards = 0
        for _ in range(SERVE_EPISODES):
            stream = []
            start = time.perf_counter()
            state = env.reset()
            for _ in range(self.hyper.horizon):
                t0 = time.perf_counter()
                action = agent.select_action(state, explore=False)
                state, reward, _ = env.step(action)
                latencies.append(time.perf_counter() - t0)
                stream.append((reward, env.prev_alloc))
            wall += time.perf_counter() - start
            for reward, alloc in stream:
                owner = owner_vector(alloc, cfg.num_ues, cfg.num_rbs)
                power = np.asarray(alloc.per_rb_power, dtype=float)
                if owner is None:
                    infeasible += 1
                    continue
                on = power[owner >= 0]
                # p_min + (p_max - p_min) can land one rounding step past p_max
                if ((on < cfg.p_min * (1 - 1e-12)).any() or (on > cfg.p_max * (1 + 1e-12)).any()
                        or (power[owner < 0] != 0.0).any()):
                    infeasible += 1
                if not (-2.0 < reward < 1.0):
                    bad_rewards += 1
                digest.update(owner.tobytes() + power.tobytes()
                              + np.float64(reward).tobytes())
        decisions = len(latencies)
        checks = []
        _check(checks, "allocations_feasible", infeasible == 0,
               f"{infeasible} of {decisions} infeasible")
        _check(checks, "rewards_in_bounds", bad_rewards == 0,
               f"{bad_rewards} of {decisions} outside (-2, 1)")
        return PassResult(
            wall_s=wall,
            iter_s=latencies,
            digest=digest.hexdigest(),
            checks=checks,
            extra={"decision_s": sum(latencies)},
        )


WORKLOADS = {w.name: w for w in (ToyMeta, PaperLearn, PaperServe)}
