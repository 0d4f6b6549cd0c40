"""Episode loop glue: a gym-style environment for one task.

Per-step ordering: action check -> mobility -> traffic -> channel draw ->
action decode -> rates -> QoS stats -> penalties -> reward -> observation.
The observation handed to the agent therefore reflects the world after this
step's dynamics and the agent's own last action.

The step computes rates with `cell._rates`, which skips the post-hoc
allocation check of the public `cell.compute_rates`: `mdp.decode_action`
builds a feasible allocation by construction (one owner per RB, powers in
[p_min, p_max], idle UEs and unassigned RBs at zero). `reset` keeps the
checked path.
"""

from dataclasses import replace

import numpy as np

from . import cell, mdp
from .errors import ContractViolation
from .mdp import TaskSpec


class TaskEnv:
    """Single-task environment; all randomness comes from the given rng."""

    def __init__(self, task: TaskSpec, rng: np.random.Generator, stationary: bool = False):
        """stationary=True freezes mobility and traffic (every UE active at a
        fixed position); only fading varies. Used by sanity-check tasks."""
        self.task = task
        self.config = task.cell_config
        self.rng = rng
        self.stationary = stationary
        self.snapshot = None
        self.prev_alloc = None

    def reset(self) -> np.ndarray:
        """Start a fresh episode; returns the initial observation vector."""
        self.snapshot = cell.reset(self.config, self.rng)
        if self.stationary:
            levels = np.full(self.config.num_ues, 2)  # all UEs at "mid"
            self.snapshot = replace(self.snapshot, traffic_levels=levels)
        self.prev_alloc = mdp.zero_allocation(self.config)
        ch = cell.sample_channel(self.snapshot, self.config, self.rng)
        report = cell.compute_rates(self.prev_alloc, ch, self.snapshot, self.config)
        qos = mdp.qos_stats(report, self.task)
        return mdp.encode_state(qos, self.prev_alloc, self.task)

    def step(self, raw_action: np.ndarray):
        """Apply one raw actor output; returns (obs, reward, info).

        A bad action raises before any draw, so it leaves the env as it was."""
        if self.snapshot is None:
            raise ContractViolation("call reset() before step()")
        raw_action = mdp.check_action(raw_action, self.config.num_ues)
        if self.stationary:
            s = self.snapshot
        else:
            s = cell.step_mobility(self.snapshot, self.config, 1.0, self.rng)  # 1 s steps
            s = cell.step_traffic(s, self.rng)
        ch = cell.sample_channel(s, self.config, self.rng)
        idle = ~s.active_mask
        alloc = mdp.decode_action(raw_action, self.config, idle_mask=idle)
        report = cell._rates(alloc, ch, s, self.config)  # feasible by construction
        qos = mdp.qos_stats(report, self.task)
        penalties = mdp.compute_penalties(alloc, self.config)
        reward = mdp.compute_reward(qos, penalties, self.task)
        state = mdp.encode_state(qos, alloc, self.task)

        self.snapshot = s
        self.prev_alloc = alloc

        p_c, k_r = penalties
        info = {**mdp.qos_info(qos), "power_penalty": p_c, "rb_penalty": k_r}
        return state, reward, info
