"""Episode loop glue: a gym-style environment for one task.

Per-step ordering: action check -> mobility -> traffic -> channel draw ->
action decode -> rates -> QoS stats -> penalties -> reward -> observation.
The observation handed to the agent therefore reflects the world after this
step's dynamics and the agent's own last action.
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
        rates = cell.compute_rates(self.prev_alloc, ch, self.snapshot, self.config)
        qos = mdp.qos_stats(rates, self.snapshot.active_mask, self.task)
        return mdp.encode_state(qos, self.prev_alloc, self.task)

    def step(self, raw_action: np.ndarray):
        """Apply one raw actor output; returns (obs, reward, qos), qos being
        the step's (q_avg, q_min, q_max) vector from mdp.qos_stats.

        A bad action raises before any draw, so it leaves the env as it was."""
        if self.snapshot is None:
            raise ContractViolation("call reset() before step()")
        raw_action = mdp.check_action(raw_action, self.config.num_ues)
        if self.stationary:
            s = self.snapshot
        else:
            s = cell.step_mobility(self.snapshot, self.config, self.rng)
            s = cell.step_traffic(s, self.rng)
        ch = cell.sample_channel(s, self.config, self.rng)
        active = s.active_mask
        alloc = mdp.decode_action(raw_action, self.config, idle_mask=~active)
        rates = cell.compute_rates(alloc, ch, s, self.config)
        qos = mdp.qos_stats(rates, active, self.task)
        penalties = mdp.compute_penalties(alloc, self.config)
        reward = mdp.compute_reward(qos, penalties, self.task)
        state = mdp.encode_state(qos, alloc, self.task)

        self.snapshot = s
        self.prev_alloc = alloc
        return state, reward, qos
