"""Episode loop glue: a gym-style environment for one task.

Per-step ordering: mobility -> traffic -> channel draw -> action decode ->
rates -> reward. The observation handed to the agent therefore reflects the
world after this step's dynamics and the agent's own last action.
"""

from dataclasses import replace

import numpy as np

from . import cell, mdp
from .mdp import TaskSpec


class TaskEnv:
    """Single-task environment; all randomness comes from the given rng."""

    def __init__(
        self,
        task: TaskSpec,
        rng: np.random.Generator,
        dt: float = 1.0,
        stationary: bool = False,
    ):
        """stationary=True freezes mobility and traffic (every UE active at a
        fixed position); only fading varies. Used by sanity-check tasks."""
        self.task = task
        self.config = task.cell_config
        self.rng = rng
        self.dt = dt
        self.stationary = stationary
        self.snapshot = None
        self.prev_alloc = None
        self.last_report = None

    @property
    def observation_dim(self) -> int:
        return mdp.observation_dim(self.config.num_ues)

    @property
    def action_dim(self) -> int:
        return mdp.action_dim(self.config.num_ues)

    def reset(self, seed=None) -> np.ndarray:
        """Start a fresh episode; returns the initial observation vector."""
        self.snapshot = cell.reset(self.config, seed if seed is not None else self.rng)
        if self.stationary:
            levels = np.full(self.config.num_ues, 2)  # all UEs at "mid"
            self.snapshot = replace(self.snapshot, traffic_levels=levels)
        self.prev_alloc = mdp.zero_allocation(self.config)
        ch = cell.sample_channel(self.snapshot, self.config, self.rng)
        self.last_report = cell.compute_rates(
            self.prev_alloc, ch, self.snapshot, self.config
        )
        qos = mdp.qos_stats(self.last_report, self.task)
        return mdp.encode_state(qos, self.prev_alloc, self.task)

    def step(self, raw_action: np.ndarray):
        """Apply one raw actor output; returns (obs, reward, info)."""
        if self.stationary:
            s = self.snapshot
        else:
            s = cell.step_mobility(self.snapshot, self.config, self.dt, self.rng)
            s = cell.step_traffic(s, self.rng)
        ch = cell.sample_channel(s, self.config, self.rng)
        idle = ~s.active_mask
        alloc = mdp.decode_action(raw_action, self.config, idle_mask=idle)
        report = cell.compute_rates(alloc, ch, s, self.config)
        qos = mdp.qos_stats(report, self.task)
        penalties = mdp.compute_penalties(alloc, self.config)
        reward = mdp.compute_reward(qos, penalties, self.task)
        state = mdp.encode_state(qos, alloc, self.task)

        self.snapshot = s
        self.prev_alloc = alloc
        self.last_report = report

        p_c, k_r = penalties
        info = {**mdp.qos_info(qos), "power_penalty": p_c, "rb_penalty": k_r}
        return state, reward, info
