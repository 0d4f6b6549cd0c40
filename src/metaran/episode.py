"""Episode loop glue: a gym-style environment for one task, in two halves.

The world stream (`TaskEnv.start`, `TaskEnv.advance`) makes every draw, in
the order mobility -> traffic -> channel. `score` draws nothing: on one world
draw it maps a checked action to decode -> rates -> QoS stats -> penalties ->
reward -> observation, so many actions can be scored on one draw. `step` is
the action check, `advance`, then `score`: the observation reflects the world
after this step's dynamics and the agent's own last action.
"""

import numpy as np

from . import cell, mdp
from .errors import ContractViolation
from .mdp import TaskSpec


def score(raw_action, snapshot, channel, task):
    """Score one checked raw action (see mdp.check_action) on one world draw;
    returns (allocation, obs, reward, qos) and draws nothing."""
    config = task.cell_config
    active = snapshot.active_mask
    alloc = mdp.decode_action(raw_action, config, idle_mask=~active)
    rates = cell.compute_rates(alloc, channel, snapshot, config)
    qos = mdp.qos_stats(rates, active, task)
    reward = mdp.compute_reward(qos, mdp.compute_penalties(alloc, config), task)
    return alloc, mdp.encode_state(qos, alloc, task), reward, qos


class TaskEnv:
    """Single-task environment; all randomness comes from the given rng."""

    def __init__(self, task: TaskSpec, rng: np.random.Generator):
        self.task = task
        self.config = task.cell_config
        self.rng = rng
        self.snapshot = None
        self.prev_alloc = None

    def start(self) -> cell.EnvSnapshot:
        """An episode's first world draws."""
        return cell.reset(self.config, self.rng)

    def reset(self) -> np.ndarray:
        """Start a fresh episode; returns the initial observation vector."""
        self.snapshot = self.start()
        self.prev_alloc = mdp.zero_allocation(self.config)
        ch = cell.sample_channel(self.snapshot, self.config, self.rng)
        rates = cell.compute_rates(self.prev_alloc, ch, self.snapshot, self.config)
        qos = mdp.qos_stats(rates, self.snapshot.active_mask, self.task)
        return mdp.encode_state(qos, self.prev_alloc, self.task)

    def advance(self):
        """One step's world draws; stores the snapshot, returns (snapshot, channel)."""
        if self.snapshot is None:
            raise ContractViolation("call reset() before step() or advance()")
        s = cell.step_mobility(self.snapshot, self.config, self.rng)
        self.snapshot = cell.step_traffic(s, self.rng)
        return self.snapshot, cell.sample_channel(self.snapshot, self.config, self.rng)

    def step(self, raw_action: np.ndarray):
        """Apply one raw actor output; returns (obs, reward, qos), qos being the
        step's (q_avg, q_min, q_max) vector from mdp.qos_stats. A bad action
        raises before any draw, so it leaves the env as it was."""
        raw_action = mdp.check_action(raw_action, self.config.num_ues)
        self.prev_alloc, obs, reward, qos = score(raw_action, *self.advance(), self.task)
        return obs, reward, qos
