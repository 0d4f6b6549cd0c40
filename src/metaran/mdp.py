"""MDP translation layer: state encoding, action decoding, reward.

All functions here are pure; the episode loop lives in episode.py.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cell import CellConfig
from .errors import ConfigurationError, ContractViolation


@dataclass(frozen=True)
class TaskSpec:
    """One learning task: a cell plus its service-demand band [c_min, c_max)."""

    demand_min: float  # bits/s
    demand_max: float  # bits/s
    cell_config: CellConfig
    task_id: int = 0

    def __post_init__(self):
        if not (0 <= self.demand_min < self.demand_max):
            raise ConfigurationError("need 0 <= demand_min < demand_max")


@dataclass(frozen=True)
class AllocationAction:
    """Decoded, physically feasible allocation.

    rb_owner[k] is the UE that owns RB k, or -1 where the RB is unassigned,
    so no RB can have two owners.
    """

    rb_owner: np.ndarray  # (K,) int, owning UE index or -1
    rb_requested: np.ndarray  # (N,) pre-truncation requested counts
    ue_power: np.ndarray  # (N,) mW, the power each UE's RBs would carry

    @cached_property
    def rb_indicator(self) -> np.ndarray:
        """(N, K) bool mask, True where UE u owns RB k (derived once, on first
        use, so rates and penalties share it)."""
        return self.rb_owner == np.arange(len(self.rb_requested))[:, None]

    @cached_property
    def per_rb_power(self) -> np.ndarray:
        """(K,) mW, the owner's power on each RB; an owner of -1 reads the
        appended 0.0, so unassigned RBs carry none."""
        return np.append(self.ue_power, 0.0)[self.rb_owner]


def observation_dim(num_ues: int) -> int:
    return 3 + 2 * num_ues


def action_dim(num_ues: int) -> int:
    return 2 * num_ues


def sigmoid(x):
    """Elementwise logistic function of a float or an array."""
    with np.errstate(over="ignore"):  # exp(-x) = inf for x < -709 gives 0.0
        return 1.0 / (1.0 + np.exp(-x))


def check_action(raw: np.ndarray, num_ues: int) -> np.ndarray:
    """raw as a float vector, or ContractViolation unless it has length 2N
    and finite entries."""
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (2 * num_ues,):
        raise ContractViolation(f"raw action must have length {2 * num_ues}")
    if not np.isfinite(raw).all():
        raise ContractViolation("raw action has non-finite entries")
    return raw


def decode_action(
    raw: np.ndarray, config: CellConfig, idle_mask: np.ndarray | None = None
) -> AllocationAction:
    """Turn a raw [-1,1]^(2N) actor output into a feasible allocation.

    First half scales to requested RB counts, second half to per-UE power.
    RBs are handed out first-fit in ascending UE order until K is exhausted;
    idle UEs, those set in the (N,) bool idle_mask, are skipped entirely. UE
    u owns the RBs from the clipped running total of the requests before it
    up to its own, so the owner of RB k is the first UE whose running total
    exceeds k.
    """
    n, k = config.num_ues, config.num_rbs
    raw = check_action(raw, n)
    raw = np.minimum(np.maximum(raw, -1.0), 1.0)  # np.clip, for finite raw

    requested = np.rint((raw[:n] + 1.0) / 2.0 * k).astype(int)
    ue_power = config.p_min + (raw[n:] + 1.0) / 2.0 * (config.p_max - config.p_min)
    if idle_mask is not None:
        idle_mask = np.asarray(idle_mask, dtype=bool)
        if idle_mask.shape != (n,):
            raise ContractViolation(f"idle mask must have shape ({n},)")
        requested[idle_mask] = 0

    ends = np.minimum(requested.cumsum(), k)
    rb_owner = ends.searchsorted(np.arange(k), side="right")  # n past the last request
    rb_owner[rb_owner == n] = -1
    return AllocationAction(rb_owner=rb_owner, rb_requested=requested, ue_power=ue_power)


def compute_penalties(alloc: AllocationAction, config: CellConfig):
    """Normalized consumed power and normalized requested-RB excess."""
    consumed = float((alloc.rb_indicator * alloc.per_rb_power[None, :]).sum())
    p_c = consumed / (config.num_rbs * config.p_max)
    k_r = max(0, int(alloc.rb_requested.sum()) - config.num_rbs) / config.num_rbs
    return p_c, k_r


def qos_stats(rates: np.ndarray, active: np.ndarray, task: TaskSpec) -> np.ndarray:
    """(q_avg, q_min, q_max) in bits/s of the (N,) rates where the (N,) bool
    mask active is set.

    With every UE idle the demand is trivially met, so all three read c_max.
    """
    rates = rates[active]
    if rates.size == 0:
        return np.full(3, task.demand_max)
    # Bitwise rates.mean(), .min() and .max(), without their dispatch overhead.
    return np.array([
        np.add.reduce(rates) / rates.size, np.minimum.reduce(rates), np.maximum.reduce(rates)
    ])


def compute_reward(qos: np.ndarray, penalties: tuple, task: TaskSpec) -> float:
    """sigmoid(normalized min QoS) minus sigmoid of each penalty; in (-2, 1).

    qos is qos_stats(...) for the step, whose Q_m is its minimum; penalties
    is compute_penalties(...) of the step's allocation.
    """
    q_norm = (qos[1] - task.demand_min) / (task.demand_max - task.demand_min)
    s = sigmoid(np.array([q_norm, *penalties]))  # elementwise, the same bits
    return float(s[0] - s[1] - s[2])


def encode_state(qos: np.ndarray, prev: AllocationAction, task: TaskSpec) -> np.ndarray:
    """Observation vector [q_avg, q_min, q_max] / c_max, previous requested
    counts / K, previous powers mapped back to [-1, 1]; length 3 + 2N."""
    cfg = task.cell_config
    span = cfg.p_max - cfg.p_min
    return np.concatenate([
        qos / task.demand_max,
        prev.rb_requested / cfg.num_rbs,
        2.0 * (prev.ue_power - cfg.p_min) / span - 1.0,
    ])


def zero_allocation(config: CellConfig) -> AllocationAction:
    """The empty allocation (used as the previous action at episode start)."""
    n, k = config.num_ues, config.num_rbs
    return AllocationAction(
        rb_owner=np.full(k, -1),
        rb_requested=np.zeros(n, dtype=int),
        ue_power=np.full(n, config.p_min),
    )
