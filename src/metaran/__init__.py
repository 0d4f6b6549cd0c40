"""Meta-RL resource-block and downlink power allocation for a desk-scale
O-RAN-style cell simulator: DDPG inner learners, first-order meta updates,
baselines, and an experiment harness."""

from .cell import CellConfig, ChannelRealization, EnvSnapshot, RateReport
from .ddpg import DdpgAgent, Hyper, ReplayBuffer, Transition
from .episode import TaskEnv
from .errors import (
    BufferNotReady,
    ConfigurationError,
    ContractViolation,
    TrainingDivergence,
)
from .mdp import AllocationAction, TaskSpec
from .meta import MetaModel, MetaSchedule
from .nets import AdamState, DenseNetwork

__all__ = [
    "AdamState",
    "AllocationAction",
    "BufferNotReady",
    "CellConfig",
    "ChannelRealization",
    "ConfigurationError",
    "ContractViolation",
    "DdpgAgent",
    "DenseNetwork",
    "EnvSnapshot",
    "Hyper",
    "MetaModel",
    "MetaSchedule",
    "RateReport",
    "ReplayBuffer",
    "TaskEnv",
    "TaskSpec",
    "TrainingDivergence",
    "Transition",
]

__version__ = "0.1.0"
