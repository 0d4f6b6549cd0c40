"""Test worlds shared by more than one test file."""

from dataclasses import replace

import numpy as np
import pytest

from metaran import cell
from metaran.episode import TaskEnv


class StationaryEnv(TaskEnv):
    """TaskEnv in a stationary world: every UE stays active at "mid" traffic
    at its first position, and only the fading is redrawn each step."""

    def start(self):
        levels = np.full(self.config.num_ues, 2)  # all UEs at "mid"
        return replace(super().start(), traffic_levels=levels)

    def advance(self):
        return self.snapshot, cell.sample_channel(self.snapshot, self.config, self.rng)


@pytest.fixture
def stationary_env():
    """The stationary world's env class, built as TaskEnv(task, rng)."""
    return StationaryEnv
