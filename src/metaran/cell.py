"""Single-cell downlink OFDMA world model.

One DU/RU pair serves N UEs on K resource blocks inside a disc-shaped cell.
UEs move, carry a four-level traffic state, and see unit-mean Rayleigh power
fading plus random background interference from a few fixed neighbor RUs.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

TRAFFIC_LEVELS = ("idle", "low", "mid", "high")
IDLE = 0

# Allowed headings (radians): +-pi/3, +-pi/6, +-pi/12 and 0.
DIRECTIONS = np.array(
    [-np.pi / 3, -np.pi / 6, -np.pi / 12, 0.0, np.pi / 12, np.pi / 6, np.pi / 3]
)
SPEED_MIN = 10.0
SPEED_MAX = 20.0
TRAFFIC_SWITCH_PROB = 0.01

# Interfering RUs sit on a ring at this distance from the serving RU.
NEIGHBOR_DISTANCE = 1000.0
# Floor on any RU-UE distance, avoids the d**-eta singularity.
MIN_DISTANCE = 1.0


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class CellConfig:
    """Static per-cell parameters. Powers in mW, bandwidth in Hz."""

    num_rbs: int = 60
    num_ues: int = 30
    rb_bandwidth: float = 200e3
    p_min: float = dbm_to_mw(3.0)
    p_max: float = dbm_to_mw(6.0)
    path_loss_exp: float = 3.0
    noise_psd_dbm_hz: float = -173.0
    cell_radius_m: float = 500.0
    num_neighbors: int = 2
    neighbor_occupancy: float = 0.5

    def __post_init__(self):
        for name in ("num_rbs", "num_ues", "rb_bandwidth", "path_loss_exp"):
            if not getattr(self, name) > 0:  # NaN too
                raise ConfigurationError(f"{name} must be positive")
        # step_mobility mirrors a UE at distance d back to 2R - d, which lies in
        # the disc only while d <= 3R; a step moves a UE under SPEED_MAX.
        if not self.cell_radius_m >= SPEED_MAX / 2:
            raise ConfigurationError(f"cell_radius_m must be >= {SPEED_MAX / 2} m")
        with np.errstate(all="ignore"):  # a non-finite power is rejected here, not warned about
            if not 0 < self.noise_rb_mw < np.inf:
                raise ConfigurationError(
                    f"noise_psd_dbm_hz {self.noise_psd_dbm_hz} gives a per-RB noise power "
                    f"of {self.noise_rb_mw} mW; it must be finite and positive")
        if not (0 < self.p_min <= self.p_max):
            raise ConfigurationError("need 0 < p_min <= p_max")
        if not (0.0 <= self.neighbor_occupancy <= 1.0):
            raise ConfigurationError("neighbor_occupancy must be in [0, 1]")
        if self.num_neighbors < 0:
            raise ConfigurationError("num_neighbors must be >= 0")

    @cached_property
    def noise_rb_mw(self) -> float:
        """Noise power per RB in mW (PSD in dBm/Hz integrated over the RB)."""
        return 10.0 ** ((self.noise_psd_dbm_hz + 10.0 * np.log10(self.rb_bandwidth)) / 10.0)

    def neighbor_positions(self) -> np.ndarray:
        """(M, 2) positions of interfering RUs, evenly spread on a ring."""
        m = self.num_neighbors
        angles = 2.0 * np.pi * np.arange(m) / max(m, 1)
        return NEIGHBOR_DISTANCE * np.stack([np.cos(angles), np.sin(angles)], axis=1)

    @cached_property
    def ru_positions(self) -> np.ndarray:
        """(1 + M, 2) read-only: the serving RU at the origin, then the
        neighbor RUs; built once per config for the rate computation."""
        ru = np.vstack([np.zeros((1, 2)), self.neighbor_positions()])
        ru.flags.writeable = False
        return ru


@dataclass(frozen=True)
class EnvSnapshot:
    """Dynamic world state at one decision step."""

    ue_positions: np.ndarray  # (N, 2) meters, serving RU at origin
    ue_speeds: np.ndarray  # (N,) m/s
    ue_directions: np.ndarray  # (N,) radians
    traffic_levels: np.ndarray  # (N,) ints indexing TRAFFIC_LEVELS

    @property
    def active_mask(self) -> np.ndarray:
        return self.traffic_levels != IDLE


@dataclass(frozen=True)
class ChannelRealization:
    """One fading + interference draw."""

    gain: np.ndarray  # (N, K) unit-mean Rayleigh power gains
    neighbor_gain: np.ndarray  # (M, N, K) gains from neighbor RUs
    neighbor_power: np.ndarray  # (M, K) mW, 0 where the neighbor RB is idle


def reset(config: CellConfig, rng: np.random.Generator) -> EnvSnapshot:
    """Place UEs uniformly in the cell disc with fresh speeds/headings/traffic."""
    n = config.num_ues
    radii = config.cell_radius_m * np.sqrt(rng.uniform(size=n))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    positions = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    speeds = rng.uniform(SPEED_MIN, SPEED_MAX, size=n)
    directions = DIRECTIONS[rng.integers(0, len(DIRECTIONS), size=n)]
    traffic = rng.integers(0, len(TRAFFIC_LEVELS), size=n)
    return EnvSnapshot(
        ue_positions=positions,
        ue_speeds=speeds,
        ue_directions=directions,
        traffic_levels=traffic,
    )


def step_mobility(s: EnvSnapshot, config: CellConfig, rng: np.random.Generator) -> EnvSnapshot:
    """Advance every UE along its heading for one 1 s step, reflecting off the
    cell edge.

    A UE that crosses the boundary is mirrored back across the circle and gets
    a fresh heading and speed.
    """
    speeds, directions = s.ue_speeds, s.ue_directions  # m/s, so metres per step
    pos = np.empty(s.ue_positions.shape)
    x = np.add(s.ue_positions[:, 0], speeds * np.cos(directions), out=pos[:, 0])
    y = np.add(s.ue_positions[:, 1], speeds * np.sin(directions), out=pos[:, 1])
    dist = np.sqrt(x * x + y * y)  # bitwise norm(pos, axis=1)
    out = (dist > config.cell_radius_m).nonzero()[0]
    if out.size:
        # Mirror across the circle: new radius = 2R - r, same bearing.
        d = dist[out]
        pos[out] *= ((2.0 * config.cell_radius_m - d) / d)[:, None]
        directions = directions.copy()
        speeds = speeds.copy()
        # The same draws as rng.choice(DIRECTIONS, size=...), without its overhead.
        directions[out] = DIRECTIONS[rng.integers(0, len(DIRECTIONS), size=out.size)]
        speeds[out] = rng.uniform(SPEED_MIN, SPEED_MAX, size=out.size)
    return EnvSnapshot(pos, speeds, directions, s.traffic_levels)


def step_traffic(s: EnvSnapshot, rng: np.random.Generator) -> EnvSnapshot:
    """Each UE independently jumps to a random *other* level with probability
    TRAFFIC_SWITCH_PROB."""
    n = len(s.traffic_levels)
    switch = rng.uniform(size=n) < TRAFFIC_SWITCH_PROB
    # Offset in 1..3 guarantees the new level differs from the old one.
    offsets = rng.integers(1, len(TRAFFIC_LEVELS), size=n)
    levels = s.traffic_levels
    if switch.any():
        levels = levels.copy()
        levels[switch] = (levels[switch] + offsets[switch]) % len(TRAFFIC_LEVELS)
    return EnvSnapshot(s.ue_positions, s.ue_speeds, s.ue_directions, levels)


def sample_channel(
    s: EnvSnapshot, config: CellConfig, rng: np.random.Generator
) -> ChannelRealization:
    """Draw Rayleigh power gains and random neighbor-RU background activity."""
    n, k, m = config.num_ues, config.num_rbs, config.num_neighbors
    gain = rng.exponential(1.0, size=(n, k))
    neighbor_gain = rng.exponential(1.0, size=(m, n, k))
    occupied = rng.uniform(size=(m, k)) < config.neighbor_occupancy
    power = rng.uniform(config.p_min, config.p_max, size=(m, k))
    neighbor_power = np.where(occupied, power, 0.0)
    return ChannelRealization(
        gain=gain, neighbor_gain=neighbor_gain, neighbor_power=neighbor_power
    )


def compute_rates(
    alloc, ch: ChannelRealization, s: EnvSnapshot, config: CellConfig
) -> np.ndarray:
    """(N,) Shannon rate per UE in bits/s, with path loss, fading and neighbor
    interference.

    c_u = sum_k B * e[u,k] * log2(1 + p[k] * d_u**-eta * g[u,k] / (I[u,k] + noise)),
    where e[u,k] = 1 exactly when UE u owns RB k. The allocation is feasible
    by construction (mdp.decode_action's or mdp.zero_allocation's), so it is
    not checked here.
    """
    ru = config.ru_positions
    dx = s.ue_positions[:, 0] - ru[:, 0, None]  # (1 + M, N); row 0 is x - 0.0 = x
    dy = s.ue_positions[:, 1] - ru[:, 1, None]
    # sqrt(dx*dx + dy*dy) is bitwise norm(..., axis=-1) over the (x, y) pair.
    loss = np.maximum(np.sqrt(dx * dx + dy * dy), MIN_DISTANCE) ** (-config.path_loss_exp)
    signal = alloc.per_rb_power[None, :] * loss[0, :, None] * ch.gain

    interference = 0.0
    if config.num_neighbors > 0:
        interference = np.add.reduce(  # np.sum's reduction, without its dispatch
            ch.neighbor_power[:, None, :] * loss[1:, :, None] * ch.neighbor_gain, axis=0
        )

    sinr = signal / (interference + config.noise_rb_mw)
    return config.rb_bandwidth * np.add.reduce(alloc.rb_indicator * np.log2(1.0 + sinr), axis=1)
