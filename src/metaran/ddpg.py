"""DDPG inner learner with a one-step critic: replay buffer, updates, evaluation."""

from dataclasses import dataclass, fields

import numpy as np

from . import nets
from .errors import ConfigurationError, ContractViolation, TrainingDivergence


@dataclass(frozen=True)
class Transition:
    """One step (s, a, r, s'), or a sampled batch of them stacked on a leading axis."""

    state: np.ndarray
    action: np.ndarray
    reward: float | np.ndarray
    # Read by no update. It stays, and the buffer keeps it, while the
    # benchmark's workloads build a four-field Transition (ROADMAP item 14).
    next_state: np.ndarray


def check_count(name: str, value) -> None:
    """Raise ConfigurationError naming the field unless value is an int (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Hyper:
    """Agent hyperparameters (defaults: evaluation-scale values)."""

    # Discount of the returns run_episode reports; the one-step critic ignores it.
    gamma: float = 0.99
    lr: float = 1e-4
    # Separate (usually smaller) step size for the actor; 0 means "same as
    # lr". A slower actor keeps it from chasing a half-trained critic into
    # saturated corners of the action box.
    actor_lr: float = 0.0
    noise_std: float = 0.2
    noise_decay: float = 0.999
    noise_floor: float = 0.02
    batch_size: int = 128
    buffer_capacity: int = 100_000
    horizon: int = 200
    hidden_sizes: tuple[int, ...] = (300, 400, 400)
    # Updates start once the buffer holds max(warmup_transitions,
    # 2 * batch_size) transitions; 0 means as soon as it can serve disjoint
    # support/query batches.
    warmup_transitions: int = 0
    # dtype of the networks, optimizers, replay buffer and meta model:
    # "float64" (the reference) or "float32".
    dtype: str = "float64"

    def __post_init__(self):
        for f in fields(self):
            if f.type is int:
                check_count(f.name, getattr(self, f.name))
        for i, size in enumerate(self.hidden_sizes):
            check_count(f"hidden_sizes[{i}]", size)
        if not (0.0 < self.gamma < 1.0):
            raise ConfigurationError("gamma must be in (0, 1)")
        if self.dtype not in nets.DTYPES:
            raise ConfigurationError(
                f"dtype must be one of {nets.DTYPES}, got {self.dtype!r}"
            )
        for name in ("batch_size", "horizon"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        for name in ("actor_lr", "noise_std", "noise_floor", "warmup_transitions"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN too
                raise ConfigurationError(f"{name} must be finite and >= 0")
        if not 0 < self.lr < np.inf:
            raise ConfigurationError("lr must be finite and > 0")
        if not (0.0 < self.noise_decay <= 1.0):
            raise ConfigurationError("noise_decay must be in (0, 1]")
        if any(size < 1 for size in self.hidden_sizes):
            raise ConfigurationError("hidden_sizes must all be >= 1")
        if self.buffer_capacity <= 0 or self.buffer_capacity % 2 != 0:
            raise ConfigurationError("buffer_capacity must be positive and even")
        # Below either bound no support batch is ever drawn, so nothing trains.
        if self.buffer_capacity < 2 * self.batch_size:
            raise ConfigurationError(
                f"buffer_capacity must be >= 2 * batch_size = {2 * self.batch_size}"
            )
        if self.warmup_transitions > self.buffer_capacity:
            raise ConfigurationError("warmup_transitions must be <= buffer_capacity")

    @property
    def effective_actor_lr(self) -> float:
        return self.actor_lr if self.actor_lr > 0 else self.lr


class ReplayBuffer:
    """FIFO ring of transitions, split by insertion parity into a support
    partition (even inserts) and a query partition (odd inserts) so the two
    never overlap within one update."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int, dtype: str = "float64"):
        if capacity <= 0 or capacity % 2 != 0:
            raise ConfigurationError("capacity must be positive and even")
        self.capacity = capacity
        self.states = np.zeros((capacity, obs_dim), dtype=dtype)
        self.actions = np.zeros((capacity, act_dim), dtype=dtype)
        self.rewards = np.zeros(capacity, dtype=dtype)
        self.next_states = np.zeros((capacity, obs_dim), dtype=dtype)
        self.insert_count = 0

    def __len__(self):
        return min(self.insert_count, self.capacity)

    def add(self, tr: Transition) -> None:
        i = self.insert_count % self.capacity
        self.states[i] = tr.state
        self.actions[i] = tr.action
        self.rewards[i] = tr.reward
        self.next_states[i] = tr.next_state
        self.insert_count += 1


def sample_batch(
    buffer: ReplayBuffer, batch_size: int, partition: str, rng: np.random.Generator
) -> Transition:
    """Uniform without-replacement sample from one partition of a buffer
    that holds at least 2 * batch_size transitions.

    Capacity is even, so slot parity equals insertion parity: support draws
    the even slots 0, 2, ... and query the odd slots 1, 3, ...
    """
    size = len(buffer)
    if size < 2 * batch_size:
        raise ContractViolation(f"buffer holds {size} < {2 * batch_size} transitions")
    if partition not in ("support", "query"):
        raise ContractViolation(f"unknown partition {partition!r}")
    offset = 0 if partition == "support" else 1
    count = (size + 1 - offset) // 2  # slots with that parity
    idx = offset + 2 * rng.choice(count, size=batch_size, replace=False)
    return Transition(buffer.states[idx], buffer.actions[idx],
                      buffer.rewards[idx], buffer.next_states[idx])


def layer_sizes(obs_dim: int, act_dim: int, hyper: Hyper) -> tuple:
    """(actor, critic) layer sizes: actor obs -> action, critic (obs, action) -> Q."""
    return ((obs_dim, *hyper.hidden_sizes, act_dim),
            (obs_dim + act_dim, *hyper.hidden_sizes, 1))


def init_actor_critic(obs_dim: int, act_dim: int, hyper: Hyper, rng: np.random.Generator):
    """Fresh (actor, critic) networks of layer_sizes, the actor tanh-headed and
    the critic identity-headed, seeded by two draws from rng, the actor's first."""
    actor_seed, critic_seed = (int(rng.integers(2**31)) for _ in range(2))
    actor_sizes, critic_sizes = layer_sizes(obs_dim, act_dim, hyper)
    actor = nets.init_network(actor_sizes, actor_seed, "tanh", hyper.dtype)
    critic = nets.init_network(critic_sizes, critic_seed, "identity", hyper.dtype)
    return actor, critic


class DdpgAgent:
    """Actor and one-step critic with Gaussian exploration; no target networks."""

    def __init__(self, obs_dim: int, act_dim: int, hyper: Hyper, rng: np.random.Generator):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.hyper = hyper
        self.rng = rng
        self.actor, self.critic = init_actor_critic(obs_dim, act_dim, hyper, rng)
        self.actor_opt = nets.init_adam(self.actor.flat, lr=hyper.effective_actor_lr)
        self.critic_opt = nets.init_adam(self.critic.flat, lr=hyper.lr)
        self.buffer = ReplayBuffer(hyper.buffer_capacity, obs_dim, act_dim, hyper.dtype)
        self.noise_std = hyper.noise_std

    # -- parameter exchange ------------------------------------------------

    def load_vectors(self, actor_vec: np.ndarray, critic_vec: np.ndarray) -> None:
        """Set both networks from flat vectors, cast to the agent's dtype, and
        restart both optimizers as init_adam would: zero moments, step_count
        0, the hyper's step size. All in place, so every array keeps its
        identity and, in the agent's dtype, nothing is allocated."""
        nets.set_params_from_vector(self.actor, actor_vec)
        nets.set_params_from_vector(self.critic, critic_vec)
        for opt, lr in ((self.actor_opt, self.hyper.effective_actor_lr),
                        (self.critic_opt, self.hyper.lr)):
            opt.m.fill(0)
            opt.v.fill(0)
            opt.step_count, opt.lr = 0, lr

    # -- acting ------------------------------------------------------------

    def select_action(self, state: np.ndarray, explore: bool) -> np.ndarray:
        """Actor output plus float64 Gaussian noise when exploring, clipped to
        [-1, 1], in the agent's dtype."""
        out, _ = nets.forward(self.actor, state[None, :])
        action = out[0]
        if explore and self.noise_std > 0:
            action += self.rng.normal(0.0, self.noise_std, size=self.act_dim)
        return np.clip(action, -1.0, 1.0, out=action)

    def decay_noise(self) -> None:
        self.noise_std = max(
            self.hyper.noise_floor, self.noise_std * self.hyper.noise_decay
        )

    # -- learning ----------------------------------------------------------

    def critic_gradients(self, batch: Transition):
        """One-step critic loss mean((Q(s, a) - r)^2) on a batch, and its gradients.
        No action changes the world, so a bootstrap would add noise and no signal:
        the bandit case of deterministic policy gradients (Silver et al., ICML 2014)."""
        b = len(batch.reward)
        q, tape = nets.forward(self.critic, np.concatenate([batch.state, batch.action], axis=1))
        err = q[:, 0] - batch.reward
        loss = float(np.mean(err**2))
        grads, _ = nets.backward(self.critic, tape, (2.0 * err / b)[:, None], wrt="params")
        return loss, grads

    def actor_gradients(self, batch: Transition):
        """Objective -mean Q(s, mu(s)) and its gradients for the actor."""
        b = len(batch.reward)
        mu, tape_a = nets.forward(self.actor, batch.state)
        q, tape_q = nets.forward(
            self.critic, np.concatenate([batch.state, mu], axis=1)
        )
        dq = np.full((b, 1), 1.0 / b, dtype=self.critic.flat.dtype)
        _, in_grad = nets.backward(self.critic, tape_q, dq, wrt="input")
        dq_da = in_grad[:, self.obs_dim :]
        grads, _ = nets.backward(self.actor, tape_a, -dq_da, wrt="params")
        return float(-np.mean(q)), grads

    def train_step(self, batch: Transition):
        """One critic + one actor Adam step on the batch.

        Each network's loss and gradient are checked before its Adam step, so
        TrainingDivergence leaves that network and its optimizer as they were.
        """
        critic_loss, c_grads = self.critic_gradients(batch)
        _check_finite("critic", critic_loss, c_grads)
        nets.adam_step(self.critic.flat, c_grads, self.critic_opt)
        actor_loss, a_grads = self.actor_gradients(batch)
        _check_finite("actor", actor_loss, a_grads)
        nets.adam_step(self.actor.flat, a_grads, self.actor_opt)
        return critic_loss, actor_loss


def _check_finite(name: str, loss: float, grads: np.ndarray) -> None:
    if not (np.isfinite(loss) and np.isfinite(grads).all()):
        raise TrainingDivergence(f"non-finite {name} loss or gradient (loss={loss})")


def run_episode(agent: DdpgAgent, env, train: bool):
    """One episode of agent.hyper.horizon steps; returns (discounted return,
    episode-mean QoS vector (q_avg, q_min, q_max)).

    With train=True the agent explores, and once the buffer holds
    max(warmup_transitions, 2 * batch_size) transitions every step also
    performs one train_step on a support batch; the noise schedule advances
    at episode end. With train=False it acts greedily.
    """
    h = agent.hyper
    start = max(h.warmup_transitions, 2 * h.batch_size)
    state = env.reset()
    total = 0.0
    discount = 1.0
    q_sums = np.zeros(3)
    for _ in range(h.horizon):
        action = agent.select_action(state, explore=train)
        next_state, reward, qos = env.step(action)
        if train:
            agent.buffer.add(Transition(state, action, reward, next_state))
            if len(agent.buffer) >= start:
                agent.train_step(sample_batch(agent.buffer, h.batch_size, "support", agent.rng))
        total += discount * reward
        discount *= h.gamma
        q_sums += qos
        state = next_state
    if train:
        agent.decay_noise()
    return total, q_sums / h.horizon


def evaluate_policy(agent: DdpgAgent, env, episodes: int):
    """Greedy (noise-free) policy over `episodes` episodes of
    agent.hyper.horizon steps; returns (mean discounted return, mean QoS
    vector (q_avg, q_min, q_max))."""
    if episodes < 1:
        raise ContractViolation("episodes must be >= 1")
    rets, qoses = zip(*(run_episode(agent, env, train=False) for _ in range(episodes)))
    # A 1-D mean per column: a mean over axis 0 can round differently.
    return float(np.mean(rets)), np.array([np.mean(column) for column in zip(*qoses)])
