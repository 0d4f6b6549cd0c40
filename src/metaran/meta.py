"""Meta-training loop (first-order MAML over DDPG learners) and baselines.

Outer loop: for each task in turn, one learner restarts from the shared meta
parameters, trains for a few episodes on the task's own environment and replay
buffer (support samples), then reports the gradient of its loss on a query
sample evaluated at the adapted parameters. The meta parameters take one Adam
step on the task-summed query gradients.
"""

from dataclasses import dataclass

import numpy as np

from . import mdp, nets
from .ddpg import (DdpgAgent, Hyper, ReplayBuffer, evaluate_policy, init_actor_critic,
                   run_episode, sample_batch)
from .episode import TaskEnv
from .errors import ConfigurationError, TrainingDivergence
from .mdp import TaskSpec
from .seeding import derive_rng, derive_seed

# Greedy evaluation episodes per adaptation shot (inner_adapt and mtl).
ADAPT_EVAL_EPISODES = 3


@dataclass(frozen=True)
class MetaSchedule:
    outer_iters: int  # T
    eval_episodes: int = 10  # T_e, episodes per task per outer iteration
    num_tasks: int = 6  # N_g
    # Step sizes of the meta-level Adam updates; 0 means "reuse the inner
    # actor/critic step sizes". A meta critic faster than the meta actor keeps
    # the shared policy from racing past regions the value estimate has not
    # mapped yet.
    meta_actor_lr: float = 0.0
    meta_critic_lr: float = 0.0

    def __post_init__(self):
        for name, least in (("outer_iters", 1), ("eval_episodes", 1), ("num_tasks", 1),
                            ("meta_actor_lr", 0), ("meta_critic_lr", 0)):
            if not getattr(self, name) >= least:  # NaN too
                raise ConfigurationError(f"{name} must be >= {least}")

    @property
    def adapt_budget(self) -> int:
        """Adaptation episodes on a new task: 10% of the outer iterations,
        halves rounded up."""
        return (self.outer_iters + 5) // 10


@dataclass
class MetaModel:
    actor_vec: np.ndarray
    critic_vec: np.ndarray
    actor_opt: nets.AdamState
    critic_opt: nets.AdamState


def init_meta_model(
    obs_dim: int,
    act_dim: int,
    hyper: Hyper,
    seed: int,
    actor_lr: float = 0.0,
    critic_lr: float = 0.0,
) -> MetaModel:
    actor, critic = init_actor_critic(obs_dim, act_dim, hyper, np.random.default_rng(seed))
    return MetaModel(
        actor_vec=nets.params_as_vector(actor),
        critic_vec=nets.params_as_vector(critic),
        actor_opt=nets.init_adam(
            actor.flat, lr=actor_lr if actor_lr > 0 else hyper.effective_actor_lr
        ),
        critic_opt=nets.init_adam(critic.flat, lr=critic_lr if critic_lr > 0 else hyper.lr),
    )


def agent_model(agent: DdpgAgent) -> MetaModel:
    """The agent's online parameters (copied) and optimizer states as a
    model record, the form every model checkpoint takes."""
    return MetaModel(nets.params_as_vector(agent.actor), nets.params_as_vector(agent.critic),
                     agent.actor_opt, agent.critic_opt)


def task_dims(task: TaskSpec) -> tuple:
    """(observation, action) dimensions of the task's MDP."""
    return mdp.observation_dim(task.cell_config.num_ues), mdp.action_dim(task.cell_config.num_ues)


class TaskState:
    """What one meta-train task owns; the learner and meta model are shared.

    rng draws the task's exploration noise and support batches. It first makes
    the two network-init draws of a DdpgAgent, so it reads what such an agent
    on the same stream would."""

    def __init__(self, task: TaskSpec, hyper: Hyper, seed: int):
        self.env = TaskEnv(task, derive_rng(seed, "meta-train", "env", task.task_id))
        self.buffer = ReplayBuffer(hyper.buffer_capacity, *task_dims(task), hyper.dtype)
        self.rng = derive_rng(seed, "meta-train", "agent", task.task_id)
        self.rng.integers(2**31), self.rng.integers(2**31)
        self.noise_std = hyper.noise_std
        self.query_rng = derive_rng(seed, "meta-train", "query", task.task_id)


def query_gradients(agent: DdpgAgent, rng: np.random.Generator):
    """Flat (actor, critic) loss gradients on a query batch at the adapted
    parameters, or None until the buffer holds 2 * batch_size transitions."""
    if len(agent.buffer) < 2 * agent.hyper.batch_size:
        return None
    batch = sample_batch(agent.buffer, agent.hyper.batch_size, "query", rng)
    _, c_grads = agent.critic_gradients(batch)
    _, a_grads = agent.actor_gradients(batch)
    return a_grads, c_grads


def accumulate(total, grad):
    """Running task sum of a query gradient: grad itself (taken over) when
    total is None, else total += grad. Added in task order this is bitwise
    np.sum(grads, axis=0), without holding every task's gradient."""
    if total is None:
        return grad
    total += grad
    return total


def apply_meta_update(meta: MetaModel, g_actor, g_critic) -> None:
    """One Adam step on the task-summed query gradients; a no-op when they
    are None (no task had a query batch yet)."""
    if g_actor is None:
        return
    if not (np.isfinite(g_actor).all() and np.isfinite(g_critic).all()):
        raise TrainingDivergence("non-finite meta gradient")
    nets.adam_step(meta.actor_vec, g_actor, meta.actor_opt)
    nets.adam_step(meta.critic_vec, g_critic, meta.critic_opt)


def meta_train(
    tasks: list,
    schedule: MetaSchedule,
    hyper: Hyper,
    seed: int,
    on_outer_start=None,
) -> MetaModel:
    """Run the full meta-training loop and return the trained meta model.

    One DdpgAgent, the learner, serves the tasks in turn: it takes on the
    task's TaskState (buffer, rng, noise_std), reloads the meta parameters
    (DdpgAgent.load_vectors) and runs the task's episodes, and the decayed
    noise_std goes back to the task. on_outer_start(iteration, meta, learner)
    is invoked once per outer iteration, after the first task's reload, so it
    sees the learner at the meta parameters.
    """
    if len(tasks) != schedule.num_tasks:
        raise ConfigurationError(
            f"expected {schedule.num_tasks} tasks, got {len(tasks)}"
        )
    dims = {task_dims(t) for t in tasks}
    if len(dims) != 1:
        raise ConfigurationError("tasks must share observation/action dimensions")
    obs_dim, act_dim = dims.pop()

    meta = init_meta_model(
        obs_dim, act_dim, hyper, derive_seed(seed, "meta-init"),
        actor_lr=schedule.meta_actor_lr, critic_lr=schedule.meta_critic_lr,
    )
    learner = DdpgAgent(obs_dim, act_dim, hyper, derive_rng(seed, "meta-train", "learner"))
    states = [TaskState(task, hyper, seed) for task in tasks]

    for it in range(1, schedule.outer_iters + 1):
        g_actor = g_critic = None
        for i, task in enumerate(states):
            learner.buffer, learner.rng, learner.noise_std = task.buffer, task.rng, task.noise_std
            learner.load_vectors(meta.actor_vec, meta.critic_vec)
            if i == 0 and on_outer_start is not None:
                on_outer_start(it, meta, learner)
            for _ in range(schedule.eval_episodes):
                run_episode(learner, task.env, train=True)
            task.noise_std = learner.noise_std
            grads = query_gradients(learner, task.query_rng)
            if grads is not None:
                g_actor = accumulate(g_actor, grads[0])
                g_critic = accumulate(g_critic, grads[1])
                del grads  # free this task's query gradients before the next task runs
        apply_meta_update(meta, g_actor, g_critic)
    return meta


def inner_adapt(meta: MetaModel, task: TaskSpec, budget: int, hyper: Hyper, seed: int):
    """Initialize an agent from the meta parameters and train it on the task.

    Returns (agent, trace) where trace holds one record per adaptation shot:
    the mean greedy evaluation return and mean QoS stats over
    ADAPT_EVAL_EPISODES evaluation episodes (averaging tames episode-to-episode
    traffic noise without touching the training trajectory).
    """
    agent, env = _task_agent(meta, task, hyper, seed, "adapt")
    return agent, _shots(agent, [env] * budget, task, seed)


def _task_agent(meta: MetaModel, task: TaskSpec, hyper: Hyper, seed: int, stream: str):
    """(agent at the meta parameters, training env) on the stream's task streams."""
    agent = DdpgAgent(*task_dims(task), hyper, derive_rng(seed, stream, "agent", task.task_id))
    agent.load_vectors(meta.actor_vec, meta.critic_vec)
    return agent, TaskEnv(task, derive_rng(seed, stream, "env", task.task_id))


def eval_env(task: TaskSpec, seed: int) -> TaskEnv:
    """The task's one evaluation world: every method's greedy evaluations and
    the CLI's eval run on this env stream, so all are scored on the same draws."""
    return TaskEnv(task, derive_rng(seed, "adapt", "eval-env", task.task_id))


def _shots(agent: DdpgAgent, envs: list, task: TaskSpec, seed: int) -> list:
    """Per env in turn, one training episode and then a greedy evaluation on
    the task's evaluation world."""
    world = eval_env(task, seed)
    trace = []
    for shot, env in enumerate(envs, start=1):
        run_episode(agent, env, train=True)
        ret, qos = evaluate_policy(agent, world, ADAPT_EVAL_EPISODES)
        q_avg, q_min, q_max = qos.tolist()  # floats, whose repr the CSVs write
        trace.append({"shot": shot, "episode_return": ret,
                      "q_avg": q_avg, "q_min": q_min, "q_max": q_max})
    return trace


def meta_adapt_new(meta: MetaModel, new_task: TaskSpec, schedule: MetaSchedule,
                   hyper: Hyper, seed: int):
    """Few-shot adaptation on an unseen task with the scheduled budget."""
    return inner_adapt(meta, new_task, schedule.adapt_budget, hyper, seed)


def random_init_model(task: TaskSpec, hyper: Hyper, seed: int) -> MetaModel:
    """Untrained meta model (used so scratch shares the adaptation code path)."""
    return init_meta_model(*task_dims(task), hyper, derive_seed(seed, "scratch-init"))


def mtl_schedule(budget: int) -> list:
    """Alternating episode plan for multi-task learning, new task last."""
    plan = []
    for i in range(budget):
        plan.append("new" if (budget - 1 - i) % 2 == 0 else "donor")
    return plan


def run_baseline(
    kind: str,
    new_task: TaskSpec,
    donor_tasks: list,
    budget: int,
    hyper: Hyper,
    seed: int,
    donor_budget: int = 0,
):
    """Train one of the comparison methods on the new task.

    scratch: random init, budget episodes on the new task.
    tl: pre-train on the first donor task for donor_budget training episodes
        (no evaluations), then fine-tune on the new task.
    mtl: one agent alternates episodes between a randomly chosen donor task
        and the new task (even split, new task last), evaluated on the new task.
    """
    if kind == "scratch":
        # Same code path and environment streams as meta adaptation, so the
        # comparison is paired: only the initialization differs.
        init = random_init_model(new_task, hyper, seed)
        return inner_adapt(init, new_task, budget, hyper, seed)

    if kind in ("tl", "mtl") and not donor_tasks:
        raise ConfigurationError(f"{kind} needs a donor task")

    if kind == "tl":
        donor = donor_tasks[0]
        init = random_init_model(donor, hyper, seed)
        donor_agent, env = _task_agent(init, donor, hyper, seed, "tl-donor")
        for _ in range(donor_budget):
            run_episode(donor_agent, env, train=True)
        return inner_adapt(agent_model(donor_agent), new_task, budget, hyper, seed)

    if kind == "mtl":
        rng = derive_rng(seed, "mtl", "task-pick")
        donor = donor_tasks[int(rng.integers(len(donor_tasks)))]
        agent = DdpgAgent(*task_dims(new_task), hyper, derive_rng(seed, "mtl", "agent"))
        donor_env = TaskEnv(donor, derive_rng(seed, "mtl", "donor-env"))
        new_env = TaskEnv(new_task, derive_rng(seed, "mtl", "new-env"))
        envs = [new_env if which == "new" else donor_env for which in mtl_schedule(budget)]
        return agent, _shots(agent, envs, new_task, seed)

    raise ConfigurationError(f"unknown baseline kind {kind!r}")


# -- checkpointing ---------------------------------------------------------


def save_meta_model(path, meta: MetaModel) -> None:
    nets.save_checkpoint(
        path, {},
        actor_vec=meta.actor_vec,
        critic_vec=meta.critic_vec,
        actor_opt=meta.actor_opt,
        critic_opt=meta.critic_opt,
    )


def load_meta_model(path) -> MetaModel:
    """A model checkpoint, meta or adapted, as save_meta_model writes it."""
    # Older version-2 files also carry actor_sizes and critic_sizes in the
    # header; the layer sizes follow from the config, so they are not read.
    _, arrays = nets.load_checkpoint(path)
    try:
        model = MetaModel(**arrays)
    except TypeError as exc:  # other arrays, such as an agent's target networks
        raise ConfigurationError(f"{path}: not a model checkpoint ({exc})") from exc
    for name in ("actor_vec", "critic_vec"):
        if not np.isfinite(getattr(model, name)).all():
            raise ConfigurationError(f"{path}: {name} has non-finite entries")
    return model
