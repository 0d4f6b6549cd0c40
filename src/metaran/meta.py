"""Meta-training loop (first-order MAML over DDPG learners) and baselines.

Outer loop: for each task in turn, one learner restarts from the shared meta
parameters, trains for a few episodes on the task's own environment and replay
buffer (support samples), then reports the gradients of its actor and
one-step critic losses on a query sample evaluated at the adapted parameters.
The meta parameters take one Adam step on the task-summed query gradients.
"""

import json
import os
import uuid
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from . import mdp, nets
from .ddpg import (DdpgAgent, Hyper, ReplayBuffer, evaluate_policy, init_actor_critic,
                   run_episode, sample_batch)
from .episode import TaskEnv
from .errors import ConfigurationError, ContractViolation, TrainingDivergence, check_fields
from .mdp import TaskSpec
from .seeding import derive_rng, derive_seed

# Greedy evaluation episodes per adaptation shot (inner_adapt and mtl).
ADAPT_EVAL_EPISODES = 3


@dataclass(frozen=True)
class ScheduleBlock:
    """The meta schedule, the config file's schedule block."""

    outer_iters: int = 100  # T
    eval_episodes: int = 10  # T_e, episodes per task per outer iteration
    # Step sizes of the meta-level Adam updates; 0 means "reuse the inner
    # actor/critic step sizes". A meta critic faster than the meta actor keeps
    # the shared policy from racing past regions the value estimate has not
    # mapped yet.
    meta_actor_lr: float = 0.0
    meta_critic_lr: float = 0.0

    def __post_init__(self):
        check_fields(self)
        for f in fields(self):  # a count (MetaSchedule.num_tasks too) >= 1, a step size >= 0
            least = 1 if f.type is int else 0
            if getattr(self, f.name) < least:
                raise ConfigurationError(f"{f.name} must be >= {least}")

    @property
    def adapt_budget(self) -> int:
        """Adaptation episodes on a new task: 10% of the outer iterations,
        halves rounded up."""
        return (self.outer_iters + 5) // 10


@dataclass(frozen=True)
class MetaSchedule(ScheduleBlock):
    """The schedule and the number of donor tasks it runs."""

    num_tasks: int = 6  # N_g


@dataclass
class MetaModel:
    actor_vec: np.ndarray
    critic_vec: np.ndarray
    # The meta optimizer, which meta_train builds; no checkpoint carries it.
    actor_opt: nets.AdamState | None = None
    critic_opt: nets.AdamState | None = None


def init_meta_model(obs_dim: int, act_dim: int, hyper: Hyper, seed: int) -> MetaModel:
    """A model record at fresh parameters."""
    actor, critic = init_actor_critic(obs_dim, act_dim, hyper, np.random.default_rng(seed))
    return MetaModel(
        actor_vec=nets.params_as_vector(actor),
        critic_vec=nets.params_as_vector(critic),
    )


def agent_model(agent: DdpgAgent) -> MetaModel:
    """The agent's online parameters (copied) as a model record, the form
    every model checkpoint takes."""
    return MetaModel(nets.params_as_vector(agent.actor), nets.params_as_vector(agent.critic))


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

    meta = init_meta_model(obs_dim, act_dim, hyper, derive_seed(seed, "meta-init"))
    meta.actor_opt = nets.init_adam(meta.actor_vec,
                                    lr=schedule.meta_actor_lr or hyper.effective_actor_lr)
    meta.critic_opt = nets.init_adam(meta.critic_vec, lr=schedule.meta_critic_lr or hyper.lr)
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
            # Running task sums: the first task's gradients are taken over,
            # later ones added in place. Added in task order this is bitwise
            # np.sum(grads, axis=0), without holding every task's gradients.
            if grads is None:
                continue
            if g_actor is None:
                g_actor, g_critic = grads
            else:
                g_actor += grads[0]
                g_critic += grads[1]
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

# Format of every model checkpoint, meta or adapted: an npz archive of a JSON
# header {"format_version": CHECKPOINT_VERSION} and the two parameter vectors.
CHECKPOINT_VERSION = 3
CHECKPOINT_VECTORS = ("actor_vec", "critic_vec")


def save_meta_model(path, meta: MetaModel) -> None:
    """Write the model's two vectors to path, replacing the file there only
    once it is written whole.

    A vector whose array form needs pickling (object dtype) raises
    ContractViolation before any file is made: load_meta_model refuses pickles.
    """
    arrays = {name: np.asanyarray(getattr(meta, name)) for name in CHECKPOINT_VECTORS}
    pickled = [name for name, value in arrays.items() if value.dtype.hasobject]
    if pickled:
        raise ContractViolation(f"checkpoint values {pickled} are not plain arrays")
    # Written whole or not at all: into a new file beside the target, created
    # with the mode a plain open() gives, then renamed over it.
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:  # a file handle keeps np.savez from adding ".npz"
            np.savez(fh, header=json.dumps({"format_version": CHECKPOINT_VERSION}), **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_meta_model(path) -> MetaModel:
    """A model checkpoint, meta or adapted, as save_meta_model writes it.

    Raises ConfigurationError naming the file unless it is a readable npz
    archive with a JSON-object header that carries CHECKPOINT_VERSION, and
    exactly the two vectors, each a 1-D array of finite real floats; a missing
    file raises FileNotFoundError.
    """
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):  # one bare array, as np.save writes
            raise ValueError("an .npy array, not an .npz archive")
        with data:
            header = json.loads(str(data["header"])) if "header" in data.files else {}
            arrays = {k: data[k] for k in data.files if k != "header"}
        if not isinstance(header, dict):
            raise ValueError("a header that is not a JSON object")
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:  # truncated, empty, not npz
        raise ConfigurationError(
            f"{path}: not a readable checkpoint ({type(exc).__name__}: {exc})"
        ) from exc
    version = header.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"{path}: checkpoint format version {version!r} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    if arrays.keys() != set(CHECKPOINT_VECTORS):  # such as an old agent checkpoint's
        raise ConfigurationError(f"{path}: not a model checkpoint (arrays {sorted(arrays)})")
    for name in CHECKPOINT_VECTORS:
        vec = arrays[name]
        if vec.dtype.kind != "f":
            raise ConfigurationError(f"{path}: {name} is not a floating-point array ({vec.dtype})")
        if vec.ndim != 1:
            raise ConfigurationError(f"{path}: {name} is not a 1-D array (shape {vec.shape})")
        if not np.isfinite(vec).all():
            raise ConfigurationError(f"{path}: {name} has non-finite entries")
    return MetaModel(**arrays)
