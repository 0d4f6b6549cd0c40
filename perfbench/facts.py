"""Read-only facts recorded with each result: the machine and computed
kernel sizes. Nothing here changes a setting of the machine."""

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np


def blas_threads():
    """Threads the bundled OpenBLAS will use, asked from the library itself."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha(root):
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }


def _dense_macs(sizes):
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _num_params(sizes):
    return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))


# Elementwise operations per parameter, counted from nets.adam_step and
# nets.soft_update as written (float64).
ADAM_OPS_PER_PARAM = 14
SOFT_OPS_PER_PARAM = 3
# Float64 words one Adam step reads and writes per parameter (p, g, m, v in;
# p, m, v out) and one soft update (target, source in; target out).
ADAM_WORDS_PER_PARAM = 7
SOFT_WORDS_PER_PARAM = 3


def kernel_counts(obs_dim, act_dim, hidden, batch):
    """Computed (not measured) operation and byte counts for one agent.

    Matmul FLOPs count 2 per multiply-add, from the shapes nets.forward and
    nets.backward multiply: a forward pass is 2*B*M and a backward pass
    4*B*M for a network with M weight entries (weight and input gradients).
    train_step runs 5 forwards and 3 backwards of the critic-sized and
    actor-sized networks: critic_gradients = actor fwd + 2 critic fwd +
    critic bwd, actor_gradients = actor fwd + critic fwd + critic bwd +
    actor bwd.
    """
    actor = (obs_dim, *hidden, act_dim)
    critic = (obs_dim + act_dim, *hidden, 1)
    ma, mc = _dense_macs(actor), _dense_macs(critic)
    pa, pc = _num_params(actor), _num_params(critic)
    p = pa + pc
    return {
        "actor_params": pa,
        "critic_params": pc,
        "train_step_matmul_flops": 8 * batch * ma + 14 * batch * mc,
        "train_step_elementwise_flops": (ADAM_OPS_PER_PARAM + SOFT_OPS_PER_PARAM) * p,
        "train_step_adam_soft_bytes_min": 8 * (ADAM_WORDS_PER_PARAM + SOFT_WORDS_PER_PARAM) * p,
        "select_action_matmul_flops": 2 * ma,
        # online + target networks and Adam m, v for both networks
        "agent_param_and_adam_bytes": 8 * 4 * p,
        # meta actor + critic vectors and their Adam m, v
        "meta_param_and_adam_bytes": 8 * 3 * p,
    }
