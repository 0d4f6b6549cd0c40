"""Minimal dense-network substrate: forward, backprop, Adam, soft updates.

Networks are tanh MLPs with either a tanh head (actor) or identity head
(critic). All parameters of a network live in one contiguous vector, `flat`,
laid out layer by layer as [W1 (row-major), b1, W2, b2, ...].
`weights[i]` and `biases[i]` are views into `flat`, so writing through
either changes the network and vice versa. Gradients, Adam moments and
checkpoints use the same flat layout, so Adam and soft updates are single
passes over one array, made block by block through a small scratch buffer
so they allocate nothing the size of the network.

A network's dtype is the dtype of `flat`: float64 (the default, and the
reference every oracle test runs in) or float32. forward, backward and
set_params_from_vector compute in, and return, the network's dtype; Adam
moments take the dtype of the parameters they follow.
"""

import json
import os
import uuid
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractViolation

# Elements per block of the Adam and soft-update passes: a block's scratch and
# its slices of the parameter, gradient and moment arrays stay in L2 cache.
KERNEL_BLOCK = 32_768
# Network dtypes: float64 is the reference, float32 the fast opt-in.
DTYPES = ("float64", "float32")

# Format of every npz checkpoint (model records). load_checkpoint
# rejects any other version, and files without a header, as unreadable.
CHECKPOINT_VERSION = 3


def _layer_views(sizes: tuple, flat: np.ndarray):
    """Per-layer (weights, biases) views of a vector in the flat layout."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


@dataclass
class DenseNetwork:
    layer_sizes: tuple
    flat: np.ndarray  # every parameter, in the flat layout
    output_activation: str = "tanh"  # "tanh" or "identity"
    weights: list = field(init=False, repr=False)  # (fan_in, fan_out) views
    biases: list = field(init=False, repr=False)  # (fan_out,) views

    def __post_init__(self):
        self.weights, self.biases = _layer_views(self.layer_sizes, self.flat)

    def copy(self) -> "DenseNetwork":
        return DenseNetwork(self.layer_sizes, self.flat.copy(), self.output_activation)


def num_params(layer_sizes) -> int:
    """Length of the flat vector of a network with these layer sizes."""
    return sum(a * b + b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


def init_network(
    layer_sizes, seed: int, output_activation: str = "tanh", dtype: str = "float64"
) -> DenseNetwork:
    """Uniform +-1/sqrt(fan_in) weights, zero biases; deterministic per seed.

    The weights are drawn in float64 from the same stream for every dtype and
    then cast, so a float32 network is the rounded float64 one.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ConfigurationError("need at least an input and an output layer")
    if any(s <= 0 for s in sizes):
        raise ConfigurationError("layer sizes must be positive")
    if output_activation not in ("tanh", "identity"):
        raise ConfigurationError(f"unknown output activation {output_activation!r}")
    if dtype not in DTYPES:
        raise ConfigurationError(f"dtype must be one of {DTYPES}, got {dtype!r}")
    rng = np.random.default_rng(seed)
    flat = np.zeros(num_params(sizes))
    for w in _layer_views(sizes, flat)[0]:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return DenseNetwork(sizes, flat.astype(dtype, copy=False), output_activation)


def forward(net: DenseNetwork, x: np.ndarray):
    """Returns (output, tape) for a (B, d) batch; the output is (B, d_out).

    The tape is the list of the input and every layer's post-activation output.
    A 1-D input is not a batch and raises ContractViolation.
    """
    x = np.asarray(x, dtype=net.flat.dtype)
    if x.shape[1:] != net.layer_sizes[:1]:
        raise ContractViolation(
            f"input shape {x.shape} is not (B, {net.layer_sizes[0]})"
        )
    acts = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = acts[-1] @ w
        h += b
        if i < last or net.output_activation == "tanh":
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def backward(net: DenseNetwork, tape, output_grad: np.ndarray, wrt: str = "both"):
    """Reverse-mode gradients.

    output_grad is dL/d(output), shaped like forward's (B, d_out) output.
    Returns (param_grad, a fresh vector in the flat layout; input_grad).
    wrt names what the caller reads: "params" leaves input_grad None and
    skips the first layer's input product; "input" leaves param_grad None
    and skips every weight and bias product. Each computed gradient is
    bitwise the one wrt="both" returns.
    """
    if wrt not in ("both", "params", "input"):
        raise ContractViolation(f"unknown gradient target {wrt!r}")
    g = np.asarray(output_grad, dtype=net.flat.dtype)
    last = len(net.weights) - 1
    if g.shape != tape[-1].shape:
        raise ContractViolation("output_grad shape does not match the forward pass")
    grad = None
    if wrt != "input":
        grad = np.empty_like(net.flat)
        grad_w, grad_b = _layer_views(net.layer_sizes, grad)
    for i in range(last, -1, -1):
        if i < last or net.output_activation == "tanh":
            d = np.square(tape[i + 1])  # tanh' = 1 - tanh^2, from the tanh output
            np.subtract(1.0, d, out=d)
            d *= g
            g = d
        if grad is not None:
            np.matmul(tape[i].T, g, out=grad_w[i])
            np.sum(g, axis=0, out=grad_b[i])
        if i > 0 or wrt != "params":
            w = net.weights[i]
            if w.shape[1] == 1:
                # Fan-out 1 (the critic head): the K=1 matmul is 0 + g*w per
                # entry, so a broadcast product plus 0.0 (which turns a -0.0
                # product into +0.0) is bitwise the same, without BLAS.
                g = g * w.T
                g += 0.0
            else:
                g = g @ w.T
    return grad, (None if wrt == "params" else g)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_adam(params: np.ndarray, **settings) -> AdamState:
    """Zero moments shaped like params; settings: lr, beta1, beta2, epsilon."""
    return AdamState(np.zeros_like(params), np.zeros_like(params), **settings)


def _blocks(n: int):
    """(lo, hi) bounds of the KERNEL_BLOCK-sized blocks of range(n)."""
    return ((lo, min(lo + KERNEL_BLOCK, n)) for lo in range(0, n, KERNEL_BLOCK))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> np.ndarray:
    """Bias-corrected Adam update of one parameter vector, in place; returns it.

    params -= lr * (m / c1) / (sqrt(v / c2) + epsilon), with c_i = 1 - beta_i^t,
    made block by block through two block-sized scratch rows.
    """
    if params.ndim != 1 or params.shape != grads.shape or params.shape != state.m.shape:
        raise ContractViolation("parameter/gradient/moment shape mismatch")
    if not params.dtype == grads.dtype == state.m.dtype == state.v.dtype:
        raise ContractViolation("parameter/gradient/moment dtype mismatch")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    scratch = np.empty((2, min(KERNEL_BLOCK, params.size)), dtype=params.dtype)
    for lo, hi in _blocks(params.size):
        g, m, v = grads[lo:hi], state.m[lo:hi], state.v[lo:hi]
        step, denom = scratch[0, : hi - lo], scratch[1, : hi - lo]
        m *= b1
        np.multiply(g, 1.0 - b1, out=step)
        m += step
        v *= b2
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        v += step
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.epsilon
        np.divide(m, c1, out=step)
        step *= state.lr
        step /= denom
        params[lo:hi] -= step
    return params


def soft_update(target: np.ndarray, source: np.ndarray, tau: float) -> np.ndarray:
    """target <- (1 - tau) * target + tau * source, in place, block by block."""
    if target.ndim != 1 or target.shape != source.shape:
        raise ContractViolation("target/source shape mismatch")
    scratch = np.empty(min(KERNEL_BLOCK, target.size), dtype=target.dtype)
    for lo, hi in _blocks(target.size):
        t, part = target[lo:hi], scratch[: hi - lo]
        t *= 1.0 - tau
        np.multiply(source[lo:hi], tau, out=part)
        t += part
    return target


def params_as_vector(net: DenseNetwork) -> np.ndarray:
    return net.flat.copy()


def set_params_from_vector(net: DenseNetwork, vec: np.ndarray) -> None:
    """Copy vec into the network, cast to the network's dtype."""
    vec = np.asarray(vec, dtype=net.flat.dtype)
    if vec.shape != net.flat.shape:
        raise ContractViolation(
            f"vector shape {vec.shape} != parameter shape {net.flat.shape}"
        )
    net.flat[...] = vec


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(path, header: dict, **arrays) -> None:
    """One npz: a JSON header (with format_version) plus named arrays,
    replacing the file at path only once it is written whole.

    A value whose array form needs pickling (object dtype) raises
    ContractViolation before any file is made: load_checkpoint refuses pickles.
    """
    head = {"format_version": CHECKPOINT_VERSION, **header}
    out = {name: np.asanyarray(value) for name, value in arrays.items()}
    pickled = [name for name, value in out.items() if value.dtype.hasobject]
    if pickled:
        raise ContractViolation(f"checkpoint values {pickled} are not plain arrays")
    # Written whole or not at all: into a new file beside the target, created
    # with the mode a plain open() gives, then renamed over it.
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:  # a file handle keeps np.savez from adding ".npz"
            np.savez(fh, header=json.dumps(head), **out)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Inverse of save_checkpoint: (header, arrays).

    Raises ConfigurationError naming the file unless it is a readable npz
    archive with a JSON-object header that carries CHECKPOINT_VERSION; a
    missing file raises FileNotFoundError.
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
    return header, arrays
