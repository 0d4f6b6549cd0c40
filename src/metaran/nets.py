"""Minimal dense-network substrate: forward, backprop, Adam, soft updates.

Networks are tanh MLPs with either a tanh head (actor) or identity head
(critic). All parameters of a network live in one contiguous float64 vector,
`flat`, laid out layer by layer as [W1 (row-major), b1, W2, b2, ...].
`weights[i]`, `biases[i]` and `parameters()` are views into `flat`, so
writing through any of them changes the network and vice versa. Gradients,
Adam moments and checkpoints use the same flat layout, so Adam and soft
updates are single passes over one array. Everything is double precision.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractViolation

# Format of every npz checkpoint (agents, meta models). load_checkpoint
# rejects any other version, and files without a header, as unreadable.
CHECKPOINT_VERSION = 2


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

    def parameters(self) -> list:
        """Canonical list [W1, b1, W2, b2, ...] (views into flat)."""
        return [p for wb in zip(self.weights, self.biases) for p in wb]

    def num_parameters(self) -> int:
        return self.flat.size

    def copy(self) -> "DenseNetwork":
        return DenseNetwork(self.layer_sizes, self.flat.copy(), self.output_activation)


def init_network(layer_sizes, seed: int, output_activation: str = "tanh") -> DenseNetwork:
    """Uniform +-1/sqrt(fan_in) weights, zero biases; deterministic per seed."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ConfigurationError("need at least an input and an output layer")
    if any(s <= 0 for s in sizes):
        raise ConfigurationError("layer sizes must be positive")
    if output_activation not in ("tanh", "identity"):
        raise ConfigurationError(f"unknown output activation {output_activation!r}")
    rng = np.random.default_rng(seed)
    flat = np.zeros(sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:])))
    net = DenseNetwork(sizes, flat, output_activation)
    for w in net.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


def forward(net: DenseNetwork, x: np.ndarray):
    """Returns (output, tape). Accepts a single vector or a (B, d) batch.

    The tape keeps the input and every layer's post-activation output.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != net.layer_sizes[0]:
        raise ContractViolation(
            f"input width {x.shape[1]} != first layer size {net.layer_sizes[0]}"
        )
    acts = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = acts[-1] @ w
        h += b
        if i < last or net.output_activation == "tanh":
            np.tanh(h, out=h)
        acts.append(h)
    tape = {"acts": acts, "single": single}
    return (h[0] if single else h), tape


def backward(net: DenseNetwork, tape, output_grad: np.ndarray):
    """Reverse-mode gradients.

    output_grad is dL/d(output) with the same shape forward produced.
    Returns (param_grad, a fresh vector in the flat layout; input_grad).
    """
    g = np.asarray(output_grad, dtype=float)
    if tape["single"]:
        g = g[None, :]
    acts = tape["acts"]
    last = len(net.weights) - 1
    if g.shape != acts[-1].shape:
        raise ContractViolation("output_grad shape does not match the forward pass")
    grad = np.empty(net.flat.size)
    grad_w, grad_b = _layer_views(net.layer_sizes, grad)
    for i in range(last, -1, -1):
        if i < last or net.output_activation == "tanh":
            g = g * (1.0 - acts[i + 1] ** 2)  # tanh' from the tanh output
        np.matmul(acts[i].T, g, out=grad_w[i])
        np.sum(g, axis=0, out=grad_b[i])
        g = g @ net.weights[i].T
    input_grad = g[0] if tape["single"] else g
    return grad, input_grad


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


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> np.ndarray:
    """Bias-corrected Adam update of one parameter array, in place; returns it."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ContractViolation("parameter/gradient/moment shape mismatch")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads * grads
    # params -= lr * m_hat / (sqrt(v_hat) + epsilon), with two temporaries.
    denom = v / (1.0 - b2**t)
    np.sqrt(denom, out=denom)
    denom += state.epsilon
    step = m / (1.0 - b1**t)
    step *= state.lr
    step /= denom
    params -= step
    return params


def soft_update(target: np.ndarray, source: np.ndarray, tau: float) -> np.ndarray:
    """target <- (1 - tau) * target + tau * source, in place."""
    if target.shape != source.shape:
        raise ContractViolation("target/source shape mismatch")
    target *= 1.0 - tau
    target += tau * source
    return target


def params_as_vector(net: DenseNetwork) -> np.ndarray:
    return net.flat.copy()


def set_params_from_vector(net: DenseNetwork, vec: np.ndarray) -> None:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != net.flat.shape:
        raise ContractViolation(
            f"vector shape {vec.shape} != parameter shape {net.flat.shape}"
        )
    net.flat[...] = vec


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(path, header: dict, **arrays) -> None:
    """One npz: a JSON header (with format_version) plus named arrays.

    An AdamState value is stored as arrays `<name>_m`, `<name>_v` and its
    scalars under header["adam"][name].
    """
    head = {"format_version": CHECKPOINT_VERSION, **header, "adam": {}}
    out = {}
    for name, value in arrays.items():
        if isinstance(value, AdamState):
            scalars = vars(value).copy()
            out[f"{name}_m"], out[f"{name}_v"] = scalars.pop("m"), scalars.pop("v")
            head["adam"][name] = scalars
        else:
            out[name] = value
    with open(path, "wb") as fh:  # a file handle keeps np.savez from adding ".npz"
        np.savez(fh, header=json.dumps(head), **out)


def load_checkpoint(path):
    """Inverse of save_checkpoint: (header, arrays), AdamStates rebuilt.

    Raises ConfigurationError unless the file carries CHECKPOINT_VERSION.
    """
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"])) if "header" in data.files else {}
        version = header.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"{path}: checkpoint format version {version!r} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        arrays = {k: data[k] for k in data.files if k != "header"}
    for name, scalars in header.pop("adam").items():
        m, v = arrays.pop(f"{name}_m"), arrays.pop(f"{name}_v")
        arrays[name] = AdamState(m, v, **scalars)
    return header, arrays
