"""Span tracing of metaran from outside the package.

`traced(tracer)` replaces the public functions listed in SPANS with wrappers
that record a span around each call, and puts the originals back on exit.
Nothing under src/metaran changes. A function imported by name into another
module (meta does `from .ddpg import run_episode, sample_batch`) is bound in
both places, so every module attribute that holds the original object is
replaced. The wrappers only read the clock; they never touch an RNG.
"""

import contextlib
import importlib
import inspect
import time
from collections import Counter

# (span name, layer, module, attribute path). The layer groups spans for the
# layer totals; meta.save_meta_model is checkpoint I/O, so it sits with the
# harness layer.
SPANS = [
    ("cell.step_mobility", "cell", "cell", "step_mobility"),
    ("cell.step_traffic", "cell", "cell", "step_traffic"),
    ("cell.sample_channel", "cell", "cell", "sample_channel"),
    ("cell.compute_rates", "cell", "cell", "compute_rates"),
    ("mdp.decode_action", "mdp", "mdp", "decode_action"),
    ("mdp.compute_reward", "mdp", "mdp", "compute_reward"),
    ("mdp.encode_state", "mdp", "mdp", "encode_state"),
    ("mdp.compute_penalties", "mdp", "mdp", "compute_penalties"),
    ("episode.TaskEnv.step", "episode", "episode", "TaskEnv.step"),
    ("episode.TaskEnv.reset", "episode", "episode", "TaskEnv.reset"),
    ("nets.forward", "nets", "nets", "forward"),
    ("nets.backward", "nets", "nets", "backward"),
    ("nets.adam_step", "nets", "nets", "adam_step"),
    ("nets.soft_update", "nets", "nets", "soft_update"),
    ("nets.set_params_from_vector", "nets", "nets", "set_params_from_vector"),
    ("nets.params_as_vector", "nets", "nets", "params_as_vector"),
    ("ddpg.DdpgAgent.select_action", "ddpg", "ddpg", "DdpgAgent.select_action"),
    ("ddpg.DdpgAgent.train_step", "ddpg", "ddpg", "DdpgAgent.train_step"),
    ("ddpg.DdpgAgent.critic_gradients", "ddpg", "ddpg", "DdpgAgent.critic_gradients"),
    ("ddpg.DdpgAgent.actor_gradients", "ddpg", "ddpg", "DdpgAgent.actor_gradients"),
    ("ddpg.DdpgAgent.load_vectors", "ddpg", "ddpg", "DdpgAgent.load_vectors"),
    ("ddpg.sample_batch", "ddpg", "ddpg", "sample_batch"),
    ("ddpg.ReplayBuffer.add", "ddpg", "ddpg", "ReplayBuffer.add"),
    ("ddpg.run_episode", "ddpg", "ddpg", "run_episode"),
    ("meta.meta_train", "meta", "meta", "meta_train"),
    ("meta.query_gradients", "meta", "meta", "query_gradients"),
    ("meta.apply_meta_update", "meta", "meta", "apply_meta_update"),
    ("meta.inner_adapt", "meta", "meta", "inner_adapt"),
    ("harness.MetricsLog.write_csvs", "harness", "harness", "MetricsLog.write_csvs"),
    ("meta.save_meta_model", "harness", "meta", "save_meta_model"),
]
# One meta outer iteration, opened and closed through meta_train's public
# on_outer_start hook (it starts after the agents are reloaded).
OUTER_ITER = "meta.outer_iter"
LAYER = {name: layer for name, layer, _, _ in SPANS}
LAYER[OUTER_ITER] = "meta"
SPAN_NAMES = [name for name, _, _, _ in SPANS] + [OUTER_ITER]
MODULES = ("cell", "mdp", "episode", "nets", "ddpg", "meta", "harness")


class Tracer:
    """Per-name call count, inclusive time and time covered by child spans."""

    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive_s, child_s]
        self.stack = []  # open spans: [name, start, child_s]
        self.top_level_s = 0.0
        self.raised = Counter()  # name -> calls that raised
        self.nones = Counter()  # name -> calls that returned None
        self.results = {}  # name -> return values kept by `keep`
        self.keep = ()

    def begin(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def end(self):
        name, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += child
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.top_level_s += dur

    def top(self):
        return self.stack[-1][0] if self.stack else None

    def calls(self, name):
        return self.stats.get(name, [0])[0]

    def wrap(self, name, fn):
        keep = name in self.keep

        def span(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                self.end()
            if out is None:
                self.nones[name] += 1
            if keep:
                self.results.setdefault(name, []).append(out)
            return out

        span.__wrapped__ = fn
        return span

    def wrap_meta_train(self, fn):
        """meta_train with an outer-iteration span driven by its own hook."""
        sig = inspect.signature(fn)

        def span(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            user_hook = bound.arguments.get("on_outer_start")

            def hook(it, meta, agents):
                if self.top() == OUTER_ITER:
                    self.end()
                if user_hook is not None:
                    user_hook(it, meta, agents)
                self.begin(OUTER_ITER)

            bound.arguments["on_outer_start"] = hook
            self.begin("meta.meta_train")
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                if self.top() == OUTER_ITER:
                    self.end()
                self.end()

        span.__wrapped__ = fn
        return span


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


@contextlib.contextmanager
def traced(tracer):
    """Install span wrappers for the duration of the block."""
    mods = [importlib.import_module(f"metaran.{m}") for m in MODULES]
    patched = []  # (owner, attribute, original)
    try:
        for name, _, mod_name, path in SPANS:
            owner, attr = _resolve(importlib.import_module(f"metaran.{mod_name}"), path)
            orig = owner.__dict__[attr]
            wrapper = (
                tracer.wrap_meta_train(orig) if name == "meta.meta_train"
                else tracer.wrap(name, orig)
            )
            if inspect.isclass(owner):
                patched.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            # Every module that bound the same function object by name.
            for mod in mods:
                if mod.__dict__.get(attr) is orig:
                    patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)
