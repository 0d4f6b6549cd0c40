"""Experiment harness: config files, metric collection, summaries."""

import csv
import dataclasses
import json
import os
import re
import sys
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import meta as meta_mod
from .cell import CellBlock, CellConfig
from .ddpg import Hyper, buffer_nbytes, check_count, layer_sizes
from .errors import ConfigurationError
from .mdp import TaskSpec, action_dim, observation_dim
from .meta import MetaSchedule, ScheduleBlock
from .nets import num_params

SCHEMA_VERSION = 2  # 1 had agent.tau, which a file may no longer carry
METHODS = ("meta", "scratch", "tl", "mtl")  # meta, then the baselines
# A method's final return on a seed is the mean of its last FINAL_SHOTS
# adaptation shots (all of them when there are fewer): one shot of a few
# greedy episodes is too noisy to rank methods on.
FINAL_SHOTS = 5
CSV_COLUMNS = ("episode", "return", "q_avg", "q_min", "q_max")
# A method CSV in a run directory, as write_csvs names it; other files are not read.
METHOD_CSV = re.compile(rf"({'|'.join(METHODS)})_seed(0|[1-9]\d*)\.csv")


# -- configuration ---------------------------------------------------------


@dataclass(frozen=True)
class TaskBlock:
    num_rbs: int
    demand_min: float
    demand_max: float


@dataclass(frozen=True)
class ExperimentConfig:
    profile: str
    cell: CellBlock
    tasks: tuple[TaskBlock, ...]  # donors
    new_task: TaskBlock
    schedule: ScheduleBlock
    agent: Hyper
    seeds: tuple[int, ...]
    out_dir: str
    donor_budget: int = 0
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"schema_version: expected {SCHEMA_VERSION}, got {self.schema_version}"
            )
        if not self.seeds:
            raise ConfigurationError("seeds: at least one seed is required")
        for i, seed in enumerate(self.seeds):
            check_count(f"seeds[{i}]", seed)
        # derive_rng keys its streams on a seed's low 32 bits, so 2**32 would run seed 0.
        if outside := [seed for seed in self.seeds if not 0 <= seed < 2**32]:
            raise ConfigurationError(f"seeds: each seed must be in [0, 2**32), got {outside}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds: each seed may appear once, got {list(self.seeds)}")
        if not self.tasks:
            raise ConfigurationError("tasks: at least one donor task is required")
        check_count("donor_budget", self.donor_budget)
        if self.donor_budget < 0:
            raise ConfigurationError(f"donor_budget must be >= 0, got {self.donor_budget}")
        # The cell and schedule blocks check themselves; a task, by building its TaskSpec.
        self.donor_task_specs()
        self.new_task_spec()
        if self.schedule.adapt_budget < 1:
            raise ConfigurationError(
                f"schedule: outer_iters {self.schedule.outer_iters} leaves no adaptation "
                "episode (the budget is 10% of outer_iters, halves rounded up)"
            )
        self._check_sizes()

    def _check_sizes(self):
        """Reject counts whose arrays would not fit in physical memory, so that
        a run does not load and then fail building them. Skipped where
        os.sysconf cannot tell the memory size."""
        try:
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError):  # no os.sysconf, or not these names
            return
        h, n = self.agent, self.cell.num_ues
        obs, act = observation_dim(n), action_dim(n)
        item = np.dtype(h.dtype).itemsize
        actor, critic = (num_params(sizes) * item for sizes in layer_sizes(obs, act, h))
        num_rbs = max(t.num_rbs for t in (*self.tasks, self.new_task))
        for fields, what, size in (
            ("agent: buffer_capacity and cell: num_ues", "one task's replay buffer",
             buffer_nbytes(h.buffer_capacity, obs, act, h.dtype)),
            ("cell: num_ues and agent: hidden_sizes", "one actor's parameters", actor),
            ("cell: num_ues and agent: hidden_sizes", "one critic's parameters", critic),
            ("cell: num_neighbors, num_ues and the tasks' largest num_rbs", "one channel draw",
             (1 + self.cell.num_neighbors) * n * num_rbs * 8),
        ):
            if size > memory:
                raise ConfigurationError(
                    f"{fields} are too large: {what} would need {size:,} bytes, more "
                    f"than the {memory:,} bytes of physical memory"
                )

    # -- derived objects ---------------------------------------------------

    def cell_config(self, num_rbs: int) -> CellConfig:
        # asdict, not vars: vars would also hold the block's cached powers in mW.
        return CellConfig(num_rbs=num_rbs, **dataclasses.asdict(self.cell))

    def _task_spec(self, block: str, t: TaskBlock, task_id: int) -> TaskSpec:
        with _block(block):
            return TaskSpec(t.demand_min, t.demand_max, self.cell_config(t.num_rbs), task_id)

    def donor_task_specs(self) -> list:
        return [self._task_spec(f"tasks[{i}]", t, i) for i, t in enumerate(self.tasks)]

    def new_task_spec(self) -> TaskSpec:
        return self._task_spec("new_task", self.new_task, len(self.tasks))

    def meta_schedule(self) -> MetaSchedule:
        return MetaSchedule(num_tasks=len(self.tasks), **dataclasses.asdict(self.schedule))

    def hyper(self) -> Hyper:
        return self.agent


@contextmanager
def _block(name):
    """Raise a ConfigurationError (or the TypeError of a missing field) with
    the name of the config block in front."""
    try:
        yield
    except (TypeError, ConfigurationError) as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc


def _want(kind) -> str:
    """What a JSON value must be to be read as the annotated type kind."""
    if typing.get_origin(kind) is tuple:
        return f"a list, each item {_want(typing.get_args(kind)[0])}"
    return {int: "an integer", float: "a finite number", str: "a string"}.get(kind, "an object")


def _read(kind, value, path, misfit):
    """The JSON value at path read as the annotated type kind: a dataclass from
    an object with no unknown keys, tuple[X, ...] from a list of X. A value
    that does not fit raises ConfigurationError(f"{misfit}, got {value!r}")."""
    if dataclasses.is_dataclass(kind) and isinstance(value, dict):
        fields = {f.name: f.type for f in dataclasses.fields(kind)}
        if unknown := set(value) - set(fields):
            raise ConfigurationError(f"{path}: unknown keys {sorted(unknown)}")
        kwargs = {name: _read(fields[name], item, f"{path}.{name}",
                              f"{path}: {name} must be {_want(fields[name])}")
                  for name, item in value.items()}
        with _block(path):
            return kind(**kwargs)
    if typing.get_origin(kind) is tuple and isinstance(value, list):
        return tuple(_read(typing.get_args(kind)[0], v, f"{path}[{i}]", misfit)
                     for i, v in enumerate(value))
    # type(), not isinstance(): a bool is not a number. A float is read from a
    # number that fits a finite float, which NaN, the infinities and 10**400 do not.
    if kind in (int, str) and type(value) is kind:
        return value
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigurationError(f"{misfit}, got {value!r}")


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad syntax or UTF-8, or an int of over 4300 digits
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    return _read(ExperimentConfig, data, "config", f"{path}: config must be an object")


def save_config(path, config: ExperimentConfig) -> None:
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2)
        fh.write("\n")


def default_config(profile: str = "paper", out_dir: str = "results") -> ExperimentConfig:
    """Built-in profiles.

    paper: evaluation-scale settings (expensive to train on a desktop).
    toy:   small cells and networks for quick, fully reproducible runs.

    Both train in float32; Hyper's default, float64, is the oracle reference.
    """
    if profile == "paper":
        c_x = 10e6
        return ExperimentConfig(
            profile="paper",
            cell=CellBlock(),
            tasks=tuple(
                TaskBlock(num_rbs=k, demand_min=c_m, demand_max=c_x)
                for k in (60, 80, 100)
                for c_m in (1e6, 3e6)
            ),
            new_task=TaskBlock(num_rbs=80, demand_min=2e6, demand_max=c_x),
            schedule=ScheduleBlock(outer_iters=100, eval_episodes=10),
            # Single precision halves the paper-size learner's time and memory.
            agent=Hyper(dtype="float32"),
            seeds=(0, 1, 2),
            out_dir=out_dir,
            donor_budget=1000,
        )
    if profile == "toy":
        # Small cell, few UEs and coarse RB grids: the "serve every active UE
        # one or two blocks" region is wide in action space, so learning shows
        # within a few hundred episodes.
        c_x = 2e6
        return ExperimentConfig(
            profile="toy",
            cell=CellBlock(num_ues=5, cell_radius_m=150.0, neighbor_occupancy=0.25),
            tasks=(
                TaskBlock(num_rbs=8, demand_min=0.3e6, demand_max=c_x),
                TaskBlock(num_rbs=10, demand_min=0.5e6, demand_max=c_x),
                TaskBlock(num_rbs=12, demand_min=0.7e6, demand_max=c_x),
            ),
            new_task=TaskBlock(num_rbs=10, demand_min=0.4e6, demand_max=c_x),
            schedule=ScheduleBlock(
                outer_iters=200,
                eval_episodes=1,
                meta_actor_lr=3e-4,
                meta_critic_lr=3e-3,
            ),
            agent=Hyper(
                gamma=0.9,
                lr=1e-3,
                actor_lr=3e-5,
                noise_std=0.3,
                noise_decay=0.999,
                noise_floor=0.3,
                batch_size=128,
                buffer_capacity=20_000,
                horizon=40,
                hidden_sizes=(64, 64),
                warmup_transitions=600,
                dtype="float32",
            ),
            seeds=(0, 1, 2, 3, 4),
            out_dir=out_dir,
            donor_budget=100,
        )
    raise ConfigurationError(f"unknown profile {profile!r}")


# -- metrics ---------------------------------------------------------------


@dataclass
class MetricsLog:
    """Per-episode rows, one list per (method, seed) and so per CSV:
    runs[(method, seed)] is [(episode, return, q_avg, q_min, q_max), ...]."""

    runs: dict = field(default_factory=dict)

    def add(self, method, task_id, seed, episode, ret, q_avg, q_min, q_max):
        """task_id is taken and not stored: no reader needs it."""
        self.runs.setdefault((method, seed), []).append((episode, ret, q_avg, q_min, q_max))

    def add_trace(self, method, seed, trace):
        """One row per shot of an adaptation trace (meta.inner_adapt's form)."""
        for e in trace:
            self.add(method, None, seed, e["shot"], e["episode_return"],
                     e["q_avg"], e["q_min"], e["q_max"])

    def methods(self) -> list:
        return list(dict.fromkeys(method for method, _ in self.runs))

    def seeds(self, method) -> list:
        return sorted(seed for m, seed in self.runs if m == method)

    def write_csvs(self, out_dir) -> list:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for method in self.methods():
            for seed in self.seeds(method):
                path = out / f"{method}_seed{seed}.csv"
                with open(path, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(CSV_COLUMNS)
                    for episode, *values in self.runs[method, seed]:
                        writer.writerow([episode, *map(repr, values)])
                written.append(path)
        return written

    @classmethod
    def read_csvs(cls, out_dir) -> "MetricsLog":
        """The <method>_seed<k>.csv files of out_dir, one per method in METHODS
        and seed; a missing directory, a missing column, episodes that do not
        run 1, 2, ..., n in file order, a cell that is not a finite number or
        a field over the csv module's size limit raises ConfigurationError
        naming the directory or file."""
        if not Path(out_dir).is_dir():
            raise ConfigurationError(f"{out_dir}: no such directory")
        log = cls()
        for path in sorted(Path(out_dir).glob("*_seed*.csv")):
            match = METHOD_CSV.fullmatch(path.name)
            if match is None:
                continue
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                try:
                    header = reader.fieldnames or ()
                except (UnicodeDecodeError, csv.Error) as exc:
                    raise ConfigurationError(f"{path}: {exc}") from exc
                missing = [c for c in CSV_COLUMNS if c not in header]
                if missing:
                    raise ConfigurationError(f"{path}: missing columns {missing}")
                try:
                    for expected, row in enumerate(reader, start=1):
                        episode, *values = (row[c] for c in CSV_COLUMNS)
                        if int(episode) != expected:
                            raise ValueError(f"episode {episode!r} where {expected} is due")
                        numbers = [float(v) for v in values]
                        if not np.isfinite(numbers).all():
                            raise ValueError(f"non-finite number in {values}")
                        log.add(match[1], None, int(match[2]), expected, *numbers)
                except (TypeError, ValueError, csv.Error) as exc:
                    # The inner reader's count: DictReader updates its own
                    # only after a row has been read whole.
                    raise ConfigurationError(
                        f"{path}, line {reader.reader.line_num}: {exc}") from exc
        return log


# -- experiment driver -----------------------------------------------------


def run_experiment(config: ExperimentConfig, mode: str = "all") -> MetricsLog:
    """Run meta-training/adaptation and/or baselines for every seed.

    A run directory holds one metrics CSV per (method, seed),
    <method>_seed<k>.csv, and for meta the checkpoint meta_model_seed<k>.npz;
    the CLI's adapt command adds adapted_agent_seed<k>.npz. A seed's CSVs are
    written when the seed ends, so a failure keeps those of the seeds before
    it. Interrupted runs restart cleanly (no resume).
    """
    if mode not in METHODS + ("all",):
        raise ConfigurationError(f"unknown mode {mode!r}")
    wanted = METHODS if mode == "all" else (mode,)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    donors = config.donor_task_specs()
    new_task = config.new_task_spec()
    schedule = config.meta_schedule()
    hyper = config.hyper()
    log = MetricsLog()

    for seed in config.seeds:
        seed_log = MetricsLog()
        for method in wanted:
            if method == "meta":
                model = meta_mod.meta_train(donors, schedule, hyper, seed)
                meta_mod.save_meta_model(out / f"meta_model_seed{seed}.npz", model)
                _, trace = meta_mod.meta_adapt_new(model, new_task, schedule, hyper, seed)
            else:
                _, trace = meta_mod.run_baseline(method, new_task, donors, schedule.adapt_budget,
                                                 hyper, seed, donor_budget=config.donor_budget)
            seed_log.add_trace(method, seed, trace)
        seed_log.write_csvs(out)
        log.runs.update(seed_log.runs)
    return log


# -- analysis --------------------------------------------------------------


def five_number_summary(samples) -> tuple:
    """(min, Q1, median, Q3, max)."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ConfigurationError("five_number_summary needs at least one sample")
    return tuple(float(q) for q in np.percentile(arr, [0, 25, 50, 75, 100]))


def relative_gain(r_meta: float, r_base: float) -> float:
    """(r_meta - r_base) / |r_base|; nan when the baseline return is 0."""
    if r_base == 0:
        return float("nan")
    return (r_meta - r_base) / abs(r_base)


def final_return(returns) -> float:
    """A seed's final return: the mean of its last min(FINAL_SHOTS, shots)
    shot returns, given in shot order."""
    return float(np.mean(returns[-FINAL_SHOTS:]))


def summarize(log: MetricsLog) -> str:
    """Plain-text report: final returns, gains, QoS spread, adaptation table."""
    methods = log.methods()
    if len(methods) < 2:
        raise ConfigurationError("summarize needs records from at least two methods")
    lines = []
    missing = [m for m in METHODS if m not in methods]
    if missing:
        lines.append(f"WARNING: no records for {missing}; partial report")
        lines.append("")
    lines.append(f"== Final mean discounted return (per method; per seed the mean of the "
                 f"last min({FINAL_SHOTS}, shots) shots) ==")
    finals = {}
    for method in methods:
        per_seed = [final_return([row[1] for row in log.runs[method, seed]])
                    for seed in log.seeds(method)]
        mean = float(np.mean(per_seed))
        std = float(np.std(per_seed))
        finals[method] = mean
        flag = "  (single seed, std not meaningful)" if len(per_seed) == 1 else ""
        lines.append(f"  {method:8s} {mean:12.6f} +- {std:.6f}{flag}")

    if "meta" in finals:
        best_base = max((m for m in methods if m != "meta"), key=finals.get)
        gain = relative_gain(finals["meta"], finals[best_base])
        figure = (f"{gain * 100:.1f}%" if finals[best_base] != 0
                  else f"undefined ({best_base} final return is 0)")
        lines.append("")
        lines.append(f"Relative gain of meta over best baseline ({best_base}): {figure}")
        lines.append(
            "(reported figure for the evaluation-scale setup in the source study: 19.8%)"
        )

    rows = {method: [] for method in methods}  # run after run, in the order added
    for (method, _), run in log.runs.items():
        rows[method] += run
    lines.append("")
    lines.append("== Min-QoS five-number summary (bits/s) ==")
    for method in methods:
        mn, q1, med, q3, mx = five_number_summary(row[3] for row in rows[method])
        lines.append(
            f"  {method:8s} min={mn:.3e} q1={q1:.3e} med={med:.3e} q3={q3:.3e} max={mx:.3e}"
        )

    lines.append("")
    lines.append("== Mean return per adaptation shot ==")
    shots = sorted({row[0] for method in methods for row in rows[method]})
    lines.append("  shot  " + "  ".join(f"{m:>10s}" for m in methods))
    for shot in shots:
        cells = []
        for method in methods:
            vals = [row[1] for row in rows[method] if row[0] == shot]
            cells.append(f"{np.mean(vals):10.4f}" if vals else " " * 10)
        lines.append(f"  {shot:4d}  " + "  ".join(cells))
    return "\n".join(lines)
