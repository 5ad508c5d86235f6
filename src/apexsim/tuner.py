"""Coefficient tuning: a tabular agent walks the integer lattice of ranking
coefficients, one step per measurement interval (MIN), rewarded by the change
in the scalar objective between consecutive intervals.

The disk persists across intervals; the workload stream continues from the
same generator. Each interval's objective reads the file system as its ops
left it: a file's obsolete status is set by the claim that ends its lineage,
so a measurement needs no sweep first. Hill climbing is this same update at
learning rate 1 and discount 0: the table then holds the latest observed
objective delta per (state, action).
"""

import math
import random
from dataclasses import dataclass

from .disk import new_disk
from .model import DiskGeometry, Hyperparams, canonical_json, field_dict
from .policies import FIRST_FIT, ApexPolicy, make_policy
from .recovery import PerfWeights, performance
from .vfs import FileSystem
from .workload import WorkloadConfig, WorkloadRunner

# Eight actions: bump one of the four coefficients up or down by one.
# Index order is fixed; ties in greedy selection go to the lowest index.
ACTIONS = tuple((coef, delta) for coef in range(4) for delta in (1, -1))
_ZERO_ROW = (0.0,) * len(ACTIONS)  # the values of a state the table has not seen

_AGENT_SEED_OFFSET = 7919  # keeps the agent stream off the workload stream


@dataclass(frozen=True)
class TrainSchedule:
    """Exploration schedule: epsilon is exp(-interval / tau), with tau derived
    as min_budget / ln(1 / epsilon_floor), so it reaches the floor exactly
    when the interval budget runs out."""

    min_budget: int = 500
    oin_per_min: int = 1000
    epsilon_floor: float = 3e-5

    def __post_init__(self):
        if self.min_budget < 0:
            raise ValueError("min_budget must be >= 0")
        if self.oin_per_min < 1:
            raise ValueError("oin_per_min must be >= 1")
        if not 0.0 < self.epsilon_floor < 1.0:
            raise ValueError("epsilon_floor must lie in (0, 1)")

    @property
    def tau(self) -> float:
        if self.min_budget == 0:
            return 1.0
        return self.min_budget / math.log(1.0 / self.epsilon_floor)

    def epsilon(self, min_count: int) -> float:
        return math.exp(-min_count / self.tau)


def apply_action(state: tuple, action: int) -> tuple:
    """Next lattice point; stepping outside the range is a self-loop."""
    coef, delta = ACTIONS[action]
    value = state[coef] + delta
    if not Hyperparams.LATTICE_MIN <= value <= Hyperparams.LATTICE_MAX:
        return state
    out = list(state)
    out[coef] = value
    return tuple(out)


def select_action(qtable: dict, state: tuple, eps: float, rng: random.Random) -> int:
    """Epsilon-greedy over the eight actions. The table maps a state to its
    eight action values; an unseen state reads as all zeros, so its greedy
    action is 0, and ties go to the lowest index."""
    if rng.random() < eps:
        return rng.randrange(len(ACTIONS))
    row = qtable.get(state, _ZERO_ROW)
    return row.index(max(row))


def q_update(qtable: dict, state, action, reward, next_state, learning_rate, discount) -> float:
    """One tabular update; returns the new value. Only updated states get a
    row. Non-finite rewards are a caller bug and get rejected loudly."""
    if not math.isfinite(reward):
        raise ValueError(f"non-finite reward {reward!r}")
    row = qtable.setdefault(state, [0.0] * len(ACTIONS))
    target = reward + discount * max(qtable.get(next_state, _ZERO_ROW))
    row[action] += learning_rate * (target - row[action])
    return row[action]


@dataclass(frozen=True)
class TrainConfig:
    geometry: DiskGeometry
    schedule: TrainSchedule
    workload: WorkloadConfig
    weights: PerfWeights = PerfWeights()
    initial: Hyperparams = Hyperparams(1, 1, 1, 1)
    learning_rate: float = 0.1
    discount: float = 0.9
    invert_link_rule: bool = False

    def __post_init__(self):
        if not self.initial.in_lattice():
            raise ValueError(
                f"initial coefficients {self.initial.as_tuple()} outside "
                f"[{Hyperparams.LATTICE_MIN}, {Hyperparams.LATTICE_MAX}]"
            )
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")

    def to_dict(self) -> dict:
        return field_dict(self) | {
            "geometry": self.geometry.to_dict(),
            "schedule": field_dict(self.schedule),
            "workload": self.workload.to_dict(),
            "weights": field_dict(self.weights),
            "initial": list(self.initial.as_tuple()),
        }


@dataclass(frozen=True)
class MinRecord:
    min_index: int
    p: float
    epsilon: float
    state: tuple
    action: int
    reward: float

    def to_dict(self) -> dict:
        return {
            "min": self.min_index,
            "p": self.p,
            "epsilon": self.epsilon,
            "state": list(self.state),
            "action": self.action,
            "reward": self.reward,
        }


@dataclass
class TrainReport:
    config: dict
    seed: int
    p_initial: float
    trajectory: list[MinRecord]
    final_epsilon: float
    best_state: tuple
    final_state: tuple
    final_greedy_p: float
    first_fit_p: float
    states_seen: int = 0

    @property
    def first_min_p(self) -> float:
        return self.trajectory[0].p if self.trajectory else self.p_initial

    def to_dict(self) -> dict:
        return field_dict(self) | {
            "trajectory": [r.to_dict() for r in self.trajectory],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def csv_rows(self):
        """Trajectory as (MIN, P, epsilon, hist, usage, spatial, link) rows."""
        yield ("min", "p", "epsilon", "hist", "usage", "spatial", "link")
        for r in self.trajectory:
            yield (r.min_index, r.p, r.epsilon, *r.state)


def evaluate_policy(config: TrainConfig, hp: Hyperparams, policy_kind: str) -> float:
    """Objective after one interval's worth of ops on a fresh disk under the
    given coefficients and allocation policy, same workload seed."""
    policy = make_policy(policy_kind, seed=config.workload.rng_seed)
    fs = FileSystem(
        new_disk(config.geometry, hp), policy=policy, invert_link_rule=config.invert_link_rule
    )
    runner = WorkloadRunner(config.workload, fs)
    runner.run(config.schedule.oin_per_min)
    return performance(fs, config.weights)


def train(config: TrainConfig) -> TrainReport:
    """Full tuning loop. Deterministic for a fixed config."""
    schedule = config.schedule
    fs = FileSystem(
        new_disk(config.geometry, config.initial),
        policy=ApexPolicy(),
        invert_link_rule=config.invert_link_rule,
    )
    runner = WorkloadRunner(config.workload, fs)
    agent_rng = random.Random(config.workload.rng_seed + _AGENT_SEED_OFFSET)

    qtable: dict[tuple, list[float]] = {}
    state = config.initial.as_tuple()
    trajectory: list[MinRecord] = []
    p_prev = performance(fs, config.weights)
    p_initial = p_prev

    for m in range(schedule.min_budget):
        eps = schedule.epsilon(m)
        runner.run(schedule.oin_per_min)
        p = performance(fs, config.weights)
        # The first interval has no predecessor to difference against, so it
        # carries no reward and leaves the table untouched.
        reward = p - p_prev if m > 0 else 0.0
        p_prev = p
        action = select_action(qtable, state, eps, agent_rng)
        next_state = apply_action(state, action)
        if m > 0:
            q_update(qtable, state, action, reward, next_state, config.learning_rate, config.discount)
        trajectory.append(MinRecord(m, p, eps, state, action, reward))
        state = next_state
        fs.disk.hyperparams = Hyperparams.from_tuple(state)

    # the highest action value wins; ties go to the lowest state
    best_state = max(sorted(qtable), key=lambda s: max(qtable[s]), default=state)

    return TrainReport(
        config=config.to_dict(),
        seed=config.workload.rng_seed,
        p_initial=p_initial,
        trajectory=trajectory,
        final_epsilon=schedule.epsilon(schedule.min_budget),
        best_state=best_state,
        final_state=state,
        final_greedy_p=evaluate_policy(config, Hyperparams.from_tuple(best_state), "apex"),
        first_fit_p=evaluate_policy(config, Hyperparams.from_tuple(best_state), FIRST_FIT),
        states_seen=len(qtable),
    )
