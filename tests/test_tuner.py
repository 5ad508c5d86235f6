"""Exploration schedule, action lattice, value updates, the tuning loop."""

import math
import random

import pytest

from apexsim.model import GRID_ROW, DiskGeometry, Hyperparams, Neighborhood
from apexsim.recovery import PerfWeights
from apexsim.tuner import (
    ACTIONS,
    TrainConfig,
    TrainSchedule,
    apply_action,
    evaluate_policy,
    q_update,
    select_action,
    train,
)
from apexsim.workload import WorkloadConfig


def small_train_config(seed=3, budget=6, ops=40):
    return TrainConfig(
        geometry=DiskGeometry(8, 8, Neighborhood(GRID_ROW)),
        schedule=TrainSchedule(min_budget=budget, oin_per_min=ops),
        workload=WorkloadConfig(rng_seed=seed, total_ops=0, max_file_blocks=4),
        weights=PerfWeights(0.0),
    )


# -- exploration schedule --------------------------------------------------------


def test_epsilon_anchors():
    sched = TrainSchedule(min_budget=500, oin_per_min=200, epsilon_floor=3e-5)
    assert sched.epsilon(0) == 1.0
    tau = sched.tau
    assert sched.epsilon(round(tau)) == pytest.approx(math.exp(-1), rel=1e-3)
    assert sched.epsilon(500) <= 3e-5
    assert sched.epsilon(500) == pytest.approx(3e-5, rel=1e-6)


def test_epsilon_strictly_decreasing():
    sched = TrainSchedule(min_budget=100, oin_per_min=10)
    values = [sched.epsilon(m) for m in range(101)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainSchedule(min_budget=-1, oin_per_min=10)
    with pytest.raises(ValueError):
        TrainSchedule(min_budget=10, oin_per_min=0)
    with pytest.raises(ValueError):
        TrainSchedule(min_budget=10, oin_per_min=10, epsilon_floor=0.0)
    with pytest.raises(ValueError):
        TrainSchedule(min_budget=10, oin_per_min=10, epsilon_floor=1.5)


# -- action lattice ----------------------------------------------------------------


def test_actions_cover_each_coefficient_both_ways():
    state = (5, 5, 5, 5)
    seen = set()
    for a in range(len(ACTIONS)):
        seen.add(apply_action(state, a))
    assert seen == {
        (4, 5, 5, 5), (6, 5, 5, 5),
        (5, 4, 5, 5), (5, 6, 5, 5),
        (5, 5, 4, 5), (5, 5, 6, 5),
        (5, 5, 5, 4), (5, 5, 5, 6),
    }


def test_boundary_moves_are_self_loops():
    low = (1, 1, 1, 1)
    high = (10, 10, 10, 10)
    for a in range(len(ACTIONS)):
        next_low = apply_action(low, a)
        next_high = apply_action(high, a)
        assert all(1 <= c <= 10 for c in next_low)
        assert all(1 <= c <= 10 for c in next_high)
    downs = [a for a in range(len(ACTIONS)) if apply_action((5,) * 4, a) < (5,) * 4]
    for a in downs:
        assert apply_action(low, a) == low
    ups = [a for a in range(len(ACTIONS)) if apply_action((5,) * 4, a) > (5,) * 4]
    for a in ups:
        assert apply_action(high, a) == high


# -- value table --------------------------------------------------------------------


def test_qtable_best_action_breaks_ties_low():
    q = {}
    s = (1, 1, 1, 1)
    rng = random.Random(0)
    assert select_action(q, s, 0.0, rng) == 0  # unseen state: all values read 0.0
    q_update(q, s, 3, 2.0, (9, 9, 9, 9), 1.0, 0.0)
    q_update(q, s, 5, 2.0, (9, 9, 9, 9), 1.0, 0.0)
    assert q[s] == [0.0, 0.0, 0.0, 2.0, 0.0, 2.0, 0.0, 0.0]
    assert select_action(q, s, 0.0, rng) == 3
    q_update(q, s, 0, -1.0, (9, 9, 9, 9), 1.0, 0.0)  # a negative value stays below unseen zeros
    assert select_action(q, s, 0.0, rng) == 3


def test_q_update_creates_only_the_updated_state():
    q = {}
    s, unseen = (4, 4, 4, 4), (5, 4, 4, 4)
    # the unseen next state's best value reads 0.0: the target is the reward alone
    assert q_update(q, s, 1, 3.0, unseen, 1.0, 0.9) == 3.0
    assert list(q) == [s]
    assert q[s] == [0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_q_update_hand_trace():
    q = {}
    s = (2, 2, 2, 2)
    got = q_update(q, s, 0, 1.0, s, 1.0, 0.9)
    assert got == pytest.approx(1.0)
    got = q_update(q, s, 0, 1.0, s, 1.0, 0.9)
    assert got == pytest.approx(1.9)
    assert q[s][0] == pytest.approx(1.9)


def test_q_update_uses_next_state_max():
    q = {}
    s, s2 = (1, 1, 1, 1), (2, 1, 1, 1)
    q[s2] = [0.0] * len(ACTIONS)
    q[s2][4] = 10.0
    got = q_update(q, s, 2, 0.0, s2, 0.5, 0.5)
    # 0 + 0.5 * (0 + 0.5 * 10 - 0)
    assert got == pytest.approx(2.5)


def test_q_update_rejects_non_finite_reward():
    q = {}
    s = (1, 1, 1, 1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            q_update(q, s, 0, bad, s, 0.1, 0.9)


def test_select_action_greedy_at_zero_epsilon():
    s = (3, 3, 3, 3)
    q = {s: [0.0] * len(ACTIONS)}
    q[s][6] = 4.0
    rng = random.Random(0)
    assert all(select_action(q, s, 0.0, rng) == 6 for _ in range(50))


def test_select_action_uniform_at_full_epsilon():
    s = (3, 3, 3, 3)
    q = {s: [0.0] * len(ACTIONS)}
    q[s][6] = 4.0  # must not bias exploration
    rng = random.Random(99)
    counts = [0] * len(ACTIONS)
    n = 100_000
    for _ in range(n):
        counts[select_action(q, s, 1.0, rng)] += 1
    for c in counts:
        assert c == pytest.approx(n / len(ACTIONS), rel=0.02)


# -- training loop -------------------------------------------------------------------


def test_train_config_validation():
    good = small_train_config()
    with pytest.raises(ValueError):
        TrainConfig(
            geometry=good.geometry,
            schedule=good.schedule,
            workload=good.workload,
            initial=Hyperparams(0, 1, 1, 1),
        )
    with pytest.raises(ValueError):
        TrainConfig(
            geometry=good.geometry,
            schedule=good.schedule,
            workload=good.workload,
            learning_rate=0.0,
        )
    with pytest.raises(ValueError):
        TrainConfig(
            geometry=good.geometry,
            schedule=good.schedule,
            workload=good.workload,
            discount=1.0,
        )


def test_zero_budget_returns_initial_state():
    cfg = small_train_config(budget=0)
    report = train(cfg)
    assert report.trajectory == []
    assert report.best_state == cfg.initial.as_tuple()
    assert report.final_state == cfg.initial.as_tuple()
    assert report.first_min_p == report.p_initial == 0.0


@pytest.mark.parametrize("budget", [0, 1, 2, 7])
@pytest.mark.parametrize("floor", [1e-9, 3e-5, 0.5, 0.99])
def test_train_runs_the_whole_budget(floor, budget):
    """tau is derived so that epsilon meets the floor as the budget runs out:
    every interval of the budget runs above the floor."""
    good = small_train_config(ops=20)
    schedule = TrainSchedule(min_budget=budget, oin_per_min=20, epsilon_floor=floor)
    cfg = TrainConfig(geometry=good.geometry, schedule=schedule,
                      workload=good.workload, weights=good.weights)
    report = train(cfg)
    assert [r.min_index for r in report.trajectory] == list(range(budget))
    assert all(r.epsilon == schedule.epsilon(r.min_index) > floor for r in report.trajectory)


def test_train_repeat_is_identical():
    a = train(small_train_config())
    b = train(small_train_config())
    assert a.to_json() == b.to_json()


def test_train_trajectory_bookkeeping():
    cfg = small_train_config(budget=8, ops=30)
    report = train(cfg)
    assert len(report.trajectory) == 8
    assert [r.min_index for r in report.trajectory] == list(range(8))
    eps = [r.epsilon for r in report.trajectory]
    assert all(a > b for a, b in zip(eps, eps[1:]))
    assert report.trajectory[0].reward == 0.0
    for rec in report.trajectory:
        assert Hyperparams.from_tuple(rec.state).in_lattice()
    assert Hyperparams.from_tuple(report.final_state).in_lattice()


def test_train_rewards_telescope():
    report = train(small_train_config(budget=10, ops=25))
    total = sum(r.reward for r in report.trajectory)
    span = report.trajectory[-1].p - report.trajectory[0].p
    assert total == pytest.approx(span, abs=1e-9)


def test_train_moves_follow_selected_actions():
    report = train(small_train_config(budget=6))
    t = report.trajectory
    # each interval starts where the one before it moved, and train ends
    # where the last one moved
    ends = [r.state for r in t[1:]] + [report.final_state]
    for prev, end in zip(t, ends):
        assert end == apply_action(prev.state, prev.action)


def test_hill_climb_mode_runs():
    """Hill climbing is the Q-learning update at learning rate 1, discount 0."""
    cfg = TrainConfig(
        geometry=DiskGeometry(8, 8, Neighborhood(GRID_ROW)),
        schedule=TrainSchedule(min_budget=5, oin_per_min=30),
        workload=WorkloadConfig(rng_seed=1, total_ops=0, max_file_blocks=4),
        learning_rate=1.0,
        discount=0.0,
    )
    report = train(cfg)
    assert len(report.trajectory) == 5
    assert Hyperparams.from_tuple(report.best_state).in_lattice()


def test_evaluate_policy_is_deterministic():
    cfg = small_train_config()
    hp = Hyperparams(4, 7, 1, 9)
    a = evaluate_policy(cfg, hp, "apex")
    b = evaluate_policy(cfg, hp, "apex")
    assert a == b
    ff = evaluate_policy(cfg, hp, "first-fit")
    assert isinstance(ff, float)


def test_report_serialization_round_trip():
    report = train(small_train_config(budget=4))
    doc = report.to_dict()
    assert doc["best_state"] == list(report.best_state)
    assert len(doc["trajectory"]) == 4
    rows = list(report.csv_rows())
    assert rows[0] == ("min", "p", "epsilon", "hist", "usage", "spatial", "link")
    assert len(rows) == 5
