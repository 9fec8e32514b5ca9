import math

import pytest

from keyopt.core import RngStream
from keyopt.qlearning import (
    EPS_MAX_LADDER,
    EPS_MIN,
    ParameterGrid,
    QController,
    epsilon,
    learning_factor,
    reward,
    select_action,
    three_point_values,
    update_q,
)


def small_grid():
    return ParameterGrid.from_dict(
        {"a": (1.0, 2.0, 3.0), "b": (0.1, 0.2)},
        initial={"a": 2.0, "b": 0.1},
    )


def test_epsilon_start_of_first_period_is_one():
    assert epsilon(0.0, 10.0, 1) == pytest.approx(1.0)


def test_epsilon_end_of_period_is_minimum():
    for i in (1, 4, 10):
        assert epsilon(10.0, 10.0, i) == pytest.approx(0.1)


def test_epsilon_midpoint_first_period():
    assert epsilon(5.0, 10.0, 1) == pytest.approx(0.55)


def test_epsilon_is_continuous_and_non_increasing_within_period():
    prev = None
    for step in range(101):
        value = epsilon(step / 100 * 7.0, 7.0, 3)
        if prev is not None:
            assert value <= prev + 1e-12
        prev = value
    assert epsilon(0.0, 7.0, 3) == pytest.approx(EPS_MAX_LADDER[2])


def test_epsilon_rejects_zero_period():
    with pytest.raises(ValueError):
        epsilon(0.0, 0.0, 1)


def test_reward_cases():
    assert reward(100.0, 90.0) == 1.0
    assert reward(100.0, 100.0) == 0.0
    assert reward(100.0, 125.0) == pytest.approx(-0.2)


def test_reward_zero_denominator_guard():
    value = reward(0.0, 0.0)
    assert math.isfinite(value) and value == 0.0


def test_learning_factor_schedule():
    assert learning_factor(0.0) == 1.0
    assert learning_factor(1.0) == pytest.approx(0.1)
    assert learning_factor(0.5) == pytest.approx(0.55)
    with pytest.raises(ValueError):
        learning_factor(1.5)


def test_grid_action_count_and_reachability():
    grid = small_grid()
    assert grid.num_states == 6
    state = grid.initial
    # |A(s)| = sum over parameters of (len(values) - 1)
    assert len(grid.actions(state)) == (3 - 1) + (2 - 1)
    # every state reachable from every other via single-parameter moves
    seen = {state}
    frontier = [state]
    while frontier:
        s = frontier.pop()
        for a in grid.actions(s):
            nxt = grid.apply(s, a)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert len(seen) == grid.num_states


def test_select_action_greedy_when_epsilon_zero():
    grid = small_grid()
    state = grid.initial
    qtable = {}
    target = grid.actions(state)[2]
    qtable[(state, target)] = 5.0
    rng = RngStream(1, 0)
    for _ in range(50):
        assert select_action(qtable, state, 0.0, grid, rng) == target


def test_select_action_uniform_when_epsilon_one():
    grid = small_grid()
    state = grid.initial
    rng = RngStream(2, 0)
    actions = grid.actions(state)
    counts = {a: 0 for a in actions}
    for _ in range(10000):
        counts[select_action({}, state, 1.0, grid, rng)] += 1
    for a in actions:
        assert abs(counts[a] / 10000 - 1 / len(actions)) < 0.03


def test_select_action_uniform_over_ties_when_q_all_zero():
    grid = small_grid()
    state = grid.initial
    rng = RngStream(3, 0)
    actions = grid.actions(state)
    counts = {a: 0 for a in actions}
    for _ in range(9000):
        counts[select_action({}, state, 0.0, grid, rng)] += 1
    for a in actions:
        assert counts[a] > 0


def test_update_q_hand_computed_steps():
    grid = small_grid()
    s = grid.initial
    a = grid.actions(s)[0]
    s_next = grid.apply(s, a)

    qtable = {}
    new = update_q(qtable, s, a, 1.0, s_next, 1.0, 0.8, grid)
    assert new == pytest.approx(1.0)  # all-zero table, full learning rate

    qtable = {(s, a): 2.0}
    for nxt_action in grid.actions(s_next):
        qtable[(s_next, nxt_action)] = 2.0
    new = update_q(qtable, s, a, 1.0, s_next, 0.5, 0.8, grid)
    assert new == pytest.approx(2.3)  # 2 + 0.5 * (1 + 0.8*2 - 2)

    qtable = {(s, a): 7.0}
    assert update_q(qtable, s, a, 0.0, s_next, 0.0, 0.8, grid) == 7.0


def test_controller_two_improving_steps_give_positive_greedy_q():
    grid = small_grid()
    controller = QController(grid, RngStream(4, 0))
    controller.select(progress=0.99)  # late in the run epsilon is ~0.1
    controller.observe(100.0, 90.0, progress=0.99)
    controller.select(progress=0.99)
    controller.observe(90.0, 80.0, progress=0.99)
    assert max(controller.qtable.values()) > 0.0


def test_controller_single_state_grid_is_constant():
    grid = ParameterGrid.from_dict({"a": (1.5,)})
    controller = QController(grid, RngStream(5, 0))
    configs = set()
    for _ in range(10):
        cfg = controller.select(0.5)
        controller.observe(10.0, 10.0, 0.5)
        configs.add(tuple(cfg.items()))
    assert configs == {(("a", 1.5),)}


def test_controller_period_rollover_resets_epsilon_ladder():
    grid = small_grid()
    controller = QController(grid, RngStream(6, 0))
    just_before = controller._epsilon_at(0.1 - 1e-9)
    at_rollover = controller._epsilon_at(0.1)
    assert just_before == pytest.approx(EPS_MIN, abs=1e-6)
    assert at_rollover == pytest.approx(EPS_MAX_LADDER[1])


def test_controller_trajectory_stays_on_grid():
    grid = small_grid()
    controller = QController(grid, RngStream(7, 0))
    valid_values = {
        name: set(vals) for name, vals in zip(grid.names, grid.values)
    }
    f = 100.0
    for step in range(200):
        cfg = controller.select(step / 200)
        for name, value in cfg.items():
            assert value in valid_values[name]
        f_new = f - (1.0 if step % 3 == 0 else -0.5)
        controller.observe(f, f_new, step / 200)
        f = min(f, f_new)


def test_q_values_bounded_for_bounded_rewards():
    # |Q| stays within R_max / (1 - df) plus slack on any reward stream.
    grid = small_grid()
    controller = QController(grid, RngStream(8, 0))
    rng = RngStream(9, 0)
    f = 1000.0
    for step in range(2000):
        controller.select(min(0.999, step / 2000))
        f_new = f * (1 + (rng.random() - 0.55) * 0.2)
        controller.observe(f, f_new, min(0.999, step / 2000))
        f = f_new
        if f < 1.0:
            f = 1000.0
    bound = 1.0 / (1.0 - 0.8) + 1.0
    assert all(abs(q) <= bound for q in controller.qtable.values())


def test_three_point_values_clipping():
    assert three_point_values(0.2, lo=0.0, hi=1.0) == pytest.approx((0.1, 0.2, 0.3))
    assert three_point_values(0.9, lo=0.0, hi=1.0) == (0.45, 0.9, 1.0)
    assert three_point_values(0.7, lo=0.51, hi=1.0) == (0.51, 0.7, 1.0)
    assert three_point_values(100, lo=1, integer=True) == (50, 100, 150)
