"""Online parameter control via Q-learning.

The controller walks a finite grid of parameter configurations: each state
is one configuration, each action changes a single parameter to another of
its admissible values.  An epsilon-greedy policy picks actions, with epsilon
following a cosine decay that warm-restarts every tenth of the run and a
ladder of shrinking restart peaks.  One controller belongs to exactly one
solver worker.
"""

import math
from dataclasses import dataclass

from .core import RngStream

EPS_MIN = 0.1
EPS_MAX_LADDER = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
DISCOUNT = 0.8
RESTART_FRACTION = 0.1  # period length as a share of the whole run
REWARD_GUARD = 1e-12

State = tuple[int, ...]
Action = tuple[int, int]  # (parameter position, new value index)


def epsilon(t_cur: float, period: float, ladder_index: int) -> float:
    """Cosine-annealed exploration rate within one restart period.

    `ladder_index` is 1-based into the restart-peak ladder.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if not 0 <= t_cur <= period:
        raise ValueError(f"need 0 <= t_cur <= period, got t_cur={t_cur}, period={period}")
    if not 1 <= ladder_index <= len(EPS_MAX_LADDER):
        raise ValueError(f"ladder index out of range: {ladder_index}")
    eps_max = EPS_MAX_LADDER[ladder_index - 1]
    return EPS_MIN + 0.5 * (eps_max - EPS_MIN) * (1.0 + math.cos(math.pi * t_cur / period))


def reward(f_prev_best: float, f_new_best: float) -> float:
    """1 on strict improvement of the best objective, otherwise the
    (non-positive) relative change."""
    if f_new_best < f_prev_best:
        return 1.0
    return (f_prev_best - f_new_best) / (f_new_best + REWARD_GUARD)


def learning_factor(elapsed_fraction: float) -> float:
    """Learning rate schedule: 1 at the start of the run down to 0.1 at the
    end."""
    if not 0.0 <= elapsed_fraction <= 1.0:
        raise ValueError(f"elapsed fraction must be in [0, 1], got {elapsed_fraction}")
    return 1.0 - 0.9 * elapsed_fraction


@dataclass
class ParameterGrid:
    """Admissible values per parameter; the state space is their Cartesian
    product and actions substitute one parameter value at a time."""

    names: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    initial: State = None

    def __post_init__(self):
        if not self.names or len(self.names) != len(self.values):
            raise ValueError("grid needs one value list per parameter name")
        for name, vals in zip(self.names, self.values):
            if len(vals) < 1:
                raise ValueError(f"parameter {name} has no admissible values")
        if self.initial is None:
            self.initial = tuple(len(v) // 2 for v in self.values)

    @classmethod
    def from_dict(cls, spec: dict, initial: dict | None = None) -> "ParameterGrid":
        names = tuple(spec.keys())
        values = tuple(tuple(v) for v in spec.values())
        grid = cls(names=names, values=values)
        if initial is not None:
            grid.initial = tuple(
                values[k].index(initial[name]) for k, name in enumerate(names)
            )
        return grid

    def config(self, state: State) -> dict:
        return {name: self.values[k][state[k]] for k, name in enumerate(self.names)}

    def actions(self, state: State) -> list[Action]:
        acts = []
        for k, vals in enumerate(self.values):
            for idx in range(len(vals)):
                if idx != state[k]:
                    acts.append((k, idx))
        return acts

    def apply(self, state: State, action: Action) -> State:
        k, idx = action
        out = list(state)
        out[k] = idx
        return tuple(out)

    @property
    def num_states(self) -> int:
        n = 1
        for vals in self.values:
            n *= len(vals)
        return n


def select_action(
    qtable: dict, state: State, eps: float, grid: ParameterGrid, rng: RngStream
) -> Action:
    """Epsilon-greedy action choice with uniform tie-breaking among the
    greedy maximizers."""
    actions = grid.actions(state)
    if not actions:
        raise ValueError("state has no actions (single-configuration grid)")
    if rng.random() < eps:
        return actions[rng.integers(0, len(actions))]
    best_q = max(qtable.get((state, a), 0.0) for a in actions)
    ties = [a for a in actions if qtable.get((state, a), 0.0) == best_q]
    return ties[rng.integers(0, len(ties))]


def update_q(
    qtable: dict,
    state: State,
    action: Action,
    r: float,
    next_state: State,
    lf: float,
    df: float,
    grid: ParameterGrid,
) -> float:
    """One Bellman update; returns the new Q(state, action)."""
    next_actions = grid.actions(next_state)
    max_next = max((qtable.get((next_state, a), 0.0) for a in next_actions), default=0.0)
    old = qtable.get((state, action), 0.0)
    new = old + lf * (r + df * max_next - old)
    qtable[(state, action)] = new
    return new


class QController:
    """Per-solver parameter controller.

    Call `select(progress)` at the top of each solver iteration to obtain
    the configuration to use, and `observe(f_prev_best, f_new_best,
    progress)` at the end to credit the action that produced it.  `progress`
    is the consumed fraction of the run budget.
    """

    def __init__(self, grid: ParameterGrid, rng: RngStream):
        self.grid = grid
        self.rng = rng
        self.qtable: dict = {}
        self.state: State = grid.initial
        self._pending: tuple[State, Action, State] | None = None

    def _epsilon_at(self, progress: float) -> float:
        i = min(len(EPS_MAX_LADDER), int(progress / RESTART_FRACTION) + 1)
        t_cur = progress - (i - 1) * RESTART_FRACTION
        t_cur = min(max(t_cur, 0.0), RESTART_FRACTION)
        return epsilon(t_cur, RESTART_FRACTION, i)

    def select(self, progress: float = 0.0) -> dict:
        """Pick the next action and return the configuration it leads to."""
        if self.grid.num_states == 1:
            return self.grid.config(self.state)
        eps = self._epsilon_at(min(max(progress, 0.0), 1.0))
        action = select_action(self.qtable, self.state, eps, self.grid, self.rng)
        nxt = self.grid.apply(self.state, action)
        self._pending = (self.state, action, nxt)
        return self.grid.config(nxt)

    def observe(self, f_prev_best: float, f_new_best: float, progress: float = 0.0) -> None:
        """Credit the pending action with the observed reward and move to
        the state it produced."""
        if self._pending is None:
            return
        state, action, nxt = self._pending
        r = reward(f_prev_best, f_new_best)
        lf = learning_factor(min(max(progress, 0.0), 1.0))
        update_q(self.qtable, state, action, r, nxt, lf, DISCOUNT, self.grid)
        self.state = nxt
        self._pending = None


def three_point_values(center: float, lo: float | None = None, hi: float | None = None,
                       integer: bool = False) -> tuple[float, ...]:
    """Sorted, deduplicated value list {0.5x, x, 1.5x} around a tuned
    center.  The outer points are clipped to [lo, hi] (and rounded when
    `integer`); the center is kept as given, so it is always on the list."""
    out = [center]
    for v in (0.5 * center, 1.5 * center):
        if lo is not None:
            v = max(lo, v)
        if hi is not None:
            v = min(hi, v)
        if integer:
            v = max(1, round(v))
        if v not in out:
            out.append(v)
    return tuple(sorted(out))
