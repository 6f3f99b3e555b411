"""Physical layer: a DC source behind an internal resistance feeding N
parallel branches.

Each branch carries one agent's base load, optionally paralleled by that
agent's flexible load.  Which flexible loads are connected is a bool
vector in branch order, the same one the engine and the planner pass.
The single load-bus voltage is the signal the agents sense; connecting
flexible loads pulls it down, disconnecting them lets it rise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Branch:
    """One agent's pair of resistances, in ohms."""

    r_base: float
    r_flex: float

    def __post_init__(self):
        if not 0 < self.r_base < math.inf:
            raise ValueError(f"r_base must be finite and positive, got {self.r_base}")
        if not 0 < self.r_flex < math.inf:
            raise ValueError(f"r_flex must be finite and positive, got {self.r_flex}")


@dataclass(frozen=True)
class CircuitConfig:
    r_source: float
    branches: tuple[Branch, ...]

    def __post_init__(self):
        if not 0 < self.r_source < math.inf:
            raise ValueError(f"r_source must be finite and positive, got {self.r_source}")
        if len(self.branches) < 1:
            raise ValueError("at least one branch is required")
        object.__setattr__(self, "branches", tuple(self.branches))
        # planner and prediction consult this every control step; branches
        # are frozen, so one count at construction suffices, and a shared
        # branch compares by identity
        first = self.branches[0]
        homogeneous = self.branches.count(first) == len(self.branches)
        object.__setattr__(self, "_homogeneous", homogeneous)
        # the bank's conductance with every flexible load connected is at
        # most N times the largest branch's; it must be a finite float
        distinct = (first,) if homogeneous else self.branches
        g_max = len(self.branches) * max(1.0 / b.r_base + 1.0 / b.r_flex for b in distinct)
        if not g_max < math.inf:
            raise ValueError(
                f"r_base and r_flex give {len(self.branches)} branches a conductance of up to "
                f"{g_max} S; it must stay finite"
            )
        object.__setattr__(self, "g_max", g_max)

    @staticmethod
    def homogeneous(n: int, r_source: float, r_base: float, r_flex: float) -> "CircuitConfig":
        return CircuitConfig(r_source, (Branch(r_base, r_flex),) * n)

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def is_homogeneous(self) -> bool:
        return self._homogeneous

    # numpy's 1.0 / r is Python's, bit for bit, so these equal the per-branch
    # expressions; the resistances are read at C speed
    def base_conductances(self) -> np.ndarray:
        return 1.0 / np.fromiter(map(attrgetter("r_base"), self.branches), np.float64, len(self.branches))

    def flex_conductances(self) -> np.ndarray:
        return 1.0 / np.fromiter(map(attrgetter("r_flex"), self.branches), np.float64, len(self.branches))


@dataclass(frozen=True)
class CircuitSolution:
    v_load: float
    i_total: float
    branch_currents: tuple[float, ...]


def solve(config: CircuitConfig, v_source: float, flex_on: Sequence[bool]) -> CircuitSolution:
    """Solve the divider: bus voltage, source current, per-branch currents.

    ``flex_on`` says, in branch order, which flexible loads are connected;
    any bool sequence of length N will do.  The parallel bank has total
    conductance G, so the bus sits at ``v_source / (1 + r_source * G)``.
    """
    if v_source < 0:
        raise ValueError(f"v_source must be non-negative, got {v_source}")
    on = np.asarray(flex_on, dtype=bool)
    if on.shape != (config.n_branches,):
        raise ValueError(f"flex_on has shape {on.shape} for {config.n_branches} branches")
    g_branch = config.base_conductances() + np.where(on, config.flex_conductances(), 0.0)
    g_total = float(g_branch.sum())
    v_load = v_source / (1.0 + config.r_source * g_total)
    i_branch = v_load * g_branch
    return CircuitSolution(v_load=v_load, i_total=v_load * g_total, branch_currents=tuple(i_branch))


def v_load_for_count(config: CircuitConfig, v_source: float, n_on: int) -> float:
    """Bus voltage with exactly ``n_on`` flexible loads connected.

    Only defined for homogeneous circuits, where which loads are connected
    does not matter by symmetry.  This is the controller's prediction
    primitive.
    """
    if not config.is_homogeneous:
        raise ValueError("v_load_for_count requires identical branches")
    n = config.n_branches
    if not 0 <= n_on <= n:
        raise ValueError(f"n_on must be in [0, {n}], got {n_on}")
    branch = config.branches[0]
    g_total = n / branch.r_base + n_on / branch.r_flex
    return v_source / (1.0 + config.r_source * g_total)
