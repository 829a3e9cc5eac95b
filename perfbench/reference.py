"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the same code runs up to a third slower for stretches of
ten seconds to minutes (CPU time tracks wall time, so the process is not
descheduled: the core itself is slower). The end-to-end timings therefore
express every op at a nominal machine speed: the benchmark runs one
reference block right after each op, and an op's time is scaled by
``REF_MS`` over the mean of the blocks on either side of it (METRICS.md).

A block solves ``LPS`` fixed linear programs shaped like a single-slot
placement LP of ``slot-cold-small`` (18 variables in [0, 1], one selection
row per user, coupling and capacity rows) through SciPy's ``linprog``, the
call mecsim's ``lp_solve`` makes. It uses SciPy alone, never mecsim, so a
change to the program does not change the yardstick.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

REF_MS = 50.0       # nominal block time; a constant, so it cancels in any comparison
LPS = 16            # linear programs per block
DATA_SEED = 20221221
M = N = 3


class Reference:
    """The reference block and its fixed LP data."""

    def __init__(self) -> None:
        rng = np.random.default_rng(DATA_SEED)
        nx = ny = M * N
        n = nx + ny
        # each user k selects one station: sum_j y[j, k] == 1
        a_eq = np.zeros((N, n))
        for k in range(N):
            a_eq[k, nx + k :: N] = 1.0
        # coupling y[j, k] <= x[j, k], then random capacity rows that the
        # point x = 1, y = 1/M satisfies with slack
        coupling = np.hstack([-np.eye(nx), np.eye(ny)])
        capacity = rng.uniform(0.0, 1.0, size=(2 * M, n))
        feasible = np.concatenate([np.ones(nx), np.full(ny, 1.0 / M)])
        self.a_ub = np.vstack([coupling, capacity])
        self.b_ub = np.concatenate([np.zeros(nx), capacity @ feasible + 0.5])
        self.a_eq = a_eq
        self.b_eq = np.ones(N)
        self.bounds = [(0.0, 1.0)] * n
        self.costs = rng.uniform(-1.0, 1.0, size=(LPS, n))
        self.nominal_s = REF_MS / 1e3
        self.block()  # first calls load SciPy's solver modules

    def block(self) -> float:
        """Solve the block's LPs; return the seconds it took."""
        start = time.perf_counter()
        for c in self.costs:
            res = linprog(
                c,
                A_ub=self.a_ub,
                b_ub=self.b_ub,
                A_eq=self.a_eq,
                b_eq=self.b_eq,
                bounds=self.bounds,
                method="highs-ds",
                options={
                    "primal_feasibility_tolerance": 1e-10,
                    "dual_feasibility_tolerance": 1e-9,
                },
            )
            if res.status != 0:
                raise RuntimeError(f"reference LP failed: {res.message}")
        return time.perf_counter() - start
