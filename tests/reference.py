"""Independent reference evaluators used as test oracles.

Everything here is written straight from the delay definitions with literal
loops over plain Python lists, deliberately sharing no code with the package
under test. Tests compare package output against these functions, so keep
them dumb: no vectorization, no shortcuts, no imports from mecsim.
"""

from __future__ import annotations

import itertools
import math

# ---------------------------------------------------------------------------
# delay formulas, evaluated term by term


def ref_switching(sizes, x_now, x_prev):
    """sum_k s_k * sum_i max(x[i][k] - x_prev[i][k], 0)."""
    num_clouds = len(x_now)
    num_users = len(sizes)
    total = 0.0
    for k in range(num_users):
        inner = 0.0
        for i in range(num_clouds):
            diff = float(x_now[i][k]) - float(x_prev[i][k])
            if diff > 0.0:
                inner += diff
        total += float(sizes[k]) * inner
    return total


def ref_queuing(bs_capacity, demands, y):
    """sum_k sum_j y[j][k] / (C_j - L_j) with L_j = sum_k' c_k' * y[j][k']."""
    num_stations = len(bs_capacity)
    num_users = len(demands)
    loads = []
    for j in range(num_stations):
        load = 0.0
        for k in range(num_users):
            load += float(demands[k]) * float(y[j][k])
        loads.append(load)
    total = 0.0
    for k in range(num_users):
        for j in range(num_stations):
            weight = float(y[j][k])
            if weight == 0.0:
                continue
            if loads[j] >= float(bs_capacity[j]):
                return math.inf
            total += weight / (float(bs_capacity[j]) - loads[j])
    return total


def ref_communication(latency, x, y):
    """sum_k sum_i sum_j y[j][k] * x[i][k] * l[i][j]."""
    num_clouds = len(x)
    num_users = len(x[0]) if num_clouds else 0
    total = 0.0
    for k in range(num_users):
        for i in range(num_clouds):
            for j in range(num_clouds):
                total += float(y[j][k]) * float(x[i][k]) * float(latency[i][j])
    return total


def ref_non_switching(bs_capacity, demands, latency, x, y):
    return ref_queuing(bs_capacity, demands, y) + ref_communication(latency, x, y)


def ref_total(sizes, bs_capacity, demands, latency, x_now, x_prev, y):
    return ref_switching(sizes, x_now, x_prev) + ref_non_switching(
        bs_capacity, demands, latency, x_now, y
    )


# ---------------------------------------------------------------------------
# finite-difference gradient of the non-switching objective


def fd_gradient(bs_capacity, demands, latency, x, y, step=1e-6):
    """Central finite differences of ref_non_switching in every coordinate."""
    num_clouds = len(x)
    num_users = len(x[0])

    def value(xx, yy):
        return ref_non_switching(bs_capacity, demands, latency, xx, yy)

    def perturbed(mat, i, k, delta):
        out = [row[:] for row in mat]
        out[i][k] = out[i][k] + delta
        return out

    grad_x = [[0.0] * num_users for _ in range(num_clouds)]
    grad_y = [[0.0] * num_users for _ in range(num_clouds)]
    for i in range(num_clouds):
        for k in range(num_users):
            up = value(perturbed(x, i, k, step), y)
            down = value(perturbed(x, i, k, -step), y)
            grad_x[i][k] = (up - down) / (2.0 * step)
            up = value(x, perturbed(y, i, k, step))
            down = value(x, perturbed(y, i, k, -step))
            grad_y[i][k] = (up - down) / (2.0 * step)
    return grad_x, grad_y


# ---------------------------------------------------------------------------
# exhaustive enumeration over integral decisions

_DOC_KEYS = ("num_clouds", "num_users", "bs_capacity", "cloud_capacity",
             "service_size", "link_latency", "coverage", "demand")


def _decision_ok(doc, t, placement, selection, margin):
    m = doc["num_clouds"]
    n = doc["num_users"]
    storage = [0.0] * m
    for k in range(n):
        storage[placement[k]] += float(doc["service_size"][k])
    for i in range(m):
        if storage[i] > float(doc["cloud_capacity"][i]):
            return False
    load = [0.0] * m
    for k in range(n):
        if selection[k] not in doc["coverage"][t][k]:
            return False
        load[selection[k]] += float(doc["demand"][t][k])
    for j in range(m):
        capacity = float(doc["bs_capacity"][j])
        if load[j] > capacity - margin or load[j] >= capacity:
            return False
    return True


def _decision_value(doc, t, placement, selection, prev_placement=None):
    m = doc["num_clouds"]
    n = doc["num_users"]
    x = [[0.0] * n for _ in range(m)]
    y = [[0.0] * n for _ in range(m)]
    for k in range(n):
        x[placement[k]][k] = 1.0
        y[selection[k]][k] = 1.0
    value = ref_non_switching(
        doc["bs_capacity"], doc["demand"][t], doc["link_latency"][t], x, y
    )
    if prev_placement is not None:
        x_prev = [[0.0] * n for _ in range(m)]
        for k in range(n):
            x_prev[prev_placement[k]][k] = 1.0
        value += ref_switching(doc["service_size"], x, x_prev)
    return value


def brute_best(doc, t, prev_placement=None, margin=1e-6):
    """Argmin of the slot objective over every feasible integral decision.

    Iterates placements and selections in lexicographic order and keeps the
    first strict minimum, so ties resolve to the lexicographically smallest
    (placement, selection) pair. Returns (placement, selection, value) or
    None when nothing is feasible.
    """
    m = doc["num_clouds"]
    n = doc["num_users"]
    best = None
    for placement in itertools.product(range(m), repeat=n):
        for selection in itertools.product(
            *[tuple(doc["coverage"][t][k]) for k in range(n)]
        ):
            if not _decision_ok(doc, t, placement, selection, margin):
                continue
            value = _decision_value(doc, t, placement, selection, prev_placement)
            if best is None or value < best[2]:
                best = (placement, selection, value)
    return best


def brute_sequence(doc, margin=1e-6, limit=2_000_000, first=None):
    """Exact minimum-total decision sequence by full enumeration.

    Enumerates every per-slot feasible decision combination across the whole
    horizon (slot 0 pays no switching cost) and returns
    (list of (placement, selection), total), or None when some slot has no
    feasible decision. ``first``, a (placement, selection) pair, pins slot 0
    to it; the sequence is None when it is not feasible. Refuses to run past
    ``limit`` candidate sequences so tests fail loudly instead of hanging.
    """
    m = doc["num_clouds"]
    n = doc["num_users"]
    horizon = doc["num_slots"]

    per_slot = []
    for t in range(horizon):
        options = []
        for placement in itertools.product(range(m), repeat=n):
            for selection in itertools.product(
                *[tuple(doc["coverage"][t][k]) for k in range(n)]
            ):
                if _decision_ok(doc, t, placement, selection, margin):
                    options.append((placement, selection))
        if t == 0 and first is not None:
            options = [option for option in options if option == first]
        if not options:
            return None
        per_slot.append(options)

    count = 1
    for options in per_slot:
        count *= len(options)
        if count > limit:
            raise ValueError(f"sequence space exceeds {limit}")

    best = None
    for sequence in itertools.product(*per_slot):
        total = 0.0
        prev = None
        for t, (placement, selection) in enumerate(sequence):
            total += _decision_value(doc, t, placement, selection, prev)
            prev = placement
        if best is None or total < best[1]:
            best = (list(sequence), total)
    return best
