"""Deterministic sub-stream seeds derived from one nonnegative run seed."""

from __future__ import annotations

import numpy as np

__all__ = ["GENERATION", "ROUNDING", "substream_seed"]

GENERATION = 0
ROUNDING = 1  # drawn from nowhere in mecsim; the benchmark's workloads import it


def substream_seed(run_seed: int, stream: int, index: int = 0) -> int:
    """Child seed for a named stream, stable across platforms and runs."""
    if run_seed < 0:
        raise ValueError("run seed must be nonnegative")
    seq = np.random.SeedSequence([int(run_seed), int(stream), int(index)])
    return int(seq.generate_state(2, dtype=np.uint64)[0])
