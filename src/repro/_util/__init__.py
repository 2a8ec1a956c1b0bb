"""Internal utilities shared across the MemGaze reproduction.

Nothing in this package is part of the public API; modules here provide
small, well-tested primitives (rank sweeps, deterministic RNG
plumbing, wall-clock timers, and plain-text table rendering) that the
substrate and analysis layers build on.
"""

from repro._util.rng import derive_rng, spawn_rngs
from repro._util.tables import format_table
from repro._util.timers import Timer
from repro._util.validate import (
    check_fraction,
    check_positive,
    check_power_of_two,
)

__all__ = [
    "derive_rng",
    "spawn_rngs",
    "format_table",
    "Timer",
    "check_fraction",
    "check_positive",
    "check_power_of_two",
]
