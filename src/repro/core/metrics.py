"""Footprint and reuse-population metrics (paper SS:V-C, Eq. 3).

*Footprint* is the amount of unique data touched by a sequence of
accesses, measured in access blocks (default: byte addresses; pass
``block=64`` for cache lines, ``block=4096`` for OS pages). Constant-class
loads are special: the paper views all of them as touching one unit of
space, so a window's footprint is::

    F = |unique non-Constant blocks| + (1 if any Constant access)

where the Constant contribution also covers the suppressed loads carried
by proxy records (``n_const``).

*Captures* ``C`` are non-Constant blocks with reuse inside the window
(seen 2+ times); *survivals* ``S`` are non-Constant blocks seen exactly
once, so ``C + S`` is the unique non-Constant block count and
``F = C + S`` plus the one Constant unit when any Constant access is
present. The estimated population footprint scales by the sample ratio
rho for inter-window analysis (Eq. 3)::

    F-hat = F          (intra-window: exact)
    F-hat = rho * F    (inter-window: estimate)
"""

from __future__ import annotations

import numpy as np

from repro._util.sortedset import sorted_unique
from repro._util.validate import check_power_of_two
from repro.trace.event import EVENT_DTYPE, LoadClass

__all__ = [
    "block_ids",
    "nonconstant",
    "footprint",
    "footprint_by_class",
    "captures_survivals",
    "estimated_footprint",
]


def _check(events: np.ndarray) -> None:
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")


def _check_block(block: int) -> None:
    check_power_of_two("block", block)


def block_ids(events: np.ndarray, block: int = 1) -> np.ndarray:
    """Access-block id of each event (``addr // block``)."""
    _check(events)
    _check_block(block)
    if block == 1:
        return events["addr"].copy()
    shift = block.bit_length() - 1
    return events["addr"] >> np.uint64(shift)


def nonconstant(events: np.ndarray) -> np.ndarray:
    """The non-Constant records of a trace (the data that must move)."""
    _check(events)
    return events[events["cls"] != int(LoadClass.CONSTANT)]


def _has_constant(events: np.ndarray) -> bool:
    return bool(
        np.any(events["cls"] == int(LoadClass.CONSTANT))
        or np.any(events["n_const"] > 0)
    )


def footprint(events: np.ndarray, block: int = 1) -> int:
    """Observed footprint ``F`` of a window, in blocks.

    Unique non-Constant blocks, plus one unit when any Constant access
    (recorded or suppressed) occurred.
    """
    _check(events)
    if len(events) == 0:
        return 0
    nc = nonconstant(events)
    uniq = len(sorted_unique(block_ids(nc, block)))
    return uniq + (1 if _has_constant(events) else 0)


def footprint_by_class(events: np.ndarray, block: int = 1) -> dict[LoadClass, int]:
    """Footprint decomposed by load class: ``{CONSTANT, STRIDED, IRREGULAR}``.

    A block touched by both Strided and Irregular accesses counts toward
    each class (the decomposition highlights pattern mix, not a
    partition); the headline ``F`` remains :func:`footprint`.
    """
    _check(events)
    out: dict[LoadClass, int] = {
        LoadClass.CONSTANT: 1 if _has_constant(events) else 0
    }
    ids = block_ids(events, block)
    for cls in (LoadClass.STRIDED, LoadClass.IRREGULAR):
        mask = events["cls"] == int(cls)
        out[cls] = int(len(sorted_unique(ids[mask]))) if mask.any() else 0
    return out


def captures_survivals(events: np.ndarray, block: int = 1) -> tuple[int, int]:
    """(C, S): non-Constant blocks with and without reuse in the window."""
    _check(events)
    nc = nonconstant(events)
    if len(nc) == 0:
        return 0, 0
    _, counts = np.unique(block_ids(nc, block), return_counts=True)
    captures = int((counts >= 2).sum())
    survivals = int((counts == 1).sum())
    return captures, survivals


def estimated_footprint(
    events: np.ndarray, rho: float = 1.0, *, intra: bool = True, block: int = 1
) -> float:
    """F-hat per Eq. 3: exact intra-window, scaled by rho inter-window."""
    if rho < 1.0:
        raise ValueError(f"rho must be >= 1, got {rho}")
    f = footprint(events, block)
    return float(f) if intra else rho * f
