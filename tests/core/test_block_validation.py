"""Block-size validation must be uniform across the analysis layer.

Every entry point taking an access-block granularity rejects
non-power-of-two values with the *same* exception type and message, so
callers can rely on one contract (and one error string) everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.heatmap import access_heatmap, heatmap_request
from repro.core.metrics import block_ids, captures_survivals, footprint
from repro.core.parallel import CapturesPartial, DiagnosticsPartial
from repro.core.reuse import reuse_distances, reuse_histogram, reuse_intervals
from repro.trace.event import make_events

BAD_BLOCKS = [0, -1, -64, 3, 6, 48, 100]


def _ev():
    return make_events(ip=1, addr=np.arange(10, dtype=np.uint64))


ENTRY_POINTS = [
    pytest.param(lambda ev, b: footprint(ev, b), id="metrics.footprint"),
    pytest.param(lambda ev, b: block_ids(ev, b), id="metrics.block_ids"),
    pytest.param(
        lambda ev, b: captures_survivals(ev, b), id="metrics.captures_survivals"
    ),
    pytest.param(lambda ev, b: reuse_intervals(ev, b), id="reuse.reuse_intervals"),
    pytest.param(lambda ev, b: reuse_distances(ev, b), id="reuse.reuse_distances"),
    pytest.param(lambda ev, b: reuse_histogram(ev, b), id="reuse.reuse_histogram"),
    pytest.param(
        lambda ev, b: access_heatmap(ev, 0, 4096, access_block=b),
        id="heatmap.access_heatmap",
    ),
    pytest.param(
        lambda ev, b: DiagnosticsPartial.from_events(ev, b),
        id="parallel.DiagnosticsPartial",
    ),
    pytest.param(
        lambda ev, b: CapturesPartial.from_events(ev, b),
        id="parallel.CapturesPartial",
    ),
]


@pytest.mark.parametrize("block", BAD_BLOCKS)
@pytest.mark.parametrize("call", ENTRY_POINTS)
def test_rejects_with_uniform_message(call, block):
    with pytest.raises(ValueError) as err:
        call(_ev(), block)
    assert str(err.value) == (
        f"block must be a positive power of two, got {block}"
    )


@pytest.mark.parametrize("call", ENTRY_POINTS)
def test_accepts_powers_of_two(call):
    for block in (1, 2, 64, 4096):
        call(_ev(), block)  # must not raise


def test_engine_heatmap_uses_same_contract():
    # the engine's heatmap request is validated before any scan is planned
    with pytest.raises(ValueError) as err:
        heatmap_request(_ev(), [(0, 4096, 64, 64)], access_block=48)
    assert str(err.value) == "block must be a positive power of two, got 48"
