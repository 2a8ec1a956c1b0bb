"""Reference serial builder of the per-function code windows.

:func:`repro.core.windows.code_windows` runs the ``windows`` pass
through the engine, sharded and merged like every other pass. This
module keeps the loop that pass replaced: one mask per function id, in
ascending order, and :func:`~repro.core.diagnostics.compute_diagnostics`
over the function's records. When two ids share a name, the later
(higher) id's window overwrites the earlier one. The pass must equal it
function for function.

Import it from a test in this directory: ``import windows_oracle``.
"""

from __future__ import annotations

import numpy as np

from repro._util.sortedset import sorted_unique
from repro.core.diagnostics import FootprintDiagnostics, compute_diagnostics

__all__ = ["code_windows"]


def code_windows(
    events: np.ndarray,
    rho: float = 1.0,
    block: int = 1,
    fn_names: dict[int, str] | None = None,
) -> dict[str, FootprintDiagnostics]:
    """``{function: diagnostics}`` of every function's records, serially."""
    fn_names = fn_names or {}
    out: dict[str, FootprintDiagnostics] = {}
    for fid in sorted_unique(events["fn"]):
        window = events[events["fn"] == fid]
        name = fn_names.get(int(fid), f"fn{int(fid)}")
        out[name] = compute_diagnostics(window, rho=rho, block=block)
    return out
