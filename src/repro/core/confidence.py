"""Undersampling detection via sample-density confidence intervals.

Paper SS:VI-A: "It should be possible to automatically detect most
undersampling by analyzing sample density and forming confidence
intervals. One could flag regions with insufficient samples."

For a code window (function) the estimator of its population access
count is ``A_est = rho * sum_i a_i`` where ``a_i`` is the function's
record count in sample ``i``. Treating samples as independent draws, the
relative standard error of the total follows from the across-sample
variance of ``a_i``; a function seen in only a handful of samples gets a
wide interval and an ``undersampled`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._util.sortedset import sorted_unique
from repro.trace.collector import CollectionResult
from repro.trace.compress import sample_ratio_from

__all__ = ["WindowConfidence", "code_window_confidence", "flag_undersampled"]

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class WindowConfidence:
    """Sampling confidence for one code window."""

    function: str
    n_samples_present: int  # samples containing at least one record
    n_samples_total: int
    A_est: float
    stderr: float  # standard error of A_est
    undersampled: bool

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% interval for the population accesses."""
        half = _Z95 * self.stderr
        return (max(0.0, self.A_est - half), self.A_est + half)

    @property
    def relative_error(self) -> float:
        """stderr / estimate (inf when the estimate is 0)."""
        return self.stderr / self.A_est if self.A_est > 0 else math.inf


def code_window_confidence(
    collection: CollectionResult,
    fn_names: dict[int, str] | None = None,
    *,
    min_samples: int = 5,
    max_relative_error: float = 0.25,
) -> dict[str, WindowConfidence]:
    """Confidence assessment per code window.

    A window is flagged ``undersampled`` when it appears in fewer than
    ``min_samples`` samples or its relative standard error exceeds
    ``max_relative_error``.
    """
    fn_names = fn_names or {}
    events = collection.events
    if len(events) == 0:
        return {}
    rho = sample_ratio_from(collection)
    sample_id = collection.sample_id
    n_samples = collection.n_samples
    if n_samples <= 0:
        return {}

    out: dict[str, WindowConfidence] = {}
    # implied (uncompressed) records per (sample, fn)
    weights = 1.0 + events["n_const"].astype(np.float64)
    for fid in sorted_unique(events["fn"]):
        mask = events["fn"] == fid
        per_sample = np.zeros(n_samples, dtype=np.float64)
        np.add.at(per_sample, sample_id[mask], weights[mask])
        present = int((per_sample > 0).sum())
        # variance of the per-sample counts across ALL samples (zeros
        # included — absence is information); SE of the n-sample total
        var = per_sample.var(ddof=1) if n_samples > 1 else 0.0
        stderr = rho * math.sqrt(var * n_samples)
        a_est = float(rho * per_sample.sum())
        conf = WindowConfidence(
            function=fn_names.get(int(fid), f"fn{int(fid)}"),
            n_samples_present=present,
            n_samples_total=n_samples,
            A_est=a_est,
            stderr=float(stderr),
            undersampled=(
                present < min_samples
                or (a_est > 0 and stderr / a_est > max_relative_error)
            ),
        )
        out[conf.function] = conf
    return out


def flag_undersampled(
    collection: CollectionResult,
    fn_names: dict[int, str] | None = None,
    **kwargs,
) -> list[str]:
    """Names of code windows whose estimates should not be trusted."""
    conf = code_window_confidence(collection, fn_names, **kwargs)
    return sorted(c.function for c in conf.values() if c.undersampled)
