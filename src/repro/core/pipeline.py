"""End-to-end MemGaze driver (paper Fig. 1).

Ties the three toolchain stages together:

1. **instrument** — classify loads and rewrite the module
   (:mod:`repro.instrument`), ISA path only;
2. **trace** — execute and collect a sampled trace
   (:mod:`repro.trace.collector`); for library-path workloads the
   recorder's event stream plays the role of the instrumented execution;
3. **analyze** — rebuild load-level events ('Analysis/1'), then compute
   the diagnostic suite ('Analysis/2'): whole-trace diagnostics, code
   windows, and lazy access to zoom / interval-tree analyses through the
   result object.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.diagnostics import FootprintDiagnostics
from repro.core.interval_tree import access_interval_metrics
from repro.core.parallel import ParallelEngine
from repro.core.zoom import ZoomConfig, ZoomRegion, location_zoom
from repro.instrument.instrumenter import InstrumentResult, instrument_module
from repro.instrument.rebuild import rebuild_trace
from repro.isa.interp import Interpreter
from repro.isa.program import Module
from repro.obs.handle import Obs
from repro.simmem.address_space import AddressSpace
from repro.simmem.recorder import AccessRecorder
from repro.trace.collector import CollectionResult, collect_sampled_trace
from repro.trace.compress import compression_ratio, sample_ratio_from
from repro.trace.event import EVENT_DTYPE
from repro.trace.overhead import ExecCounts
from repro.trace.sampler import SamplingConfig
from repro.trace.tracefile import _health_record

__all__ = ["AnalysisConfig", "MemGazeResult", "MemGaze"]


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs shared by all analyses of one run."""

    sampling: SamplingConfig
    block: int = 1  # footprint granularity (bytes)
    reuse_block: int = 64  # D granularity (cache line)
    mode: str = "continuous"  # PT enablement: "continuous" | "sampled_only"
    workers: int = 1  # analysis worker processes (1 = in-process)
    chunk_size: int | None = None  # events per shard (None = auto)
    #: directory of the persistent content-addressed analysis cache
    #: (repro.core.artifacts.ArtifactStore); None = no persistence.
    #: Sampled events are digested by the same per-chunk CRCs the trace
    #: archives embed, so results cached here are shared with
    #: `memgaze report --cache` runs over the written archive.
    cache_dir: "str | None" = None


@dataclass
class MemGazeResult:
    """Everything the analysis stage produces for one run."""

    collection: CollectionResult
    rho: float
    kappa: float
    diagnostics: FootprintDiagnostics
    per_function: dict[str, FootprintDiagnostics]
    fn_names: dict[int, str] = field(default_factory=dict)
    counts: ExecCounts | None = None
    instrumentation: InstrumentResult | None = None
    config: AnalysisConfig | None = None
    engine: "ParallelEngine | None" = None
    #: health record of (events, sample_id) — the persistent-cache key
    #: of this trace when the analysis ran with a cache_dir
    trace_health: dict | None = None

    @property
    def events(self) -> np.ndarray:
        """The sampled event records."""
        return self.collection.events

    @property
    def sample_id(self) -> np.ndarray:
        """Per-event sample membership."""
        return self.collection.sample_id

    def zoom(self, zoom_config: ZoomConfig | None = None) -> ZoomRegion:
        """Location zoom tree over the sampled records (Fig. 5)."""
        return location_zoom(
            self.events, zoom_config, sample_id=self.sample_id, fn_names=self.fn_names
        )

    def time_intervals(self, n_intervals: int = 8, reuse_block: int | None = None) -> list[dict]:
        """Equal-count access-interval metrics over time (Table VIII).

        Intervals are analyzed through the result's parallel engine.
        """
        rb = reuse_block or (self.config.reuse_block if self.config else 64)
        return access_interval_metrics(
            self.events,
            n_intervals,
            rho=self.rho,
            block=self.config.block if self.config else 1,
            reuse_block=rb,
            sample_id=self.sample_id,
            engine=self.engine,
        )

    def hotspots(self, coverage: float = 0.90):
        """Functions dominating the sampled loads (ROI candidates)."""
        from repro.core.hotspot import find_hotspots

        return find_hotspots(self.events, self.fn_names, coverage=coverage)

    def analyze(self, requests) -> dict:
        """Run registered analysis passes over this result's events.

        One fused scan through the result's engine for whatever
        ``requests`` names (see :func:`repro.core.passes.schedule_passes`
        for the accepted forms), served from the persistent cache when
        the analysis ran with a ``cache_dir``. Returns ``{pass name:
        finalized result}``.
        """
        return self.engine.analyze(
            (self.events, self.sample_id, self.trace_health),
            requests,
            rho=self.rho,
            fn_names=self.fn_names,
        ).results

    def confidence(self, **kwargs):
        """Per-code-window sampling confidence (undersampling detection)."""
        from repro.core.confidence import code_window_confidence

        return code_window_confidence(self.collection, self.fn_names, **kwargs)

    def working_set(self, n_intervals: int = 8, page_size: int = 4096):
        """Working-set curve at OS-page granularity (inter-sample reuse)."""
        from repro.core.workingset import working_set_curve

        return working_set_curve(
            self.collection, n_intervals=n_intervals, page_size=page_size
        )


class MemGaze:
    """The tool facade: run and analyze either execution path.

    Every pipeline stage — collection, analysis, and the parallel
    engine's shard plan/analyze/merge — reports through ``obs`` (a
    :class:`~repro.obs.Obs`; a fresh one, journaling and counting
    nothing, by default).
    """

    def __init__(self, config: AnalysisConfig, *, obs: Obs | None = None) -> None:
        self.config = config
        self.obs = Obs() if obs is None else obs
        self._engine: ParallelEngine | None = None

    @property
    def engine(self) -> ParallelEngine:
        """The (lazily created) shard-map-merge analysis engine."""
        if self._engine is None:
            store = None
            if self.config.cache_dir is not None:
                from repro.core.artifacts import ArtifactStore

                store = ArtifactStore(self.config.cache_dir, obs=self.obs)
            self._engine = ParallelEngine(
                workers=self.config.workers,
                chunk_size=self.config.chunk_size,
                store=store,
                obs=self.obs,
            )
        return self._engine

    def close(self) -> None:
        """Shut down the analysis worker pool, if one was started."""
        if self._engine is not None:
            self._engine.close()
            self._engine = None

    def __enter__(self) -> "MemGaze":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- library path ----------------------------------------------------------

    def analyze_events(
        self,
        events: np.ndarray,
        n_loads_total: int | None = None,
        fn_names: dict[int, str] | None = None,
        counts: ExecCounts | None = None,
        instrumentation: InstrumentResult | None = None,
    ) -> MemGazeResult:
        """Sample and analyze an observed record stream."""
        if events.dtype != EVENT_DTYPE:
            raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
        t0 = time.perf_counter()
        collection = collect_sampled_trace(
            events,
            n_loads_total,
            self.config.sampling,
            mode=self.config.mode,
        )
        rho = sample_ratio_from(collection)
        kappa = compression_ratio(collection.events)
        self.obs.emit(
            "stage",
            stage="trace",
            n_observed=len(events),
            n_sampled=len(collection.events),
            n_samples=collection.n_samples,
            period=self.config.sampling.period,
            buffer_capacity=self.config.sampling.buffer_capacity,
            rho=rho,
            kappa=kappa,
            seconds=time.perf_counter() - t0,
        )
        self.obs.counter("pipeline.analyses").inc()
        self.obs.counter("pipeline.events_sampled").inc(len(collection.events))
        self.obs.gauge("pipeline.rho").set(rho)
        self.obs.gauge("pipeline.kappa").set(kappa)
        fn_names = fn_names or {}
        t0 = time.perf_counter()
        # one fused scan computes the whole-trace diagnostics and the
        # per-function code windows
        engine = self.engine
        health = None
        if engine.store is not None:  # int32 sample ids: the written archive's record
            health = _health_record(collection.events, np.asarray(collection.sample_id, np.int32))
        block = {"block": self.config.block}
        results = engine.analyze(
            (collection.events, collection.sample_id, health),
            [("diagnostics", block), ("windows", block)],
            rho=rho,
            fn_names=fn_names,
        ).results
        diagnostics, per_function = results["diagnostics"], results["windows"]
        self.obs.emit(
            "stage",
            stage="analyze",
            n_events=len(collection.events),
            n_functions=len(per_function),
            block=self.config.block,
            workers=self.config.workers,
            seconds=time.perf_counter() - t0,
        )
        return MemGazeResult(
            collection=collection,
            rho=rho,
            kappa=kappa,
            diagnostics=diagnostics,
            per_function=per_function,
            fn_names=fn_names,
            counts=counts,
            instrumentation=instrumentation,
            config=self.config,
            engine=engine,
            trace_health=health,
        )

    def analyze_recorder(
        self, recorder: AccessRecorder, counts: ExecCounts | None = None
    ) -> MemGazeResult:
        """Finalize a library-path recorder and analyze its stream."""
        events = recorder.finalize()
        fn_names = recorder.function_names
        if counts is None:
            n = len(events)
            counts = ExecCounts(
                n_instrs=4 * n, n_loads=n, n_stores=n // 4, n_ptwrites=n
            )
        return self.analyze_events(
            events, n_loads_total=len(events), fn_names=fn_names, counts=counts
        )

    # -- ISA path ---------------------------------------------------------------

    def run_module(
        self,
        module: Module,
        entry: str,
        *args: int,
        space: AddressSpace | None = None,
        max_instrs: int = 200_000_000,
    ) -> MemGazeResult:
        """Instrument, execute, rebuild, sample, and analyze an ISA module."""
        inst = instrument_module(module)
        interp = Interpreter(inst.module, space, max_instrs=max_instrs)
        res = interp.run(entry, *args, mode="instrumented")
        events = rebuild_trace(res.packets, inst.annotations)
        proc_ids = inst.module.proc_ids()
        fn_names = {fid: name for name, fid in proc_ids.items()}
        counts = ExecCounts(
            n_instrs=res.n_instrs,
            n_loads=res.n_loads,
            n_stores=res.n_stores,
            n_ptwrites=res.n_ptwrites,
        )
        return self.analyze_events(
            events,
            n_loads_total=res.n_loads,
            fn_names=fn_names,
            counts=counts,
            instrumentation=inst,
        )
