"""The three workloads: inputs, references, and one timed op each.

Every op goes through a stable entry point of the program: the CLI's
``repro.cli.main(argv)`` in-process, or the serve protocol through
``ServeClient``. Each workload has one op kind, one client and one op in
flight (closed loop). A run calls :meth:`Workload.setup` several times
(each call is a whole set-up: inputs from the seed, references built by
a different path than the op, daemon boot, one untimed warm-up op), then
repeats ``prepare`` (untimed) / ``call`` (timed) / ``check`` (untimed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["WORKLOADS", "Mismatch", "Workload"]

PYTHON = sys.executable


class Mismatch(Exception):
    """An op's output differs from its reference."""


def cli(argv: list[str]) -> str:
    """Run ``memgaze argv`` in-process; returns its stdout, raises on rc != 0."""
    from repro.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"memgaze {argv[0]} exited {rc}")
    return buf.getvalue()


def make_trace(workload: str, scale: int, seed: int, out: Path) -> int:
    """Generate a seeded trace archive; returns its event count."""
    cli(
        [
            "trace", "--workload", workload, "--scale", str(scale),
            "--period", "2000", "--seed", str(seed), "--deterministic",
            "-o", str(out),
        ]
    )
    info = cli(["info", str(out)])
    m = re.search(r"^records:\s+([\d,]+)", info, re.MULTILINE)
    if m is None:
        raise RuntimeError(f"no record count in 'memgaze info {out}'")
    return int(m.group(1).replace(",", ""))


def sample_chunks(src: Path, chunk: int, n: int):
    """``(meta, chunks)``: the first ``n`` sample-aligned chunks of ``src``."""
    from repro.trace.tracefile import iter_trace_chunks, read_trace_meta

    chunks = list(itertools.islice(iter_trace_chunks(src, chunk_size=chunk), n))
    if len(chunks) < n:
        raise RuntimeError(f"{src.name} has only {len(chunks)} chunks of {chunk} events")
    return read_trace_meta(src), chunks


def write_prefix(out: Path, meta, chunks) -> int:
    """Write the archive of ``chunks`` concatenated; returns its event count."""
    import numpy as np
    from repro.trace.tracefile import write_trace

    events = np.concatenate([c[0] for c in chunks])
    write_trace(out, events, meta, np.concatenate([c[1] for c in chunks]))
    return len(events)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    """One workload; subclasses fill in the four steps."""

    name = ""
    #: ops after which the inputs repeat
    cycle = 1

    def __init__(self, work: Path, seed: int, trace: dict | None) -> None:
        self.work = work
        self.seed = seed
        #: span dir + flag file when the run is traced (for launched processes)
        self.trace = trace
        self.output_sha256 = ""

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before an op (fresh output paths, sessions)."""

    def call(self) -> int:
        """The timed op; returns the trace events it processed."""
        raise NotImplementedError

    def check(self) -> None:
        """Untimed: raise :class:`Mismatch` unless the output is the reference."""

    def recover(self) -> None:
        """Untimed: get ready for the next op after a failed one."""

    def warm_up(self) -> None:
        self.prepare()
        self.call()
        try:
            self.check()
        except Mismatch:
            self.recover()  # the timed ops count it

    def close(self) -> None:
        """Stop every process the workload started."""


class ReportHtml(Workload):
    """Reports over the sample-aligned prefixes of one trace, in turn.

    The host this was tuned on switches between a fast and a slow speed
    every few seconds, so ops of one size form two peaks and their median
    jumps between them from run to run. Prefixes of 1..LEVELS chunks give
    a wide, single-peaked latency distribution whose median moves only in
    proportion to the time spent slow.
    """

    name = "report-html"
    SCALE = 9
    CHUNK = 2048
    LEVELS = 12
    cycle = LEVELS

    def setup(self) -> None:
        d = _fresh(self.work / "report-html")
        src = d / "in.npz"
        make_trace("minivite:v1", self.SCALE, self.seed, src)
        meta, chunks = sample_chunks(src, self.CHUNK, self.LEVELS)
        self.inputs, self.refs = [], []
        for k in range(1, self.LEVELS + 1):
            path = d / f"prefix{k}.npz"
            self.inputs.append((path, write_prefix(path, meta, chunks[:k])))
            # reference by another path: sharded over a pool, small chunks
            ref = d / f"ref{k}.html"
            cli(
                [
                    "report", str(path), "--html", str(ref), "--no-cache",
                    "--workers", "2", "--chunk-size", "4096",
                ]
            )
            self.refs.append(ref.read_bytes())
        self.output_sha256 = sha256(b"".join(sha256(r).encode() for r in self.refs))
        self.out = d / "out.html"
        self.k = 0
        self.warm_up()
        self.k = 0

    def prepare(self) -> None:
        self.out.unlink(missing_ok=True)
        self.cur, self.k = self.k, (self.k + 1) % self.LEVELS

    def call(self) -> int:
        path, events = self.inputs[self.cur]
        cli(["report", str(path), "--html", str(self.out), "--no-cache"])
        return events

    def check(self) -> None:
        if self.out.read_bytes() != self.refs[self.cur]:
            raise Mismatch(
                f"serial HTML of prefix {self.cur + 1} differs from the sharded reference"
            )


class MatrixCold(Workload):
    name = "matrix-cold"
    WORKERS = 2
    #: (label, workload, scale, cache_sweep)
    CELLS = (
        ("minivite", "minivite:v1", 9, False),
        ("pagerank", "pagerank:pr", 8, False),
        ("cc", "cc:cc", 9, False),
        ("kvreuse", "kvreuse:prefix", 11, True),
    )

    def setup(self) -> None:
        d = _fresh(self.work / "matrix-cold")
        cells, total = [], 0
        for label, workload, scale, sweep in self.CELLS:
            path = d / f"{label}.npz"
            total += make_trace(workload, scale, self.seed, path)
            cell = {"label": label, "trace": path.name}
            if sweep:
                cell["cache_sweep"] = True
            cells.append(cell)
        self.events_per_op = total
        self.spec = d / "corpus.json"
        self.spec.write_text(json.dumps({"name": "bench", "cell": cells}))
        self.out = d / "out.json"
        self.caches = d / "caches"
        self.caches.mkdir()
        self.n = 0
        # reference by another path: the payload of a warm-store run
        warm = d / "warm-cache"
        for _ in range(2):
            cli(self._argv(warm, d / "ref.json"))
        self.ref = (d / "ref.json").read_bytes()
        self.output_sha256 = sha256(self.ref)
        self.warm_up()

    def _argv(self, cache: Path, out: Path) -> list[str]:
        return [
            "matrix", str(self.spec), "--workers", str(self.WORKERS),
            "--cache-dir", str(cache), "-o", str(out),
        ]

    def prepare(self) -> None:
        shutil.rmtree(self.caches, ignore_errors=True)
        self.caches.mkdir()
        self.n += 1
        self.cache = self.caches / f"op{self.n}"
        self.out.unlink(missing_ok=True)

    def call(self) -> int:
        cli(self._argv(self.cache, self.out))
        return self.events_per_op

    def check(self) -> None:
        if self.out.read_bytes() != self.ref:
            raise Mismatch("cold corpus payload differs from the warm-store reference")


class ServeIngest(Workload):
    name = "serve-ingest"
    SCALE = 11
    CHUNK = 8192
    PER_SESSION = 15
    cycle = PER_SESSION

    def __init__(self, work: Path, seed: int, trace: dict | None) -> None:
        super().__init__(work, seed, trace)
        self.proc: subprocess.Popen | None = None
        self.client = None
        self.sessions = 0

    def setup(self) -> None:
        d = _fresh(self.work / "serve-ingest")
        src = d / "in.npz"
        make_trace("minivite:v1", self.SCALE, self.seed, src)
        self.meta, self.chunks = sample_chunks(src, self.CHUNK, self.PER_SESSION)
        # references by another path: offline `report --json` over the
        # archive prefix after k chunks, for every k
        self.refs = []
        for k in range(1, self.PER_SESSION + 1):
            prefix = d / f"prefix{k}.npz"
            write_prefix(prefix, self.meta, self.chunks[:k])
            text = cli(["report", str(prefix), "--json", "--no-cache"])
            self.refs.append(text.rstrip("\n"))
        self.output_sha256 = sha256("\n".join(self.refs).encode("utf-8"))
        self.root = d / "state"
        self._boot(d)
        self.k = None
        self.warm_up()
        if self.k is not None:
            self._end_session()

    def _boot(self, d: Path) -> None:
        from repro.serve.client import ServeClient

        port_file = d / "port"
        argv = [PYTHON, str(Path(__file__).with_name("serve_launcher.py"))]
        if self.trace is not None:
            argv += ["--spans", str(self.trace["spans"]), "--flag", str(self.trace["flag"])]
        argv += [
            "serve", "--root", str(self.root), "--serve-workers", "1",
            "--port-file", str(port_file),
        ]
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("serve daemon did not start")
            time.sleep(0.01)
        self.client = ServeClient("127.0.0.1", int(port_file.read_text()))

    def prepare(self) -> None:
        if self.k is None:
            self.sessions += 1
            self.session = f"bench-{self.seed}-{self.sessions}"
            self.client.open(self.session, self.meta)
            self.k = 0

    def call(self) -> int:
        events, sample_id = self.chunks[self.k]
        self.client.append(self.session, events, sample_id)
        _, self.text = self.client.query(self.session)
        return int(len(events))

    def check(self) -> None:
        k, self.k = self.k, self.k + 1
        if self.k == self.PER_SESSION:
            self._end_session()
        if self.text != self.refs[k]:
            raise Mismatch(f"live query after {k + 1} chunks differs from offline report")

    def recover(self) -> None:
        try:
            self._end_session()
        except Exception:
            self.k = None

    def _end_session(self) -> None:
        """Close the session and empty the daemon's state files.

        Every session then starts from the same state, so the op
        distribution does not drift with the number of sessions run.
        """
        self.k = None
        self.client.close_session(self.session)
        for dirpath, _, files in os.walk(self.root):
            for f in files:
                Path(dirpath, f).unlink(missing_ok=True)

    def close(self) -> None:
        if self.client is not None:
            try:
                self.client.shutdown()
            except Exception:
                pass
            self.client.close()
            self.client = None
        if self.proc is not None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc = None


WORKLOADS = {w.name: w for w in (ReportHtml, MatrixCold, ServeIngest)}
