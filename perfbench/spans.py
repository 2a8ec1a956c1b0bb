"""Spans recorded from outside the program.

A probe names one public function of the program by a dotted target,
``"package.module:Qualified.name"``. :func:`install` resolves every
target when a run starts, wraps it, and rebinds every module-level alias
of it in the program's already-imported modules (``cli.py`` imports
``write_trace`` by name, for instance), so calls through any alias are
recorded. A target that no longer resolves is reported absent, with the
reason, never as an error: the program may refactor a layer away.

Each process keeps its spans in memory and appends them to its own
``<pid>.jsonl`` file in the span directory whenever its outermost span
closes, so a forked worker that leaves through ``os._exit`` loses
nothing. A span record is ``[name, start, end, id, parent id, counts]``
with ``time.perf_counter`` stamps (``CLOCK_MONOTONIC``, one clock for
every process of the host). Recording can be switched per op through a
one-byte flag in a shared file mapping that every process of the run
maps, forked or launched.
"""

from __future__ import annotations

import functools
import importlib
import json
import mmap
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = [
    "Probe",
    "install",
    "uninstall",
    "span",
    "set_recording",
    "make_flag",
    "flush",
    "load_records",
    "self_times",
]


@dataclass(frozen=True)
class Probe:
    """One wrapped function: its span name, target and optional counts.

    ``counts(args, kwargs, result)`` returns a dict of counters recorded
    with the span (computed after the span's end stamp, so it is not
    charged to the layer). ``timed=False`` records the counts only.
    ``generator=True`` times each ``next()`` of the returned iterator as
    one span, for functions that stream.
    """

    span: str
    target: str
    counts: Callable | None = None
    timed: bool = True
    generator: bool = False


_perf = time.perf_counter


class _State:
    def __init__(self) -> None:
        self.dir: Path | None = None
        self.flag: mmap.mmap | None = None
        self.pid = os.getpid()
        self.buf: list[list] = []
        self.next_id = 0
        self.local = threading.local()
        self.installed: list[tuple[object, str, object]] = []


_S = _State()


def _stack() -> list:
    st = getattr(_S.local, "stack", None)
    if st is None:
        st = _S.local.stack = []
    return st


def _after_fork_in_child() -> None:
    # the parent's unflushed spans belong to the parent
    _S.pid = os.getpid()
    _S.buf = []
    _S.next_id = 0
    _S.local = threading.local()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _recording() -> bool:
    return _S.dir is not None and (_S.flag is None or _S.flag[0] == 1)


def _enter(name: str) -> list:
    stack = _stack()
    rec = [name, _perf(), 0.0, _S.next_id, stack[-1][3] if stack else -1, None]
    _S.next_id += 1
    _S.buf.append(rec)
    stack.append(rec)
    return rec


def _exit(rec: list, end: float | None = None) -> None:
    """Close ``rec`` (at ``end`` when its stamp was taken earlier)."""
    rec[2] = _perf() if end is None else end
    stack = _stack()
    if stack and stack[-1] is rec:
        stack.pop()
    if not stack:
        flush()


def _add_counts(rec: list, counts: dict | None) -> None:
    """Add counters into a record's counts."""
    if not counts:
        return
    mine = rec[5] if rec[5] is not None else {}
    for k, v in counts.items():
        mine[k] = mine.get(k, 0) + v
    rec[5] = mine


def flush() -> None:
    """Append this process's buffered records to its span file."""
    if not _S.buf or _S.dir is None:
        return
    lines = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in _S.buf)
    _S.buf = []
    with open(_S.dir / f"{_S.pid}.jsonl", "a", encoding="utf-8") as fh:
        fh.write(lines)


class span:
    """A span opened by the benchmark itself (the op root, for example)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.rec: list | None = None

    def __enter__(self) -> "span":
        if _recording():
            self.rec = _enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        if self.rec is not None:
            _exit(self.rec)


def set_recording(on: bool) -> None:
    """Switch recording for every process that maps the flag file."""
    if _S.flag is not None:
        _S.flag[0] = 1 if on else 0


# -- wrappers -------------------------------------------------------------------


def _wrap(fn, probe: Probe):
    name, counts = probe.span, probe.counts

    if probe.generator:

        def timed_iter(it):
            try:
                while True:
                    rec = _enter(name) if _recording() else None
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if rec is not None:
                            _exit(rec)
                    yield item
            finally:
                close = getattr(it, "close", None)
                if close is not None:
                    close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            return timed_iter(it) if _recording() else it

    elif not probe.timed:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            stack = _stack()
            if stack and _recording():
                # counted into the enclosing span
                _add_counts(stack[-1], counts(args, kwargs, result))
            return result

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _recording():
                return fn(*args, **kwargs)
            rec = _enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                _exit(rec)
                raise
            end = _perf()
            if counts is not None:
                _add_counts(rec, counts(args, kwargs, result))
            _exit(rec, end)
            return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _resolve(target: str):
    """``(owner, attr, raw attribute)`` for a target, or a reason string."""
    modname, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError as exc:
        return f"module {modname} not importable ({exc})"
    parts = qual.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p, None)
        if owner is None:
            return f"{modname}.{'.'.join(parts[:-1])} does not exist"
    attr = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return owner, attr, vars(klass)[attr]
        return f"{owner.__name__}.{attr} does not exist"
    raw = getattr(owner, attr, None)
    if raw is None:
        return f"{modname}.{attr} does not exist"
    return owner, attr, raw


def _rebind_aliases(original, wrapper, package: str) -> list[str]:
    """Point every module-level alias of ``original`` at ``wrapper``."""
    rebound = []
    for mod in list(sys.modules.values()):
        modname = getattr(mod, "__name__", None)
        if not isinstance(modname, str):
            continue
        if modname != package and not modname.startswith(package + "."):
            continue
        d = getattr(mod, "__dict__", None)
        if not isinstance(d, dict):
            continue
        for key, value in list(d.items()):
            if value is original:
                setattr(mod, key, wrapper)
                _S.installed.append((mod, key, original))
                rebound.append(f"{modname}.{key}")
    return rebound


def install(probes, span_dir, flag_file=None) -> dict[str, dict]:
    """Wrap every probe's target; returns ``{target: status}``.

    A status is ``{"span": name, "aliases": [...]}`` for a wrapped target
    or ``{"span": name, "absent": reason}`` when it does not resolve.
    ``flag_file`` (one byte, created by :func:`make_flag`) switches
    recording; without it every wrapped call records.
    """
    _S.dir = Path(span_dir)
    _S.dir.mkdir(parents=True, exist_ok=True)
    if flag_file is not None:
        with open(flag_file, "r+b") as fh:
            _S.flag = mmap.mmap(fh.fileno(), 1)
    status: dict[str, dict] = {}
    for probe in probes:
        got = _resolve(probe.target)
        if isinstance(got, str):
            status[probe.target] = {"span": probe.span, "absent": got}
            continue
        owner, attr, raw = got
        wrapped = isinstance(raw, (classmethod, staticmethod))
        fn = raw.__func__ if wrapped else raw
        if not callable(fn):
            status[probe.target] = {"span": probe.span, "absent": "not callable"}
            continue
        if hasattr(fn, "__perfbench_original__"):
            raise RuntimeError(f"{probe.target} is already wrapped")
        new = type(raw)(_wrap(fn, probe)) if wrapped else _wrap(fn, probe)
        setattr(owner, attr, new)
        _S.installed.append((owner, attr, raw))
        aliases = [f"{getattr(owner, '__name__', owner)}.{attr}"]
        if not isinstance(owner, type):
            package = probe.target.split(".", 1)[0].split(":", 1)[0]
            aliases += [
                a for a in _rebind_aliases(raw, new, package) if a != aliases[0]
            ]
        status[probe.target] = {"span": probe.span, "aliases": aliases}
    return status


def uninstall() -> None:
    """Restore every wrapped attribute (used by tests)."""
    for owner, attr, raw in reversed(_S.installed):
        setattr(owner, attr, raw)
    _S.installed.clear()
    flush()
    _S.dir = None
    if _S.flag is not None:
        _S.flag.close()
        _S.flag = None


def make_flag(path, on: bool = True) -> Path:
    """Create the one-byte recording flag file."""
    path = Path(path)
    path.write_bytes(b"\x01" if on else b"\x00")
    return path


# -- reading spans back ------------------------------------------------------------


def load_records(span_dir) -> list[dict]:
    """Every record of every process: dicts with pid, self and duration."""
    out: list[dict] = []
    for path in sorted(Path(span_dir).glob("*.jsonl")):
        pid = int(path.stem)
        recs = [json.loads(line) for line in path.read_text().splitlines() if line]
        out.extend(self_times(recs, pid))
    return out


def self_times(recs: list[list], pid: int = 0) -> list[dict]:
    """Attach self time (duration minus child durations) to each record."""
    child = {}
    for name, t0, t1, sid, parent, counts in recs:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return [
        {
            "pid": pid,
            "name": name,
            "t0": t0,
            "t1": t1,
            "id": sid,
            "parent": parent,
            "dur": t1 - t0,
            "self": (t1 - t0) - child.get(sid, 0.0),
            "counts": counts or {},
        }
        for name, t0, t1, sid, parent, counts in recs
    ]
