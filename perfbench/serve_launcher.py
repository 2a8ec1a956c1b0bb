"""Start ``memgaze serve`` with the benchmark's span probes installed.

Usage: ``python3 perfbench/serve_launcher.py [--spans DIR --flag FILE]
serve ARGS...``. The probes are installed before the daemon forks its
shard worker, so the worker inherits them; each process appends its own
spans to ``DIR/<pid>.jsonl`` whenever its outermost span closes.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--spans"]:
        from perfbench import layers, spans

        spans.install(layers.PROBES, argv[1], flag_file=argv[3])
        argv = argv[4:]
    from repro.cli import main as memgaze

    return memgaze(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
