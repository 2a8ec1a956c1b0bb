"""A run leaves no process behind: orphans and the resource tracker are reaped."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = textwrap.dedent(
    """
    import os, sys, time
    from multiprocessing import shared_memory
    from perfbench import procs

    assert procs.become_subreaper()
    seg = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
    seg.close()
    seg.unlink()
    if os.fork() == 0:
        if os.fork() == 0:  # orphaned grandchild, reparented here
            time.sleep(0.5)
            os._exit(0)
        os._exit(0)
    time.sleep(0.1)
    assert procs.children(), "tracker and orphan should be children by now"
    print(procs.reap_all(grace=5.0), procs.children())
    """
)


def test_reap_all_waits_for_orphans_and_the_resource_tracker():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.split("\n")[-2] == "[] []"
