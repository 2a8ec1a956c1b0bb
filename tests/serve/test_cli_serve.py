"""Smoke test of the ``memgaze serve`` / ``submit`` / ``query`` verbs.

Boots the daemon as a real subprocess (the way CI's serve-smoke job and
a user would), streams an archive into it, and checks the live query is
byte-identical to the offline report over the session archive.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def test_cli_serve_submit_query_round_trip(tmp_path, make_rng, build_archive, capsys):
    archive = tmp_path / "t.npz"
    build_archive(archive, make_rng(), n_samples=6, per_sample=200, module="cli-mod")
    port_file = tmp_path / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--root", str(tmp_path / "state"),
            "--port", "0",
            "--port-file", str(port_file),
            "--journal", str(tmp_path / "journal.jsonl"),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists():
            assert proc.poll() is None, proc.communicate()[1]
            assert time.monotonic() < deadline, "daemon never wrote the port file"
            time.sleep(0.05)
        port = port_file.read_text().strip()

        assert cli_main(["submit", str(archive), "--port", port]) == 0
        cap = capsys.readouterr()
        assert "submitted 1,200 events in" in cap.out
        assert "session 't'" in cap.out

        assert cli_main(["query", "t", "--port", port, "--verbose"]) == 0
        cap = capsys.readouterr()
        live = cap.out
        assert "# session t: 1 chunks" in cap.err

        session_archive = tmp_path / "state" / "sessions" / "t.npz"
        assert cli_main(["report", str(session_archive), "--json"]) == 0
        offline = capsys.readouterr().out
        assert live == offline, "live query != offline report on the session archive"
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            raise AssertionError(f"daemon ignored SIGTERM\nstderr:\n{err}")
    assert proc.returncode == 0, err
    assert "memgaze serve: listening on 127.0.0.1:" in out
    assert "memgaze serve: stopped" in out


def test_submit_of_a_damaged_archive_is_a_clean_error(tmp_path, make_rng, build_archive):
    """The archive is read before any connection, so no daemon is needed."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "obs"))
    import faults

    archive = tmp_path / "t.npz"
    build_archive(archive, make_rng(), n_samples=6, per_sample=200)
    bad = faults.truncate(archive, tmp_path / "bad.npz")
    with pytest.raises(SystemExit, match="memgaze submit: .*bad.npz"):
        cli_main(["submit", str(bad), "--port", "1"])
