"""Dashboard lifecycle: the daemon's live HTML view of its sessions.

``memgaze serve --dashboard`` puts a small HTTP endpoint next to the
framed protocol listener, rendering each session's current analysis
through the *same* template path as the offline ``memgaze report
--html``. These tests pin the contract:

* for a quiesced session the live rendering is byte-identical to the
  offline rendering of the session's archive (the headline acceptance
  criterion);
* the view reflects new submits on the next poll;
* a GET survives a shard-worker crash — the daemon respawns the worker
  and the retry re-opens the session from its surviving archive;
* with ``--dashboard`` off (the default) the daemon opens no HTTP port
  and behaves exactly as before.
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.serve.client import ServeClient, submit_archive
from repro.serve.shard import route_session

_VM_RE = re.compile(
    r'<script type="application/json" id="memgaze-viewmodel">\n(.*?)\n</script>',
    re.DOTALL,
)


def _get(port: int, path: str) -> tuple[int, bytes]:
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.status, resp.read()


def _live_n_events(port: int, session: str) -> int:
    _, body = _get(port, f"/report?session={session}")
    m = _VM_RE.search(body.decode("utf-8"))
    assert m, "live page has no embedded viewmodel"
    vm = json.loads(m.group(1).replace("<\\/", "</"))
    return vm["meta"]["n_events"]


def test_dashboard_off_by_default(serve_harness):
    h, port = serve_harness()
    assert h.server.dashboard_port is None
    with ServeClient(port=port) as client:
        assert client.ping()["type"] == "ok"


def test_live_rendering_matches_offline_bytes(
    serve_harness, build_archive, tmp_path, rng
):
    """Quiesced session: GET /report == ``memgaze report --html``."""
    archive = tmp_path / "in.npz"
    build_archive(archive, rng)
    h, port = serve_harness(dashboard=True)
    dport = h.server.dashboard_port
    assert dport is not None

    submit_archive(archive, port=port, session="alpha")
    status, live = _get(dport, "/report?session=alpha")
    assert status == 200

    session_archive = tmp_path / "serve-state" / "sessions" / "alpha.npz"
    assert session_archive.exists()
    out = tmp_path / "offline.html"
    assert cli_main(["report", str(session_archive), "--html", str(out)]) == 0
    offline = out.read_bytes()
    assert live == offline, (
        "live dashboard rendering is not byte-identical to the offline "
        "--html rendering of the same session archive"
    )


def test_dashboard_reflects_new_submits(
    serve_harness, build_archive, tmp_path, rng
):
    archive = tmp_path / "in.npz"
    events, sample_id, meta = build_archive(archive, rng)
    h, port = serve_harness(dashboard=True)
    dport = h.server.dashboard_port
    half = len(events) // 2  # 12 samples x 400 events: sample-aligned

    with ServeClient(port=port) as client:
        client.open("grow", meta)
        client.append("grow", events[:half], sample_id[:half])
        first = _live_n_events(dport, "grow")
        assert first == half
        client.append("grow", events[half:], sample_id[half:])
        second = _live_n_events(dport, "grow")
        assert second == len(events)
        client.close_session("grow")


def test_dashboard_survives_worker_crash(
    serve_harness, build_archive, tmp_path, rng
):
    archive = tmp_path / "in.npz"
    build_archive(archive, rng)
    h, port = serve_harness(dashboard=True)
    dport = h.server.dashboard_port

    submit_archive(archive, port=port, session="alpha")
    status, before = _get(dport, "/report?session=alpha")
    assert status == 200

    worker = h.server.workers[route_session("alpha", len(h.server.workers))]
    assert "alpha" in worker.sessions  # the GET above re-opened it
    worker.process.kill()
    worker.process.join(timeout=10)

    status, after = _get(dport, "/report?session=alpha")
    assert status == 200
    assert after == before, "post-crash rendering drifted"
    assert worker.restarts == 1


def test_index_sessions_and_view_endpoints(
    serve_harness, build_archive, tmp_path, rng
):
    archive = tmp_path / "in.npz"
    build_archive(archive, rng)
    h, port = serve_harness(dashboard=True)
    dport = h.server.dashboard_port

    submit_archive(archive, port=port, session="alpha")
    status, body = _get(dport, "/sessions")
    assert status == 200
    listed = json.loads(body)["sessions"]
    assert {"name": "alpha", "open": False} in listed

    status, body = _get(dport, "/")
    assert status == 200
    assert b"/view?session=alpha" in body

    status, body = _get(dport, "/view?session=alpha")
    assert status == 200
    assert b"/report?session=alpha" in body  # the polling iframe


def test_dashboard_error_statuses(serve_harness):
    h, port = serve_harness(dashboard=True)
    dport = h.server.dashboard_port

    with pytest.raises(urllib.error.HTTPError) as exc_info:
        _get(dport, "/report?session=nosuch")
    assert exc_info.value.code == 404

    with pytest.raises(urllib.error.HTTPError) as exc_info:
        _get(dport, "/report")
    assert exc_info.value.code == 400

    with pytest.raises(urllib.error.HTTPError) as exc_info:
        _get(dport, "/definitely-not-a-route")
    assert exc_info.value.code == 404


def test_index_skips_stale_temp_archives(serve_harness, build_archive, tmp_path, rng):
    """A worker killed mid-publish leaves ``.<name>.tmp.npz`` behind.

    ``pathlib`` globs match dotfiles, so a plain ``*.npz`` listing shows
    it as a session named ``.alpha.tmp`` — one that querying rejects.
    Only valid session names are listed, and the session's next publish
    replaces its own stale temp file.
    """
    archive = tmp_path / "in.npz"
    build_archive(archive, rng)
    h, port = serve_harness(dashboard=True)
    dport = h.server.dashboard_port

    submit_archive(archive, port=port, session="alpha")
    sessions = tmp_path / "serve-state" / "sessions"
    stale = sessions / ".alpha.tmp.npz"
    stale.write_bytes((sessions / "alpha.npz").read_bytes()[:100])

    status, body = _get(dport, "/sessions")
    assert status == 200
    names = [s["name"] for s in json.loads(body)["sessions"]]
    assert names == ["alpha"]

    submit_archive(archive, port=port, session="alpha")
    assert not stale.exists(), "publish left its stale temp file behind"
    assert sorted(p.name for p in sessions.iterdir()) == ["alpha.npz"]
