"""The serve daemon's live dashboard (``memgaze serve --dashboard``).

A deliberately small HTTP endpoint written directly on asyncio streams —
no framework, no thread — living in the daemon's event loop next to the
framed protocol listener. Routes:

``GET /``
    Session index: every session visible on disk or open in a shard
    worker, linking to its live view. Auto-refreshes via a meta-refresh
    tag (no JS required to just watch the list).
``GET /view?session=NAME``
    Polling wrapper: an ``<iframe>`` of ``/report`` reloaded on a
    timer. The polling lives *here*, in the wrapper, so ``/report``
    itself stays pure content.
``GET /report?session=NAME``
    The session's current analysis rendered through
    :func:`repro.viz.template.render_html` — the exact template path of
    the offline ``memgaze report --html``. The payload arrives as the
    worker's canonical JSON and is rendered from the parsed dict, and
    canonical JSON round-trips floats exactly, so for a quiesced session
    these bytes equal the offline rendering of the same archive.
``GET /sessions``
    The index's data as JSON (``{"sessions": [...]}``).

The handler speaks minimal HTTP/1.1: it reads one request, answers with
``Content-Length`` and ``Connection: close``, and closes. That is all a
browser, ``curl``, or ``urllib`` needs, and it keeps the attack surface
of what is a loopback diagnostics endpoint small.
"""

from __future__ import annotations

import asyncio
import html
import json
from urllib.parse import parse_qs, urlsplit

from repro.obs.handle import NULL_OBS, Obs

__all__ = ["DashboardServer"]

_INDEX_TMPL = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta http-equiv="refresh" content="3">
<title>memgaze dashboard</title>
<style>
body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 640px; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{ text-align: left; padding: 4px 10px; border-bottom: 1px solid #e0e0e0; }}
.empty {{ color: #777; }}
</style></head><body>
<h1>memgaze live sessions</h1>
{body}
</body></html>
"""

_VIEW_TMPL = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>memgaze live: {name}</title>
<style>
body {{ margin: 0; font: 13px system-ui, sans-serif; }}
header {{ padding: 6px 12px; background: #1c2330; color: #fff; }}
iframe {{ border: 0; width: 100%; height: calc(100vh - 34px); }}
</style></head><body>
<header>live view of session <strong>{name}</strong> — re-rendered every
{interval} s (<a style="color:#9cf" href="/">all sessions</a>)</header>
<iframe id="live" src="/report?session={name}"></iframe>
<script>
setInterval(function () {{
  var f = document.getElementById("live");
  f.src = "/report?session={name}&r=" + Date.now();
}}, {interval} * 1000);
</script>
</body></html>
"""


class DashboardServer:
    """HTTP front end over daemon-provided callbacks.

    ``query(name)`` is an awaitable returning the session's viz payload
    as canonical JSON text (the daemon routes it through the owning
    shard worker's FIFO, so it sees a stable archive). ``sessions()``
    returns ``(all_names, open_names)``. The server owns no analysis
    state of its own — it is a renderer over the query protocol.
    """

    def __init__(self, *, query, sessions, obs: Obs = NULL_OBS) -> None:
        self._query = query
        self._sessions = sessions
        self.obs = obs
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None

    async def start(self, host: str, port: int = 0) -> int:
        """Bind and listen; returns the bound port."""
        self._server = await asyncio.start_server(self._handle, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.obs.emit("dashboard-start", host=host, port=self.port)
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- one request per connection --------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=10.0)
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0], parts[1]
            while True:  # drain headers; we need none of them
                line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            self.obs.counter("serve.dashboard.requests").inc()
            if method != "GET":
                await self._send(writer, 405, "text/plain", b"method not allowed\n")
                return
            status, ctype, body = await self._route(target)
            await self._send(writer, status, ctype, body)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, target: str) -> tuple[int, str, bytes]:
        url = urlsplit(target)
        params = parse_qs(url.query)
        name = (params.get("session") or [None])[0]
        try:
            if url.path == "/":
                return 200, "text/html; charset=utf-8", self._index()
            if url.path == "/sessions":
                names, open_names = self._sessions()
                body = json.dumps(
                    {
                        "sessions": [
                            {"name": n, "open": n in open_names} for n in names
                        ]
                    },
                    indent=2,
                    sort_keys=True,
                ).encode("utf-8")
                return 200, "application/json", body
            if url.path == "/view":
                if not name:
                    return 400, "text/plain", b"missing ?session=NAME\n"
                body = _VIEW_TMPL.format(
                    name=html.escape(name, quote=True), interval=3
                ).encode("utf-8")
                return 200, "text/html; charset=utf-8", body
            if url.path == "/report":
                if not name:
                    return 400, "text/plain", b"missing ?session=NAME\n"
                from repro.viz.template import render_html

                text = await self._query(name)
                page = render_html(json.loads(text))
                return 200, "text/html; charset=utf-8", page.encode("utf-8")
            return 404, "text/plain", b"not found\n"
        except KeyError as exc:
            return 404, "text/plain", f"{exc.args[0]}\n".encode("utf-8")
        except Exception as exc:  # surface, don't kill the daemon loop
            self.obs.counter("serve.dashboard.errors").inc()
            self.obs.warning(
                f"dashboard request failed: {type(exc).__name__}: {exc}",
                path=url.path,
                session=name,
            )
            return 503, "text/plain", f"{type(exc).__name__}: {exc}\n".encode("utf-8")

    def _index(self) -> bytes:
        names, open_names = self._sessions()
        if not names:
            body = '<p class="empty">no sessions yet — stream one with <code>memgaze submit</code></p>'
        else:
            rows = "".join(
                "<tr><td><a href=\"/view?session={n}\">{n}</a></td>"
                "<td>{state}</td></tr>".format(
                    n=html.escape(n, quote=True),
                    state="open" if n in open_names else "on disk",
                )
                for n in names
            )
            body = (
                "<table><thead><tr><th>session</th><th>state</th></tr></thead>"
                f"<tbody>{rows}</tbody></table>"
            )
        return _INDEX_TMPL.format(body=body).encode("utf-8")

    async def _send(self, writer, status: int, ctype: str, body: bytes) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 503: "Service Unavailable"}.get(
            status, "OK"
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        writer.write(body)
        await writer.drain()
