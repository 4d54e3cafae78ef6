"""In-process mock endpoints for the two adapter-supported protocols.

Each mock ships two behavior profiles. The vulnerable profile mirrors
the conformance gaps found at model level, and the hardened profile
remedies exactly those the replay oracles probe, so a correct harness
must flag one and clear the other:

  tool server (mcp): a closed session's token is rejected (P8); directive
      markers in tool output are replaced by "[removed]" (P4); every
      accepted operation but reading the log goes to the audit log that
      ``log/list`` returns (P6; the vulnerable profile logs nothing);
  delegation (a2a): a canceled task's credentials are revoked, so later
      operations on it get 403 (P8); a delegation must stay within the
      delegator's original grant on the agent card (P3); every accepted
      operation but reading the log goes to the audit log that
      ``GET /audit`` returns (P6; the vulnerable profile logs nothing).

Transport choices are harness decisions: the tool-server mock takes
JSON-RPC 2.0 frames as in-process calls (the wire framing is
underspecified upstream, so there is no network transport), and the
delegation mock speaks HTTP/1.1 with JSON bodies on a loopback socket.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

PROFILES = ("vulnerable", "hardened")

# directive markers the hardened tool server strips from tool output
_DIRECTIVE_RE = re.compile(r"<<DIRECTIVE:.*?>>")


class MockError(Exception):
    pass


def _check_profile(profile: str):
    if profile not in PROFILES:
        raise MockError(f"unknown profile {profile!r}; expected {PROFILES}")


# ---------------------------------------------------------------------------
# Tool-server mock: JSON-RPC 2.0 frames as in-process calls

class McpMock:
    """Tool server that answers one JSON-RPC frame per call."""

    def __init__(self, profile: str):
        _check_profile(profile)
        self.profile = profile
        self._next_token = 1
        self._sessions = {}  # token -> "open" | "closed"
        self._audit = []
        self._running = True

    def request(self, rid: int, method: str, params: dict) -> dict:
        """Send one frame and return the decoded reply frame."""
        frame = json.dumps({"jsonrpc": "2.0", "id": rid, "method": method,
                            "params": params}, sort_keys=True)
        return json.loads(self._serve(frame))

    def _reply(self, rid, result=None, error=None) -> str:
        msg = {"jsonrpc": "2.0", "id": rid}
        if error is not None:
            msg["error"] = error
        else:
            msg["result"] = result
        return json.dumps(msg, sort_keys=True)

    def _log(self, method):
        if self.profile == "hardened":
            self._audit.append({"op": method})

    def _authorized(self, params) -> bool:
        token = params.get("token")
        state = self._sessions.get(token)
        if state == "open":
            return True
        # the gap: a closed session's token keeps working
        return self.profile == "vulnerable" and state == "closed"

    def _serve(self, frame: str) -> str:
        req = json.loads(frame)
        rid, method = req.get("id"), req.get("method")
        params = req.get("params", {})
        if not self._running:
            return self._reply(rid, error={"code": -32000,
                                           "message": "server shut down"})
        if method == "initialize":
            token = f"tok-{self._next_token}"
            self._next_token += 1
            self._sessions[token] = "open"
            self._log(method)
            return self._reply(rid, {"protocolVersion": "2025-03-26",
                                     "sessionToken": token})
        if method == "session/close":
            token = params.get("token")
            if token in self._sessions:
                self._sessions[token] = "closed"
            self._log(method)
            return self._reply(rid, {"closed": True})
        if method == "shutdown":
            self._running = False
            self._log(method)
            return self._reply(rid, {"ok": True})
        if not self._authorized(params):
            return self._reply(rid, error={"code": -32001,
                                           "message": "unauthorized"})
        if method == "tools/list":
            self._log(method)
            return self._reply(rid, {"tools": [{"name": "echo"}]})
        if method == "tools/call":
            text = str(params.get("arguments", {}).get("text", ""))
            if self.profile == "hardened":
                text = _DIRECTIVE_RE.sub("[removed]", text)
            self._log(method)
            return self._reply(rid,
                               {"content": [{"type": "text", "text": text}]})
        if method == "log/list":
            return self._reply(rid, {"entries": list(self._audit)})
        return self._reply(rid, error={"code": -32601,
                                       "message": "unknown method"})


# ---------------------------------------------------------------------------
# Delegation mock: HTTP/1.1 + JSON on a loopback socket

_CARD = {
    "name": "mock-agent",
    "skills": ["delegate"],
    "grants": {"ag1": ["c1"], "ag2": []},
}


class _A2aState:
    def __init__(self, profile: str):
        self.profile = profile
        self.tasks = {}  # id -> {"state", "token"}
        self.audit = []
        self.next_task = 1


class _A2aHandler(BaseHTTPRequestHandler):
    state: _A2aState = None

    def log_message(self, fmt, *args):  # keep test output clean
        pass

    def _send(self, code: int, body: dict):
        data = json.dumps(body, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", "0"))
        return json.loads(self.rfile.read(length) or b"{}")

    def _log(self, op):
        if self.state.profile == "hardened":
            self.state.audit.append({"op": op})

    def do_GET(self):
        st = self.state
        if self.path == "/.well-known/agent-card":
            self._log("discover")
            self._send(200, _CARD)
            return
        if self.path == "/audit":
            self._send(200, {"entries": st.audit})
            return
        self._send(404, {"error": "not found"})

    def do_POST(self):
        st = self.state
        body = self._read_body()
        if self.path == "/tasks":
            tid = f"t{st.next_task}"
            st.next_task += 1
            st.tasks[tid] = {"state": "open", "token": f"task-tok-{tid}"}
            self._log("send_task")
            self._send(201, {"id": tid, "state": "open",
                             "token": st.tasks[tid]["token"]})
            return
        m = re.match(r"^/tasks/(\w+)/(delegate|cancel|consent)$", self.path)
        if not m:
            self._send(404, {"error": "not found"})
            return
        tid, op = m.groups()
        task = st.tasks.get(tid)
        if task is None:
            self._send(404, {"error": "unknown task"})
            return
        closed = task["state"] == "canceled"
        if closed and st.profile == "hardened":
            # revoked: the task token no longer authorizes anything
            self._send(403, {"error": "task credentials revoked"})
            return
        if op == "cancel":
            task["state"] = "canceled"
            self._log("cancel")
            self._send(200, {"id": tid, "state": "canceled"})
            return
        if op == "consent":
            self._log("consent")
            self._send(200, {"acknowledged": True})
            return
        # delegate
        src = body.get("from", "")
        cap = body.get("cap", "")
        if st.profile == "hardened" and cap not in set(
                _CARD["grants"].get(src, [])):
            # scope check against the original grant, not transitive holds
            self._send(403, {"error": "capability outside original scope"})
            return
        self._log("delegate")
        self._send(200, {"delegated": True, "cap": cap})


class A2aMock:
    """Delegation endpoint served over real loopback HTTP."""

    def __init__(self, profile: str):
        _check_profile(profile)
        self.profile = profile
        self.state = _A2aState(profile)
        handler = type("Handler", (_A2aHandler,), {"state": self.state})
        self._server = HTTPServer(("127.0.0.1", 0), handler)
        # shutdown() waits for serve_forever to notice it, which takes up
        # to one poll interval (0.5 s by default)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01},
            daemon=True)
        self._thread.start()

    @property
    def address(self):
        return self._server.server_address

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
